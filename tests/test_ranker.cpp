#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/ensemble.h"
#include "core/ranker.h"
#include "stats/correlation.h"
#include "stats/jindex.h"
#include "stats/ranking.h"
#include "util/rng.h"

namespace wefr::core {
namespace {

using data::Matrix;

/// Columns: 0 strong signal, 1 weak signal, 2-3 noise.
void planted(std::size_t n, Matrix& x, std::vector<int>& y, util::Rng& rng) {
  x = Matrix(n, 4);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = i % 3 == 0 ? 1 : 0;
    x(i, 0) = rng.normal(y[i] * 5.0, 1.0);
    x(i, 1) = rng.normal(y[i] * 1.0, 1.0);
    x(i, 2) = rng.normal();
    x(i, 3) = rng.normal(0.0, 3.0);
  }
}

class AllRankers : public ::testing::TestWithParam<std::size_t> {
 protected:
  static std::vector<std::unique_ptr<FeatureRanker>> rankers_;
  static void SetUpTestSuite() { rankers_ = make_standard_rankers(5); }
  static void TearDownTestSuite() { rankers_.clear(); }
};

std::vector<std::unique_ptr<FeatureRanker>> AllRankers::rankers_;

TEST_P(AllRankers, StrongSignalRankedFirst) {
  util::Rng rng(101);
  Matrix x;
  std::vector<int> y;
  planted(900, x, y, rng);
  const auto& ranker = rankers_[GetParam()];
  const auto scores = ranker->score(x, y);
  ASSERT_EQ(scores.size(), 4u);
  for (std::size_t f = 1; f < 4; ++f)
    EXPECT_GT(scores[0], scores[f]) << ranker->name() << " feature " << f;
}

TEST_P(AllRankers, RankingHasTopRankOne) {
  util::Rng rng(102);
  Matrix x;
  std::vector<int> y;
  planted(600, x, y, rng);
  const auto& ranker = rankers_[GetParam()];
  const auto ranking = ranker->ranking(x, y);
  ASSERT_EQ(ranking.size(), 4u);
  EXPECT_DOUBLE_EQ(ranking[0], 1.0) << ranker->name();
  for (double r : ranking) {
    EXPECT_GE(r, 1.0);
    EXPECT_LE(r, 4.0);
  }
}

TEST_P(AllRankers, NoiseBeatenByWeakSignal) {
  util::Rng rng(103);
  Matrix x;
  std::vector<int> y;
  planted(3000, x, y, rng);
  const auto& ranker = rankers_[GetParam()];
  const auto scores = ranker->score(x, y);
  EXPECT_GT(scores[1], scores[2]) << ranker->name();
}

INSTANTIATE_TEST_SUITE_P(FiveApproaches, AllRankers, ::testing::Values(0u, 1u, 2u, 3u, 4u));

TEST(Rankers, StandardSetNamesAndOrder) {
  const auto rankers = make_standard_rankers();
  ASSERT_EQ(rankers.size(), 5u);
  EXPECT_EQ(rankers[0]->name(), "Pearson");
  EXPECT_EQ(rankers[1]->name(), "Spearman");
  EXPECT_EQ(rankers[2]->name(), "J-index");
  EXPECT_EQ(rankers[3]->name(), "RandomForest");
  EXPECT_EQ(rankers[4]->name(), "XGBoost");
}

TEST(Rankers, DeterministicScores) {
  util::Rng rng(105);
  Matrix x;
  std::vector<int> y;
  planted(400, x, y, rng);
  const auto r1 = make_standard_rankers(9);
  const auto r2 = make_standard_rankers(9);
  for (std::size_t k = 0; k < r1.size(); ++k) {
    EXPECT_EQ(r1[k]->score(x, y), r2[k]->score(x, y)) << r1[k]->name();
  }
}

TEST(Rankers, ConstantFeatureScoresZeroForCorrelations) {
  util::Rng rng(106);
  Matrix x(100, 2);
  std::vector<int> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    y[i] = i % 2;
    x(i, 0) = 5.0;  // constant
    x(i, 1) = rng.normal(y[i] * 3.0, 1.0);
  }
  EXPECT_DOUBLE_EQ(PearsonRanker{}.score(x, y)[0], 0.0);
  EXPECT_DOUBLE_EQ(SpearmanRanker{}.score(x, y)[0], 0.0);
  EXPECT_DOUBLE_EQ(JIndexRanker{}.score(x, y)[0], 0.0);
}

/// The edge cases of rank-based scoring, one per column: heavy ties, a
/// constant, signed zeros, infinities, one NaN, all NaN, and two plain
/// signals. 8 columns, so 600 rows clear score_rankers' 4096-cell bar
/// for its pool.
void edge_columns(std::size_t n, util::Rng& rng, Matrix& x, std::vector<int>& y) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  x = Matrix(n, 8);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = rng.bernoulli(0.3) ? 1 : 0;
    x(i, 0) = static_cast<double>(rng.uniform_index(4) + (y[i] != 0 ? 1 : 0));  // heavy ties
    x(i, 1) = 3.0;                                                             // constant
    x(i, 2) = rng.bernoulli(0.5) ? 0.0 : -0.0;                                 // signed zeros
    if (rng.bernoulli(0.2)) x(i, 2) = y[i] != 0 ? 1.0 : -1.0;
    x(i, 3) = rng.normal(y[i] * 1.0, 1.0);                                     // +-inf
    if (rng.bernoulli(0.05)) x(i, 3) = rng.bernoulli(0.5) ? inf : -inf;
    x(i, 4) = rng.normal(y[i] * 2.0, 1.0);                                     // one NaN
    x(i, 5) = nan;                                                             // all NaN
    x(i, 6) = std::floor(std::exp(rng.normal(y[i] * 1.5, 1.0)) * 10.0);       // wide counter
    x(i, 7) = rng.normal();                                                    // noise
  }
  x(n / 3, 4) = nan;
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<std::uint64_t>(v[i]);
  return out;
}

TEST(Rankers, SharedCodingMatchesOwnCodingOnEdgeColumns) {
  util::Rng rng(109);
  Matrix x_all, x_part;
  std::vector<int> y_all, y_part;
  edge_columns(600, rng, x_all, y_all);
  edge_columns(300, rng, x_part, y_part);
  const RankingPopulation pops[] = {{&x_all, y_all, 0}, {&x_part, y_part, 0}};
  const auto rankers = make_standard_rankers(5);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const auto shared = score_rankers(rankers, pops, threads);
    for (std::size_t p = 0; p < 2; ++p) {
      const Matrix& x = *pops[p].x;
      const std::span<const int> y = pops[p].y;
      for (std::size_t r = 0; r < rankers.size(); ++r) {
        ASSERT_EQ(shared[p].failed[r], 0) << rankers[r]->name() << ": "
                                          << shared[p].failure_reasons[r];
        EXPECT_EQ(bits(shared[p].scores[r]), bits(rankers[r]->score(x, y)))
            << rankers[r]->name() << " population " << p << " threads " << threads;
      }
      // The rank-reading rankers equal the sort-based statistics.
      std::vector<double> yd(y.begin(), y.end());
      const auto yr = stats::fractional_ranks(yd);
      for (std::size_t c = 0; c < x.cols(); ++c) {
        const auto col = x.column(c);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(shared[p].scores[1][c]),
                  std::bit_cast<std::uint64_t>(std::abs(stats::spearman_with_ranks(col, yr))))
            << "Spearman column " << c << " population " << p;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(shared[p].scores[2][c]),
                  std::bit_cast<std::uint64_t>(stats::youden_j_index(col, y)))
            << "J-index column " << c << " population " << p;
      }
    }
  }
}

}  // namespace
}  // namespace wefr::core
