#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/ensemble.h"
#include "util/rng.h"

namespace wefr::core {
namespace {

using data::Matrix;

/// A ranker with fixed scores, for controlled ensemble tests.
class FixedRanker final : public FeatureRanker {
 public:
  FixedRanker(std::string name, std::vector<double> scores)
      : name_(std::move(name)), scores_(std::move(scores)) {}
  std::string name() const override { return name_; }
  std::vector<double> score(const data::Matrix&, std::span<const int>,
                            const ml::QuantizedDataset&) const override {
    return scores_;
  }

 private:
  std::string name_;
  std::vector<double> scores_;
};

Matrix dummy_x(std::size_t n, std::size_t nf) { return Matrix(n, nf); }

TEST(Ensemble, AgreementYieldsSameOrder) {
  std::vector<std::unique_ptr<FeatureRanker>> rankers;
  rankers.push_back(std::make_unique<FixedRanker>("a", std::vector<double>{3, 2, 1}));
  rankers.push_back(std::make_unique<FixedRanker>("b", std::vector<double>{30, 20, 10}));
  rankers.push_back(std::make_unique<FixedRanker>("c", std::vector<double>{0.3, 0.2, 0.1}));
  const auto x = dummy_x(5, 3);
  const std::vector<int> y(5, 0);
  const auto res = ensemble_rank(rankers, x, y);
  EXPECT_EQ(res.order, (std::vector<std::size_t>{0, 1, 2}));
  for (bool d : res.discarded) EXPECT_FALSE(d);
  EXPECT_DOUBLE_EQ(res.final_ranking[0], 1.0);
  EXPECT_DOUBLE_EQ(res.final_ranking[2], 3.0);
}

TEST(Ensemble, OutlierRankerDiscarded) {
  // Four agreeing rankers and one exactly reversed.
  std::vector<std::unique_ptr<FeatureRanker>> rankers;
  const std::vector<double> agree = {6, 5, 4, 3, 2, 1};
  const std::vector<double> reversed = {1, 2, 3, 4, 5, 6};
  for (int i = 0; i < 4; ++i)
    rankers.push_back(std::make_unique<FixedRanker>("agree" + std::to_string(i), agree));
  rankers.push_back(std::make_unique<FixedRanker>("outlier", reversed));
  const auto x = dummy_x(4, 6);
  const std::vector<int> y(4, 0);
  const auto res = ensemble_rank(rankers, x, y);
  EXPECT_FALSE(res.discarded[0]);
  EXPECT_FALSE(res.discarded[3]);
  EXPECT_TRUE(res.discarded[4]);
  // Final order must follow the agreeing majority.
  EXPECT_EQ(res.order.front(), 0u);
  EXPECT_EQ(res.order.back(), 5u);
}

TEST(Ensemble, MeanDistanceHigherForOutlier) {
  std::vector<std::unique_ptr<FeatureRanker>> rankers;
  const std::vector<double> agree = {5, 4, 3, 2, 1};
  const std::vector<double> reversed = {1, 2, 3, 4, 5};
  rankers.push_back(std::make_unique<FixedRanker>("a", agree));
  rankers.push_back(std::make_unique<FixedRanker>("b", agree));
  rankers.push_back(std::make_unique<FixedRanker>("c", reversed));
  const auto x = dummy_x(3, 5);
  const std::vector<int> y(3, 0);
  const auto res = ensemble_rank(rankers, x, y);
  EXPECT_GT(res.mean_distance[2], res.mean_distance[0]);
}

TEST(Ensemble, MixedRankingsAverage) {
  std::vector<std::unique_ptr<FeatureRanker>> rankers;
  // a: f0 best; b: f1 best; f2 worst in both.
  rankers.push_back(std::make_unique<FixedRanker>("a", std::vector<double>{3, 2, 1}));
  rankers.push_back(std::make_unique<FixedRanker>("b", std::vector<double>{2, 3, 1}));
  const auto x = dummy_x(3, 3);
  const std::vector<int> y(3, 0);
  const auto res = ensemble_rank(rankers, x, y);
  EXPECT_DOUBLE_EQ(res.final_ranking[0], 1.5);
  EXPECT_DOUBLE_EQ(res.final_ranking[1], 1.5);
  EXPECT_DOUBLE_EQ(res.final_ranking[2], 3.0);
  EXPECT_EQ(res.order[2], 2u);
}

TEST(Ensemble, ThreadedMatchesSequential) {
  util::Rng rng(1);
  Matrix x(300, 5);
  std::vector<int> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    y[i] = i % 4 == 0 ? 1 : 0;
    for (std::size_t f = 0; f < 5; ++f)
      x(i, f) = rng.normal(f == 0 ? y[i] * 3.0 : 0.0, 1.0);
  }
  const auto rankers = make_standard_rankers(3);
  EnsembleOptions seq;
  EnsembleOptions par;
  par.num_threads = 4;
  const auto a = ensemble_rank(rankers, x, y, seq);
  const auto b = ensemble_rank(rankers, x, y, par);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.final_ranking, b.final_ranking);
  EXPECT_EQ(a.discarded, b.discarded);
}

TEST(Ensemble, EndToEndWithRealRankers) {
  util::Rng rng(2);
  Matrix x(600, 6);
  std::vector<int> y(600);
  for (std::size_t i = 0; i < 600; ++i) {
    y[i] = i % 3 == 0 ? 1 : 0;
    x(i, 0) = rng.normal(y[i] * 4.0, 1.0);
    x(i, 1) = rng.normal(y[i] * 2.0, 1.0);
    for (std::size_t f = 2; f < 6; ++f) x(i, f) = rng.normal();
  }
  const auto rankers = make_standard_rankers(7);
  const auto res = ensemble_rank(rankers, x, y);
  ASSERT_EQ(res.order.size(), 6u);
  EXPECT_EQ(res.order[0], 0u);
  EXPECT_EQ(res.order[1], 1u);
  EXPECT_EQ(res.rankings.size(), 5u);
  EXPECT_EQ(res.scores.size(), 5u);
}

/// A ranker that always throws — simulates a numerically exploding
/// learner on degenerate input.
class FailingRanker final : public FeatureRanker {
 public:
  std::string name() const override { return "boom"; }
  std::vector<double> score(const data::Matrix&, std::span<const int>,
                            const ml::QuantizedDataset&) const override {
    throw std::runtime_error("synthetic ranker failure");
  }
};

TEST(Ensemble, FailedRankerIsolatedFromFinalRanking) {
  std::vector<std::unique_ptr<FeatureRanker>> rankers;
  const std::vector<double> agree = {3, 2, 1};
  rankers.push_back(std::make_unique<FixedRanker>("a", agree));
  rankers.push_back(std::make_unique<FixedRanker>("b", agree));
  rankers.push_back(std::make_unique<FailingRanker>());
  const auto x = dummy_x(3, 3);
  const std::vector<int> y(3, 0);
  PipelineDiagnostics diag;
  const auto res = ensemble_rank(rankers, x, y, EnsembleOptions{}, &diag);
  EXPECT_TRUE(res.failed[2]);
  EXPECT_TRUE(res.discarded[2]);
  EXPECT_FALSE(res.failed[0]);
  // The survivors alone define the order, untouched by the failure.
  EXPECT_EQ(res.order, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(diag.rankers_failed, 1u);
  EXPECT_TRUE(diag.has("ranker_failed")) << diag.summary();
}

TEST(Ensemble, AllRankersFailedYieldsNeutralRanking) {
  std::vector<std::unique_ptr<FeatureRanker>> rankers;
  rankers.push_back(std::make_unique<FailingRanker>());
  rankers.push_back(std::make_unique<FailingRanker>());
  const auto x = dummy_x(3, 4);
  const std::vector<int> y(3, 0);
  PipelineDiagnostics diag;
  const auto res = ensemble_rank(rankers, x, y, EnsembleOptions{}, &diag);
  // Neutral ranking: every feature tied, order falls back to identity.
  EXPECT_EQ(res.order, (std::vector<std::size_t>{0, 1, 2, 3}));
  for (double r : res.final_ranking) EXPECT_DOUBLE_EQ(r, 2.5);
  EXPECT_TRUE(diag.has("all_rankers_failed")) << diag.summary();
}

TEST(Ensemble, NonFiniteScoresSanitized) {
  std::vector<std::unique_ptr<FeatureRanker>> rankers;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  rankers.push_back(
      std::make_unique<FixedRanker>("a", std::vector<double>{3, nan, 1}));
  rankers.push_back(std::make_unique<FixedRanker>("b", std::vector<double>{3, 2, 1}));
  const auto x = dummy_x(3, 3);
  const std::vector<int> y(3, 0);
  PipelineDiagnostics diag;
  const auto res = ensemble_rank(rankers, x, y, EnsembleOptions{}, &diag);
  EXPECT_EQ(res.sanitized_scores, 1u);
  EXPECT_EQ(diag.scores_sanitized, 1u);
  EXPECT_DOUBLE_EQ(res.scores[0][1], 0.0);
  // Orderings stay finite and usable.
  for (double r : res.final_ranking) EXPECT_TRUE(std::isfinite(r));
}

TEST(Ensemble, RejectsEmptyAndMismatch) {
  std::vector<std::unique_ptr<FeatureRanker>> none;
  const auto x = dummy_x(2, 2);
  const std::vector<int> y(2, 0);
  EXPECT_THROW(ensemble_rank(none, x, y), std::invalid_argument);

  std::vector<std::unique_ptr<FeatureRanker>> one;
  one.push_back(std::make_unique<FixedRanker>("a", std::vector<double>{1, 2}));
  const std::vector<int> bad(3, 0);
  EXPECT_THROW(ensemble_rank(one, x, bad), std::invalid_argument);
}

TEST(Ensemble, SingleRankerPassesThrough) {
  std::vector<std::unique_ptr<FeatureRanker>> one;
  one.push_back(std::make_unique<FixedRanker>("solo", std::vector<double>{1, 3, 2}));
  const auto x = dummy_x(2, 3);
  const std::vector<int> y(2, 0);
  const auto res = ensemble_rank(one, x, y);
  EXPECT_EQ(res.order, (std::vector<std::size_t>{1, 2, 0}));
  EXPECT_FALSE(res.discarded[0]);
}

}  // namespace
}  // namespace wefr::core
