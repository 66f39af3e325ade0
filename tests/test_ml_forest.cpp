#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "data/matrix.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "util/rng.h"

namespace wefr::ml {
namespace {

using data::Matrix;

void make_blobs(std::size_t n, std::size_t nf, Matrix& x, std::vector<int>& y,
                util::Rng& rng, double gap = 4.0) {
  x = Matrix(n, nf);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = i % 2 == 0 ? 0 : 1;
    x(i, 0) = rng.normal(y[i] == 0 ? 0.0 : gap, 1.0);
    for (std::size_t f = 1; f < nf; ++f) x(i, f) = rng.normal();
  }
}

ForestOptions small_forest() {
  ForestOptions opt;
  opt.num_trees = 25;
  opt.tree.max_depth = 8;
  return opt;
}

TEST(RandomForest, LearnsSeparableData) {
  util::Rng rng(1);
  Matrix x;
  std::vector<int> y;
  make_blobs(500, 4, x, y, rng, 6.0);
  RandomForest forest;
  forest.fit(x, y, small_forest(), rng);
  const auto probs = forest.predict_proba(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.rows(); ++i)
    correct += ((probs[i] >= 0.5 ? 1 : 0) == y[i]) ? 1 : 0;
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(x.rows()), 0.97);
}

TEST(RandomForest, ProbabilitiesInUnitInterval) {
  util::Rng rng(2);
  Matrix x;
  std::vector<int> y;
  make_blobs(200, 3, x, y, rng, 1.0);
  RandomForest forest;
  forest.fit(x, y, small_forest(), rng);
  for (double p : forest.predict_proba(x)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RandomForest, DeterministicForSeed) {
  Matrix x;
  std::vector<int> y;
  util::Rng data_rng(3);
  make_blobs(300, 4, x, y, data_rng);
  RandomForest f1, f2;
  util::Rng r1(7), r2(7);
  f1.fit(x, y, small_forest(), r1);
  f2.fit(x, y, small_forest(), r2);
  for (std::size_t i = 0; i < 30; ++i)
    EXPECT_DOUBLE_EQ(f1.predict_proba(x.row(i)), f2.predict_proba(x.row(i)));
}

TEST(RandomForest, ThreadedMatchesSequential) {
  Matrix x;
  std::vector<int> y;
  util::Rng data_rng(4);
  make_blobs(300, 4, x, y, data_rng);
  ForestOptions seq = small_forest();
  ForestOptions par = small_forest();
  par.num_threads = 4;
  RandomForest fs, fp;
  util::Rng r1(7), r2(7);
  fs.fit(x, y, seq, r1);
  fp.fit(x, y, par, r2);
  for (std::size_t i = 0; i < 30; ++i)
    EXPECT_DOUBLE_EQ(fs.predict_proba(x.row(i)), fp.predict_proba(x.row(i)));
}

TEST(RandomForest, ImpurityImportanceFindsSignal) {
  util::Rng rng(5);
  Matrix x;
  std::vector<int> y;
  make_blobs(600, 6, x, y, rng, 5.0);
  RandomForest forest;
  forest.fit(x, y, small_forest(), rng);
  const auto imp = forest.impurity_importance();
  ASSERT_EQ(imp.size(), 6u);
  double total = 0.0;
  for (double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (std::size_t f = 1; f < 6; ++f) EXPECT_GT(imp[0], imp[f]);
}

TEST(RandomForest, FitRejectsBadInput) {
  RandomForest forest;
  util::Rng rng(7);
  Matrix x(0, 0);
  std::vector<int> y;
  EXPECT_THROW(forest.fit(x, y, small_forest(), rng), std::invalid_argument);
  Matrix x2(3, 1);
  std::vector<int> y2 = {0, 1};
  EXPECT_THROW(forest.fit(x2, y2, small_forest(), rng), std::invalid_argument);
  ForestOptions zero = small_forest();
  zero.num_trees = 0;
  std::vector<int> y3 = {0, 1, 1};
  EXPECT_THROW(forest.fit(x2, y3, zero, rng), std::invalid_argument);
}

TEST(RandomForest, PredictBeforeFitThrows) {
  RandomForest forest;
  const std::vector<double> row = {0.0};
  EXPECT_THROW(forest.predict_proba(row), std::logic_error);
  EXPECT_THROW(forest.impurity_importance(), std::logic_error);
}

TEST(RandomForest, BootstrapFractionShrinksTrees) {
  util::Rng rng(8);
  Matrix x;
  std::vector<int> y;
  make_blobs(400, 3, x, y, rng, 3.0);
  ForestOptions opt = small_forest();
  opt.bootstrap_fraction = 0.1;
  RandomForest forest;
  EXPECT_NO_THROW(forest.fit(x, y, opt, rng));
  EXPECT_EQ(forest.num_trees(), opt.num_trees);
}

TEST(RandomForest, SaveLoadRoundTrip) {
  util::Rng rng(11);
  Matrix x;
  std::vector<int> y;
  make_blobs(300, 4, x, y, rng, 4.0);
  RandomForest forest;
  forest.fit(x, y, small_forest(), rng);

  std::stringstream ss;
  forest.save(ss);
  RandomForest back;
  back.load(ss);
  ASSERT_EQ(back.num_trees(), forest.num_trees());
  ASSERT_EQ(back.num_features(), forest.num_features());
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(back.predict_proba(x.row(i)), forest.predict_proba(x.row(i)));
  }
  // Impurity importance is serialized with the trees.
  EXPECT_EQ(back.impurity_importance(), forest.impurity_importance());
}

TEST(RandomForest, LoadRejectsGarbage) {
  const char* const inputs[] = {
      "",
      "not-a-forest v1 2 3\n",
      "wefr-random-forest v1 1 2\ntree 2 2\n0 1.5 1 2\n",
      // A node that is its own child: a cycle, not a tree.
      "wefr-random-forest v1 1 1\ntree 1 1\n0 1.5 0 0 0.5 0\n0\n",
      // Both children of the root are the same leaf.
      "wefr-random-forest v1 1 1\ntree 3 1\n0 1.5 1 1 0.5 0\n-1 0 -1 -1 0 1\n"
      "-1 0 -1 -1 1 1\n0\n",
      // A tree over one feature in a forest whose header says two.
      "wefr-random-forest v1 1 2\ntree 1 1\n-1 0 -1 -1 0.5 0\n0\n",
      // A split on a feature the tree does not have.
      "wefr-random-forest v1 1 1\ntree 3 1\n5 1.5 1 2 0.5 0\n-1 0 -1 -1 0 1\n"
      "-1 0 -1 -1 1 1\n0\n",
      // Counts no input backs: nothing may be sized from them.
      "wefr-random-forest v1 1000000000000 1\ntree 1 1\n-1 0 -1 -1 0.5 0\n0\n",
      "wefr-random-forest v1 1 1\ntree 2000000000 1\n-1 0 -1 -1 0.5 0\n",
      "wefr-random-forest v1 1 1\ntree 3000000000 1\n-1 0 -1 -1 0.5 0\n0\n",
      "wefr-random-forest v1 1 1000000000000\ntree 1 1000000000000\n-1 0 -1 -1 0.5 0\n0\n",
      // A valid first tree, then a rejected second one.
      "wefr-random-forest v1 2 1\ntree 1 1\n-1 0 -1 -1 0.5 0\n0\ntree 1 1\n0 1.5 0 0 0.5 0\n0\n",
  };
  for (const char* input : inputs) {
    RandomForest forest;
    std::stringstream ss(input);
    EXPECT_THROW(forest.load(ss), std::runtime_error) << input;
    EXPECT_FALSE(forest.trained()) << input;
  }
}

/// Rows of `cols` features, a tenth of the cells NaN, from a fixed seed.
Matrix mutation_eval(std::size_t cols) {
  util::Rng rng(53);
  Matrix x(32, cols);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t f = 0; f < cols; ++f)
      x(i, f) = rng.bernoulli(0.1) ? std::nan("") : rng.normal(1.0, 3.0);
  return x;
}

std::vector<std::uint64_t> score_bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<std::uint64_t>(v[i]);
  return out;
}

// A seeded mutation loop over two small saves: truncations, byte flips,
// digit edits, duplicated lines and splices of the two. Every mutant
// must either throw std::runtime_error and leave the forest it was
// loaded into scoring as before, or load into a forest whose flattened
// scores equal its recursive walk.
TEST(RandomForest, LoadSurvivesSeededMutations) {
  util::Rng rng(51);
  Matrix x;
  std::vector<int> y;
  make_blobs(300, 3, x, y, rng, 1.5);
  ForestOptions opt;
  opt.num_trees = 3;
  opt.tree.max_depth = 4;
  RandomForest a, b;
  a.fit(x, y, opt, rng);
  opt.num_trees = 2;
  opt.tree.max_depth = 3;
  b.fit(x, y, opt, rng);
  std::stringstream sa, sb;
  a.save(sa);
  b.save(sb);
  const std::string save_a = sa.str(), save_b = sb.str();

  const Matrix eval = mutation_eval(3);
  const auto target_bits = score_bits(b.predict_proba(eval));

  std::vector<std::string> mutants;
  // Truncations at every third byte.
  for (std::size_t n = 0; n < save_a.size(); n += 3) mutants.push_back(save_a.substr(0, n));
  // Byte flips: one bit of one byte.
  for (int k = 0; k < 1000; ++k) {
    std::string m = save_a;
    m[rng.uniform_index(m.size())] ^= static_cast<char>(1u << rng.uniform_index(8));
    mutants.push_back(std::move(m));
  }
  // Digit edits: replace, insert before, or delete one digit.
  std::vector<std::size_t> digits;
  for (std::size_t i = 0; i < save_a.size(); ++i)
    if (save_a[i] >= '0' && save_a[i] <= '9') digits.push_back(i);
  for (int k = 0; k < 1000; ++k) {
    std::string m = save_a;
    const std::size_t at = digits[rng.uniform_index(digits.size())];
    const char d = static_cast<char>('0' + rng.uniform_index(10));
    switch (rng.uniform_index(3)) {
      case 0: m[at] = d; break;
      case 1: m.insert(m.begin() + static_cast<std::ptrdiff_t>(at), d); break;
      default: m.erase(at, 1); break;
    }
    mutants.push_back(std::move(m));
  }
  // Each line duplicated in place.
  for (std::size_t begin = 0; begin < save_a.size();) {
    const std::size_t end = save_a.find('\n', begin) + 1;
    mutants.push_back(save_a.substr(0, end) + save_a.substr(begin));
    begin = end;
  }
  // Splices: a prefix of one save, then a suffix of the other.
  for (int k = 0; k < 500; ++k) {
    const bool ab = k % 2 == 0;
    const std::string& head = ab ? save_a : save_b;
    const std::string& tail = ab ? save_b : save_a;
    mutants.push_back(head.substr(0, rng.uniform_index(head.size() + 1)) +
                      tail.substr(rng.uniform_index(tail.size() + 1)));
  }

  std::size_t rejected = 0, loaded = 0;
  for (std::size_t k = 0; k < mutants.size(); ++k) {
    RandomForest forest = b;
    std::stringstream ss(mutants[k]);
    try {
      forest.load(ss);
    } catch (const std::runtime_error&) {
      ++rejected;
      ASSERT_EQ(score_bits(forest.predict_proba(eval)), target_bits) << "mutant " << k;
      continue;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << k << " threw " << e.what() << ":\n" << mutants[k];
    }
    ++loaded;
    const Matrix own = forest.num_features() == eval.cols()
                           ? eval
                           : mutation_eval(forest.num_features());
    std::vector<double> walk(own.rows());
    for (std::size_t r = 0; r < own.rows(); ++r) walk[r] = forest.predict_proba(own.row(r));
    ASSERT_EQ(score_bits(forest.predict_proba(own)), score_bits(walk))
        << "mutant " << k << ":\n" << mutants[k];
  }
  EXPECT_GE(mutants.size(), 3000u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(loaded, 0u);
}

TEST(RandomForest, SaveBeforeFitThrows) {
  RandomForest forest;
  std::stringstream ss;
  EXPECT_THROW(forest.save(ss), std::logic_error);
}

// Property: accuracy improves (or at least is high) as the class gap grows.
class ForestGapProperty : public ::testing::TestWithParam<double> {};

TEST_P(ForestGapProperty, AccuracyScalesWithGap) {
  util::Rng rng(17);
  Matrix x;
  std::vector<int> y;
  make_blobs(400, 3, x, y, rng, GetParam());
  RandomForest forest;
  forest.fit(x, y, small_forest(), rng);
  const auto probs = forest.predict_proba(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.rows(); ++i)
    correct += ((probs[i] >= 0.5 ? 1 : 0) == y[i]) ? 1 : 0;
  const double acc = static_cast<double>(correct) / static_cast<double>(x.rows());
  EXPECT_GT(acc, GetParam() >= 4.0 ? 0.95 : 0.75);
}

INSTANTIATE_TEST_SUITE_P(Gaps, ForestGapProperty, ::testing::Values(2.0, 4.0, 8.0));

// ---------- histogram splitting / parallel inference ----------

/// Coarse features (few distinct values) make the quantizer lossless,
/// so the histogram forest must equal the exact forest bit-for-bit.
void make_grid(std::size_t n, Matrix& x, std::vector<int>& y, util::Rng& rng) {
  x = Matrix(n, 3);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int a = static_cast<int>(rng.uniform_index(10));
    x(i, 0) = static_cast<double>(a);
    x(i, 1) = static_cast<double>(rng.uniform_index(6));
    x(i, 2) = static_cast<double>(rng.uniform_index(4));
    y[i] = a >= 5 ? 1 : 0;
  }
}

TEST(RandomForest, HistogramMatchesExactOnCoarseData) {
  util::Rng data_rng(20);
  Matrix x;
  std::vector<int> y;
  make_grid(600, x, y, data_rng);

  ForestOptions exact = small_forest();
  exact.tree.split_method = SplitMethod::kExact;
  ForestOptions hist = small_forest();
  hist.tree.split_method = SplitMethod::kHistogram;
  RandomForest fe, fh;
  util::Rng r1(11), r2(11);
  fe.fit(x, y, exact, r1);
  fh.fit(x, y, hist, r2);

  std::stringstream se, sh;
  fe.save(se);
  fh.save(sh);
  EXPECT_EQ(se.str(), sh.str());
}

TEST(RandomForest, HistogramCloseToExactOnContinuousData) {
  util::Rng data_rng(21);
  Matrix x;
  std::vector<int> y;
  make_blobs(3000, 4, x, y, data_rng, 2.0);

  ForestOptions exact = small_forest();
  exact.tree.split_method = SplitMethod::kExact;
  ForestOptions hist = small_forest();
  hist.tree.split_method = SplitMethod::kHistogram;
  hist.tree.max_bins = 64;
  RandomForest fe, fh;
  util::Rng r1(13), r2(13);
  fe.fit(x, y, exact, r1);
  fh.fit(x, y, hist, r2);

  const double auc_e = auc(fe.predict_proba(x), y);
  const double auc_h = auc(fh.predict_proba(x), y);
  EXPECT_GT(auc_h, 0.85);
  EXPECT_NEAR(auc_e, auc_h, 0.02);
}

TEST(RandomForest, ParallelPredictMatchesSerial) {
  util::Rng rng(22);
  Matrix x;
  std::vector<int> y;
  make_blobs(700, 4, x, y, rng, 3.0);
  RandomForest forest;
  forest.fit(x, y, small_forest(), rng);
  const auto serial = forest.predict_proba(x);
  const auto parallel = forest.predict_proba(x, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_DOUBLE_EQ(serial[i], parallel[i]);
}

TEST(RandomForest, ThreadedHistogramFitMatchesSequential) {
  util::Rng data_rng(25);
  Matrix x;
  std::vector<int> y;
  make_grid(500, x, y, data_rng);
  ForestOptions seq = small_forest();
  seq.tree.split_method = SplitMethod::kHistogram;
  ForestOptions par = seq;
  par.num_threads = 4;
  RandomForest fs, fp;
  util::Rng r1(41), r2(41);
  fs.fit(x, y, seq, r1);
  fp.fit(x, y, par, r2);
  for (std::size_t i = 0; i < 30; ++i)
    EXPECT_DOUBLE_EQ(fs.predict_proba(x.row(i)), fp.predict_proba(x.row(i)));
}

}  // namespace
}  // namespace wefr::ml
