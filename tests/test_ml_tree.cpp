#include <gtest/gtest.h>

#include <sstream>

#include "data/matrix.h"
#include "ml/metrics.h"
#include "ml/quantize.h"
#include "ml/tree.h"
#include "util/rng.h"

namespace wefr::ml {
namespace {

using data::Matrix;

/// Two well-separated Gaussian blobs on feature 0; feature 1 is noise.
void make_blobs(std::size_t n, Matrix& x, std::vector<int>& y, util::Rng& rng,
                double gap = 4.0) {
  x = Matrix(n, 2);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = i % 2 == 0 ? 0 : 1;
    x(i, 0) = rng.normal(y[i] == 0 ? 0.0 : gap, 1.0);
    x(i, 1) = rng.normal();
  }
}

TEST(DecisionTree, LearnsSeparableData) {
  util::Rng rng(1);
  Matrix x;
  std::vector<int> y;
  make_blobs(400, x, y, rng, 8.0);
  DecisionTree tree;
  tree.fit(x, y, TreeOptions{}, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    correct += ((tree.predict_proba(x.row(i)) >= 0.5 ? 1 : 0) == y[i]) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(x.rows()), 0.98);
}

TEST(DecisionTree, PureNodeIsSingleLeaf) {
  util::Rng rng(2);
  Matrix x(10, 1);
  std::vector<int> y(10, 1);
  for (std::size_t i = 0; i < 10; ++i) x(i, 0) = static_cast<double>(i);
  DecisionTree tree;
  tree.fit(x, y, TreeOptions{}, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict_proba(x.row(0)), 1.0);
}

TEST(DecisionTree, RespectsMaxDepth) {
  util::Rng rng(3);
  Matrix x(512, 1);
  std::vector<int> y(512);
  for (std::size_t i = 0; i < 512; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = static_cast<int>((i / 2) % 2);  // alternating pairs: hard to separate
  }
  TreeOptions opt;
  opt.max_depth = 3;
  DecisionTree tree;
  tree.fit(x, y, opt, rng);
  EXPECT_LE(tree.depth(), 3);
}

TEST(DecisionTree, MinSamplesLeafHonored) {
  util::Rng rng(4);
  Matrix x;
  std::vector<int> y;
  make_blobs(100, x, y, rng);
  TreeOptions opt;
  opt.min_samples_leaf = 40;
  DecisionTree tree;
  tree.fit(x, y, opt, rng);
  // With leaves of >= 40 of 100 samples, at most one split chain.
  EXPECT_LE(tree.node_count(), 7u);
}

TEST(DecisionTree, ConstantFeaturesYieldLeaf) {
  util::Rng rng(5);
  Matrix x(20, 2, 1.0);
  std::vector<int> y(20);
  for (std::size_t i = 0; i < 20; ++i) y[i] = i % 2;
  DecisionTree tree;
  tree.fit(x, y, TreeOptions{}, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_NEAR(tree.predict_proba(x.row(0)), 0.5, 1e-12);
}

TEST(DecisionTree, ImportanceConcentratesOnSignal) {
  util::Rng rng(6);
  Matrix x;
  std::vector<int> y;
  make_blobs(600, x, y, rng, 6.0);
  DecisionTree tree;
  tree.fit(x, y, TreeOptions{}, rng);
  const auto& imp = tree.impurity_importance();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_GT(imp[0], 10.0 * imp[1]);
}

TEST(DecisionTree, BootstrapIndicesWithRepeats) {
  util::Rng rng(7);
  Matrix x;
  std::vector<int> y;
  make_blobs(50, x, y, rng, 8.0);
  std::vector<std::size_t> idx(50, 3);  // degenerate bootstrap: one sample
  DecisionTree tree;
  tree.fit(x, y, idx, TreeOptions{}, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict_proba(x.row(3)), static_cast<double>(y[3]));
}

TEST(DecisionTree, ThrowsBeforeFitAndOnBadInput) {
  DecisionTree tree;
  const std::vector<double> row = {0.0};
  EXPECT_THROW(tree.predict_proba(row), std::logic_error);
  util::Rng rng(8);
  Matrix x(2, 1);
  std::vector<int> y = {0};
  EXPECT_THROW(tree.fit(x, y, TreeOptions{}, rng), std::invalid_argument);
}

TEST(DecisionTree, DeterministicForSeed) {
  util::Rng rng1(9), rng2(9);
  Matrix x;
  std::vector<int> y;
  util::Rng data_rng(10);
  make_blobs(200, x, y, data_rng);
  TreeOptions opt;
  opt.max_features = 1;  // makes the rng matter
  DecisionTree t1, t2;
  t1.fit(x, y, opt, rng1);
  t2.fit(x, y, opt, rng2);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(t1.predict_proba(x.row(i)), t2.predict_proba(x.row(i)));
  }
}

TEST(DecisionTree, XorNeedsDepthTwo) {
  util::Rng rng(11);
  const std::size_t n = 400;
  Matrix x(n, 2);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int a = rng.bernoulli(0.5) ? 1 : 0;
    const int b = rng.bernoulli(0.5) ? 1 : 0;
    x(i, 0) = a + rng.normal(0, 0.1);
    x(i, 1) = b + rng.normal(0, 0.1);
    y[i] = a ^ b;
  }
  DecisionTree tree;
  tree.fit(x, y, TreeOptions{}, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    correct += ((tree.predict_proba(x.row(i)) >= 0.5 ? 1 : 0) == y[i]) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(n), 0.95);
  EXPECT_GE(tree.depth(), 2);
}

// ---------- histogram vs exact splitter ----------

std::string tree_dump(const DecisionTree& t) {
  std::ostringstream os;
  t.save(os);
  return os.str();
}

/// Noisy integer-grid data: every feature has <= 12 distinct values, so
/// the quantizer gives each value its own bin and the histogram split
/// search must reproduce the exact splitter's thresholds verbatim.
void make_grid(std::size_t n, Matrix& x, std::vector<int>& y, util::Rng& rng) {
  x = Matrix(n, 3);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int a = static_cast<int>(rng.uniform_index(12));
    const int b = static_cast<int>(rng.uniform_index(8));
    x(i, 0) = static_cast<double>(a);
    x(i, 1) = static_cast<double>(b);
    x(i, 2) = static_cast<double>(rng.uniform_index(5));
    y[i] = (a >= 6) ^ (b >= 4 && rng.bernoulli(0.3)) ? 1 : 0;
  }
}

TEST(DecisionTree, HistogramMatchesExactOnCoarseData) {
  util::Rng data_rng(21);
  Matrix x;
  std::vector<int> y;
  make_grid(800, x, y, data_rng);

  TreeOptions exact, hist;
  exact.split_method = SplitMethod::kExact;
  hist.split_method = SplitMethod::kHistogram;
  util::Rng r1(5), r2(5);
  DecisionTree te, th;
  te.fit(x, y, exact, r1);
  th.fit(x, y, hist, r2);
  EXPECT_EQ(tree_dump(te), tree_dump(th));
  for (std::size_t i = 0; i < x.rows(); ++i)
    EXPECT_DOUBLE_EQ(te.predict_proba(x.row(i)), th.predict_proba(x.row(i)));
}

TEST(DecisionTree, AutoRoutesByCutoff) {
  util::Rng data_rng(22);
  Matrix x;
  std::vector<int> y;
  make_grid(600, x, y, data_rng);

  TreeOptions lo, hi, hist, exact;
  lo.split_method = SplitMethod::kAuto;
  lo.histogram_cutoff = 1;  // everything goes histogram
  hi.split_method = SplitMethod::kAuto;
  hi.histogram_cutoff = 100000;  // everything stays exact
  hist.split_method = SplitMethod::kHistogram;
  exact.split_method = SplitMethod::kExact;

  util::Rng r(9);
  DecisionTree t_lo, t_hi, t_hist, t_exact;
  t_lo.fit(x, y, lo, r);
  t_hi.fit(x, y, hi, r);
  t_hist.fit(x, y, hist, r);
  t_exact.fit(x, y, exact, r);
  EXPECT_EQ(tree_dump(t_lo), tree_dump(t_hist));
  EXPECT_EQ(tree_dump(t_hi), tree_dump(t_exact));
}

TEST(DecisionTree, SharedQuantizedMatchesLocalQuantization) {
  util::Rng data_rng(23);
  Matrix x;
  std::vector<int> y;
  make_grid(500, x, y, data_rng);
  QuantizedDataset q;
  q.build(x, 256);

  std::vector<std::size_t> idx(x.rows());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  TreeOptions opt;
  opt.split_method = SplitMethod::kHistogram;
  util::Rng r1(3), r2(3);
  DecisionTree shared, local;
  shared.fit(x, y, idx, opt, r1, &q);
  local.fit(x, y, idx, opt, r2, nullptr);
  EXPECT_EQ(tree_dump(shared), tree_dump(local));
}

TEST(DecisionTree, SharedQuantizedShapeMismatchThrows) {
  util::Rng data_rng(24);
  Matrix x;
  std::vector<int> y;
  make_grid(100, x, y, data_rng);
  Matrix other(100, 1, 0.0);
  QuantizedDataset q;
  q.build(other);
  std::vector<std::size_t> idx(x.rows());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  TreeOptions opt;
  opt.split_method = SplitMethod::kHistogram;
  util::Rng r(3);
  DecisionTree t;
  EXPECT_THROW(t.fit(x, y, idx, opt, r, &q), std::invalid_argument);
}

TEST(DecisionTree, HistogramCloseToExactOnContinuousData) {
  // Continuous features exceed the bin budget, so the trees differ —
  // but the learned ranking should be nearly as good.
  util::Rng data_rng(25);
  Matrix x;
  std::vector<int> y;
  make_blobs(4000, x, y, data_rng, 2.0);

  TreeOptions exact, hist;
  exact.split_method = SplitMethod::kExact;
  hist.split_method = SplitMethod::kHistogram;
  hist.max_bins = 64;
  util::Rng r1(7), r2(7);
  DecisionTree te, th;
  te.fit(x, y, exact, r1);
  th.fit(x, y, hist, r2);

  std::vector<double> pe(x.rows()), ph(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    pe[i] = te.predict_proba(x.row(i));
    ph[i] = th.predict_proba(x.row(i));
  }
  const double auc_e = auc(pe, y);
  const double auc_h = auc(ph, y);
  EXPECT_GT(auc_h, 0.8);
  EXPECT_NEAR(auc_e, auc_h, 0.02);
}

}  // namespace
}  // namespace wefr::ml
