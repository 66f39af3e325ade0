#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>
#include <vector>

#include "core/pipeline.h"
#include "data/matrix.h"
#include "ml/forest_infer.h"
#include "ml/random_forest.h"
#include "smartsim/generator.h"
#include "util/rng.h"

// Equivalence suite for the flattened forest-inference engine: the
// recursive per-row walk is the oracle, and every batched path — any
// row range or thread count — must land on bit-identical scores.

namespace wefr::ml {
namespace {

using data::Matrix;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

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

Matrix make_eval(std::size_t n, std::size_t nf, util::Rng& rng, double nan_prob = 0.0) {
  Matrix x(n, nf);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < nf; ++f) {
      x(i, f) = rng.bernoulli(nan_prob) ? kNaN : rng.normal(1.0, 3.0);
    }
  }
  return x;
}

/// Oracle: the recursive per-row walk, averaged over trees.
std::vector<double> oracle_scores(const RandomForest& forest, const Matrix& x) {
  std::vector<double> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out[r] = forest.predict_proba(x.row(r));
  return out;
}

void expect_bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "row " << i;
}

/// Scores every row of `x` through the Matrix entry, `batch`
/// consecutive rows per call.
std::vector<double> scores_in_batches(const RandomForest& forest, const Matrix& x,
                                      std::size_t batch) {
  std::vector<double> got;
  got.reserve(x.rows());
  for (std::size_t begin = 0; begin < x.rows(); begin += batch) {
    const std::size_t count = std::min(batch, x.rows() - begin);
    const auto part = forest.predict_proba(x.slice_rows(begin, count));
    got.insert(got.end(), part.begin(), part.end());
  }
  return got;
}

TEST(ForestInfer, BitExactAcrossDepths1To13) {
  util::Rng rng(11);
  Matrix x;
  std::vector<int> y;
  make_blobs(400, 5, x, y, rng, 2.0);
  const Matrix eval = make_eval(301, 5, rng);
  for (int depth = 1; depth <= 13; ++depth) {
    ForestOptions opt;
    opt.num_trees = 8;
    opt.tree.max_depth = depth;
    RandomForest forest;
    util::Rng fit_rng(100 + static_cast<std::uint64_t>(depth));
    forest.fit(x, y, opt, fit_rng);
    ASSERT_NE(forest.flat(), nullptr);
    EXPECT_LE(forest.flat()->max_depth(), depth);
    expect_bit_identical(forest.predict_proba(eval), oracle_scores(forest, eval));
  }
}

TEST(ForestInfer, SingleLeafTrees) {
  // All-one-class labels leave every tree a single leaf; the flat form
  // must still traverse (leaf self-loops) and reproduce the constant.
  util::Rng rng(12);
  Matrix x(60, 3);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t f = 0; f < x.cols(); ++f) x(i, f) = rng.normal();
  std::vector<int> y(60, 1);
  ForestOptions opt;
  opt.num_trees = 5;
  RandomForest forest;
  forest.fit(x, y, opt, rng);
  ASSERT_NE(forest.flat(), nullptr);
  EXPECT_EQ(forest.flat()->max_depth(), 0);
  const Matrix eval = make_eval(17, 3, rng, /*nan_prob=*/0.3);
  const auto got = forest.predict_proba(eval);
  for (double p : got) EXPECT_EQ(p, 1.0);
}

TEST(ForestInfer, AllNaNRowsRouteLikeOracle) {
  util::Rng rng(13);
  Matrix x;
  std::vector<int> y;
  make_blobs(500, 4, x, y, rng);
  RandomForest forest;
  ForestOptions opt;
  opt.num_trees = 12;
  opt.tree.max_depth = 9;
  forest.fit(x, y, opt, rng);

  Matrix eval = make_eval(64, 4, rng, /*nan_prob=*/0.4);
  // Rows 0 and 40: every feature NaN — each split must send them right.
  for (std::size_t f = 0; f < eval.cols(); ++f) {
    eval(0, f) = kNaN;
    eval(40, f) = kNaN;
  }
  expect_bit_identical(forest.predict_proba(eval), oracle_scores(forest, eval));
}

TEST(ForestInfer, BatchSizeInvariance) {
  util::Rng rng(14);
  Matrix x;
  std::vector<int> y;
  make_blobs(600, 6, x, y, rng, 2.5);
  RandomForest forest;
  ForestOptions opt;
  opt.num_trees = 15;
  opt.tree.max_depth = 10;
  forest.fit(x, y, opt, rng);
  const Matrix eval = make_eval(530, 6, rng, /*nan_prob=*/0.1);
  const auto expected = oracle_scores(forest, eval);

  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{256}, eval.rows()}) {
    expect_bit_identical(scores_in_batches(forest, eval, batch), expected);
  }

  // A second forest staging many more active columns, scored on the same
  // thread in turn with the first: each call reuses the thread's stage,
  // grown by the wide forest and then read by the narrow one. Row counts
  // straddle the 16-row walking group and the 512-row block.
  Matrix x_wide;
  std::vector<int> y_wide;
  make_blobs(700, 40, x_wide, y_wide, rng, 1.0);
  RandomForest wide;
  ForestOptions wide_opt;
  wide_opt.num_trees = 12;
  wide_opt.tree.max_depth = 12;
  wide.fit(x_wide, y_wide, wide_opt, rng);
  ASSERT_GT(wide.flat()->num_features(), forest.flat()->num_features());
  const Matrix eval_wide = make_eval(530, 40, rng, /*nan_prob=*/0.1);
  const auto expected_wide = oracle_scores(wide, eval_wide);
  for (std::size_t rows : std::initializer_list<std::size_t>{1, 15, 16, 17, 511, 512, 513}) {
    for (const auto& [f, e, want] :
         {std::tuple{&forest, &eval, &expected}, std::tuple{&wide, &eval_wide, &expected_wide},
          std::tuple{&forest, &eval, &expected}}) {
      const auto got = f->predict_proba(e->slice_rows(0, rows));
      expect_bit_identical(got, std::vector<double>(want->begin(), want->begin() + rows));
    }
  }
}

TEST(ForestInfer, ThreadCountInvariance) {
  util::Rng rng(15);
  Matrix x;
  std::vector<int> y;
  make_blobs(500, 5, x, y, rng);
  RandomForest forest;
  ForestOptions opt;
  opt.num_trees = 10;
  opt.tree.max_depth = 9;
  forest.fit(x, y, opt, rng);
  const Matrix eval = make_eval(700, 5, rng, /*nan_prob=*/0.05);
  const auto expected = oracle_scores(forest, eval);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    expect_bit_identical(forest.predict_proba(eval, threads), expected);
  }
}

TEST(ForestInfer, QuantizedPathMatchesDoublePath) {
  // Histogram-only splitting with a small bin budget keeps each
  // feature's threshold set small (every histogram threshold is a
  // midpoint between two of the <= 16 bins, so at most C(16,2) = 120
  // distinct values per feature) — few enough for a one-byte threshold
  // code, the shape a quantized path would serve. The raw-threshold
  // walk is the only path and must score it bit-exact through every
  // entry point.
  util::Rng rng(17);
  Matrix x;
  std::vector<int> y;
  make_blobs(2500, 4, x, y, rng, 2.0);
  ForestOptions opt;
  opt.num_trees = 10;
  opt.tree.max_depth = 11;
  opt.tree.split_method = SplitMethod::kHistogram;
  opt.tree.exact_node_cutoff = 0;
  opt.tree.max_bins = 16;
  RandomForest forest;
  forest.fit(x, y, opt, rng);
  ASSERT_NE(forest.flat(), nullptr);

  const Matrix eval = make_eval(333, 4, rng, /*nan_prob=*/0.15);
  const auto expected = oracle_scores(forest, eval);
  std::vector<double> acc(eval.rows(), 0.0);
  forest.flat()->accumulate(eval, 0, eval.rows(), acc);
  for (double& v : acc) v /= static_cast<double>(forest.num_trees());
  expect_bit_identical(acc, expected);
  expect_bit_identical(forest.predict_proba(eval), expected);
}

TEST(ForestInfer, ExactSplitForestExceedsCodecAndFallsBack) {
  // Exact split search on thousands of distinct values mints far more
  // than 255 thresholds on the informative feature, more than a
  // one-byte threshold code can hold; the raw-threshold walk carries
  // every threshold as a double and stays bit-exact.
  util::Rng rng(18);
  Matrix x;
  std::vector<int> y;
  make_blobs(3000, 2, x, y, rng, 1.0);
  ForestOptions opt;
  opt.num_trees = 6;
  opt.tree.max_depth = 13;
  opt.tree.split_method = SplitMethod::kExact;
  opt.max_features = 2;
  RandomForest forest;
  forest.fit(x, y, opt, rng);
  ASSERT_NE(forest.flat(), nullptr);
  EXPECT_EQ(forest.flat()->max_depth(), 13);

  const Matrix eval = make_eval(250, 2, rng);
  const auto expected = oracle_scores(forest, eval);
  std::vector<double> acc(eval.rows(), 0.0);
  forest.flat()->accumulate(eval, 0, eval.rows(), acc);
  for (double& v : acc) v /= static_cast<double>(forest.num_trees());
  expect_bit_identical(acc, expected);
}

TEST(ForestInfer, WideForestMatchesRecursiveWalk) {
  // A forest split on at least 100 features, so the 512-row stage
  // spans over 100 columns (> 400 KB), far more than the small forests
  // above. Histogram splitting at 16 bins keeps each feature's
  // thresholds few and shared across trees, the shape of the
  // predictor's low-wear bundle.
  constexpr std::size_t kFeatures = 120;
  util::Rng rng(17);
  Matrix x;
  std::vector<int> y;
  make_blobs(2500, kFeatures, x, y, rng, 2.0);
  // Spread weak signal over every column so the trees split on most.
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t f = 1; f < kFeatures; ++f) x(i, f) += 0.3 * y[i];
  ForestOptions opt;
  opt.num_trees = 10;
  opt.tree.max_depth = 11;
  opt.tree.split_method = SplitMethod::kHistogram;
  opt.tree.exact_node_cutoff = 0;
  opt.tree.max_bins = 16;
  RandomForest forest;
  forest.fit(x, y, opt, rng);
  ASSERT_NE(forest.flat(), nullptr);
  std::size_t split_features = 0;
  for (double v : forest.impurity_importance()) split_features += v > 0.0 ? 1 : 0;
  EXPECT_GE(split_features, 100u);

  const Matrix eval = make_eval(777, kFeatures, rng, /*nan_prob=*/0.1);
  const auto expected = oracle_scores(forest, eval);

  // The matrix entry, serial and fanned out.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    expect_bit_identical(forest.predict_proba(eval, threads), expected);
  }
  // Row slices that split the 512-row stage differently.
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{256}, eval.rows()}) {
    expect_bit_identical(scores_in_batches(forest, eval, batch), expected);
  }
}

TEST(ForestInfer, LoadedForestRebuildsFlatEngine) {
  util::Rng rng(22);
  Matrix x;
  std::vector<int> y;
  make_blobs(300, 4, x, y, rng);
  RandomForest forest;
  ForestOptions opt;
  opt.num_trees = 7;
  forest.fit(x, y, opt, rng);
  std::stringstream ss;
  forest.save(ss);
  RandomForest loaded;
  loaded.load(ss);
  ASSERT_NE(loaded.flat(), nullptr);
  const Matrix eval = make_eval(120, 4, rng, /*nan_prob=*/0.1);
  expect_bit_identical(loaded.predict_proba(eval), oracle_scores(forest, eval));
}

}  // namespace
}  // namespace wefr::ml

namespace wefr::core {
namespace {

TEST(ForestInferPipeline, ScoreFleetThreadAndBatchInvariant) {
  smartsim::SimOptions sopt;
  sopt.num_drives = 300;
  sopt.num_days = 200;
  sopt.seed = 77;
  sopt.afr_scale = 30.0;
  const auto fleet = generate_fleet(smartsim::profile_by_name("MC1"), sopt);

  ExperimentConfig cfg;
  cfg.forest.num_trees = 10;
  cfg.forest.tree.max_depth = 8;
  cfg.negative_keep_prob = 0.1;
  const std::vector<std::size_t> cols = {0, 1, 2, 3};
  const auto pred = train_predictor(fleet, cols, 0, 149, cfg);

  cfg.num_threads = 1;
  const auto serial = score_fleet(fleet, pred, 150, 199, cfg);
  cfg.num_threads = 8;
  const auto parallel = score_fleet(fleet, pred, 150, 199, cfg);
  // Different window chunkings of the same days must splice into the
  // same per-day scores (full-history expansion + bit-identical batch
  // scoring make the boundaries invisible).
  cfg.num_threads = 2;
  const auto first = score_fleet(fleet, pred, 150, 174, cfg);
  const auto second = score_fleet(fleet, pred, 175, 199, cfg);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].scores.size(), parallel[i].scores.size());
    for (std::size_t d = 0; d < serial[i].scores.size(); ++d)
      EXPECT_EQ(serial[i].scores[d], parallel[i].scores[d]);
  }
  // A drive may be eligible in only one sub-window (it fails mid-range),
  // so align the halves to the whole run by drive index and day.
  std::map<std::size_t, const DriveDayScores*> whole_by_drive;
  for (const auto& ds : serial) whole_by_drive[ds.drive_index] = &ds;
  std::size_t spliced = 0;
  for (const auto* half : {&first, &second}) {
    for (const auto& ds : *half) {
      const auto it = whole_by_drive.find(ds.drive_index);
      ASSERT_NE(it, whole_by_drive.end());
      const auto& whole = *it->second;
      ASSERT_GE(ds.first_day, whole.first_day);
      const std::size_t offset = static_cast<std::size_t>(ds.first_day - whole.first_day);
      ASSERT_LE(offset + ds.scores.size(), whole.scores.size());
      for (std::size_t d = 0; d < ds.scores.size(); ++d)
        EXPECT_EQ(ds.scores[d], whole.scores[offset + d]);
      spliced += ds.scores.size();
    }
  }
  EXPECT_GT(spliced, 0u);
}

}  // namespace
}  // namespace wefr::core
