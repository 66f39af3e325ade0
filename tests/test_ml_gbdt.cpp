#include <gtest/gtest.h>

#include "data/matrix.h"
#include "ml/gbdt.h"
#include "ml/metrics.h"
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

/// P(y = 1) for every row of `x`, one recursive walk per row.
std::vector<double> predict_rows(const Gbdt& model, const Matrix& x) {
  std::vector<double> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out[r] = model.predict_proba(x.row(r));
  return out;
}

GbdtOptions small_gbdt() {
  GbdtOptions opt;
  opt.num_rounds = 30;
  opt.max_depth = 3;
  opt.learning_rate = 0.3;
  return opt;
}

TEST(Gbdt, LearnsSeparableData) {
  util::Rng rng(1);
  Matrix x;
  std::vector<int> y;
  make_blobs(500, 4, x, y, rng, 5.0);
  Gbdt model;
  model.fit(x, y, small_gbdt(), rng);
  const auto probs = predict_rows(model, x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.rows(); ++i)
    correct += ((probs[i] >= 0.5 ? 1 : 0) == y[i]) ? 1 : 0;
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(x.rows()), 0.97);
}

TEST(Gbdt, LearnsXor) {
  util::Rng rng(2);
  const std::size_t n = 600;
  Matrix x(n, 2);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int a = rng.bernoulli(0.5) ? 1 : 0;
    const int b = rng.bernoulli(0.5) ? 1 : 0;
    x(i, 0) = a + rng.normal(0, 0.1);
    x(i, 1) = b + rng.normal(0, 0.1);
    y[i] = a ^ b;
  }
  Gbdt model;
  model.fit(x, y, small_gbdt(), rng);
  const auto probs = predict_rows(model, x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i)
    correct += ((probs[i] >= 0.5 ? 1 : 0) == y[i]) ? 1 : 0;
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(n), 0.95);
}

TEST(Gbdt, ProbabilitiesBounded) {
  util::Rng rng(3);
  Matrix x;
  std::vector<int> y;
  make_blobs(200, 3, x, y, rng, 1.0);
  Gbdt model;
  model.fit(x, y, small_gbdt(), rng);
  for (double p : predict_rows(model, x)) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST(Gbdt, GainImportanceFindsSignal) {
  util::Rng rng(4);
  Matrix x;
  std::vector<int> y;
  make_blobs(600, 5, x, y, rng, 5.0);
  Gbdt model;
  model.fit(x, y, small_gbdt(), rng);
  const auto gain = model.gain_importance();
  const auto weight = model.weight_importance();
  const auto combined = model.combined_importance();
  ASSERT_EQ(gain.size(), 5u);
  for (std::size_t f = 1; f < 5; ++f) {
    EXPECT_GT(gain[0], gain[f]);
    EXPECT_GT(combined[0], combined[f]);
  }
  double wsum = 0.0;
  for (double v : weight) wsum += v;
  EXPECT_NEAR(wsum, 1.0, 1e-9);
}

TEST(Gbdt, DeterministicForSeed) {
  Matrix x;
  std::vector<int> y;
  util::Rng data_rng(5);
  make_blobs(300, 3, x, y, data_rng);
  GbdtOptions opt = small_gbdt();
  opt.subsample = 0.8;
  opt.colsample = 0.7;
  Gbdt m1, m2;
  util::Rng r1(9), r2(9);
  m1.fit(x, y, opt, r1);
  m2.fit(x, y, opt, r2);
  for (std::size_t i = 0; i < 30; ++i)
    EXPECT_DOUBLE_EQ(m1.predict_proba(x.row(i)), m2.predict_proba(x.row(i)));
}

TEST(Gbdt, SubsamplingStillLearns) {
  util::Rng rng(6);
  Matrix x;
  std::vector<int> y;
  make_blobs(500, 4, x, y, rng, 5.0);
  GbdtOptions opt = small_gbdt();
  opt.subsample = 0.5;
  opt.colsample = 0.5;
  Gbdt model;
  model.fit(x, y, opt, rng);
  const auto probs = predict_rows(model, x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.rows(); ++i)
    correct += ((probs[i] >= 0.5 ? 1 : 0) == y[i]) ? 1 : 0;
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(x.rows()), 0.9);
}

TEST(Gbdt, AllOneClassStaysCalibrated) {
  util::Rng rng(7);
  Matrix x(50, 2);
  std::vector<int> y(50, 1);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
  }
  Gbdt model;
  model.fit(x, y, small_gbdt(), rng);
  for (double p : predict_rows(model, x)) EXPECT_GT(p, 0.9);
}

TEST(Gbdt, RejectsBadOptions) {
  util::Rng rng(8);
  Matrix x(4, 1);
  std::vector<int> y = {0, 1, 0, 1};
  Gbdt model;
  GbdtOptions opt = small_gbdt();
  opt.subsample = 0.0;
  EXPECT_THROW(model.fit(x, y, opt, rng), std::invalid_argument);
  opt = small_gbdt();
  opt.num_rounds = 0;
  EXPECT_THROW(model.fit(x, y, opt, rng), std::invalid_argument);
  EXPECT_THROW(model.predict_proba(x.row(0)), std::logic_error);
}

// ---------- histogram split search ----------

TEST(Gbdt, HistogramLearnsSeparableData) {
  util::Rng rng(10);
  Matrix x;
  std::vector<int> y;
  make_blobs(500, 4, x, y, rng, 5.0);
  GbdtOptions opt = small_gbdt();
  opt.split_method = SplitMethod::kHistogram;
  Gbdt model;
  model.fit(x, y, opt, rng);
  const auto probs = predict_rows(model, x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.rows(); ++i)
    correct += ((probs[i] >= 0.5 ? 1 : 0) == y[i]) ? 1 : 0;
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(x.rows()), 0.97);
}

TEST(Gbdt, HistogramCloseToExactOnContinuousData) {
  util::Rng data_rng(11);
  Matrix x;
  std::vector<int> y;
  make_blobs(3000, 4, x, y, data_rng, 2.0);
  GbdtOptions exact = small_gbdt();
  exact.split_method = SplitMethod::kExact;
  GbdtOptions hist = small_gbdt();
  hist.split_method = SplitMethod::kHistogram;
  hist.max_bins = 64;
  Gbdt me, mh;
  util::Rng r1(13), r2(13);
  me.fit(x, y, exact, r1);
  mh.fit(x, y, hist, r2);
  const double auc_e = auc(predict_rows(me, x), y);
  const double auc_h = auc(predict_rows(mh, x), y);
  EXPECT_GT(auc_h, 0.85);
  EXPECT_NEAR(auc_e, auc_h, 0.02);
}

TEST(Gbdt, HistogramImportanceFindsSignal) {
  util::Rng rng(12);
  Matrix x;
  std::vector<int> y;
  make_blobs(600, 5, x, y, rng, 5.0);
  GbdtOptions opt = small_gbdt();
  opt.split_method = SplitMethod::kHistogram;
  Gbdt model;
  model.fit(x, y, opt, rng);
  const auto gain = model.gain_importance();
  ASSERT_EQ(gain.size(), 5u);
  for (std::size_t f = 1; f < 5; ++f) EXPECT_GT(gain[0], gain[f]);
}

}  // namespace
}  // namespace wefr::ml
