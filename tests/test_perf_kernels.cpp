// Equivalence tests for the streaming hot-path kernels: every fast path
// introduced by the perf work is checked against its retained naive
// reference on randomized inputs — bit-exact for the monotonic-deque and
// merge-sort kernels, 1e-9 relative for the running-sum kernels — plus
// thread-count determinism for the parallel fan-outs. These carry the
// `perf` ctest label (ctest -L perf) so the whole family runs as one
// fast smoke.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/auto_select.h"
#include "core/ensemble.h"
#include "core/pipeline.h"
#include "core/ranker.h"
#include "core/wefr.h"
#include "data/labeling.h"
#include "data/window_features.h"
#include "obs/context.h"
#include "smartsim/generator.h"
#include "stats/complexity.h"
#include "stats/kendall.h"
#include "stats/ranking.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "kendall_naive.h"

namespace wefr {
namespace {

// --- helpers -------------------------------------------------------------

/// Bitwise double equality (NaN == NaN, distinguishes -0.0 from 0.0).
bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

data::Matrix random_series(util::Rng& rng, std::size_t days, std::size_t cols) {
  data::Matrix m(days, cols);
  for (std::size_t d = 0; d < days; ++d)
    for (std::size_t c = 0; c < cols; ++c) {
      // Mix of scales plus repeated values so windows hit genuine ties.
      const double v = rng.bernoulli(0.2) ? static_cast<double>(rng.uniform_int(-3, 3))
                                          : rng.normal(0.0, 100.0);
      m(d, c) = v;
    }
  return m;
}

/// Compares streaming vs naive expansion. Identity/max/min/range columns
/// must be bit-identical, and so must every stat of a window still
/// growing (day d < w), whose folds replay the rescan's; otherwise
/// mean/wma within 1e-9 relative; std within 1e-9 relative plus a
/// scale-aware absolute term — both kernels compute variance as
/// sum2/n - mean^2, whose cancellation quantizes near-zero variances at
/// ~ulp(scale^2), so two correct implementations can land on different
/// quanta (std differing by ~sqrt(ulp) * scale).
void expect_expansion_equivalent(const data::Matrix& series,
                                 const std::vector<std::size_t>& base_cols,
                                 const data::WindowFeatureConfig& cfg) {
  const data::Matrix fast = data::expand_series(series, base_cols, cfg);
  const data::Matrix ref = data::expand_series_naive(series, base_cols, cfg);
  ASSERT_EQ(fast.rows(), ref.rows());
  ASSERT_EQ(fast.cols(), ref.cols());
  const std::size_t factor = data::expansion_factor(cfg);
  std::vector<double> scale(base_cols.size(), 0.0);
  for (std::size_t b = 0; b < base_cols.size(); ++b)
    for (std::size_t d = 0; d < series.rows(); ++d)
      scale[b] = std::max(scale[b], std::abs(series(d, base_cols[b])));
  for (std::size_t d = 0; d < ref.rows(); ++d) {
    for (std::size_t c = 0; c < ref.cols(); ++c) {
      // Column layout per base feature: identity, then per window
      // {max, min, mean, std, range, wma}.
      const std::size_t within = c % factor;
      const std::size_t stat = within == 0 ? 0 : (within - 1) % 6;
      const bool growing =
          within != 0 && d < static_cast<std::size_t>(cfg.windows[(within - 1) / 6]);
      const bool exact = within == 0 || stat == 0 || stat == 1 || stat == 4 || growing;
      const double f = fast(d, c), r = ref(d, c);
      const double s = scale[c / factor];
      if (exact) {
        EXPECT_TRUE(bit_equal(f, r)) << "day " << d << " col " << c << ": streaming " << f
                                     << " vs naive " << r;
      } else if (stat == 3) {  // std
        const double tol = 1e-9 * std::max(1.0, std::abs(r)) + 1e-7 * s;
        EXPECT_NEAR(f, r, tol) << "day " << d << " col " << c;
      } else {  // mean, wma
        const double tol = 1e-9 * std::max(1.0, std::abs(r)) + 1e-12 * s;
        EXPECT_NEAR(f, r, tol) << "day " << d << " col " << c;
      }
    }
  }
}

/// Checks the day-list expansion against the all-days one: output row i
/// must equal row days[i] of the full expansion bit for bit, both from
/// the Matrix entry and written into the middle of a caller's block.
void expect_day_list_matches_full(const data::Matrix& series,
                                  const std::vector<std::size_t>& base_cols,
                                  const data::WindowFeatureConfig& cfg,
                                  const std::vector<std::size_t>& days) {
  const data::Matrix full = data::expand_series(series, base_cols, cfg);
  const data::Matrix listed = data::expand_series(series, base_cols, days, cfg);
  ASSERT_EQ(listed.rows(), days.size());
  ASSERT_EQ(listed.cols(), full.cols());
  const std::size_t width = full.cols();
  // Two guard rows on each side of the block must stay untouched.
  std::vector<double> block((days.size() + 4) * width, -7.25);
  data::expand_series_into(series, base_cols, days, cfg,
                           std::span<double>(block).subspan(2 * width, days.size() * width));
  for (std::size_t i = 0; i < days.size(); ++i)
    for (std::size_t c = 0; c < width; ++c) {
      EXPECT_TRUE(bit_equal(listed(i, c), full(days[i], c)))
          << "row " << i << " (day " << days[i] << ") col " << c;
      EXPECT_TRUE(bit_equal(block[(i + 2) * width + c], full(days[i], c)))
          << "block row " << i << " (day " << days[i] << ") col " << c;
    }
  for (std::size_t g = 0; g < 2 * width; ++g) {
    EXPECT_EQ(block[g], -7.25);
    EXPECT_EQ(block[block.size() - 1 - g], -7.25);
  }
}

/// A spread of day lists over a series of `days` rows: empty, one day,
/// the tail, a non-contiguous stride, and a shuffled list with repeats.
std::vector<std::vector<std::size_t>> day_lists(std::size_t days) {
  std::vector<std::vector<std::size_t>> lists = {{}, {days - 1}, {0}};
  std::vector<std::size_t> tail, stride;
  for (std::size_t d = days / 2; d < days; ++d) tail.push_back(d);
  for (std::size_t d = 1; d < days; d += 3) stride.push_back(d);
  lists.push_back(tail);
  lists.push_back(stride);
  lists.push_back({days - 1, days / 3, days / 3, 0});
  return lists;
}

// --- streaming rolling-window kernels ------------------------------------

TEST(PerfKernels, StreamingExpansionMatchesNaiveAcrossWindowSizes) {
  util::Rng rng(20260806);
  // Window sets deliberately include w == 1 (degenerate), the defaults,
  // overlapping larger windows, and w > days (never slides).
  const std::vector<std::vector<int>> window_sets = {
      {1}, {3, 7}, {7, 14, 30}, {1, 2, 64}, {200}};
  for (const auto& windows : window_sets) {
    for (const std::size_t days : {1u, 2u, 7u, 40u, 150u}) {
      data::WindowFeatureConfig cfg;
      cfg.windows = windows;
      const data::Matrix series = random_series(rng, days, 4);
      const std::vector<std::size_t> base_cols = {0, 2, 3};
      SCOPED_TRACE("days=" + std::to_string(days) +
                   " first_window=" + std::to_string(windows[0]));
      expect_expansion_equivalent(series, base_cols, cfg);
      for (const auto& list : day_lists(days))
        expect_day_list_matches_full(series, base_cols, cfg, list);
    }
  }
}

TEST(PerfKernels, DayListExpansionMatchesFullRowsBitwise) {
  util::Rng rng(4711);
  for (const std::vector<int>& windows : {std::vector<int>{3, 7}, std::vector<int>{7, 14, 30}}) {
    data::WindowFeatureConfig cfg;
    cfg.windows = windows;
    // 1 day, shorter than the longest window, and long enough to slide.
    for (const std::size_t days : {1u, 5u, 29u, 90u}) {
      data::Matrix series = random_series(rng, days, 4);
      // Column 1 holds a NaN (naive kernel for the whole column) — after
      // the listed days too, so the kernel choice must see past them.
      series(days - 1, 1) = std::numeric_limits<double>::quiet_NaN();
      SCOPED_TRACE("days=" + std::to_string(days) + " windows=" + std::to_string(windows.size()));
      for (const auto& list : day_lists(days))
        expect_day_list_matches_full(series, {0, 1, 3}, cfg, list);
    }
  }
}

TEST(PerfKernels, DayListExpansionRejectsBadInput) {
  util::Rng rng(3);
  const data::Matrix series = random_series(rng, 10, 2);
  const std::vector<std::size_t> base_cols = {0, 1};
  const std::vector<std::size_t> out_of_range = {2, 10};
  EXPECT_THROW(data::expand_series(series, base_cols, out_of_range), std::out_of_range);
  const std::vector<std::size_t> days = {1, 2};
  std::vector<double> small(2 * 2 * data::expansion_factor() - 1);
  EXPECT_THROW(data::expand_series_into(series, base_cols, days, {}, small),
               std::invalid_argument);
  const std::vector<std::size_t> none;
  EXPECT_EQ(data::expand_series(series, base_cols, none).rows(), 0u);
}

TEST(PerfKernels, StreamingExpansionConstantAndAdversarialColumns) {
  data::WindowFeatureConfig cfg;
  cfg.windows = {3, 7};
  data::Matrix series(60, 3);
  util::Rng rng(7);
  for (std::size_t d = 0; d < series.rows(); ++d) {
    series(d, 0) = 42.0;                                  // constant
    series(d, 1) = (d % 2 == 0) ? 1e12 : -1e12;           // alternating extremes
    series(d, 2) = static_cast<double>(series.rows() - d);  // strictly decreasing
  }
  const std::vector<std::size_t> base_cols = {0, 1, 2};
  expect_expansion_equivalent(series, base_cols, cfg);
}

TEST(PerfKernels, NanHoleColumnsFallBackToNaiveBitwise) {
  util::Rng rng(99);
  data::Matrix series = random_series(rng, 50, 3);
  // Poke NaN holes into column 1 only; columns 0 and 2 stay streaming.
  for (const std::size_t d : {0u, 13u, 14u, 49u})
    series(d, 1) = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::size_t> base_cols = {0, 1, 2};
  const std::vector<std::size_t> finite_cols = {0, 2};
  // A non-contiguous day list with a repeat.
  std::vector<std::size_t> listed = {31, 7};
  for (std::size_t d = 2; d < series.rows(); d += 5) listed.push_back(d);
  for (const std::vector<int>& windows : {std::vector<int>{3, 7}, std::vector<int>{7, 14, 30}}) {
    data::WindowFeatureConfig cfg;
    cfg.windows = windows;
    SCOPED_TRACE("windows=" + std::to_string(windows.size()));
    const data::Matrix fast = data::expand_series(series, base_cols, cfg);
    const data::Matrix ref = data::expand_series_naive(series, base_cols, cfg);
    ASSERT_EQ(fast.rows(), ref.rows());
    ASSERT_EQ(fast.cols(), ref.cols());
    const std::size_t factor = data::expansion_factor(cfg);
    // The NaN column (base index 1 -> expanded columns [factor, 2*factor))
    // must match the naive kernel bit for bit, NaNs included.
    for (std::size_t d = 0; d < ref.rows(); ++d)
      for (std::size_t c = factor; c < 2 * factor; ++c)
        EXPECT_TRUE(bit_equal(fast(d, c), ref(d, c)))
            << "day " << d << " col " << c << ": " << fast(d, c) << " vs " << ref(d, c);

    // The finite columns beside it are bit-equal to the same columns
    // expanded without it, over all days and over the day list.
    const data::Matrix alone = data::expand_series(series, finite_cols, cfg);
    const data::Matrix listed_fast = data::expand_series(series, base_cols, listed, cfg);
    const data::Matrix listed_alone = data::expand_series(series, finite_cols, listed, cfg);
    for (std::size_t k = 0; k < finite_cols.size(); ++k)
      for (std::size_t o = 0; o < factor; ++o) {
        const std::size_t with = finite_cols[k] * factor + o, without = k * factor + o;
        for (std::size_t d = 0; d < series.rows(); ++d)
          EXPECT_TRUE(bit_equal(fast(d, with), alone(d, without)))
              << "day " << d << " col " << with;
        for (std::size_t i = 0; i < listed.size(); ++i)
          EXPECT_TRUE(bit_equal(listed_fast(i, with), listed_alone(i, without)))
              << "row " << i << " (day " << listed[i] << ") col " << with;
      }
  }
}

TEST(PerfKernels, ExpansionOfSuffixSliceMatchesFullHistoryWhereWindowsFull) {
  // Sanity for the system-level invariance fix: once every window is
  // full, a slice carrying max_win-1 days of history reproduces the
  // full-history values to rounding; build_samples/score_fleet go
  // further and always expand the full history for bit-exactness.
  util::Rng rng(1234);
  const data::Matrix series = random_series(rng, 80, 2);
  data::WindowFeatureConfig cfg;
  cfg.windows = {3, 7};
  const std::vector<std::size_t> base_cols = {0, 1};
  const data::Matrix full = data::expand_series(series, base_cols, cfg);
  const std::size_t begin = 30;
  const data::Matrix sliced = series.slice_rows(begin - 6, series.rows() - (begin - 6));
  const data::Matrix part = data::expand_series(sliced, base_cols, cfg);
  for (std::size_t d = begin; d < series.rows(); ++d)
    for (std::size_t c = 0; c < full.cols(); ++c)
      EXPECT_NEAR(part(d - (begin - 6), c), full(d, c),
                  1e-9 * std::max(1.0, std::abs(full(d, c))));
}

// --- merge-sort Kendall tau ----------------------------------------------

std::vector<double> random_ranking(util::Rng& rng, std::size_t n, bool with_nan) {
  // Scores drawn from a small integer range produce heavy ties, which
  // ranking_from_scores turns into fractional tied ranks.
  std::vector<double> scores(n);
  for (auto& s : scores) s = static_cast<double>(rng.uniform_int(0, 6));
  auto ranks = stats::ranking_from_scores(scores);
  if (with_nan)
    for (auto& r : ranks)
      if (rng.bernoulli(0.1)) r = std::numeric_limits<double>::quiet_NaN();
  return ranks;
}

TEST(PerfKernels, MergeSortKendallMatchesNaiveWithTies) {
  util::Rng rng(555);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t n = 1 + rng.uniform_index(120);
    const auto a = random_ranking(rng, n, /*with_nan=*/false);
    const auto b = random_ranking(rng, n, /*with_nan=*/false);
    EXPECT_EQ(stats::kendall_tau_distance(a, b), stats::kendall_tau_distance_naive(a, b))
        << "rep " << rep << " n " << n;
    // The shared-sort-cache variant must agree too.
    const auto order_a = stats::argsort_ascending(a);
    EXPECT_EQ(stats::kendall_tau_distance_presorted(a, b, order_a),
              stats::kendall_tau_distance_naive(a, b));
  }
}

TEST(PerfKernels, MergeSortKendallMatchesNaiveWithNanHoles) {
  util::Rng rng(777);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t n = 1 + rng.uniform_index(80);
    const auto a = random_ranking(rng, n, /*with_nan=*/true);
    const auto b = random_ranking(rng, n, /*with_nan=*/true);
    EXPECT_EQ(stats::kendall_tau_distance(a, b), stats::kendall_tau_distance_naive(a, b))
        << "rep " << rep << " n " << n;
  }
}

TEST(PerfKernels, KendallKnownValuesAndEdgeCases) {
  const std::vector<double> empty;
  EXPECT_EQ(stats::kendall_tau_distance(empty, empty), 0u);
  const std::vector<double> one = {1.0};
  EXPECT_EQ(stats::kendall_tau_distance(one, one), 0u);
  const std::vector<double> asc = {1, 2, 3, 4};
  const std::vector<double> desc = {4, 3, 2, 1};
  EXPECT_EQ(stats::kendall_tau_distance(asc, desc), 6u);  // all C(4,2) pairs flip
  EXPECT_EQ(stats::kendall_tau_distance(asc, asc), 0u);
}

TEST(PerfKernels, RankCachePrimitivesMatchDirectComputation) {
  util::Rng rng(31337);
  std::vector<double> xs(200);
  for (auto& x : xs) x = static_cast<double>(rng.uniform_int(0, 9));
  const auto order = stats::argsort_ascending(xs);
  const auto direct = stats::fractional_ranks(xs);
  const auto cached = stats::fractional_ranks_from_order(xs, order);
  ASSERT_EQ(direct.size(), cached.size());
  for (std::size_t i = 0; i < direct.size(); ++i) EXPECT_DOUBLE_EQ(direct[i], cached[i]);
}

// --- thread-count determinism --------------------------------------------

/// Small but non-degenerate selection problem: a few informative
/// columns, a few noise columns, heavy-tailed scales.
struct RankerProblem {
  data::Matrix x;
  std::vector<int> y;
};

RankerProblem make_problem(std::uint64_t seed, std::size_t rows = 240,
                           std::size_t cols = 12) {
  util::Rng rng(seed);
  RankerProblem p;
  p.x = data::Matrix(rows, cols);
  p.y.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const int label = rng.bernoulli(0.3) ? 1 : 0;
    p.y[r] = label;
    for (std::size_t c = 0; c < cols; ++c) {
      const double signal = c < 4 ? 2.0 * label * static_cast<double>(c + 1) : 0.0;
      p.x(r, c) = signal + rng.normal(0.0, 1.0 + static_cast<double>(c));
    }
  }
  return p;
}

TEST(PerfKernels, RankerScoresInvariantAcrossThreadCounts) {
  const RankerProblem p = make_problem(42);
  const auto base = core::make_standard_rankers(/*seed=*/7, /*num_threads=*/0);
  std::vector<std::vector<double>> reference;
  for (const auto& r : base) reference.push_back(r->score(p.x, p.y));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto rankers = core::make_standard_rankers(/*seed=*/7, threads);
    ASSERT_EQ(rankers.size(), base.size());
    for (std::size_t i = 0; i < rankers.size(); ++i) {
      const auto got = rankers[i]->score(p.x, p.y);
      ASSERT_EQ(got.size(), reference[i].size()) << rankers[i]->name();
      for (std::size_t c = 0; c < got.size(); ++c)
        EXPECT_TRUE(bit_equal(got[c], reference[i][c]))
            << rankers[i]->name() << " col " << c << " at " << threads << " threads: "
            << got[c] << " vs " << reference[i][c];
    }
  }
}

TEST(PerfKernels, EnsembleAndSelectionInvariantAcrossThreadCounts) {
  const RankerProblem p = make_problem(4242);
  core::EnsembleOptions ens;
  core::AutoSelectOptions sel;
  const auto run = [&](std::size_t threads) {
    const auto rankers = core::make_standard_rankers(/*seed=*/7, threads);
    ens.num_threads = threads;
    sel.num_threads = threads;
    const auto ranked = core::ensemble_rank(rankers, p.x, p.y, ens);
    const auto chosen = core::auto_select(p.x, p.y, ranked.order, sel);
    return std::make_pair(ranked, chosen);
  };
  const auto [ranked1, chosen1] = run(1);
  for (const std::size_t threads : {2u, 8u}) {
    const auto [ranked, chosen] = run(threads);
    EXPECT_EQ(ranked.order, ranked1.order) << threads << " threads";
    EXPECT_EQ(ranked.final_ranking, ranked1.final_ranking) << threads << " threads";
    EXPECT_EQ(ranked.discarded, ranked1.discarded) << threads << " threads";
    EXPECT_EQ(chosen.selected, chosen1.selected) << threads << " threads";
    EXPECT_EQ(chosen.complexity, chosen1.complexity) << threads << " threads";
  }
}

TEST(PerfKernels, ComplexityScanInvariantAcrossThreadCounts) {
  const RankerProblem p = make_problem(2026);
  std::vector<std::vector<double>> columns;
  for (std::size_t c = 0; c < p.x.cols(); ++c) columns.push_back(p.x.column(c));
  const auto serial = stats::ensemble_complexity(columns, p.y, 0);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto got = stats::ensemble_complexity(columns, p.y, threads);
    ASSERT_EQ(got.size(), serial.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(bit_equal(got[i], serial[i])) << "feature " << i;
  }
}

void expect_same_group(const core::GroupSelection& a, const core::GroupSelection& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.selected_names, b.selected_names);
  EXPECT_EQ(a.fallback, b.fallback);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.num_samples, b.num_samples);
  EXPECT_EQ(a.num_positives, b.num_positives);
  ASSERT_EQ(a.ensemble.rankings.size(), b.ensemble.rankings.size());
  for (std::size_t k = 0; k < a.ensemble.rankings.size(); ++k) {
    ASSERT_EQ(a.ensemble.rankings[k].size(), b.ensemble.rankings[k].size());
    for (std::size_t i = 0; i < a.ensemble.rankings[k].size(); ++i)
      EXPECT_TRUE(bit_equal(a.ensemble.rankings[k][i], b.ensemble.rankings[k][i]))
          << a.label << " ranker " << k << " feature " << i;
  }
  ASSERT_EQ(a.ensemble.final_ranking.size(), b.ensemble.final_ranking.size());
  for (std::size_t i = 0; i < a.ensemble.final_ranking.size(); ++i)
    EXPECT_TRUE(bit_equal(a.ensemble.final_ranking[i], b.ensemble.final_ranking[i]))
        << a.label << " final_ranking[" << i << "]";
  EXPECT_EQ(a.ensemble.order, b.ensemble.order);
  EXPECT_EQ(a.ensemble.discarded, b.ensemble.discarded);
  EXPECT_EQ(a.ensemble.failed, b.ensemble.failed);
}

void expect_same_result(const core::WefrResult& a, const core::WefrResult& b) {
  expect_same_group(a.all, b.all);
  ASSERT_EQ(a.survival.mwi.size(), b.survival.mwi.size());
  for (std::size_t i = 0; i < a.survival.mwi.size(); ++i) {
    EXPECT_TRUE(bit_equal(a.survival.mwi[i], b.survival.mwi[i]));
    EXPECT_TRUE(bit_equal(a.survival.rate[i], b.survival.rate[i]));
    EXPECT_EQ(a.survival.total[i], b.survival.total[i]);
  }
  ASSERT_EQ(a.change_point.has_value(), b.change_point.has_value());
  if (a.change_point.has_value()) {
    EXPECT_TRUE(bit_equal(a.change_point->mwi_threshold, b.change_point->mwi_threshold));
    EXPECT_TRUE(bit_equal(a.change_point->zscore, b.change_point->zscore));
  }
  ASSERT_EQ(a.low.has_value(), b.low.has_value());
  if (a.low.has_value()) expect_same_group(*a.low, *b.low);
  ASSERT_EQ(a.high.has_value(), b.high.has_value());
  if (a.high.has_value()) expect_same_group(*a.high, *b.high);
}

void expect_same_diagnostics(const core::PipelineDiagnostics& a,
                             const core::PipelineDiagnostics& b) {
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].stage, b.events[i].stage) << "event " << i;
    EXPECT_EQ(a.events[i].code, b.events[i].code) << "event " << i;
    EXPECT_EQ(a.events[i].detail, b.events[i].detail) << "event " << i;
  }
  EXPECT_EQ(a.rankers_failed, b.rankers_failed);
  EXPECT_EQ(a.scores_sanitized, b.scores_sanitized);
  EXPECT_EQ(a.constant_features, b.constant_features);
  EXPECT_EQ(a.survival_drives_skipped, b.survival_drives_skipped);
  EXPECT_EQ(a.score_days_rerouted, b.score_days_rerouted);
  EXPECT_EQ(a.score_drives_missing_features, b.score_drives_missing_features);
  EXPECT_EQ(a.selection_degraded, b.selection_degraded);
  EXPECT_EQ(a.wearout_skipped, b.wearout_skipped);
}

TEST(PerfKernels, RunWefrInvariantAcrossThreadCounts) {
  // The whole weekly selection job — sampling, five rankers, complexity
  // scan, survival curve, change point, per-wear-group re-selection —
  // must not move a bit when it runs on a thread pool, and neither may
  // its diagnostics. The fixture makes the serial tail note a stuck
  // (constant) column, samples whose NaN wear indicator routes them to
  // no group, and a wear group too starved to re-select.
  smartsim::SimOptions sim;
  sim.num_drives = 300;
  sim.num_days = 120;
  sim.seed = 31;
  sim.afr_scale = 30.0;
  auto fleet = generate_fleet(smartsim::profile_by_name("MC1"), sim);
  const auto stuck = static_cast<std::size_t>(fleet.feature_index("RER_R"));
  for (auto& drive : fleet.drives)
    for (std::size_t d = 0; d < drive.num_days(); ++d) drive.values(d, stuck) = 7.0;
  core::ExperimentConfig cfg;
  cfg.negative_keep_prob = 0.10;
  auto samples = core::build_selection_samples(fleet, 0, 119, cfg);
  const auto mwi = static_cast<std::size_t>(fleet.feature_index("MWI_N"));
  for (std::size_t i = 0; i < samples.size(); i += 40)
    samples.x(i, mwi) = std::numeric_limits<double>::quiet_NaN();

  const auto run = [&](std::size_t threads, core::PipelineDiagnostics& diag) {
    core::WefrOptions wopt;
    wopt.update_with_wearout = true;
    wopt.num_threads = threads;
    // Between the two groups' positive counts (~1.1k high, ~1.3k low):
    // the high group falls back to the whole-model set.
    wopt.min_group_positives = 1200;
    return core::run_wefr(fleet, samples, 119, wopt, &diag);
  };
  core::PipelineDiagnostics serial_diag, parallel_diag;
  const auto serial = run(0, serial_diag);
  ASSERT_TRUE(serial.change_point.has_value()) << "fixture must exercise Lines 9-15";
  ASSERT_TRUE(serial.low.has_value() && serial.high.has_value());
  ASSERT_NE(serial.low->fallback, serial.high->fallback) << "fixture must starve one group";
  ASSERT_TRUE(serial_diag.has("constant_features"));
  ASSERT_TRUE(serial_diag.has("samples_unroutable_nan_mwi"));
  ASSERT_TRUE(serial_diag.has("fallback_whole_model"));
  const auto parallel = run(4, parallel_diag);
  expect_same_result(serial, parallel);
  expect_same_diagnostics(serial_diag, parallel_diag);
}

TEST(PerfKernels, BuildSamplesInvariantAcrossThreadCounts) {
  // Rows, labels and Rng draws are picked serially; only the per-drive
  // feature pass fans out. The fixture filters rows, downsamples
  // negatives, expands windows, and has a drive whose every day the
  // filter drops.
  smartsim::SimOptions sim;
  sim.num_drives = 80;
  sim.num_days = 90;
  sim.seed = 17;
  sim.afr_scale = 30.0;
  const auto fleet = generate_fleet(smartsim::profile_by_name("MC1"), sim);
  const std::size_t dropped = 3;
  const std::vector<std::size_t> cols = {0, 5, 13, 21};

  const auto build = [&](std::size_t threads, obs::Registry& registry) {
    data::SamplingOptions opt;
    opt.day_lo = 10;
    opt.day_hi = 80;
    opt.negative_keep_prob = 0.3;
    opt.expand_windows = true;
    opt.keep = [&](std::size_t drive, int day) { return drive != dropped && day % 3 != 0; };
    opt.num_threads = threads;
    util::Rng rng(99);
    obs::Context ctx{nullptr, &registry};
    return data::build_samples(fleet, cols, opt, &rng, &ctx);
  };
  obs::Registry serial_reg, parallel_reg;
  const auto serial = build(1, serial_reg);
  const auto parallel = build(4, parallel_reg);
  ASSERT_GT(serial.size(), 0u);
  ASSERT_GT(serial.num_positive(), 0u);
  for (const std::int32_t d : serial.drive_index) ASSERT_NE(d, static_cast<std::int32_t>(dropped));

  EXPECT_EQ(serial.feature_names, parallel.feature_names);
  EXPECT_EQ(serial.y, parallel.y);
  EXPECT_EQ(serial.drive_index, parallel.drive_index);
  EXPECT_EQ(serial.day, parallel.day);
  ASSERT_EQ(serial.x.rows(), parallel.x.rows());
  ASSERT_EQ(serial.x.cols(), parallel.x.cols());
  for (std::size_t r = 0; r < serial.x.rows(); ++r)
    for (std::size_t c = 0; c < serial.x.cols(); ++c)
      ASSERT_TRUE(bit_equal(serial.x(r, c), parallel.x(r, c))) << "row " << r << " col " << c;
  for (const char* name : {"wefr_samples_total", "wefr_samples_positive_total"})
    EXPECT_EQ(serial_reg.counter(name).value(), parallel_reg.counter(name).value()) << name;
  EXPECT_EQ(serial_reg.counter("wefr_samples_total").value(), serial.size());
}

// --- chunked parallel_for ------------------------------------------------

TEST(PerfKernels, ParallelForChunkedCoversEveryIndexExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 7u, 16u, 100u, 1000u}) {
    for (const std::size_t min_chunk : {1u, 4u, 16u, 2048u}) {
      for (const std::size_t threads : {1u, 3u, 8u}) {
        util::ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) h.store(0);
        pool.parallel_for_chunked(n, min_chunk,
                                  [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(hits[i].load(), 1)
              << "n=" << n << " min_chunk=" << min_chunk << " threads=" << threads
              << " index " << i;
      }
    }
  }
}

TEST(PerfKernels, ParallelForChunkedPropagatesExceptions) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_chunked(100, 8,
                                         [](std::size_t i) {
                                           if (i == 57) throw std::runtime_error("boom");
                                         }),
               std::runtime_error);
  // Pool still usable afterwards.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for_chunked(10, 2, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45u);
}

}  // namespace
}  // namespace wefr
