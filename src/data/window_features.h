#pragma once

#include <span>
#include <string>
#include <vector>

#include "data/matrix.h"

namespace wefr::obs {
struct Context;
}

namespace wefr::data {

/// Rolling-window statistical feature generation.
///
/// The paper generates, for each original (selected) feature, the
/// maximum, minimum, mean, standard deviation, max-min range, and
/// weighted moving average within 3-day and 7-day windows — i.e. each
/// original feature expands into 1 + 6*2 = 13 learning features.
///
/// Windows are trailing (days d-w+1 .. d) and truncated at the start of
/// a drive's series, so day 0 uses a window of one observation.
struct WindowFeatureConfig {
  std::vector<int> windows = {3, 7};
};

/// Names of the expanded features for the given base feature names, in
/// the exact column order produced by `expand_series`:
/// base, base__max3, base__min3, ..., base__wma3, base__max7, ..., base__wma7.
std::vector<std::string> expanded_feature_names(std::span<const std::string> base_names,
                                                const WindowFeatureConfig& cfg = {});

/// Number of expanded columns per base feature (1 + 6 * #windows).
std::size_t expansion_factor(const WindowFeatureConfig& cfg = {});

/// Expands the day-major series `series` (rows = days, cols = all fleet
/// features), restricted to the base columns `base_cols`, into the
/// day-major expanded matrix (rows = days, cols = base_cols.size() *
/// expansion_factor()).
///
/// `days`, when given, lists the days to emit (row indices into
/// `series`, any order, repeats allowed; one out of range throws
/// std::out_of_range): output row i is day days[i], bit-identical to
/// row days[i] of the all-days call. Prefix sums and sparse levels fold
/// from day 0 up to the last listed day (the furthest any listed row
/// reads), and the kernel and level plan are chosen over the whole
/// history, exactly as in the all-days call; the rolling stats and the
/// interleave cover only the listed days' span. Callers pass the
/// days they consume: core::score_fleet the days routed to each bundle,
/// data::build_samples each drive's kept days.
///
/// Streaming implementation, O(1) per day per window stat, organized as
/// branchless element-wise passes (auto-vectorized, with AVX2 clones on
/// x86-64):
///  - max/min/range from a sparse table: per column, log2(max window)
///    levels of running extrema over trailing power-of-two spans; each
///    full window is then the extremum of two overlapping spans.
///    Value-identical to the naive rescans and bit-identical in
///    practice (the only caveat is which representative of a mixed
///    +/-0.0 tie survives).
///  - mean/std/wma from three shared prefix sums (x, x*x, (t+1)*x) as
///    prefix differences in one fused loop. While a window is still
///    growing these replay the naive folds bit-for-bit; once it slides
///    they agree to ~1e-9 relative: the prefix forms round differently,
///    std carries the sum2/n - mean^2 cancellation both kernels share
///    (quantizing near-zero standard deviations at ~sqrt(ulp) of the
///    value scale), and the wma closed form cancels terms of magnitude
///    ~days^2 * scale (absolute error ~eps * days^2 * scale).
/// Each base column is staged through contiguous scratch buffers so
/// neither the strided input column nor the strided output columns are
/// walked in the inner loop, and the output matrix is allocated
/// uninitialized since every cell is overwritten. A column containing
/// any non-finite value (NaN holes from recover-mode ingestion) falls
/// back to the naive kernel for that column, preserving its exact
/// semantics.
///
/// `obs` (nullable) tallies wefr_featuregen_rows/cells counters for
/// the emitted rows; the kernel is too hot for per-call spans, so
/// callers wrap it instead.
Matrix expand_series(const Matrix& series, std::span<const std::size_t> base_cols,
                     const WindowFeatureConfig& cfg = {},
                     const obs::Context* obs = nullptr);
Matrix expand_series(const Matrix& series, std::span<const std::size_t> base_cols,
                     std::span<const std::size_t> days, const WindowFeatureConfig& cfg = {},
                     const obs::Context* obs = nullptr);

/// The day-list expansion written straight into a caller's row block:
/// `out` holds days.size() rows of base_cols.size() * expansion_factor()
/// doubles (any other size throws std::invalid_argument).
void expand_series_into(const Matrix& series, std::span<const std::size_t> base_cols,
                        std::span<const std::size_t> days, const WindowFeatureConfig& cfg,
                        std::span<double> out, const obs::Context* obs = nullptr);

/// The original O(days * window) reference implementation, retained as
/// the equivalence oracle for `expand_series` (see tests/test_perf_kernels
/// and the featuregen section of bench_hotpath).
Matrix expand_series_naive(const Matrix& series, std::span<const std::size_t> base_cols,
                           const WindowFeatureConfig& cfg = {});

}  // namespace wefr::data
