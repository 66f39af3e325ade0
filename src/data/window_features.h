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

/// The rolling-window kernel as a day-by-day fold, the one definition
/// behind expand_series and daemon::ResidentFleet. A series folds its
/// days in order, 0, 1, 2, ..., each in O(columns * windows) with no
/// rescan of history, and any day may also emit its expanded row.
///
/// The plan (sparse-level depth, whether level 2 is built fused, ring
/// size, per-window constants) is derived from the window config alone.
/// Per series, a State holds the scalars [field][col] (the prefix folds
/// of x, x*x and (t+1)*x, and the growing-phase running extrema) and the
/// rings [slot][field][col] (the raw value, the prefix sums after the
/// day, and the trailing power-of-two extrema levels), so one day's fold
/// is straight loops over contiguous column runs with every branch on
/// the day index outside them. No expression crosses columns, so a
/// column's bits do not depend on which other columns fold beside it.
///
///  - max/min/range: while a window grows (day d < w) they are the
///    running extrema folded from day 0; once it slides, the extremum of
///    two overlapping level spans of length bit_floor(w) ending at d and
///    at d - (w - bit_floor(w)). Value-identical to the naive rescan and
///    bit-identical in practice (the only caveat is which representative
///    of a mixed +/-0.0 tie survives).
///  - mean/std/wma: while a window grows they divide the running prefix
///    folds, which replay the naive rescan's left folds bit-for-bit; once
///    it slides they are prefix differences, which agree with the rescan
///    to ~1e-9 relative: the prefix forms round differently, std carries
///    the sum2/n - mean^2 cancellation both kernels share (quantizing
///    near-zero standard deviations at ~sqrt(ulp) of the value scale),
///    and the wma closed form cancels terms of magnitude ~days^2 * scale
///    (absolute error ~eps * days^2 * scale).
///
/// Every value folded must be finite for its column's cells to mean
/// anything; expand_series rescans a column holding a non-finite value
/// naively, and ResidentFleet hands such a drive to the batch oracle.
class WindowFold {
 public:
  /// One series' fold state; see the class comment for its layout.
  struct State {
    std::size_t cols = 0;
    std::vector<double> scalars;
    std::vector<double> rings;
  };

  /// Throws std::invalid_argument for a window < 1.
  explicit WindowFold(const WindowFeatureConfig& cfg);

  /// A fresh state for a series of `cols` columns, before its day 0.
  State start(std::size_t cols) const;

  /// Folds day `j` of the series, one value per column at `x`, into
  /// `st`, which holds days 0 .. j-1 already. With `out` set it also
  /// writes the day's expanded row there: column c expands to
  /// [c * factor(), (c + 1) * factor()), in expand_series' order.
  void fold_day(State& st, const double* x, std::size_t j, double* out) const;

  /// Expanded columns per base column: expansion_factor(cfg).
  std::size_t factor() const { return factor_; }

 private:
  /// One window's steady-state constants.
  struct WindowPlan {
    std::size_t w = 0;
    std::size_t level = 0;  ///< k with 2^k = bit_floor(w)
    std::size_t shift = 0;  ///< w - 2^k
    double inv_w = 0.0;
    double inv_den = 0.0;
  };

  std::vector<WindowPlan> plans_;
  std::size_t factor_ = 0;
  std::size_t kmax_ = 0;  ///< deepest sparse level any window reads
  bool need_level1_ = false;
  std::size_t ring_ = 0;  ///< ring capacity (power of two)
};

/// Expands the day-major series `series` (rows = days, cols = all fleet
/// features), restricted to the base columns `base_cols`, into the
/// day-major expanded matrix (rows = days, cols = base_cols.size() *
/// expansion_factor()).
///
/// `days`, when given, lists the days to emit (row indices into
/// `series`, any order, repeats allowed; one out of range throws
/// std::out_of_range): output row i is day days[i], bit-identical to
/// row days[i] of the all-days call. Callers pass the days they
/// consume: core::score_fleet the days routed to each bundle,
/// data::build_samples each drive's kept days.
///
/// Runs WindowFold over the base columns for days 0 through the last
/// listed one (the furthest any listed row reads): a listed day's fold
/// writes its row straight into the output, a repeated day's row is
/// copied, and every other day folds the state only. The output matrix
/// is allocated uninitialized since every cell is overwritten. A column
/// holding any non-finite value anywhere in the history (NaN holes from
/// recover-mode ingestion) takes the naive rescan's cells for the listed
/// days instead, preserving its exact semantics; the decision is made
/// over the whole history, exactly as in the all-days call.
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

/// The original O(days * window) reference implementation: every cell
/// rescans its trailing window. The equivalence oracle for
/// `expand_series` (see tests/test_perf_kernels and the featuregen
/// section of bench_hotpath), and the same per-column rescan that
/// `expand_series` falls back to for a non-finite column.
Matrix expand_series_naive(const Matrix& series, std::span<const std::size_t> base_cols,
                           const WindowFeatureConfig& cfg = {});

}  // namespace wefr::data
