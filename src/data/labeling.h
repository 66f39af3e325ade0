#pragma once

#include <functional>
#include <span>

#include "data/dataset.h"
#include "data/fleet.h"
#include "data/window_features.h"
#include "util/rng.h"

namespace wefr::data {

/// Options controlling how (drive, day) observations become supervised
/// samples.
struct SamplingOptions {
  /// Prediction horizon: a sample on day d is positive when the drive
  /// fails in (d, d + horizon_days].
  int horizon_days = 30;
  /// Inclusive fleet-global day range from which samples are drawn
  /// (day_hi < 0 means "until the end of the observation window").
  int day_lo = 0;
  int day_hi = -1;
  /// Probability of keeping each negative sample; positives are always
  /// kept. 1.0 disables downsampling. Deterministic given the Rng.
  double negative_keep_prob = 1.0;
  /// When set, expand the base features with rolling-window statistics.
  bool expand_windows = false;
  WindowFeatureConfig window_config;
  /// Optional row filter: keep a (drive, day) observation only when this
  /// returns true. Used to build per-wear-group training sets.
  std::function<bool(std::size_t drive_index, int day)> keep;
  /// Worker threads for the per-drive feature pass; 0 or 1 = sequential.
  /// Rows, labels and Rng draws are picked serially first, so the samples
  /// are identical at any thread count.
  std::size_t num_threads = 0;
};

/// Builds a sample set from a fleet, restricted to the base feature
/// columns `base_cols` (pass all column indices for "no feature
/// selection"). When `opt.expand_windows` is set each base feature
/// expands into 13 learning features (Section V-A of the paper).
///
/// `rng` is required only when `opt.negative_keep_prob < 1`.
///
/// Runs in two passes: one serial pass applies `keep`, labels each
/// (drive, day) and makes the Rng draws, in drive-then-day order; then
/// only drives with at least one kept row compute the features of their
/// kept days (over `opt.num_threads` workers), straight into their rows
/// of the output.
///
/// `obs` (nullable) wraps the pass in a "build_samples" span, forwards
/// to expand_series, and tallies wefr_samples_total /
/// wefr_samples_positive_total counters.
Dataset build_samples(const FleetData& fleet, std::span<const std::size_t> base_cols,
                      const SamplingOptions& opt, util::Rng* rng = nullptr,
                      const obs::Context* obs = nullptr);

/// Convenience overload using every fleet feature as a base column.
Dataset build_samples(const FleetData& fleet, const SamplingOptions& opt,
                      util::Rng* rng = nullptr, const obs::Context* obs = nullptr);

/// All column indices [0, fleet.num_features()).
std::vector<std::size_t> all_feature_columns(const FleetData& fleet);

}  // namespace wefr::data
