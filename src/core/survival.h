#pragma once

#include <optional>
#include <vector>

#include "changepoint/bayes_cpd.h"
#include "data/fleet.h"

namespace wefr::core {

/// Survival rate as a function of MWI_N (Figure 1 of the paper).
///
/// For each integer value v of MWI_N: the drives whose last-observed
/// MWI_N (as of the cut-off day) rounds to v, and the fraction of them
/// still healthy. Values are sorted ascending.
struct SurvivalCurve {
  std::vector<double> mwi;           ///< distinct MWI_N values, ascending
  std::vector<double> rate;          ///< survival rate per value
  std::vector<std::size_t> total;    ///< drives per value
  /// Drives excluded because their last-observed MWI_N was NaN
  /// (unrepaired missing data) — a degraded-mode tally, not an error.
  std::size_t drives_skipped_nan = 0;

  bool empty() const { return mwi.empty(); }
};

/// Builds the survival curve from fleet state as of `as_of_day`
/// (inclusive; pass fleet.num_days - 1 for the full window). A drive
/// counts as failed when its trouble ticket is on or before that day.
/// Buckets with fewer than `min_count` drives are dropped (they produce
/// unstable rates at the range edges). `bucket_width` groups adjacent
/// MWI_N values (width 1 = per integer value, as in the paper's figure;
/// wider buckets trade resolution for stability on small fleets); the
/// reported MWI_N of a bucket is its lower edge.
///
/// Throws std::invalid_argument when the fleet lacks an MWI_N feature.
SurvivalCurve survival_vs_mwi(const data::FleetData& fleet, int as_of_day,
                              std::size_t min_count = 5, int bucket_width = 1);

/// A survival-rate regime shift located on the MWI_N axis.
struct WearChangePoint {
  double mwi_threshold = 0.0;  ///< MWI_N value where the new regime starts
  double zscore = 0.0;
  double probability = 0.0;    ///< posterior change probability
};

/// Runs Bayesian change-point detection over the survival-rate sequence
/// (ordered by ascending MWI_N) and returns the most significant change
/// point mapped back to its MWI_N value, or nullopt when no change is
/// significant (paper: MB1/MB2) or the curve is too short.
std::optional<WearChangePoint> detect_wear_change_point(
    const SurvivalCurve& curve, const changepoint::CpdOptions& opt = {});

}  // namespace wefr::core
