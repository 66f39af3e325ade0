#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/wefr.h"
#include "data/fleet.h"
#include "data/labeling.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"

namespace wefr::core {

/// End-to-end experiment controls (Section V-A methodology).
struct ExperimentConfig {
  /// Prediction horizon: "fail within the next 30 days".
  int horizon_days = 30;
  /// Train : validation ratio inside the training phase, by day (8:2).
  double train_frac = 0.8;
  /// Training-negative downsampling probability (positives always kept);
  /// the class skew at fleet scale would otherwise swamp the trees.
  double negative_keep_prob = 0.15;
  /// Prediction model (paper: Random Forest, 100 trees, max depth 13).
  ml::ForestOptions forest;
  /// Statistical feature generation over 3- and 7-day windows.
  data::WindowFeatureConfig windows;
  bool expand_windows = true;
  std::uint64_t seed = 99;
  /// Worker threads for fleet scoring and sample building (per-drive
  /// fan-out) and, when `forest.num_threads` is left at 0, for forest
  /// fitting too. 0 or 1 = sequential; results are identical either way.
  std::size_t num_threads = 0;

  ExperimentConfig() {
    forest.num_trees = 100;
    forest.tree.max_depth = 13;
    forest.tree.min_samples_leaf = 2;
  }
};

/// A trained Random Forest over one set of selected base features
/// (window-expanded at train and predict time).
struct PredictorBundle {
  std::vector<std::size_t> base_cols;
  ml::RandomForest forest;
};

/// A full predictor: a whole-model bundle plus optional per-wear-group
/// bundles routed by the drive's current MWI_N.
struct WefrPredictor {
  PredictorBundle all;
  std::optional<double> wear_threshold;  ///< route when set
  std::optional<PredictorBundle> low;    ///< MWI_N <= threshold
  std::optional<PredictorBundle> high;   ///< MWI_N >  threshold
  int mwi_col = -1;                      ///< MWI_N column in fleet features

  /// The bundle a scored day goes to.
  enum class Route { kAll = 0, kLow = 1, kHigh = 2 };

  /// The one rule that picks a scored day's bundle from the day's MWI_N
  /// value, for batch scoring (score_fleet) and the daemon alike:
  ///   - NaN goes to the whole-model bundle (it is in no wear group);
  ///   - at or below the threshold, to the low bundle if it was trained;
  ///   - above the threshold, to the high bundle if it was trained;
  ///   - anything else, including a predictor without a threshold, to
  ///     the whole-model bundle.
  /// Callers read `mwi` only when the predictor is routed (a threshold
  /// and an MWI_N column); an unrouted predictor scores every day with
  /// the whole-model bundle.
  Route route(double mwi) const;
};

/// Trains one bundle on fleet days [day_lo, day_hi] using the given base
/// features. `sample_filter` (optional) keeps only sample rows for which
/// it returns true (used to train per-wear-group bundles); it receives
/// (drive_index, day). `obs` (nullable) wraps sampling and forest
/// fitting in a "train_bundle" span.
PredictorBundle train_bundle(const data::FleetData& fleet,
                             std::span<const std::size_t> base_cols, int day_lo, int day_hi,
                             const ExperimentConfig& cfg,
                             const std::function<bool(std::size_t, int)>& sample_filter = {},
                             const obs::Context* obs = nullptr);

/// Trains the predictor corresponding to a WEFR selection result:
/// whole-model bundle from `sel.all`, and per-group bundles when the
/// selection has a change point with per-group features. `obs`
/// (nullable) wraps the whole step in a "train_predictor" span.
WefrPredictor train_predictor(const data::FleetData& fleet, const WefrResult& sel,
                              int day_lo, int day_hi, const ExperimentConfig& cfg,
                              const obs::Context* obs = nullptr);

/// Convenience: predictor over a fixed feature set (no wear routing).
WefrPredictor train_predictor(const data::FleetData& fleet,
                              std::span<const std::size_t> base_cols, int day_lo,
                              int day_hi, const ExperimentConfig& cfg,
                              const obs::Context* obs = nullptr);

/// Daily failure-probability scores for one drive over a day window.
struct DriveDayScores {
  std::size_t drive_index = 0;
  int first_day = 0;  ///< fleet-global day of scores[0]
  std::vector<double> scores;
};

/// Scores every drive-day in [t0, t1] (drives without observations in
/// the window are omitted). Routing between wear-group bundles happens
/// per day on the drive's MWI_N value; a day whose MWI_N is NaN cannot
/// be routed and scores against the whole-model bundle instead (tallied
/// as `score_days_rerouted` in `diag` when given). Each bundle's window
/// features are expanded only for the days routed to it, each row
/// bit-identical to the drive's whole-history expansion. Per-drive work
/// is independent, so `cfg.num_threads > 1` fans drives out over a
/// ThreadPool; output order and values are identical to the sequential
/// run.
///
/// `obs` (nullable) wraps the sweep in a "score_fleet" span, counts
/// drives and drive-days scored (plus NaN-MWI days rerouted), and
/// records per-drive day counts in the wefr_score_days_per_drive
/// histogram. Counters are tallied once after the fan-out, so the
/// scoring inner loop is untouched.
std::vector<DriveDayScores> score_fleet(const data::FleetData& fleet,
                                        const WefrPredictor& predictor, int t0, int t1,
                                        const ExperimentConfig& cfg,
                                        PipelineDiagnostics* diag = nullptr,
                                        const obs::Context* obs = nullptr);

/// Scores only the drives in `drives` (fleet drive indices; order is
/// preserved, in-window eligibility is still filtered here). The
/// whole-fleet entry above delegates here with every index; per-drive
/// scoring never looks at any other drive, so a subset's blocks are
/// bit-identical to the same drives' blocks in a whole-fleet run.
std::vector<DriveDayScores> score_fleet(const data::FleetData& fleet,
                                        const WefrPredictor& predictor,
                                        std::span<const std::size_t> drives, int t0, int t1,
                                        const ExperimentConfig& cfg,
                                        PipelineDiagnostics* diag = nullptr,
                                        const obs::Context* obs = nullptr);

/// Drive-level evaluation result at one operating point.
struct DriveLevelEval {
  ml::Confusion confusion;
  double precision = 0.0;
  double recall = 0.0;
  double f05 = 0.0;
  double threshold = 0.0;
  double achieved_recall = 0.0;  ///< same as recall; kept for clarity
};

/// Drive-level "first alarm" evaluation at a fixed recall (Section V-A):
/// a drive is predicted failed at the first day its score crosses the
/// threshold; the prediction is correct when the drive fails within
/// `horizon` days after that first alarm. The threshold is swept and the
/// operating point with recall >= `target_recall` and maximum precision
/// is returned (falling back to the maximum-recall point when the target
/// is unreachable). `drive_mask`, when given, restricts evaluation to
/// drives with mask[drive_index] == true (Exp#3's "Low" rows).
DriveLevelEval evaluate_fixed_recall(const data::FleetData& fleet,
                                     std::span<const DriveDayScores> scores, int t0, int t1,
                                     int horizon, double target_recall,
                                     const std::vector<bool>* drive_mask = nullptr);

/// Builds the base-feature training sample set for WEFR selection
/// (no window expansion, negatives downsampled).
data::Dataset build_selection_samples(const data::FleetData& fleet, int day_lo, int day_hi,
                                      const ExperimentConfig& cfg,
                                      const obs::Context* obs = nullptr);

}  // namespace wefr::core
