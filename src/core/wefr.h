#pragma once

#include <optional>
#include <string>
#include <vector>

#include "changepoint/bayes_cpd.h"
#include "core/auto_select.h"
#include "core/diagnostics.h"
#include "core/ensemble.h"
#include "core/survival.h"
#include "data/dataset.h"
#include "data/fleet.h"

namespace wefr::obs {
struct Context;
struct RunReport;
}

namespace wefr::core {

/// Controls for the full WEFR algorithm (Algorithm 1 of the paper).
struct WefrOptions {
  EnsembleOptions ensemble;
  AutoSelectOptions auto_select;
  changepoint::CpdOptions cpd;
  /// Lines 9-15 of Algorithm 1: detect the MWI_N change point and
  /// re-select features per wear group. false = "WEFR (No update)".
  bool update_with_wearout = true;
  /// A wear group re-selects its own features only when it holds at
  /// least this many positive samples; otherwise it inherits the
  /// whole-model selection (robustness guard for tiny groups).
  std::size_t min_group_positives = 30;
  /// Seed for the stochastic rankers (Random Forest / XGBoost).
  std::uint64_t ranker_seed = 7;
  /// Worker threads for the whole selection hot path: the ranker job
  /// list, on which every population's rankers (the whole model and
  /// both wear groups of Lines 9-15) share one pool, and the F1/F2/F3
  /// complexity scan. Applied wherever the nested
  /// `ensemble.num_threads` / `auto_select.num_threads` knobs are left
  /// at 0; results are identical for any thread count. 0 = sequential.
  std::size_t num_threads = 0;
  /// Survival-curve construction for change-point detection: minimum
  /// drives per MWI_N bucket, and bucket width (1 = per integer value
  /// as in the paper; wider stabilizes small fleets).
  std::size_t survival_min_count = 5;
  int survival_bucket_width = 1;
};

/// Feature selection for one population (whole model, or one wear group).
struct GroupSelection {
  std::string label;                       ///< "all", "low", or "high"
  EnsembleResult ensemble;                 ///< preliminary rankings + pruning
  AutoSelectResult selection;              ///< automated count choice
  std::vector<std::size_t> selected;       ///< selected base-feature columns
  std::vector<std::string> selected_names; ///< same, as names
  std::size_t num_samples = 0;
  std::size_t num_positives = 0;
  /// True when this group fell back to the whole-model selection
  /// because it had too few positives.
  bool fallback = false;
  /// True when the sample population was too degenerate to rank at all
  /// (empty, or single-class labels): the selection keeps every feature
  /// and the reason is recorded in the PipelineDiagnostics.
  bool degraded = false;
};

/// Full WEFR output for one drive model.
struct WefrResult {
  GroupSelection all;                       ///< Lines 1-8 on the full population
  SurvivalCurve survival;                   ///< survival-rate-vs-MWI_N curve
  std::optional<WearChangePoint> change_point;
  std::optional<GroupSelection> low;        ///< MWI_N <= threshold
  std::optional<GroupSelection> high;       ///< MWI_N >  threshold
};

/// Runs the ensemble ranking + automated selection (Lines 1-8) on one
/// sample population.
///
/// Total on degenerate populations: an empty or single-class sample set
/// cannot be ranked, so the selection degrades to "keep every feature"
/// with `degraded` set and the reason noted in `diag`. Passing a `diag`
/// sink opts into full degraded-mode semantics; without one an empty
/// sample set still throws std::invalid_argument (the historical
/// strict contract for programmatic callers).
///
/// `obs` (nullable) wraps the call in a "select:<label>" span and flows
/// into the ensemble and auto_select stages beneath it.
GroupSelection select_features_for(const data::Dataset& samples, const WefrOptions& opt,
                                   const std::string& label = "all",
                                   PipelineDiagnostics* diag = nullptr,
                                   const obs::Context* obs = nullptr);

/// Runs full WEFR (Algorithm 1). `train` must be a base-feature sample
/// set (no window expansion) whose feature names match `fleet`'s; the
/// survival curve is computed from fleet state as of `train_day_end`
/// (no test-period leakage). When a significant change point exists and
/// updating is enabled, samples are grouped by their MWI_N value on the
/// sample day and features are re-selected per group.
///
/// Every stage is total on degenerate inputs (constant features,
/// single-class labels, all-NaN wear indicators, populations too small
/// for change-point detection): the affected stage substitutes a tagged
/// fallback — neutral ranking, keep-everything selection, skipped
/// wear-out split — and records it in `diag` when given.
///
/// Every population is settled before any is ranked: survival curve
/// and change point come first (they read only `fleet`), then the wear
/// groups and their gates, and then all (population, ranker) pairs run
/// as one job list (see score_rankers). Ensemble finalisation, the
/// automated count, group fallbacks and every `diag` note follow
/// serially in Algorithm 1's order, so the result and `diag` do not
/// depend on the thread count.
///
/// `obs` (nullable) wraps the run in a "run_wefr" span with children
/// for the survival-curve construction ("survival"), change-point
/// detection ("cpd"), the whole-model selection ("select:all"), and the
/// per-group re-selections ("select:low" / "select:high"). A ranked
/// population's select and "ensemble" spans open when the job list
/// starts, so they include its wait for the shared pool.
WefrResult run_wefr(const data::FleetData& fleet, const data::Dataset& train,
                    int train_day_end, const WefrOptions& opt = {},
                    PipelineDiagnostics* diag = nullptr,
                    const obs::Context* obs = nullptr);

/// Copies the selection outcome into `report`: one selection group per
/// population ranked ("all" plus "low"/"high" when the wear-out update
/// ran) and the detected change point, if any.
void fill_run_report(const WefrResult& result, obs::RunReport& report);

}  // namespace wefr::core
