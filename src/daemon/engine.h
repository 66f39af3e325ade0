#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "changepoint/online_cpd.h"
#include "core/pipeline.h"
#include "core/wefr.h"
#include "daemon/resident.h"

namespace wefr::obs {
struct Context;
class Logger;
}

namespace wefr::util {
class ThreadPool;
}

namespace wefr::daemon {

/// Controls for the resident scoring engine: the paper's deployment
/// loop (Section IV-D: WEFR "periodically checks the change points of
/// MWI_N (one week in our case) and updates the selected features").
struct EngineOptions {
  core::ExperimentConfig experiment;
  core::WefrOptions wefr;
  /// Run the paper's periodic re-check (feature re-selection + retrain)
  /// in-process as days stream in. Off = the engine only scores with
  /// whatever predictor set_predictor installed (the deterministic mode
  /// the bit-identity tests and bench use).
  bool auto_check = true;
  /// Days between change-point re-checks / feature updates.
  int check_interval_days = 7;
  /// Days of history required before the first check may train; the
  /// drift watch starts on this day too.
  int warmup_days = 120;
  /// Retrain the predictor on every check even when the selected
  /// features did not change (tracks drift); when false, retraining
  /// happens only on feature-set changes.
  bool retrain_every_check = true;
  /// A drive alarms when a drive-day's score reaches this value. With
  /// `target_recall` set this is only the starting value — each check
  /// recalibrates it.
  double alarm_threshold = 0.5;
  /// When positive, every check recalibrates the alarm threshold to the
  /// fixed-recall operating point measured on the validation slice (the
  /// trailing `validation_frac` of the training window) — the paper's
  /// "subject to a fixed recall" deployment policy.
  double target_recall = 0.0;
  double validation_frac = 0.2;
  /// Online drift watch: stream the day-over-day delta of the active
  /// fleet's mean MWI_N through an OnlineChangePointDetector, one
  /// completed day at a time from `warmup_days` on. The level series
  /// drifts slowly under normal wear, so its first difference is
  /// near-stationary — a population change (churn wave, cohort with a
  /// shifted wear distribution) shows up as a level jump in the delta
  /// stream. A detection pulls the next check forward to the following
  /// day instead of waiting out the cadence.
  bool online_drift_check = false;
  /// Detection fires when P(run length <= 3) reaches this value.
  double drift_probability_threshold = 0.6;
  /// Minimum days between drift-triggered re-checks (the posterior
  /// keeps short-run mass for a few days after a real change).
  int drift_cooldown_days = 14;
  changepoint::CpdOptions drift_cpd;
  /// After every rescore, also run the from-scratch batch oracle and
  /// compare bit-for-bit (expensive; for tests and the bench gate).
  bool oracle_check = false;
};

/// A decommission recommendation: the first judged drive-day whose
/// score reached the alarm threshold in force.
struct Alarm {
  std::size_t drive_index = 0;  ///< engine drive index (order of first append)
  int day = 0;                  ///< day the alarm fired
  double score = 0.0;           ///< predicted failure probability
};

/// One firing of the online drift watch.
struct DriftDetection {
  int day = 0;
  double probability = 0.0;
};

/// What one rescore() pass did.
struct RescoreStats {
  std::size_t drives_rescored = 0;    ///< dirty drives touched
  std::size_t drives_incremental = 0; ///< scored from the pass's fold output
  std::size_t drives_full = 0;        ///< scored through the batch oracle
  std::size_t rows_scored = 0;        ///< drive-days freshly scored
  bool oracle_checked = false;
  bool oracle_match = true;
};

/// One scheduled (or drift-pulled) re-check.
struct CheckEvent {
  int day = 0;
  bool trained = false;
  bool features_changed = false;
  /// True when the online drift watch pulled this check forward.
  bool drift_triggered = false;
  /// The detector's change probability at the triggering observation.
  double change_probability = 0.0;
  std::optional<double> wear_threshold;
  std::vector<std::string> selected_all;
  std::vector<std::string> selected_low;
  std::vector<std::string> selected_high;
};

/// The paper's deployment loop, and the daemon's core: a ResidentFleet
/// plus a dirty-set incremental scorer, the periodic re-check and drift
/// watch as in-process jobs, and first-alarm decommission
/// recommendations.
///
/// Scoring contract: after any rescore(), scores() is bit-identical to
/// core::score_fleet(fleet(), predictor, 0, max_day) on the same data —
/// regardless of how appends were ordered across drives, where the
/// stream was cut by reconnects, or the configured thread count. Days
/// already scored under the current predictor are never re-scored; only
/// drives whose windows changed (the dirty set) run inference. Appends
/// only store raw rows; each pass folds every dirty streaming drive's
/// new days into its window state, one job per drive on the pass's
/// pool. A drive whose new days are exactly its unscored ones has its
/// fold emit their expanded rows into one pass buffer; every such row is
/// routed to its bundle, and each bundle's rows are gathered and scored
/// in batched blocks of one job list on the same pool — no per-drive
/// inference. Other drives go through the batch oracle (score_fleet on
/// the drive subset) while their fold only advances the state: drives
/// with a non-finite value, every drive after a predictor install,
/// restored drives, and any drive whose rows would push the pass buffer
/// past 64 MiB. So the fold emits rows only for days appended under the
/// current predictor since the last pass, and a pass buffer never holds
/// more than 64 MiB. A rescore() with nothing appended, installed or
/// restored since the last pass returns at once, without walking the
/// drives (unless `oracle_check` is on).
///
/// Alarm contract: each drive-day is judged once, by the predictor and
/// threshold in force when it was appended, and a drive alarms at most
/// once. Installing a predictor (by a check or set_predictor) first
/// judges the pending days under the outgoing one, so alarms depend
/// only on the order of appends, never on when rescore() runs. Days
/// appended before the first predictor, and restored days, are never
/// judged.
class Engine {
 public:
  Engine(EngineOptions options, data::WindowFeatureConfig windows = {},
         const obs::Context* obs = nullptr, obs::Logger* log = nullptr);

  /// Appends one drive-day. When the day watermark advances, completed
  /// days are first fed to the drift watch and any due re-check runs on
  /// data strictly before `day` (no lookahead).
  AppendResult append_day(const std::string& drive_id, int day,
                          std::span<const double> values, int fail_day = -1);

  /// Scores every dirty drive's unscored days and judges the new ones
  /// for alarms. Without a predictor it only folds the pending days into
  /// the window state. Returns what was done: zero stats, in O(1), when
  /// the engine is clean and `oracle_check` is off.
  RescoreStats rescore();

  /// All scores under the current predictor, in score_fleet's output
  /// shape and order (ascending drive index). Call rescore() first for
  /// a fully up-to-date view.
  std::vector<core::DriveDayScores> scores() const;

  /// Latest scored day for one drive; false when the drive is unknown
  /// or has no scores yet.
  bool latest_score(const std::string& drive_id, int& day, double& score) const;

  /// Judges the pending days under the outgoing predictor, then installs
  /// this one and dirties every drive. Clears all scores.
  void set_predictor(core::WefrPredictor predictor);
  bool has_predictor() const { return predictor_.has_value(); }
  const core::WefrPredictor* predictor() const {
    return predictor_.has_value() ? &*predictor_ : nullptr;
  }

  ResidentFleet& resident() { return resident_; }
  const ResidentFleet& resident() const { return resident_; }
  const data::FleetData& fleet() const { return resident_.fleet(); }

  std::size_t dirty_count() const;
  int next_check_day() const { return next_check_day_; }
  const std::vector<CheckEvent>& checks() const { return checks_; }
  const std::vector<DriftDetection>& drift_detections() const { return drift_detections_; }
  /// Alarms raised so far, in day order within each rescore.
  const std::vector<Alarm>& alarms() const { return alarms_; }
  /// The alarm threshold in force (recalibrated when `target_recall`
  /// is set).
  double alarm_threshold() const { return threshold_; }
  const RescoreStats& last_rescore() const { return last_rescore_; }

  /// Engine + resident state snapshot payload (WEFRDS01 contents).
  std::string save_snapshot() const { return resident_.save_snapshot(); }
  /// Restores a snapshot; every drive starts dirty, and its first pass
  /// scores it through the batch oracle (the predictor is not persisted
  /// — the first check or set_predictor installs one).
  bool load_snapshot(std::string_view payload, std::string* why = nullptr);

  /// Compact JSON status report (daemon snapshot-report request).
  std::string report_json() const;

 private:
  struct ScoreState {
    int scored_until = -1;  ///< fleet-global last scored day, -1 = none
    /// The next pass scores the whole drive through the batch oracle.
    bool full_dirty = false;
    int first_day = 0;
    std::vector<double> scores;
    int judged_until = -1;  ///< days <= this are never judged (again)
    bool alarmed = false;
  };

  void observe_completed_days(int up_to_day);
  void run_check(int day);
  void close_judgement();
  void install_predictor(core::WefrPredictor predictor);
  void judge(std::size_t di);
  double active_mean_mwi(int day) const;
  /// One dirty drive's fold in a rescore pass: its `days` unfolded days
  /// from fleet-global `first_day` on, emitted into the pass buffer from
  /// row `first_row`, or folded into the state only (kStateOnly).
  struct FoldJob {
    std::size_t drive = 0;
    std::size_t days = 0;
    std::size_t first_row = 0;
    int first_day = 0;
  };
  static constexpr std::size_t kStateOnly = static_cast<std::size_t>(-1);
  std::size_t score_folded(std::span<const FoldJob> incr, const double* rows,
                           util::ThreadPool* pool);

  EngineOptions opt_;
  ResidentFleet resident_;
  const obs::Context* obs_ = nullptr;
  obs::Logger* log_ = nullptr;

  std::optional<core::WefrResult> selection_;
  std::optional<core::WefrPredictor> predictor_;
  std::vector<ScoreState> score_states_;
  /// Set by every append, predictor install and snapshot load; cleared
  /// by a completed rescore. False means the dirty set is empty.
  bool dirty_ = false;
  RescoreStats last_rescore_;
  /// The fold path's expanded rows, scratch for one pass at a time (see
  /// rescore()).
  std::unique_ptr<double[]> pass_buffer_;
  std::size_t pass_capacity_ = 0;
  double threshold_ = 0.5;
  std::vector<Alarm> alarms_;

  int high_water_day_ = 0;  ///< days < this are complete (drift-observed)
  int next_check_day_ = 0;
  std::vector<CheckEvent> checks_;

  int mwi_col_ = -1;
  changepoint::OnlineChangePointDetector drift_cpd_;
  double last_mean_mwi_ = 0.0;
  bool have_last_mwi_ = false;
  int last_drift_day_ = -1;
  bool drift_pending_ = false;
  double drift_probability_ = 0.0;
  std::vector<DriftDetection> drift_detections_;
};

/// In-process replay of a recorded fleet: sets the engine's schema and
/// appends `fleet`'s drive-days day-major, the way a live feed arrives,
/// from the engine's watermark (the day after its last appended one) up
/// to min(end_day, fleet.num_days), exclusive. Rescores after every 7th
/// day and at the end. Throws std::invalid_argument when `end_day` lies
/// before the watermark.
void replay(Engine& engine, const data::FleetData& fleet, int end_day);

}  // namespace wefr::daemon
