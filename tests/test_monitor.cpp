// The paper's deployment loop (Section IV-D) as an offline replay: a
// recorded fleet streamed day-major into daemon::Engine through
// daemon::replay — the same engine wefrd hosts behind its socket.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "daemon/engine.h"
#include "data/preprocess.h"
#include "smartsim/generator.h"
#include "smartsim/mixed_fleet.h"

namespace wefr::daemon {
namespace {

const data::FleetData& monitor_fleet() {
  static const data::FleetData fleet = [] {
    smartsim::SimOptions opt;
    opt.num_drives = 400;
    opt.num_days = 220;
    opt.seed = 71;
    opt.afr_scale = 25.0;
    return generate_fleet(smartsim::profile_by_name("MC1"), opt);
  }();
  return fleet;
}

EngineOptions light_monitor() {
  EngineOptions opt;
  opt.warmup_days = 150;
  opt.check_interval_days = 30;
  opt.experiment.forest.num_trees = 10;
  opt.experiment.forest.tree.max_depth = 9;
  opt.experiment.negative_keep_prob = 0.08;
  // Training negatives are downsampled ~12x, which inflates predicted
  // probabilities; a higher bar keeps alarms meaningful.
  opt.alarm_threshold = 0.75;
  return opt;
}

Engine make_engine(const EngineOptions& opt) { return Engine(opt, opt.experiment.windows); }

/// Replays the whole fleet and returns the engine.
Engine run_to_end(const data::FleetData& fleet, const EngineOptions& opt) {
  Engine engine = make_engine(opt);
  replay(engine, fleet, fleet.num_days);
  return engine;
}

/// The fleet drive an alarm names: engine drive indices follow the order
/// of first append, so alarms map back by drive id.
const data::DriveSeries& alarmed_drive(const Engine& engine, const data::FleetData& fleet,
                                       const Alarm& alarm) {
  const std::string& id = engine.fleet().drives[alarm.drive_index].drive_id;
  for (const auto& d : fleet.drives)
    if (d.drive_id == id) return d;
  throw std::logic_error("alarm on unknown drive " + id);
}

TEST(FleetMonitor, RejectsBadOptions) {
  EngineOptions opt = light_monitor();
  opt.check_interval_days = 0;
  EXPECT_THROW(make_engine(opt), std::invalid_argument);
  opt = light_monitor();
  opt.warmup_days = 5;
  EXPECT_THROW(make_engine(opt), std::invalid_argument);
  opt = light_monitor();
  opt.alarm_threshold = 0.0;
  EXPECT_THROW(make_engine(opt), std::invalid_argument);
}

TEST(FleetMonitor, RejectsRewind) {
  Engine engine = make_engine(light_monitor());
  replay(engine, monitor_fleet(), 170);
  EXPECT_THROW(replay(engine, monitor_fleet(), 160), std::invalid_argument);
}

TEST(FleetMonitor, RunsChecksOnCadence) {
  const Engine engine = run_to_end(monitor_fleet(), light_monitor());
  // Warmup 150, interval 30, window 220: checks at 150, 180, 210.
  ASSERT_EQ(engine.checks().size(), 3u);
  EXPECT_EQ(engine.checks()[0].day, 150);
  EXPECT_EQ(engine.checks()[1].day, 180);
  EXPECT_TRUE(engine.checks()[0].features_changed);  // first selection
  EXPECT_FALSE(engine.checks()[0].selected_all.empty());
  EXPECT_TRUE(engine.has_predictor());
}

TEST(FleetMonitor, AlarmsAreFirstAlarmPerDrive) {
  const Engine engine = run_to_end(monitor_fleet(), light_monitor());
  std::set<std::size_t> seen;
  for (const auto& alarm : engine.alarms()) {
    EXPECT_TRUE(seen.insert(alarm.drive_index).second)
        << "drive " << alarm.drive_index << " alarmed twice";
    EXPECT_GE(alarm.day, 150);
    EXPECT_LT(alarm.day, 220);
    EXPECT_GE(alarm.score, 0.5);
  }
}

TEST(FleetMonitor, AlarmsCatchRealFailures) {
  const auto& fleet = monitor_fleet();
  const Engine engine = run_to_end(fleet, light_monitor());
  const auto& alarms = engine.alarms();
  ASSERT_GT(alarms.size(), 0u);
  std::size_t eventually_fail = 0, within_horizon = 0;
  for (const auto& alarm : alarms) {
    const auto& drive = alarmed_drive(engine, fleet, alarm);
    if (drive.failed() && drive.fail_day > alarm.day) {
      ++eventually_fail;
      if (drive.fail_day <= alarm.day + 30) ++within_horizon;
    }
  }
  // The degradation prodrome spans up to ~3 lead windows, so alarms may
  // legitimately fire earlier than the 30-day horizon; require that most
  // alarms are on genuinely dying drives and a solid share is within the
  // paper's horizon.
  const double n = static_cast<double>(alarms.size());
  EXPECT_GT(static_cast<double>(eventually_fail) / n, 0.55);
  EXPECT_GT(static_cast<double>(within_horizon) / n, 0.25);
}

TEST(FleetMonitor, IncrementalAdvanceMatchesSingleRun) {
  const Engine a = run_to_end(monitor_fleet(), light_monitor());
  const auto& one = a.alarms();

  // Chunk ends off the weekly rescore grid: alarms depend only on the
  // order of appends, not on when the engine rescored.
  Engine b = make_engine(light_monitor());
  for (int day = 160; day <= 230; day += 10) replay(b, monitor_fleet(), day);
  const auto& parts = b.alarms();
  ASSERT_EQ(parts.size(), one.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(parts[i].drive_index, one[i].drive_index);
    EXPECT_EQ(parts[i].day, one[i].day);
  }
}

TEST(FleetMonitor, CalibratedThresholdAdjusts) {
  EngineOptions opt = light_monitor();
  opt.target_recall = 0.3;
  const Engine engine = run_to_end(monitor_fleet(), opt);
  // Calibration must have replaced the initial threshold with a
  // validation-derived operating point in (0, 1].
  EXPECT_NE(engine.alarm_threshold(), 0.75);
  EXPECT_GT(engine.alarm_threshold(), 0.0);
  EXPECT_LE(engine.alarm_threshold(), 1.0);
}

TEST(FleetMonitor, RejectsBadCalibration) {
  EngineOptions opt = light_monitor();
  opt.target_recall = 1.5;
  EXPECT_THROW(make_engine(opt), std::invalid_argument);
  opt = light_monitor();
  opt.validation_frac = 1.0;
  EXPECT_THROW(make_engine(opt), std::invalid_argument);
}

TEST(FleetMonitor, AdvanceClampsToWindow) {
  Engine engine = make_engine(light_monitor());
  replay(engine, monitor_fleet(), 100000);
  EXPECT_EQ(engine.fleet().num_days, monitor_fleet().num_days);
}

// ---------------------------------------------------------------------------
// Online drift watch: BOCPD over the day-over-day delta of the active
// fleet's mean MWI_N, pulling the next re-check to the day after a
// detected population change.

constexpr int kChurnDay = 146;

/// The heterogeneous scenario the drift watch exists for: half the
/// fleet replaced mid-window by a hot-wear cohort.
data::FleetData churned_fleet(bool with_churn) {
  smartsim::MixedFleetSpec spec;
  spec.shares = smartsim::parse_mix_spec("MC1:0.6,MA2:0.4");
  spec.sim.num_drives = 400;
  spec.sim.num_days = 220;
  spec.sim.seed = 11;
  spec.sim.afr_scale = 11.0;
  if (with_churn) {
    spec.churn = smartsim::parse_churn_spec("replace@146:0.5:MC1:3.0", 400);
  }
  auto res = smartsim::generate_mixed_fleet(spec);
  data::forward_fill(res.fleet, 0.0);
  return std::move(res.fleet);
}

EngineOptions drift_monitor() {
  EngineOptions opt = light_monitor();
  opt.warmup_days = 120;
  opt.check_interval_days = 28;  // slow cadence the watch must beat
  opt.retrain_every_check = false;
  opt.online_drift_check = true;
  return opt;
}

TEST(FleetMonitor, DriftWatchTracksPlantedChurnWithBoundedLag) {
  static const data::FleetData fleet = churned_fleet(true);
  const Engine engine = run_to_end(fleet, drift_monitor());

  const auto& detections = engine.drift_detections();
  ASSERT_FALSE(detections.empty());
  // Every detection tracks the planted change point with bounded lag —
  // no spurious alarms before it (the burn-in guard holds the first
  // post-warmup deltas back) and none long after.
  for (const auto& det : detections) {
    EXPECT_GE(det.day, kChurnDay);
    EXPECT_LE(det.day, kChurnDay + 10);
    EXPECT_GE(det.probability, drift_monitor().drift_probability_threshold);
  }

  // The detection pulled the next re-check off the 28-day cadence to
  // the day right after, and the check is tagged as drift-triggered.
  bool triggered = false;
  for (const auto& ev : engine.checks()) {
    if (!ev.drift_triggered) continue;
    triggered = true;
    EXPECT_EQ(ev.day, detections.front().day + 1);
    EXPECT_GE(ev.change_probability, drift_monitor().drift_probability_threshold);
  }
  EXPECT_TRUE(triggered);
}

TEST(FleetMonitor, DriftWatchQuietWithoutChurn) {
  static const data::FleetData fleet = churned_fleet(false);
  EngineOptions opt = drift_monitor();
  opt.check_interval_days = 45;  // fewer re-checks; the watch runs every day
  const Engine engine = run_to_end(fleet, opt);
  EXPECT_TRUE(engine.drift_detections().empty());
  for (const auto& ev : engine.checks()) EXPECT_FALSE(ev.drift_triggered);
  // The watch starts at the warmup day: fed from day 0, it fires at days
  // 154 and 178 on this fleet and pulls the checks to 155 and 179.
  ASSERT_EQ(engine.checks().size(), 3u);
  EXPECT_EQ(engine.checks()[0].day, 120);
  EXPECT_EQ(engine.checks()[1].day, 165);
  EXPECT_EQ(engine.checks()[2].day, 210);
}

TEST(FleetMonitor, DriftWatchOffByDefault) {
  static const data::FleetData fleet = churned_fleet(true);
  EngineOptions opt = drift_monitor();
  opt.online_drift_check = false;
  const Engine engine = run_to_end(fleet, opt);
  EXPECT_TRUE(engine.drift_detections().empty());
  // Checks stay on the plain cadence: warmup 120, interval 28 -> 120,
  // 148, 176, 204.
  for (std::size_t i = 0; i < engine.checks().size(); ++i)
    EXPECT_EQ(engine.checks()[i].day, 120 + 28 * static_cast<int>(i));
}

TEST(FleetMonitor, RejectsBadDriftCooldown) {
  EngineOptions opt = drift_monitor();
  opt.drift_cooldown_days = 0;
  EXPECT_THROW(make_engine(opt), std::invalid_argument);
}

}  // namespace
}  // namespace wefr::daemon
