// Resident-engine benchmark: the daemon's O(changed-drives) daily
// update vs the full-pipeline rerun it replaces.
//
// Scenario: the fleet's whole history is resident in a daemon::Engine
// with a trained predictor and a clean score set (the steady state a
// long-running wefrd reaches). Then, for a stretch of simulated days,
// a small fraction of drives (<5%) report a new observation each day —
// the realistic ingest shape, where most of the fleet is idle on any
// given day. Each day we time:
//
//   incremental — append the changed drives' rows + Engine::rescore(),
//     which runs forest inference only over the dirty drives' new days;
//   full rerun  — core::score_fleet over the entire resident history,
//     what a batch pipeline restart would pay for the same freshness.
//
// Two hard gates (non-zero exit on failure):
//   identity — after every incremental day, Engine::scores() must be
//     bit-identical to the from-scratch batch oracle on the same data;
//   speedup  — the mean full/incremental ratio across the measured
//     days must be >= 20x (WEFR_DAEMON_MIN_SPEEDUP overrides).
//
// Prints a human-readable report and writes BENCH_daemon.json (schema
// in README.md, "Performance"). Honors the usual WEFR_BENCH_* knobs.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "daemon/engine.h"
#include "obs/json.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace wefr;

namespace {

bool same_bits(const std::vector<core::DriveDayScores>& a,
               const std::vector<core::DriveDayScores>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].drive_index != b[i].drive_index || a[i].first_day != b[i].first_day ||
        a[i].scores.size() != b[i].scores.size())
      return false;
    if (std::memcmp(a[i].scores.data(), b[i].scores.data(),
                    a[i].scores.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

}  // namespace

int main() {
  const auto scale = benchx::scale_from_env();
  const std::string model = "MC1";
  const auto fleet = benchx::make_fleet(model, scale);
  const double change_fraction = 0.04;  // drives reporting per simulated day
  const int measured_days = 20;
  const double min_speedup = benchx::env_or("WEFR_DAEMON_MIN_SPEEDUP", 20.0);

  core::ExperimentConfig cfg;
  cfg.forest.num_trees = scale.trees;
  cfg.forest.tree.max_depth = 13;
  cfg.forest.tree.min_samples_leaf = 4;
  cfg.negative_keep_prob = scale.negative_keep;

  // Deterministic engine mode: one predictor trained on the history
  // prefix, no in-process re-checks — this measures the scoring path,
  // not retraining.
  const int steady_end = fleet.num_days - 1 - measured_days;
  const int train_end = std::max(45, steady_end / 2);
  std::vector<std::size_t> all_cols(fleet.num_features());
  std::iota(all_cols.begin(), all_cols.end(), std::size_t{0});
  const auto pred = core::train_predictor(fleet, all_cols, 0, train_end, cfg);

  daemon::EngineOptions eopt;
  eopt.experiment = cfg;
  eopt.auto_check = false;
  daemon::Engine engine(eopt, cfg.windows);
  engine.resident().set_schema(fleet.model_name, fleet.feature_names);
  engine.set_predictor(pred);

  // Reach the steady state: the whole prefix resident and scored.
  util::Stopwatch sw;
  for (int day = 0; day <= steady_end; ++day) {
    for (const auto& d : fleet.drives) {
      if (day < d.first_day || day > d.last_day()) continue;
      engine.append_day(d.drive_id, day,
                        d.values.row(static_cast<std::size_t>(day - d.first_day)),
                        d.fail_day);
    }
  }
  const double ingest_s = sw.seconds();
  sw = util::Stopwatch();
  const auto warm = engine.rescore();
  const double warm_rescore_s = sw.seconds();

  std::printf("daemon bench: model %s, %zu drives, %d resident days, %zu trees\n",
              model.c_str(), fleet.drives.size(), steady_end + 1, scale.trees);
  std::printf("steady state: ingest %.3f s, first rescore %.3f s (%zu rows)\n\n",
              ingest_s, warm_rescore_s, warm.rows_scored);

  // Daily loop: every day a rotating ~4% slice of the fleet reports its
  // next pending observation; the rest of the fleet is idle. Drives
  // therefore sit at different watermarks, exactly like a live ingest.
  const std::size_t stride =
      std::max<std::size_t>(1, static_cast<std::size_t>(1.0 / change_fraction));
  std::vector<double> incr_s, full_s, speedups;
  std::size_t rows_incremental = 0;
  bool identical = true;
  for (int tick = 0; tick < measured_days; ++tick) {
    sw = util::Stopwatch();
    std::size_t changed = 0;
    for (std::size_t di = static_cast<std::size_t>(tick) % stride;
         di < fleet.drives.size(); di += stride) {
      const auto& d = fleet.drives[di];
      const int next = engine.fleet().drives[di].last_day() + 1;
      if (next > d.last_day()) continue;  // series exhausted (failed drive)
      engine.append_day(d.drive_id, next,
                        d.values.row(static_cast<std::size_t>(next - d.first_day)),
                        d.fail_day);
      ++changed;
    }
    const auto stats = engine.rescore();
    const double inc = sw.seconds();
    rows_incremental += stats.rows_scored;

    // The same freshness through the batch pipeline: re-score the whole
    // resident history from scratch. Also the identity oracle.
    const auto& resident = engine.fleet();
    sw = util::Stopwatch();
    const auto oracle = core::score_fleet(resident, pred, 0, resident.num_days - 1, cfg);
    const double full = sw.seconds();
    identical = identical && same_bits(engine.scores(), oracle);

    incr_s.push_back(inc);
    full_s.push_back(full);
    speedups.push_back(full / std::max(inc, 1e-9));
    if (tick < 3 || tick == measured_days - 1) {
      std::printf("  day +%2d: %4zu drives changed, %4zu rows rescored — "
                  "incremental %8.5f s, full rerun %8.3f s (%.0fx)\n",
                  tick + 1, changed, stats.rows_scored, inc, full, speedups.back());
    }
  }

  const auto mean = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
  };
  const double mean_incr = mean(incr_s);
  const double mean_full = mean(full_s);
  const double mean_speedup = mean_full / std::max(mean_incr, 1e-9);
  const double min_observed = *std::min_element(speedups.begin(), speedups.end());
  const bool speedup_pass = mean_speedup >= min_speedup;

  std::printf("\n%d days at %.0f%% drives changing per day:\n", measured_days,
              change_fraction * 100.0);
  std::printf("  incremental mean %.5f s/day, full-rerun mean %.3f s/day\n", mean_incr,
              mean_full);
  std::printf("  mean speedup %.0fx (min day %.0fx); gate >=%.0fx %s\n", mean_speedup,
              min_observed, min_speedup, speedup_pass ? "PASS" : "FAIL");
  std::printf("  bit-identity vs batch oracle across all %d days: %s\n", measured_days,
              identical ? "PASS" : "FAIL");

  {
    std::ofstream js("BENCH_daemon.json");
    obs::json::Writer w(js);
    w.begin_object();
    w.field("model", model);
    w.key("scale").begin_object();
    w.field("drives", fleet.drives.size()).field("days", scale.num_days);
    w.field("trees", scale.trees);
    w.field("hw_threads", util::default_thread_count()).end_object();
    w.key("steady_state").begin_object();
    w.field("resident_days", steady_end + 1);
    w.field("ingest_seconds", ingest_s);
    w.field("first_rescore_seconds", warm_rescore_s);
    w.field("first_rescore_rows", warm.rows_scored).end_object();
    w.key("daily").begin_object();
    w.field("measured_days", measured_days);
    w.field("change_fraction", change_fraction);
    w.field("rows_rescored_total", rows_incremental);
    w.field("incremental_mean_seconds", mean_incr);
    w.field("full_rerun_mean_seconds", mean_full);
    w.field("mean_speedup", mean_speedup);
    w.field("min_day_speedup", min_observed).end_object();
    w.key("gates").begin_object();
    w.field("outputs_identical", identical);
    w.field("min_speedup", min_speedup);
    w.field("speedup_pass", speedup_pass);
    w.field("gate_pass", identical && speedup_pass).end_object();
    w.end_object();
    js << '\n';
  }
  std::printf("wrote BENCH_daemon.json\n");
  return identical && speedup_pass ? 0 : 1;
}
