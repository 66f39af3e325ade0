// Heterogeneous-fleet scenario sweep: WEFR robustness to mixed drive
// models, population churn, and planted wear-distribution drift.
//
// Each scenario composes a mixed fleet (per-model shares, optional
// churn/drift schedule) via smartsim::generate_mixed_fleet, reconciles
// the per-model schemas into one pooled namespace, and runs the full
// WEFR pipeline on the pool. Per distinct (model, slice-size) the same
// pipeline runs on a pure single-model fleet as the baseline. Gates
// (all must pass or the bench exits non-zero):
//
//   1. pooled AUC >= mean(per-model AUC) - WEFR_SCENARIO_AUC_BOUND
//      (default 0.10) on every scenario where both sides are measurable
//      — schema reconciliation must not wreck pooled learning;
//   2. the deployment loop's online drift watch (daemon::Engine fed by
//      daemon::replay) detects the planted churn change point within
//      WEFR_SCENARIO_LAG_BOUND days (default 21, i.e. better than three
//      weekly cadences);
//   3. determinism: regenerating a scenario fleet is bit-identical, and
//      pooled fleet scoring is bit-identical at 1 vs N threads.
//
// Prints a human-readable report and writes BENCH_scenarios.json into
// the working directory. Honors WEFR_BENCH_* (bench_common.h) plus
// WEFR_BENCH_SCENARIO_DRIVES for the pooled fleet size.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "core/wefr.h"
#include "daemon/engine.h"
#include "data/preprocess.h"
#include "data/schema.h"
#include "ml/metrics.h"
#include "obs/json.h"
#include "smartsim/mixed_fleet.h"
#include "util/thread_pool.h"

using namespace wefr;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct ScenarioSpec {
  std::string name;
  std::string mix;           ///< parse_mix_spec syntax
  double churn_frac = 0.0;   ///< replace this fraction of active drives
  double wear_mult = 1.0;    ///< drift magnitude of the added cohort
  double mwi_shift = 0.0;
  std::string add_model;     ///< cohort model ("" = none scheduled)
};

struct WefrAucRun {
  double auc = kNaN;
  std::size_t positives = 0;
  std::size_t selected = 0;
  std::string diag;
};

/// Full pipeline on one fleet: selection on days [0, train_end],
/// day-level AUC on the days after. NaN AUC (never a throw) on fleets
/// too degenerate to learn from.
WefrAucRun wefr_auc(const data::FleetData& fleet, const core::CompareConfig& cc,
                    int train_end) {
  WefrAucRun out;
  core::PipelineDiagnostics diag;
  try {
    const auto samples = core::build_selection_samples(fleet, 0, train_end, cc.exp);
    out.positives = samples.num_positive();
    if (samples.size() == 0 || samples.num_positive() == 0) {
      out.diag = "no positive samples";
      return out;
    }
    const core::WefrResult sel = core::run_wefr(fleet, samples, train_end, cc.wefr, &diag);
    out.selected = sel.all.selected.size();
    const auto pred = core::train_predictor(fleet, sel, 0, train_end, cc.exp);
    const auto scores =
        core::score_fleet(fleet, pred, train_end + 1, fleet.num_days - 1, cc.exp, &diag);
    std::vector<double> flat;
    std::vector<int> labels;
    for (const auto& ds : scores) {
      const auto& drive = fleet.drives[ds.drive_index];
      for (std::size_t i = 0; i < ds.scores.size(); ++i) {
        const int day = ds.first_day + static_cast<int>(i);
        flat.push_back(ds.scores[i]);
        labels.push_back(drive.failed() && drive.fail_day > day &&
                                 drive.fail_day <= day + cc.exp.horizon_days
                             ? 1
                             : 0);
      }
    }
    bool has_pos = false, has_neg = false;
    for (int l : labels) (l != 0 ? has_pos : has_neg) = true;
    if (has_pos && has_neg) out.auc = ml::auc(flat, labels);
  } catch (const std::exception& e) {
    out.diag = e.what();
  }
  if (out.diag.empty()) out.diag = diag.summary();
  return out;
}

smartsim::MixedFleetSpec spec_for(const ScenarioSpec& sc, std::size_t drives,
                                  int num_days, double afr, std::uint64_t seed) {
  smartsim::MixedFleetSpec ms;
  ms.shares = smartsim::parse_mix_spec(sc.mix);
  ms.sim.num_drives = drives;
  ms.sim.num_days = num_days;
  ms.sim.seed = seed;
  ms.sim.afr_scale = afr;
  if (sc.churn_frac > 0.0) {
    smartsim::ChurnEvent ev;
    ev.day = (num_days * 2) / 3;
    ev.kind = smartsim::ChurnKind::kReplace;
    ev.retire_fraction = sc.churn_frac;
    ev.add_model = sc.add_model;
    ev.wear_rate_mult = sc.wear_mult;
    ev.mwi_start_shift = sc.mwi_shift;
    ms.churn.push_back(ev);
  }
  return ms;
}

bool fleets_bitwise_equal(const data::FleetData& a, const data::FleetData& b) {
  if (a.model_name != b.model_name || a.feature_names != b.feature_names ||
      a.num_days != b.num_days || a.drives.size() != b.drives.size())
    return false;
  for (std::size_t i = 0; i < a.drives.size(); ++i) {
    const auto& da = a.drives[i];
    const auto& db = b.drives[i];
    if (da.drive_id != db.drive_id || da.first_day != db.first_day ||
        da.fail_day != db.fail_day)
      return false;
    const auto ra = da.values.raw();
    const auto rb = db.values.raw();
    if (ra.size() != rb.size() ||
        std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

}  // namespace

int main() {
  const benchx::BenchScale scale = benchx::scale_from_env();
  const std::size_t drives = static_cast<std::size_t>(benchx::env_or(
      "WEFR_BENCH_SCENARIO_DRIVES",
      static_cast<double>(std::min<std::size_t>(scale.total_drives, 1600))));
  const int num_days = scale.num_days;
  const double afr = scale.afr_scale > 0.0 ? scale.afr_scale : 11.0;
  const double auc_bound = benchx::env_or("WEFR_SCENARIO_AUC_BOUND", 0.10);
  const int lag_bound = static_cast<int>(benchx::env_or("WEFR_SCENARIO_LAG_BOUND", 21));
  const std::size_t hw_threads = util::default_thread_count();

  core::CompareConfig cc = benchx::compare_config(scale);

  // The sweep: mix ratios x churn rates x drift magnitudes. Small by
  // design — each cell is a full WEFR pipeline run — but every axis is
  // covered, including an SSD+HDD pool that forces union-schema
  // reconciliation with NaN-filled flash-wear columns.
  const std::vector<ScenarioSpec> scenarios = {
      {"balanced", "MC1:0.5,MA1:0.5", 0.0, 1.0, 0.0, ""},
      {"balanced-churn", "MC1:0.5,MA1:0.5", 0.3, 1.0, 0.0, "MC1"},
      {"ssd-hdd", "MC1:0.45,MA1:0.35,HDD1:0.2", 0.0, 1.0, 0.0, ""},
      {"drift-small", "MC1:0.6,MA2:0.4", 0.3, 2.0, 10.0, "MC1"},
      {"drift-large", "MC1:0.6,MA2:0.4", 0.5, 3.0, 25.0, "MC1"},
  };

  std::printf("Scenario sweep — %zu pooled drives, %d days, afr x%.1f, %zu scenarios\n\n",
              drives, num_days, afr, scenarios.size());

  const int train_end = (num_days * 2) / 3 - 1;

  // Per-model baselines, cached by (model, slice size): the pure
  // single-model pipeline the pooled run is gated against.
  std::map<std::string, WefrAucRun> baseline;
  auto per_model_auc = [&](const std::string& model, std::size_t count) -> WefrAucRun {
    const std::string key = model + "@" + std::to_string(count);
    if (auto it = baseline.find(key); it != baseline.end()) return it->second;
    smartsim::SimOptions o;
    o.num_drives = count;
    o.num_days = num_days;
    o.seed = 515151 ^ std::hash<std::string>{}(model);
    o.afr_scale = afr;
    const auto fleet = smartsim::generate_fleet(smartsim::profile_by_name(model), o);
    WefrAucRun run = wefr_auc(fleet, cc, train_end);
    baseline.emplace(key, run);
    return run;
  };

  struct ScenarioRow {
    ScenarioSpec spec;
    std::size_t pool_drives = 0, pool_failed = 0;
    std::size_t dropped = 0, nan_filled = 0, cells_nan_filled = 0;
    double pooled_auc = kNaN;
    std::vector<std::string> models;
    std::vector<double> model_aucs;
    double mean_model_auc = kNaN;
    bool gate_pass = true;  ///< vacuously true when unmeasurable
    bool measurable = false;
    std::string diags;
  };
  std::vector<ScenarioRow> rows;
  bool auc_gate_pass = true;

  std::printf("  %-16s %8s %7s %9s %10s %12s %6s\n", "scenario", "drives", "failed",
              "nan-cols", "pooled-auc", "mean-model", "gate");
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const ScenarioSpec& sc = scenarios[si];
    const auto ms = spec_for(sc, drives, num_days, afr, 7100 + si);
    auto res = smartsim::generate_mixed_fleet(ms);
    // Zero-fill the reconciliation holes (columns a model never
    // reports) before the learning stack, the chaos-suite convention.
    data::forward_fill(res.fleet, 0.0);

    ScenarioRow row;
    row.spec = sc;
    row.pool_drives = res.fleet.drives.size();
    row.pool_failed = res.fleet.num_failed();
    row.dropped = res.schema.dropped.size();
    row.nan_filled = res.schema.nan_filled.size();
    row.cells_nan_filled = res.schema.cells_nan_filled;
    for (const auto& d : res.diagnostics) {
      if (!row.diags.empty()) row.diags += "; ";
      row.diags += d;
    }

    const WefrAucRun pooled = wefr_auc(res.fleet, cc, train_end);
    row.pooled_auc = pooled.auc;

    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& share : ms.shares) {
      const auto count = static_cast<std::size_t>(
          share.share * static_cast<double>(drives) + 0.5);
      if (count == 0) continue;
      const WefrAucRun run = per_model_auc(share.model, count);
      row.models.push_back(share.model);
      row.model_aucs.push_back(run.auc);
      if (!std::isnan(run.auc)) {
        sum += run.auc;
        ++n;
      }
    }
    if (n > 0) row.mean_model_auc = sum / static_cast<double>(n);
    row.measurable = !std::isnan(row.pooled_auc) && !std::isnan(row.mean_model_auc);
    if (row.measurable) {
      row.gate_pass = row.pooled_auc >= row.mean_model_auc - auc_bound;
      auc_gate_pass = auc_gate_pass && row.gate_pass;
    }
    std::printf("  %-16s %8zu %7zu %9zu %10.3f %12.3f %6s\n", sc.name.c_str(),
                row.pool_drives, row.pool_failed, row.cells_nan_filled, row.pooled_auc,
                row.mean_model_auc,
                row.measurable ? (row.gate_pass ? "PASS" : "FAIL") : "skip");
    rows.push_back(std::move(row));
  }
  std::printf("  AUC gate (pooled >= mean per-model - %.2f): %s\n\n", auc_bound,
              auc_gate_pass ? "PASS" : "FAIL");

  // --- Monitor re-check lag on a drifted mixed fleet. The churn wave
  // replaces half the pool with a hot-wear, low-MWI cohort; the online
  // drift watch must pull the re-check forward within lag_bound days of
  // the planted change point.
  ScenarioSpec drift_sc = scenarios.back();
  const auto drift_ms =
      spec_for(drift_sc, std::max<std::size_t>(400, drives / 2), num_days, afr, 9090);
  auto drift_res = smartsim::generate_mixed_fleet(drift_ms);
  data::forward_fill(drift_res.fleet, 0.0);
  const int churn_day = drift_ms.churn.front().day;

  daemon::EngineOptions mo;
  mo.experiment = cc.exp;
  mo.wefr = cc.wefr;
  mo.online_drift_check = true;
  mo.check_interval_days = 28;  // slow cadence: the drift watch must beat it
  mo.retrain_every_check = false;
  daemon::Engine monitor(mo, mo.experiment.windows);
  daemon::replay(monitor, drift_res.fleet, drift_res.fleet.num_days);
  int detection_day = -1;
  for (const auto& det : monitor.drift_detections()) {
    if (det.day >= churn_day) {
      detection_day = det.day;
      break;
    }
  }
  const int lag = detection_day >= 0 ? detection_day - churn_day : -1;
  const bool lag_gate_pass = lag >= 0 && lag <= lag_bound;
  std::printf("drift watch: churn day %d, detection day %d, lag %d (%zu detections)\n",
              churn_day, detection_day, lag, monitor.drift_detections().size());
  std::printf("  lag gate (0 <= lag <= %d): %s\n\n", lag_bound,
              lag_gate_pass ? "PASS" : "FAIL");

  // --- Determinism: same spec -> bit-identical fleet, and pooled
  // scoring bit-identical at 1 vs N threads.
  const auto regen_ms = spec_for(scenarios[1], drives, num_days, afr, 7101);
  auto gen_a = smartsim::generate_mixed_fleet(regen_ms);
  auto gen_b = smartsim::generate_mixed_fleet(regen_ms);
  const bool regen_identical = fleets_bitwise_equal(gen_a.fleet, gen_b.fleet);

  data::forward_fill(gen_a.fleet, 0.0);
  bool scores_identical = true;
  {
    const auto samples = core::build_selection_samples(gen_a.fleet, 0, train_end, cc.exp);
    core::PipelineDiagnostics diag;
    const auto sel = core::run_wefr(gen_a.fleet, samples, train_end, cc.wefr, &diag);
    const auto pred = core::train_predictor(gen_a.fleet, sel, 0, train_end, cc.exp);
    core::ExperimentConfig serial_cfg = cc.exp;
    serial_cfg.num_threads = 1;
    core::ExperimentConfig parallel_cfg = cc.exp;
    parallel_cfg.num_threads = hw_threads;
    const auto s1 = core::score_fleet(gen_a.fleet, pred, train_end + 1,
                                      gen_a.fleet.num_days - 1, serial_cfg);
    const auto sn = core::score_fleet(gen_a.fleet, pred, train_end + 1,
                                      gen_a.fleet.num_days - 1, parallel_cfg);
    scores_identical = s1.size() == sn.size();
    for (std::size_t i = 0; scores_identical && i < s1.size(); ++i) {
      scores_identical = s1[i].drive_index == sn[i].drive_index &&
                         s1[i].first_day == sn[i].first_day &&
                         s1[i].scores.size() == sn[i].scores.size() &&
                         std::memcmp(s1[i].scores.data(), sn[i].scores.data(),
                                     s1[i].scores.size() * sizeof(double)) == 0;
    }
  }
  const bool determinism_gate_pass = regen_identical && scores_identical;
  std::printf("determinism: regenerate %s, scores 1-vs-%zu-thread %s; gate %s\n\n",
              regen_identical ? "bit-identical" : "DIFFER", hw_threads,
              scores_identical ? "bit-identical" : "DIFFER",
              determinism_gate_pass ? "PASS" : "FAIL");

  const bool gates_pass = auc_gate_pass && lag_gate_pass && determinism_gate_pass;
  std::printf("scenario gates: %s\n", gates_pass ? "PASS" : "FAIL");

  // --- machine-readable summary.
  {
    std::ofstream js("BENCH_scenarios.json");
    obs::json::Writer w(js);
    w.begin_object();
    w.key("scale").begin_object();
    w.field("drives", drives).field("days", num_days).field("afr_scale", afr);
    w.field("trees", scale.trees).end_object();
    w.key("scenarios").begin_array();
    for (const auto& row : rows) {
      w.begin_object();
      w.field("name", row.spec.name).field("mix", row.spec.mix);
      w.field("churn_fraction", row.spec.churn_frac);
      w.field("wear_rate_mult", row.spec.wear_mult);
      w.field("mwi_start_shift", row.spec.mwi_shift);
      w.field("drives", row.pool_drives).field("failed", row.pool_failed);
      w.key("schema").begin_object();
      w.field("dropped_columns", row.dropped);
      w.field("nan_filled_columns", row.nan_filled);
      w.field("cells_nan_filled", row.cells_nan_filled).end_object();
      w.field("pooled_auc", row.pooled_auc);
      w.key("models").begin_array();
      for (const auto& m : row.models) w.value(m);
      w.end_array();
      w.key("model_aucs").begin_array();
      for (double a : row.model_aucs) w.value(a);
      w.end_array();
      w.field("mean_model_auc", row.mean_model_auc);
      w.field("measurable", row.measurable);
      w.field("gate_pass", row.gate_pass);
      w.field("diagnostics", row.diags);
      w.end_object();
    }
    w.end_array();
    w.key("auc_gate").begin_object();
    w.field("bound", auc_bound).field("gate_pass", auc_gate_pass).end_object();
    w.key("drift_watch").begin_object();
    w.field("churn_day", churn_day).field("detection_day", detection_day);
    w.field("lag_days", lag).field("lag_bound", lag_bound);
    w.field("detections", monitor.drift_detections().size());
    w.field("gate_pass", lag_gate_pass).end_object();
    w.key("determinism").begin_object();
    w.field("regenerate_identical", regen_identical);
    w.field("threads", hw_threads);
    w.field("scores_identical", scores_identical);
    w.field("gate_pass", determinism_gate_pass).end_object();
    w.field("gates_pass", gates_pass);
    w.end_object();
  }
  std::printf("wrote BENCH_scenarios.json\n");
  return gates_pass ? 0 : 1;
}
