// Operational example: a weekly monitoring loop over a live fleet, the
// deployment mode described in Section IV-D. Each week the monitor
//   1. rebuilds the survival-rate-vs-MWI_N curve from data seen so far,
//   2. re-runs Bayesian change-point detection,
//   3. re-selects features per wear group when the threshold moved,
//   4. retrains the predictor and emits decommission alarms for the
//      coming week.
//
// Each weekly pass is instrumented through wefr::obs: a live progress
// line reports how long selection / training / scoring took (per-stage
// Stopwatch laps) and how many trace spans the week produced.
//
//   ./examples/fleet_monitor [MODEL] [DRIVES] [CSV] [CACHE_DIR]
//   ./examples/fleet_monitor --churn [DRIVES] [MIX] [CHURN]
//   ./examples/fleet_monitor --daemon [DRIVES]
//
// All arguments are positional; defaults are MC1 / 500 / simulate.
// With a CSV path the fleet is loaded from that file (tolerant parse,
// forward-filled) instead of simulated; a CACHE_DIR on top turns
// repeat runs into a single mapped read of the binary columnar
// snapshot.
//
// The --churn mode runs the heterogeneous-fleet scenario instead: a
// mixed-model pool (MIX, parse_mix_spec syntax, default
// "MC1:0.6,MA2:0.4") hit by a churn schedule (CHURN, parse_churn_spec
// syntax, default a half-fleet replacement with a hot-wear cohort) is
// monitored by core::FleetMonitor with the online change-point drift
// watch enabled, and the re-check lag behind the planted population
// change is printed.
//
// The --daemon mode is the same weekly loop rebuilt as a wefrd client:
// the fleet is streamed into a resident daemon::Engine one drive-day at
// a time over the framed daemon protocol, the daemon runs the weekly
// re-check and drift watch in-process, scoring touches only the drives
// that changed, and the client survives a deliberate mid-stream
// connection drop by transparently reconnecting.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/monitor.h"
#include "daemon/client.h"
#include "daemon/engine.h"
#include "daemon/server.h"
#include "core/pipeline.h"
#include "core/wefr.h"
#include "data/cache.h"
#include "data/preprocess.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "smartsim/generator.h"
#include "smartsim/mixed_fleet.h"
#include "util/stopwatch.h"
#include "util/strings.h"

using namespace wefr;

namespace {

/// The --churn scenario: mixed fleet + churn schedule + FleetMonitor
/// with the online drift watch, reporting the re-check lag behind each
/// planted population change.
int run_churn_scenario(std::size_t drives, const std::string& mix_spec,
                       const std::string& churn_spec) {
  smartsim::MixedFleetSpec spec;
  spec.shares = smartsim::parse_mix_spec(mix_spec);
  spec.sim.num_drives = drives;
  spec.sim.num_days = 220;
  spec.sim.seed = 11;
  spec.sim.afr_scale = 11.0;
  spec.churn = smartsim::parse_churn_spec(churn_spec, drives);

  auto res = smartsim::generate_mixed_fleet(spec);
  std::printf("mixed fleet %s: %zu drives (%zu will fail), %zu features\n",
              res.fleet.model_name.c_str(), res.fleet.drives.size(),
              res.fleet.num_failed(), res.fleet.num_features());
  std::printf("schema: %s\n", res.schema.summary().c_str());
  for (const auto& d : res.diagnostics) std::printf("degraded: %s\n", d.c_str());
  for (int d : res.churn_days)
    std::printf("churn day %d (%s)\n", d,
                std::count(res.drift_days.begin(), res.drift_days.end(), d) > 0
                    ? "with wear-distribution drift"
                    : "population only");
  data::forward_fill(res.fleet, 0.0);

  core::MonitorOptions mo;
  mo.experiment.forest.num_trees = 25;
  mo.experiment.negative_keep_prob = 0.08;
  mo.online_drift_check = true;
  mo.check_interval_days = 28;  // slow cadence: the drift watch must beat it
  mo.retrain_every_check = false;
  core::FleetMonitor monitor(res.fleet, mo);
  const auto alarms = monitor.run_to_end();

  std::printf("\n%zu alarms; %zu re-checks, %zu drift detections\n", alarms.size(),
              monitor.updates().size(), monitor.drift_detections().size());
  for (const auto& det : monitor.drift_detections())
    std::printf("drift detected day %d (p=%.2f)\n", det.day, det.probability);
  for (const auto& up : monitor.updates()) {
    if (!up.drift_triggered) continue;
    // Re-check lag: days between the most recent planted churn and the
    // drift-triggered re-check that responded to it.
    int planted = -1;
    for (int d : res.churn_days) {
      if (d <= up.day) planted = d;
    }
    if (planted >= 0)
      std::printf("drift-triggered re-check day %d: lag %d days behind churn day %d\n",
                  up.day, up.day - planted, planted);
  }
  if (monitor.drift_detections().empty())
    std::printf("no drift detections (nothing planted, or watch outpaced by cadence)\n");
  return 0;
}

/// The --daemon scenario: the weekly monitoring loop as a wefrd
/// client. The daemon owns all state; this process only streams
/// drive-days in and asks for scores back.
int run_daemon_scenario(std::size_t drives) {
  smartsim::SimOptions sim;
  sim.num_drives = drives;
  sim.num_days = 220;
  sim.seed = 11;
  sim.afr_scale = 30.0;
  const auto fleet = generate_fleet(smartsim::profile_by_name("MC1"), sim);
  std::printf("daemon-monitoring %s fleet: %zu drives (%zu will fail)\n\n",
              fleet.model_name.c_str(), fleet.drives.size(), fleet.num_failed());

  daemon::EngineOptions eopt;
  eopt.experiment.forest.num_trees = 25;
  eopt.experiment.negative_keep_prob = 0.08;
  eopt.warmup_days = 150;
  eopt.check_interval_days = 28;  // monthly re-check; drift can pull it in
  eopt.online_drift_check = true;
  // Retrain only when the selected feature set moves: a stable
  // predictor is what lets the weekly rescore touch just the ~7 new
  // days per drive instead of the whole history.
  eopt.retrain_every_check = false;
  daemon::Engine engine(eopt, eopt.experiment.windows);

  daemon::ServerOptions sopt;
  int loop_fd = -1;
#ifdef WEFR_FORCE_LOOPBACK_DAEMON
  // Sanitizer builds: same event loop over an in-process socketpair.
  daemon::Server server(engine, sopt);
  loop_fd = server.connect_loopback();
  if (loop_fd < 0) {
    std::fprintf(stderr, "loopback setup failed\n");
    return 1;
  }
#else
  sopt.socket_path = "/tmp/wefrd-example-" + std::to_string(::getpid()) + ".sock";
  daemon::Server server(engine, sopt);
  std::string lerr;
  if (!server.listen_unix(&lerr)) {
    std::fprintf(stderr, "listen failed: %s\n", lerr.c_str());
    return 1;
  }
#endif
  std::thread server_thread([&server] { server.run(); });

  daemon::Client::Options copt;
  copt.socket_path = sopt.socket_path;
  copt.client_name = "fleet_monitor";
  copt.model_name = fleet.model_name;
  copt.feature_names = fleet.feature_names;
  daemon::Client client(copt);
  std::string cerr_msg;
  const bool connected = loop_fd >= 0 ? client.adopt_fd(loop_fd, &cerr_msg)
                                      : client.connect(&cerr_msg);
  if (!connected) {
    std::fprintf(stderr, "connect failed: %s\n", cerr_msg.c_str());
    server.request_stop();
    server_thread.join();
    return 1;
  }

  const int week = 7;
  const double alarm_threshold = 0.8;
  std::size_t alarms_total = 0, alarms_correct = 0;
  std::vector<bool> decommissioned(fleet.drives.size(), false);
  bool dropped = false;
  daemon::Msg reply;
  std::string err;

  for (int day = 0; day < fleet.num_days; ++day) {
    if (!dropped && day == 180 && loop_fd < 0) {
      // Simulated client crash: the next request redials and re-hellos
      // behind the scenes — the daemon's resident state loses nothing.
      client.drop_connection_for_test();
      dropped = true;
      std::printf("[day %3d] dropped the connection mid-stream (daemon keeps state)\n",
                  day);
    }
    for (std::size_t i = 0; i < fleet.drives.size(); ++i) {
      const auto& d = fleet.drives[i];
      if (day < d.first_day || day > d.last_day()) continue;
      const auto row = d.values.row(static_cast<std::size_t>(day - d.first_day));
      if (!client.append_day(d.drive_id, day,
                             std::vector<double>(row.begin(), row.end()), d.fail_day,
                             reply, &err)) {
        std::fprintf(stderr, "append failed: %s\n", err.c_str());
        server.request_stop();
        server_thread.join();
        return 1;
      }
      if (reply.type == daemon::MsgType::kError) {
        std::fprintf(stderr, "append refused: %s\n", reply.text.c_str());
        server.request_stop();
        server_thread.join();
        return 1;
      }
    }

    // -- weekly: ask the daemon for fresh scores; alarm like the batch
    //    monitoring loop above --
    if ((day + 1) % week != 0 || day < eopt.warmup_days) continue;
    bool printed_week = false;
    for (std::size_t i = 0; i < fleet.drives.size(); ++i) {
      const auto& d = fleet.drives[i];
      if (decommissioned[i] || day < d.first_day || day > d.last_day()) continue;
      if (!client.score_drive(d.drive_id, reply, &err)) {
        std::fprintf(stderr, "score failed: %s\n", err.c_str());
        server.request_stop();
        server_thread.join();
        return 1;
      }
      if (reply.type == daemon::MsgType::kError) break;  // no predictor yet
      if (!printed_week && reply.drives_rescored > 0) {
        std::printf("[day %3d] rescore touched %llu drives / %llu drive-days\n", day,
                    static_cast<unsigned long long>(reply.drives_rescored),
                    static_cast<unsigned long long>(reply.days_scored));
        printed_week = true;
      }
      if (!reply.found || reply.score < alarm_threshold) continue;
      const bool correct = d.failed() && d.fail_day > reply.score_day &&
                           d.fail_day <= reply.score_day + 30;
      decommissioned[i] = true;
      ++alarms_total;
      alarms_correct += correct ? 1 : 0;
      std::printf("[day %3d] ALARM %s score=%.2f (day %d) -> decommission (%s)\n", day,
                  d.drive_id.c_str(), reply.score, reply.score_day,
                  correct ? "fails within 30d"
                          : (d.failed() ? "fails later" : "healthy"));
    }
  }

  if (client.report(reply, &err) && reply.type == daemon::MsgType::kReportOk) {
    std::printf("\ndaemon report: %s\n", reply.text.c_str());
  }
  client.shutdown_server(reply, &err);
  server_thread.join();

  std::printf("\nsummary: %zu alarms, %zu correct (precision %.1f%%); "
              "%zu re-checks, %zu drift detections, %llu reconnects\n",
              alarms_total, alarms_correct,
              alarms_total == 0 ? 0.0
                                : 100.0 * static_cast<double>(alarms_correct) /
                                      static_cast<double>(alarms_total),
              engine.checks().size(), engine.drift_detections().size(),
              static_cast<unsigned long long>(client.reconnects()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string model = argc > 1 ? argv[1] : "MC1";
  if (model == "--daemon") {
    std::size_t daemon_drives = 400;
    if (argc > 2 && !util::parse_int_as(argv[2], daemon_drives)) {
      std::fprintf(stderr, "bad drive count: %s\n", argv[2]);
      return 2;
    }
    return run_daemon_scenario(daemon_drives);
  }
  if (model == "--churn") {
    std::size_t churn_drives = 600;
    if (argc > 2 && !util::parse_int_as(argv[2], churn_drives)) {
      std::fprintf(stderr, "bad drive count: %s\n", argv[2]);
      return 2;
    }
    const std::string mix = argc > 3 ? argv[3] : "MC1:0.6,MA2:0.4";
    const std::string churn = argc > 4 ? argv[4] : "replace@146:0.5:MC1:3.0";
    return run_churn_scenario(churn_drives, mix, churn);
  }
  std::size_t drives = 500;
  if (argc > 2 && !util::parse_int_as(argv[2], drives)) {
    std::fprintf(stderr, "bad drive count: %s\n", argv[2]);
    return 2;
  }
  const std::string csv_path = argc > 3 ? argv[3] : "";
  const std::string cache_dir = argc > 4 ? argv[4] : "";

  data::FleetData fleet;
  if (csv_path.empty()) {
    smartsim::SimOptions sim;
    sim.num_drives = drives;
    sim.num_days = 220;
    sim.seed = 11;
    sim.afr_scale = 30.0;
    fleet = generate_fleet(smartsim::profile_by_name(model), sim);
  } else {
    data::ReadOptions ropt;
    ropt.policy = data::ParsePolicy::kRecover;
    data::CacheOptions cache;
    cache.dir = cache_dir;
    data::IngestReport report;
    fleet = data::load_fleet_csv_cached(csv_path, model, ropt, cache, &report);
    std::printf("ingest %s: %s\n", csv_path.c_str(), report.summary().c_str());
    if (report.fatal) {
      std::fprintf(stderr, "unusable input: %s\n", report.fatal_detail.c_str());
      return 1;
    }
  }
  std::printf("monitoring %s fleet: %zu drives (%zu will fail)\n\n",
              fleet.model_name.c_str(), fleet.drives.size(), fleet.num_failed());

  core::ExperimentConfig cfg;
  cfg.forest.num_trees = 25;
  cfg.negative_keep_prob = 0.08;
  core::WefrOptions wopt;

  const int warmup = 150;       // need history before the first model
  const int week = 7;
  // Training negatives are downsampled, which inflates predicted
  // probabilities — alarm high. (core::FleetMonitor can instead
  // recalibrate this to a fixed-recall point each week.)
  const double alarm_threshold = 0.8;

  double last_threshold = -1.0;
  std::size_t alarms_total = 0, alarms_correct = 0;
  std::vector<bool> decommissioned(fleet.drives.size(), false);

  // One tracer/registry across the whole monitoring run; the lap clock
  // splits each weekly pass into its select / train / score stages.
  obs::Tracer tracer;
  obs::Registry registry;
  obs::Context ctx{&tracer, &registry};
  const obs::Context* obs = &ctx;
  util::Stopwatch lap_clock;

  for (int today = warmup; today + week <= fleet.num_days; today += week) {
    lap_clock.lap();
    const std::size_t spans_before = tracer.size();

    // -- re-check the wear-out change point on data up to 'today' --
    const auto selection = core::build_selection_samples(fleet, 0, today - 1, cfg, obs);
    const auto sel = core::run_wefr(fleet, selection, today - 1, wopt, nullptr, obs);
    const double select_s = lap_clock.lap();

    const double thr = sel.change_point.has_value() ? sel.change_point->mwi_threshold : -1.0;
    if (thr != last_threshold) {
      if (thr >= 0.0) {
        std::printf("[day %3d] wear threshold moved: MWI_N = %.0f; re-selected "
                    "features (all=%zu, low=%zu, high=%zu)\n",
                    today, thr, sel.all.selected.size(),
                    sel.low ? sel.low->selected.size() : 0,
                    sel.high ? sel.high->selected.size() : 0);
      } else {
        std::printf("[day %3d] no wear change point; single feature set (%zu)\n", today,
                    sel.all.selected.size());
      }
      last_threshold = thr;
    }

    // -- retrain and score the coming week --
    const auto predictor = core::train_predictor(fleet, sel, 0, today - 1, cfg, obs);
    const double train_s = lap_clock.lap();
    const auto scores =
        core::score_fleet(fleet, predictor, today, today + week - 1, cfg, nullptr, obs);
    const double score_s = lap_clock.lap();
    std::printf("[day %3d] select %.2fs, train %.2fs, score %.2fs (%zu spans)\n",
                today, select_s, train_s, score_s, tracer.size() - spans_before);

    for (const auto& ds : scores) {
      if (decommissioned[ds.drive_index]) continue;  // already pulled
      for (std::size_t i = 0; i < ds.scores.size(); ++i) {
        if (ds.scores[i] < alarm_threshold) continue;
        const int day = ds.first_day + static_cast<int>(i);
        const auto& drive = fleet.drives[ds.drive_index];
        const bool correct =
            drive.failed() && drive.fail_day > day && drive.fail_day <= day + 30;
        decommissioned[ds.drive_index] = true;
        ++alarms_total;
        alarms_correct += correct ? 1 : 0;
        std::printf("[day %3d] ALARM %s score=%.2f -> decommission (%s)\n", day,
                    drive.drive_id.c_str(), ds.scores[i],
                    correct ? "fails within 30d"
                            : (drive.failed() ? "fails later" : "healthy"));
        break;  // first alarm per drive per week
      }
    }
  }

  std::printf("\nsummary: %zu alarms, %zu correct (precision %.1f%%); %zu trace "
              "spans collected\n",
              alarms_total, alarms_correct,
              alarms_total == 0 ? 0.0
                                : 100.0 * static_cast<double>(alarms_correct) /
                                      static_cast<double>(alarms_total),
              tracer.size());
  return 0;
}
