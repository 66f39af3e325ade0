// Operational example: the deployment loop of Section IV-D over a live
// fleet. daemon::Engine — the engine wefrd hosts — re-checks the MWI_N
// change point on a weekly cadence (the online drift watch can pull a
// check forward), re-selects features per wear group, retrains the
// wear-routed predictor when the selection moves, and raises one
// decommission alarm per drive.
//
//   ./examples/fleet_monitor [MODEL] [DRIVES] [CSV] [CACHE_DIR]
//   ./examples/fleet_monitor --daemon [DRIVES]
//   ./examples/fleet_monitor --churn [DRIVES] [MIX] [CHURN]
//
// All arguments are positional; defaults are MC1 / 400 / simulate.
// The default mode replays the fleet into the engine in process
// (daemon::replay). With a CSV path the fleet is loaded from that file
// (tolerant parse, forward-filled) instead of simulated; a CACHE_DIR on
// top turns repeat runs into a single mapped read of the binary
// columnar snapshot.
//
// The --daemon mode runs the same loop behind wefrd's protocol: the
// simulated MC1 fleet is streamed into a daemon::Server one drive-day at
// a time, the client reads scores back weekly (scoring touches only the
// drives that changed), and it survives a deliberate mid-stream
// connection drop by transparently reconnecting. Its check, alarm and
// summary lines are the default mode's; the lines it adds start with
// "transport:".
//
// The --churn mode runs the heterogeneous-fleet scenario instead: a
// mixed-model pool (MIX, parse_mix_spec syntax, default
// "MC1:0.6,MA2:0.4") hit by a churn schedule (CHURN, parse_churn_spec
// syntax, default a half-fleet replacement with a hot-wear cohort) is
// replayed with a slow re-check cadence, and the re-check lag of the
// online drift watch behind the planted population change is printed.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>

#include <unistd.h>

#include "daemon/client.h"
#include "daemon/engine.h"
#include "daemon/server.h"
#include "data/cache.h"
#include "data/preprocess.h"
#include "smartsim/generator.h"
#include "smartsim/mixed_fleet.h"
#include "util/strings.h"

using namespace wefr;

namespace {

constexpr std::size_t kDefaultDrives = 400;

/// The loop both the default and the --daemon mode run.
daemon::EngineOptions monitor_options() {
  daemon::EngineOptions opt;
  opt.experiment.forest.num_trees = 25;
  opt.experiment.negative_keep_prob = 0.08;
  opt.warmup_days = 150;  // need history before the first model
  opt.check_interval_days = 7;
  opt.online_drift_check = true;
  // Retrain only when the selected feature set moves: a stable
  // predictor is what lets a rescore touch just the new days per drive
  // instead of the whole history.
  opt.retrain_every_check = false;
  // Training negatives are downsampled, which inflates predicted
  // probabilities — alarm high.
  opt.alarm_threshold = 0.8;
  return opt;
}

data::FleetData simulate(const std::string& model, std::size_t drives) {
  smartsim::SimOptions sim;
  sim.num_drives = drives;
  sim.num_days = 220;
  sim.seed = 11;
  sim.afr_scale = 30.0;
  return generate_fleet(smartsim::profile_by_name(model), sim);
}

void print_fleet(const data::FleetData& fleet) {
  std::printf("monitoring %s fleet: %zu drives (%zu will fail)\n\n",
              fleet.model_name.c_str(), fleet.drives.size(), fleet.num_failed());
}

/// Prints the engine's checks and alarms in day order, then a summary.
void print_outcome(const daemon::Engine& engine) {
  const auto& checks = engine.checks();
  std::size_t next_check = 0;
  const auto print_checks_through = [&](int day) {
    for (; next_check < checks.size() && checks[next_check].day <= day; ++next_check) {
      const auto& c = checks[next_check];
      std::printf("[day %3d] check%s: ", c.day, c.drift_triggered ? " (drift-triggered)" : "");
      if (c.wear_threshold.has_value()) {
        std::printf("wear threshold MWI_N = %.0f, features all=%zu low=%zu high=%zu",
                    *c.wear_threshold, c.selected_all.size(), c.selected_low.size(),
                    c.selected_high.size());
      } else {
        std::printf("no wear change point, %zu features", c.selected_all.size());
      }
      std::printf("%s\n", c.trained ? ", retrained" : "");
    }
  };
  std::size_t correct = 0;
  for (const auto& alarm : engine.alarms()) {
    print_checks_through(alarm.day);
    const auto& drive = engine.fleet().drives[alarm.drive_index];
    const bool ok =
        drive.failed() && drive.fail_day > alarm.day && drive.fail_day <= alarm.day + 30;
    correct += ok ? 1 : 0;
    std::printf("[day %3d] ALARM %s score=%.2f -> decommission (%s)\n", alarm.day,
                drive.drive_id.c_str(), alarm.score,
                ok ? "fails within 30d" : (drive.failed() ? "fails later" : "healthy"));
  }
  print_checks_through(std::numeric_limits<int>::max());
  const std::size_t n = engine.alarms().size();
  std::printf("\nsummary: %zu alarms, %zu correct (precision %.1f%%); "
              "%zu checks, %zu drift detections\n",
              n, correct,
              n == 0 ? 0.0 : 100.0 * static_cast<double>(correct) / static_cast<double>(n),
              checks.size(), engine.drift_detections().size());
}

/// The --churn scenario: mixed fleet + churn schedule replayed with the
/// online drift watch, reporting the re-check lag behind each planted
/// population change.
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

  daemon::EngineOptions opt;
  opt.experiment.forest.num_trees = 25;
  opt.experiment.negative_keep_prob = 0.08;
  opt.online_drift_check = true;
  opt.check_interval_days = 28;  // slow cadence: the drift watch must beat it
  opt.retrain_every_check = false;
  daemon::Engine engine(opt, opt.experiment.windows);
  daemon::replay(engine, res.fleet, res.fleet.num_days);

  std::printf("\n%zu alarms; %zu re-checks, %zu drift detections\n", engine.alarms().size(),
              engine.checks().size(), engine.drift_detections().size());
  for (const auto& det : engine.drift_detections())
    std::printf("drift detected day %d (p=%.2f)\n", det.day, det.probability);
  for (const auto& check : engine.checks()) {
    if (!check.drift_triggered) continue;
    // Re-check lag: days between the most recent planted churn and the
    // drift-triggered re-check that responded to it.
    int planted = -1;
    for (int d : res.churn_days) {
      if (d <= check.day) planted = d;
    }
    if (planted >= 0)
      std::printf("drift-triggered re-check day %d: lag %d days behind churn day %d\n",
                  check.day, check.day - planted, planted);
  }
  if (engine.drift_detections().empty())
    std::printf("no drift detections (nothing planted, or watch outpaced by cadence)\n");
  return 0;
}

/// The --daemon scenario: the default mode's loop behind wefrd's
/// protocol. The daemon owns all state; this process only streams
/// drive-days in and reads scores back.
int run_daemon_scenario(std::size_t drives) {
  const auto fleet = simulate("MC1", drives);
  print_fleet(fleet);

  const daemon::EngineOptions eopt = monitor_options();
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
  const auto fail = [&](const char* what, const std::string& why) {
    std::fprintf(stderr, "%s: %s\n", what, why.c_str());
    server.request_stop();
    server_thread.join();
    return 1;
  };

  daemon::Client::Options copt;
  copt.socket_path = sopt.socket_path;
  copt.client_name = "fleet_monitor";
  copt.model_name = fleet.model_name;
  copt.feature_names = fleet.feature_names;
  daemon::Client client(copt);
  std::string err;
  const bool connected = loop_fd >= 0 ? client.adopt_fd(loop_fd, &err) : client.connect(&err);
  if (!connected) return fail("connect failed", err);

  bool dropped = false;
  daemon::Msg reply;
  for (int day = 0; day < fleet.num_days; ++day) {
    if (!dropped && day == 180 && loop_fd < 0) {
      // Simulated client crash: the next request redials and re-hellos
      // behind the scenes — the daemon's resident state loses nothing.
      client.drop_connection_for_test();
      dropped = true;
      std::printf("transport: day %d: dropped the connection mid-stream\n", day);
    }
    for (const auto& d : fleet.drives) {
      if (day < d.first_day || day > d.last_day()) continue;
      const auto row = d.values.row(static_cast<std::size_t>(day - d.first_day));
      if (!client.append_day(d.drive_id, day, std::vector<double>(row.begin(), row.end()),
                             d.fail_day, reply, &err))
        return fail("append failed", err);
      if (reply.type == daemon::MsgType::kError) return fail("append refused", reply.text);
    }

    // Weekly: read every active drive's latest score back. The first
    // read pays the rescore; alarms are the engine's, judged as days
    // arrive.
    if ((day + 1) % 7 != 0 || day < eopt.warmup_days) continue;
    bool printed_week = false;
    for (const auto& d : fleet.drives) {
      if (day < d.first_day || day > d.last_day()) continue;
      if (!client.score_drive(d.drive_id, reply, &err)) return fail("score failed", err);
      if (reply.type == daemon::MsgType::kError) break;  // no predictor yet
      if (!printed_week) {
        std::printf("transport: day %d: rescore touched %llu drives / %llu drive-days\n",
                    day, static_cast<unsigned long long>(reply.drives_rescored),
                    static_cast<unsigned long long>(reply.days_scored));
        printed_week = true;
      }
    }
  }

  if (client.report(reply, &err) && reply.type == daemon::MsgType::kReportOk)
    std::printf("transport: daemon report %s\n", reply.text.c_str());
  client.shutdown_server(reply, &err);
  server_thread.join();
  std::printf("transport: %llu reconnects\n",
              static_cast<unsigned long long>(client.reconnects()));
  print_outcome(engine);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string model = argc > 1 ? argv[1] : "MC1";
  std::size_t drives = model == "--churn" ? 600 : kDefaultDrives;
  if (argc > 2 && !util::parse_int_as(argv[2], drives)) {
    std::fprintf(stderr, "bad drive count: %s\n", argv[2]);
    return 2;
  }
  if (model == "--daemon") return run_daemon_scenario(drives);
  if (model == "--churn") {
    const std::string mix = argc > 3 ? argv[3] : "MC1:0.6,MA2:0.4";
    const std::string churn = argc > 4 ? argv[4] : "replace@146:0.5:MC1:3.0";
    return run_churn_scenario(drives, mix, churn);
  }
  const std::string csv_path = argc > 3 ? argv[3] : "";
  const std::string cache_dir = argc > 4 ? argv[4] : "";

  data::FleetData fleet;
  if (csv_path.empty()) {
    fleet = simulate(model, drives);
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
  print_fleet(fleet);

  const daemon::EngineOptions opt = monitor_options();
  daemon::Engine engine(opt, opt.experiment.windows);
  daemon::replay(engine, fleet, fleet.num_days);
  print_outcome(engine);
  return 0;
}
