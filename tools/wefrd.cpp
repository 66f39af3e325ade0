// wefrd — the resident fleet-scoring daemon.
//
//   wefrd --socket /run/wefrd.sock [--snapshot state.wefrds]
//         [--model MC1] [--check-interval 7] [--warmup 120]
//         [--horizon 30] [--trees 100] [--threads 0]
//         [--no-drift-watch] [--oracle-check]
//         [--log-level quiet|info|debug] [--metrics-out FILE]
//
// Holds the fleet resident in memory so a day of observations costs
// O(changed drives), not a full-pipeline rerun: clients stream
// drive-days over a Unix-domain socket (WEFRDM01 frames; see
// daemon/protocol.h) and ask for scores back, while the daemon keeps
// each drive's streaming-kernel state current and re-runs forest
// inference only for drives whose windows actually changed. The
// paper's periodic re-check (feature re-selection + retrain) and the
// online drift watch run in-process as the day watermark advances.
//
// --snapshot names a WEFRDS01 state file: loaded at startup when it
// exists (a damaged file is refused, not discarded), written on clean
// shutdown and on client kSaveSnapshot requests. SIGINT/SIGTERM stop
// the loop cleanly, so a restart resumes from the last appended day —
// clients reconnect and continue (see daemon/client.h).
//
// --oracle-check makes every rescore verify itself bit-for-bit against
// the from-scratch batch pipeline (expensive; for soak tests).
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cli_common.h"
#include "daemon/engine.h"
#include "daemon/server.h"
#include "data/cache.h"
#include "obs/log.h"
#include "util/strings.h"

using namespace wefr;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: wefrd --socket PATH [--snapshot FILE] [--model NAME]\n"
               "             [--check-interval N] [--warmup N] [--horizon N]\n"
               "             [--trees N] [--threads N] [--no-drift-watch]\n"
               "             [--oracle-check] [--log-level quiet|info|debug]\n"
               "             [--metrics-out FILE]\n");
}

daemon::Server* g_server = nullptr;

void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  daemon::ServerOptions sopt;
  daemon::EngineOptions eopt;
  std::string model;
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  tools::ToolObs tobs;
  eopt.online_drift_check = true;

  tools::ArgCursor cur(argc, argv, usage);
  while (cur.take()) {
    const std::string& arg = cur.arg();
    if (arg == "--socket") {
      sopt.socket_path = cur.value();
    } else if (arg == "--snapshot") {
      sopt.snapshot_path = cur.value();
    } else if (arg == "--model") {
      model = cur.value();
    } else if (arg == "--check-interval" &&
               util::parse_int_as(cur.value(), eopt.check_interval_days)) {
      // parsed in the condition
    } else if (arg == "--warmup" && util::parse_int_as(cur.value(), eopt.warmup_days)) {
      // parsed in the condition
    } else if (arg == "--horizon" &&
               util::parse_int_as(cur.value(), eopt.experiment.horizon_days)) {
      // parsed in the condition
    } else if (arg == "--trees" &&
               util::parse_int_as(cur.value(), eopt.experiment.forest.num_trees)) {
      // parsed in the condition
    } else if (arg == "--threads" &&
               util::parse_int_as(cur.value(), eopt.experiment.num_threads)) {
      // Scoring and retraining read the experiment knob; the in-loop
      // re-check's selection reads its own.
      eopt.wefr.num_threads = eopt.experiment.num_threads;
    } else if (arg == "--no-drift-watch") {
      eopt.online_drift_check = false;
    } else if (arg == "--oracle-check") {
      eopt.oracle_check = true;
    } else if (arg == "--log-level") {
      if (!tools::parse_log_level_flag(cur.value(), log_level)) {
        usage();
        return 2;
      }
    } else if (arg == "--metrics-out") {
      tobs.metrics_out = cur.value();
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown or malformed argument: %s\n", arg.c_str());
      usage();
      return 2;
    }
  }
  if (sopt.socket_path.empty()) {
    usage();
    return 2;
  }

  obs::Logger log(log_level);
  try {
    daemon::Engine engine(eopt, eopt.experiment.windows, tobs.context(), &log);

    if (!sopt.snapshot_path.empty() && std::filesystem::exists(sopt.snapshot_path)) {
      std::string payload, why;
      if (!data::read_daemon_snapshot(sopt.snapshot_path, payload, &why) ||
          !engine.load_snapshot(payload, &why)) {
        // A damaged snapshot is refused, never silently discarded:
        // restarting fresh would fork the scoring history.
        std::fprintf(stderr, "error: snapshot %s unusable: %s\n",
                     sopt.snapshot_path.c_str(), why.c_str());
        return 1;
      }
      log.infof("wefrd", "restored %zu drives through day %d from %s",
                engine.resident().num_drives(), engine.resident().max_day(),
                sopt.snapshot_path.c_str());
    }
    if (!model.empty() && engine.resident().has_schema() &&
        engine.fleet().model_name != model) {
      std::fprintf(stderr, "error: snapshot holds model %s, --model asked for %s\n",
                   engine.fleet().model_name.c_str(), model.c_str());
      return 1;
    }

    daemon::Server server(engine, sopt, &log);
    std::string err;
    if (!server.listen_unix(&err)) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 1;
    }
    log.infof("wefrd", "listening on %s (check interval %dd, warmup %dd, drift %s)",
              sopt.socket_path.c_str(), eopt.check_interval_days, eopt.warmup_days,
              eopt.online_drift_check ? "on" : "off");

    g_server = &server;
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    server.run();
    g_server = nullptr;

    if (!sopt.snapshot_path.empty()) {
      std::string why;
      if (!data::write_daemon_snapshot(sopt.snapshot_path, engine.save_snapshot(),
                                       &why)) {
        std::fprintf(stderr, "error: saving snapshot: %s\n", why.c_str());
        return 1;
      }
      log.infof("wefrd", "saved snapshot to %s", sopt.snapshot_path.c_str());
    }
    log.infof("wefrd",
              "served %llu connections, %llu frames ok, %llu rejected; "
              "%zu checks, %zu drift detections",
              static_cast<unsigned long long>(server.connections_accepted()),
              static_cast<unsigned long long>(server.frames_ok()),
              static_cast<unsigned long long>(server.frames_rejected()),
              engine.checks().size(), engine.drift_detections().size());
    tobs.write_outputs(log);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
