// wefr_select — run WEFR feature selection over a SMART-log fleet CSV.
//
//   wefr_select --in fleet.csv --model MC1 [--train-end DAY]
//               [--horizon 30] [--no-update] [--save-model model.txt]
//               [--policy strict|recover|skip-drive]
//               [--cache-dir DIR]
//               [--trace-out trace.json] [--metrics-out metrics.prom]
//               [--report-out report.json]
//
// Prints the ensemble diagnostics (per-ranker outlier status), the final
// selection per wear group, and optionally trains and serializes the
// paper's Random Forest predictor over the selected features.
//
// --policy recover (or skip-drive) switches ingestion to the tolerant
// parser: malformed rows are quarantined instead of fatal, the ingest
// report is printed, and the pipeline runs in degraded mode with its
// diagnostics echoed at the end.
//
// --cache-dir points at a directory for binary columnar fleet
// snapshots: the first run parses the CSV (in parallel, via mmap) and
// writes a snapshot there; later runs replace the parse with a single
// mapped read as long as the source file and parse options are
// unchanged.
//
// --log-level {quiet,info,debug} controls the structured progress log
// on stderr ([+elapsed] [stage] message lines); results always go to
// stdout. Default is info.
//
// Selection, training and scoring run on every hardware thread; the
// results are identical at any thread count.
//
// Any of --trace-out / --metrics-out / --report-out enables the obs
// instrumentation: the whole run is traced (Chrome trace-event JSON,
// loadable in chrome://tracing), stage counters are collected (JSON, or
// Prometheus text when the path ends in .prom/.txt), and a
// schema-versioned run report merging span tree + metrics + diagnostics
// + selection + scoring is written. With instrumentation on, the tool
// also trains the predictor and scores the post-training window so the
// report covers ingestion -> selection -> scoring end to end.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli_common.h"
#include "core/pipeline.h"
#include "core/wefr.h"
#include "data/cache.h"
#include "data/csv.h"
#include "ml/metrics.h"
#include "obs/context.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/strings.h"
#include "util/thread_pool.h"

using namespace wefr;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: wefr_select --in FILE [--model NAME] [--train-end DAY]\n"
               "                   [--horizon N] [--no-update] [--save-model FILE]\n"
               "                   [--policy strict|recover|skip-drive]\n"
               "                   [--cache-dir DIR]\n"
               "                   [--log-level quiet|info|debug]\n"
               "                   [--trace-out FILE] [--metrics-out FILE]\n"
               "                   [--report-out FILE]\n");
}

void print_group(const core::GroupSelection& g) {
  std::printf("  [%s] %zu features (%zu samples, %zu positive%s%s):",
              g.label.c_str(), g.selected_names.size(), g.num_samples, g.num_positives,
              g.fallback ? "; fallback to whole-model set" : "",
              g.degraded ? "; DEGRADED keep-everything selection" : "");
  for (const auto& name : g.selected_names) std::printf(" %s", name.c_str());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_path, model = "fleet", save_model, cache_dir;
  int train_end = -1;
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  core::ExperimentConfig cfg;
  core::WefrOptions wopt;
  cfg.num_threads = util::default_thread_count();
  wopt.num_threads = util::default_thread_count();
  data::ReadOptions ropt;
  tools::ToolObs tobs;

  tools::ArgCursor cur(argc, argv, usage);
  while (cur.take()) {
    const std::string& arg = cur.arg();
    if (arg == "--in") {
      in_path = cur.value();
    } else if (arg == "--model") {
      model = cur.value();
    } else if (arg == "--train-end" && util::parse_int_as(cur.value(), train_end)) {
      // parsed in the condition
    } else if (arg == "--horizon" && util::parse_int_as(cur.value(), cfg.horizon_days)) {
      // parsed in the condition
    } else if (arg == "--cache-dir") {
      cache_dir = cur.value();
    } else if (arg == "--log-level") {
      if (!tools::parse_log_level_flag(cur.value(), log_level)) {
        usage();
        return 2;
      }
    } else if (arg == "--no-update") {
      wopt.update_with_wearout = false;
    } else if (arg == "--save-model") {
      save_model = cur.value();
    } else if (arg == "--trace-out") {
      tobs.trace_out = cur.value();
    } else if (arg == "--metrics-out") {
      tobs.metrics_out = cur.value();
    } else if (arg == "--report-out") {
      tobs.report_out = cur.value();
    } else if (arg == "--policy") {
      if (!tools::parse_policy_flag(cur.value(), ropt.policy)) {
        usage();
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown or malformed argument: %s\n", arg.c_str());
      usage();
      return 2;
    }
  }
  if (in_path.empty()) {
    usage();
    return 2;
  }

  const bool obs_enabled = tobs.enabled();
  const obs::Context* obs = tobs.context();
  obs::Logger log(log_level);

  try {
    obs::RunReport run_report;
    run_report.tool = "wefr_select";
    core::PipelineDiagnostics diag;
    if (obs_enabled) diag.attach(&tobs.registry);
    obs::Span root(obs, "wefr_select");

    data::IngestReport report;
    data::CacheOptions cache;
    cache.dir = cache_dir;
    const auto fleet =
        data::load_fleet_csv_cached(in_path, model, ropt, cache, &report, obs);
    if (!cache_dir.empty() || ropt.policy != data::ParsePolicy::kStrict ||
        !report.clean()) {
      log.infof("ingest", "%s", report.summary().c_str());
    }
    if (report.fatal) {
      std::fprintf(stderr, "error: unusable input: %s\n", report.fatal_detail.c_str());
      return 1;
    }
    if (train_end < 0) train_end = fleet.num_days - 1;
    log.infof("fleet",
              "%s: %zu drives, %zu failed, %d days, %zu features; selecting on days 0-%d",
              fleet.model_name.c_str(), fleet.drives.size(), fleet.num_failed(),
              fleet.num_days, fleet.num_features(), train_end);

    cfg.negative_keep_prob = 0.15;
    const auto samples = core::build_selection_samples(fleet, 0, train_end, cfg, obs);
    log.infof("select", "samples: %zu (%zu positive)", samples.size(),
              samples.num_positive());
    const auto result = core::run_wefr(fleet, samples, train_end, wopt, &diag, obs);

    std::printf("\npreliminary rankings (Kendall-tau mean distance; * = discarded):\n");
    const auto& ens = result.all.ensemble;
    for (std::size_t k = 0; k < ens.ranker_names.size(); ++k) {
      std::printf("  %-13s D-bar = %7.1f %s\n", ens.ranker_names[k].c_str(),
                  ens.mean_distance[k], ens.discarded[k] ? "*" : "");
    }

    std::printf("\nselection:\n");
    print_group(result.all);
    if (result.change_point.has_value()) {
      std::printf("  wear-out change point: MWI_N = %.0f (z = %.2f)\n",
                  result.change_point->mwi_threshold, result.change_point->zscore);
      if (result.low.has_value()) print_group(*result.low);
      if (result.high.has_value()) print_group(*result.high);
    } else {
      std::printf("  no wear-out change point detected\n");
    }
    if (!diag.empty()) {
      std::printf("\npipeline diagnostics: %s\n", diag.summary().c_str());
    }

    if (obs_enabled || !save_model.empty()) {
      log.infof("train", "Random Forest: %zu trees, depth %d, on selected features",
                cfg.forest.num_trees, cfg.forest.tree.max_depth);
      const auto predictor = core::train_predictor(fleet, result, 0, train_end, cfg, obs);
      if (!save_model.empty()) {
        std::ofstream ofs = tools::open_or_throw(save_model);
        predictor.all.forest.save(ofs);
        log.infof("train", "saved whole-model forest to %s", save_model.c_str());
      }

      if (obs_enabled) {
        // Score the held-out window so the report and trace cover the
        // whole ingestion -> selection -> scoring pipeline. When
        // training consumed every day, score the last 30 days instead
        // and flag the result as in-sample.
        int t1 = fleet.num_days - 1;
        int t0 = train_end + 1;
        bool in_sample = false;
        if (t0 > t1) {
          t0 = std::max(0, t1 - 29);
          in_sample = true;
        }
        const auto scores = core::score_fleet(fleet, predictor, t0, t1, cfg, &diag, obs);

        obs::RunReport::Scoring sc;
        sc.drives = scores.size();
        sc.day_lo = t0;
        sc.day_hi = t1;
        sc.in_sample = in_sample;
        std::vector<double> flat;
        std::vector<int> labels;
        for (const auto& ds : scores) {
          const auto& drive = fleet.drives[ds.drive_index];
          for (std::size_t i = 0; i < ds.scores.size(); ++i) {
            const int day = ds.first_day + static_cast<int>(i);
            flat.push_back(ds.scores[i]);
            labels.push_back(drive.failed() && drive.fail_day > day &&
                                     drive.fail_day <= day + cfg.horizon_days
                                 ? 1
                                 : 0);
          }
        }
        sc.drive_days = flat.size();
        bool has_pos = false, has_neg = false;
        for (int l : labels) {
          if (l != 0) has_pos = true;
          else has_neg = true;
        }
        if (has_pos && has_neg) sc.auc = ml::auc(flat, labels);
        const auto eval = core::evaluate_fixed_recall(fleet, scores, t0, t1,
                                                      cfg.horizon_days, 0.3);
        sc.precision = eval.precision;
        sc.recall = eval.recall;
        sc.f05 = eval.f05;
        sc.threshold = eval.threshold;
        run_report.scoring = sc;

        std::printf("\nscored days %d-%d%s: %zu drives, %zu drive-days", t0, t1,
                    in_sample ? " (in-sample)" : "", scores.size(), flat.size());
        if (sc.auc.has_value()) std::printf(", day-level AUC %.4f", *sc.auc);
        std::printf("\n");
      }
    }

    if (obs_enabled) {
      root.finish();
      tobs.write_outputs(log);
      if (!tobs.report_out.empty()) {
        run_report.model = fleet.model_name;
        run_report.run_info["drives"] = static_cast<double>(fleet.drives.size());
        run_report.run_info["drives_failed"] = static_cast<double>(fleet.num_failed());
        run_report.run_info["days"] = static_cast<double>(fleet.num_days);
        run_report.run_info["features"] = static_cast<double>(fleet.num_features());
        run_report.run_info["train_end"] = static_cast<double>(train_end);
        run_report.params["policy"] =
            ropt.policy == data::ParsePolicy::kStrict
                ? "strict"
                : (ropt.policy == data::ParsePolicy::kRecover ? "recover" : "skip-drive");
        run_report.params["horizon_days"] = std::to_string(cfg.horizon_days);
        run_report.params["update_with_wearout"] =
            wopt.update_with_wearout ? "true" : "false";
        report.fill_run_report(run_report);
        diag.fill_run_report(run_report);
        core::fill_run_report(result, run_report);
        run_report.tracer = &tobs.tracer;
        run_report.metrics = &tobs.registry;
        run_report.write_json_file(tobs.report_out);
        log.infof("obs", "wrote run report to %s", tobs.report_out.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
