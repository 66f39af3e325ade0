// wefr_simulate — emit a synthetic SMART-log fleet as CSV.
//
//   wefr_simulate --model MC1 --drives 1000 --days 220 --seed 42
//                 --afr-scale 15 --out mc1.csv
//
// The CSV is the long format read back by wefr_select / read_fleet_csv:
//   drive_id,day,failed,fail_day,<feature...>
//
// --mix replaces the single-model fleet with a heterogeneous pool
// ("MC1:0.5,MA1:0.3,HDD1:0.2"): one sub-fleet per share, schemas
// reconciled into one union namespace. --churn layers a population
// schedule on top ("replace@120:0.3:MC2:2.0" — see parse_churn_spec).
//
// --faults injects seeded corruption into the emitted CSV (testing the
// tolerant ingestion path): a comma-separated name:rate list over
// truncate, nan_burst, stuck, duplicate, out_of_order, bitflip,
// missing_column, or "mix:R" for a blend of all seven.
//
// --cache-dir warms the binary columnar fleet cache right after the
// CSV is written (uncorrupted output only): the snapshot is parsed
// once here so the first wefr_select run against the file starts from
// a cache hit instead of a full parse.
//
// --trace-out / --metrics-out / --report-out mirror wefr_select's obs
// outputs for the generate -> corrupt -> write stages.
//
// --log-level {quiet,info,debug} controls the structured progress log
// on stderr; the CSV itself (stdout when --out is omitted) is never
// affected.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli_common.h"
#include "data/cache.h"
#include "data/csv.h"
#include "obs/context.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "smartsim/faultsim.h"
#include "smartsim/generator.h"
#include "smartsim/mixed_fleet.h"
#include "util/strings.h"

using namespace wefr;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: wefr_simulate [--model NAME] [--drives N] [--days N]\n"
               "                     [--seed N] [--afr-scale X] [--out FILE]\n"
               "                     [--mix SPEC] [--churn SPEC]\n"
               "                     [--faults SPEC] [--fault-seed N]\n"
               "                     [--cache-dir DIR]\n"
               "                     [--log-level quiet|info|debug]\n"
               "                     [--trace-out FILE] [--metrics-out FILE]\n"
               "                     [--report-out FILE]\n"
               "models: MA1 MA2 MB1 MB2 MC1 MC2 HDD1 (default MC1)\n"
               "mix spec: MODEL:SHARE[,MODEL:SHARE...], e.g. MC1:0.6,HDD1:0.4\n"
               "churn spec: kind@day:fraction[:model[:wear_mult]] with kind\n"
               "            in retire/add/replace, e.g. replace@120:0.3:MC2:2.0\n"
               "fault spec: name:rate[,name:rate...] over truncate nan_burst\n"
               "            stuck duplicate out_of_order bitflip missing_column,\n"
               "            or mix:R\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string model = "MC1";
  std::string mix_spec, churn_spec;
  std::string out_path;
  std::string fault_spec;
  std::string cache_dir;
  std::uint64_t fault_seed = 0x5eedfau;
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  smartsim::SimOptions opt;
  opt.num_drives = 1000;
  opt.num_days = 220;
  opt.seed = 42;
  opt.afr_scale = 15.0;
  tools::ToolObs tobs;

  tools::ArgCursor cur(argc, argv, usage);
  while (cur.take()) {
    const std::string& arg = cur.arg();
    double v = 0.0;
    if (arg == "--model") {
      model = cur.value();
    } else if (arg == "--drives" && util::parse_int_as(cur.value(), opt.num_drives)) {
      // parsed in the condition
    } else if (arg == "--days" && util::parse_int_as(cur.value(), opt.num_days)) {
      // parsed in the condition
    } else if (arg == "--seed" && util::parse_int_as(cur.value(), opt.seed)) {
      // parsed in the condition
    } else if (arg == "--afr-scale" && util::parse_double(cur.value(), v)) {
      opt.afr_scale = v;
    } else if (arg == "--out") {
      out_path = cur.value();
    } else if (arg == "--mix") {
      mix_spec = cur.value();
    } else if (arg == "--churn") {
      churn_spec = cur.value();
    } else if (arg == "--faults") {
      fault_spec = cur.value();
    } else if (arg == "--fault-seed" && util::parse_int_as(cur.value(), fault_seed)) {
      // parsed in the condition
    } else if (arg == "--cache-dir") {
      cache_dir = cur.value();
    } else if (arg == "--log-level") {
      if (!tools::parse_log_level_flag(cur.value(), log_level)) {
        usage();
        return 2;
      }
    } else if (arg == "--trace-out") {
      tobs.trace_out = cur.value();
    } else if (arg == "--metrics-out") {
      tobs.metrics_out = cur.value();
    } else if (arg == "--report-out") {
      tobs.report_out = cur.value();
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown or malformed argument: %s\n", arg.c_str());
      usage();
      return 2;
    }
  }

  const bool obs_enabled = tobs.enabled();
  const obs::Context* obs = tobs.context();
  obs::Logger logger(log_level);

  try {
    obs::Span root(obs, "wefr_simulate");

    data::FleetData fleet;
    if (mix_spec.empty()) {
      if (!churn_spec.empty()) {
        std::fprintf(stderr, "--churn requires --mix\n");
        return 2;
      }
      obs::Span gen_span(obs, "simulate:generate");
      fleet = generate_fleet(smartsim::profile_by_name(model), opt);
    } else {
      obs::Span gen_span(obs, "simulate:generate_mixed");
      smartsim::MixedFleetSpec spec;
      spec.shares = smartsim::parse_mix_spec(mix_spec);
      spec.churn = smartsim::parse_churn_spec(churn_spec, opt.num_drives);
      spec.sim = opt;
      auto mixed = smartsim::generate_mixed_fleet(spec);
      logger.infof("generate", "schema: %s", mixed.schema.summary().c_str());
      for (const auto& d : mixed.diagnostics)
        logger.infof("generate", "degraded: %s", d.c_str());
      if (mixed.drives_retired + mixed.drives_added > 0)
        logger.infof("generate", "churn: %zu drives retired, %zu added",
                     mixed.drives_retired, mixed.drives_added);
      fleet = std::move(mixed.fleet);
      model = fleet.model_name;  // cache key below follows the pool name
    }
    logger.infof("generate", "%s: %zu drives, %zu failed, %d days, AFR %.2f%%",
                 fleet.model_name.c_str(), fleet.drives.size(), fleet.num_failed(),
                 fleet.num_days, fleet.afr_percent());
    if (obs_enabled) {
      obs::add_counter(obs, "wefr_sim_drives_total", fleet.drives.size());
      obs::add_counter(obs, "wefr_sim_drives_failed_total", fleet.num_failed());
      std::size_t drive_days = 0;
      for (const auto& d : fleet.drives) drive_days += d.num_days();
      obs::add_counter(obs, "wefr_sim_drive_days_total", drive_days);
    }

    smartsim::FaultLog log;
    const smartsim::FaultPlan plan = smartsim::parse_fault_plan(fault_spec);
    if (plan.empty()) {
      obs::Span write_span(obs, "simulate:write");
      if (out_path.empty()) {
        data::write_fleet_csv(fleet, std::cout);
      } else {
        data::write_fleet_csv(fleet, out_path);
        logger.infof("write", "wrote %s", out_path.c_str());
      }
    } else {
      smartsim::FaultPlan seeded = plan;
      seeded.seed = fault_seed;
      std::ostringstream os;
      data::write_fleet_csv(fleet, os);
      std::string corrupted;
      {
        obs::Span corrupt_span(obs, "simulate:corrupt");
        corrupted = smartsim::corrupt_csv(os.str(), seeded, &log);
      }
      logger.infof("corrupt", "%s", log.summary().c_str());
      if (obs_enabled) {
        obs::add_counter(obs, "wefr_sim_faults_applied_total", log.total_applied());
        obs::add_counter(obs, "wefr_sim_fault_rows_touched_total", log.rows_touched);
        obs::add_counter(obs, "wefr_sim_nonfinite_flips_total", log.nonfinite_flips);
      }
      obs::Span write_span(obs, "simulate:write");
      if (out_path.empty()) {
        std::cout << corrupted;
      } else {
        std::ofstream ofs(out_path);
        if (!ofs) throw std::runtime_error("cannot open " + out_path);
        ofs << corrupted;
        logger.infof("write", "wrote %s", out_path.c_str());
      }
    }

    // Warm the columnar cache for the file just written (clean output
    // only: corrupted CSVs are meant to exercise the parser, not skip
    // it). Snapshots are keyed by parse policy; recover is what the
    // production loaders use, so pair it with
    // `wefr_select --policy recover --cache-dir ...` for a first-run
    // cache hit.
    if (!cache_dir.empty() && !out_path.empty() && plan.empty()) {
      obs::Span warm_span(obs, "simulate:warm_cache");
      data::ReadOptions ropt;
      ropt.policy = data::ParsePolicy::kRecover;
      data::CacheOptions cache;
      cache.dir = cache_dir;
      cache.refresh = true;
      data::IngestReport report;
      data::load_fleet_csv_cached(out_path, model, ropt, cache, &report, obs);
      logger.infof("cache", "warmed fleet cache in %s (%s)", cache_dir.c_str(),
                   report.summary().c_str());
    }

    if (obs_enabled) {
      root.finish();
      tobs.write_outputs(logger);
      if (!tobs.report_out.empty()) {
        obs::RunReport run_report;
        run_report.tool = "wefr_simulate";
        run_report.model = fleet.model_name;
        run_report.run_info["drives"] = static_cast<double>(fleet.drives.size());
        run_report.run_info["drives_failed"] = static_cast<double>(fleet.num_failed());
        run_report.run_info["days"] = static_cast<double>(fleet.num_days);
        run_report.run_info["features"] = static_cast<double>(fleet.num_features());
        run_report.params["seed"] = std::to_string(opt.seed);
        run_report.params["afr_scale"] = std::to_string(opt.afr_scale);
        if (!fault_spec.empty()) {
          run_report.params["faults"] = fault_spec;
          run_report.params["fault_seed"] = std::to_string(fault_seed);
        }
        run_report.tracer = &tobs.tracer;
        run_report.metrics = &tobs.registry;
        run_report.write_json_file(tobs.report_out);
        logger.infof("obs", "wrote run report to %s", tobs.report_out.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
