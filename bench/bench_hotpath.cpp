// Hot-path benchmark: histogram vs exact split finding when fitting the
// prediction forest, parallel vs serial fleet scoring, the precision
// cost (if any) of the quantized splitter at the paper's fixed-recall
// operating point, streaming vs naive rolling-feature expansion, the
// merge-sort vs pair-scan Kendall ranking kernel, CSV ingestion:
// serial istream parse vs the parallel mmap parse (bit-identical
// required) and cold vs warm columnar fleet cache, forest
// inference: the scalar recursive walk vs the flattened engine
// (bit-identical required, >=5x single-core gate).
//
// Also gates the wefr::obs zero-overhead contract: scoring with tracing
// and metrics enabled must stay within 5% of the disabled run, or the
// bench exits non-zero.
//
// Prints a human-readable report and writes machine-readable
// BENCH_hotpath.json into the working directory (schema documented in
// README.md, "Performance"). Honors the usual WEFR_BENCH_* knobs (see
// bench_common.h).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>

#include "bench_common.h"
#include "kendall_naive.h"
#include "core/pipeline.h"
#include "core/wefr.h"
#include "data/cache.h"
#include "data/csv.h"
#include "data/window_features.h"
#include "ml/forest_infer.h"
#include "ml/random_forest.h"
#include "obs/context.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/kendall.h"
#include "stats/ranking.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace wefr;

namespace {

double time_forest_fit(const data::Dataset& ds, ml::ForestOptions opt,
                       ml::SplitMethod method, ml::RandomForest& forest) {
  opt.tree.split_method = method;
  util::Rng rng(1234);
  util::Stopwatch sw;
  forest.fit(ds.x, ds.y, opt, rng);
  return sw.seconds();
}

double precision_with(const data::FleetData& fleet, const core::ExperimentConfig& cfg,
                      int test_start, int test_end, double target_recall) {
  std::vector<std::size_t> all_cols(fleet.num_features());
  std::iota(all_cols.begin(), all_cols.end(), std::size_t{0});
  const auto predictor =
      core::train_predictor(fleet, all_cols, 0, test_start - 1, cfg);
  const auto scores = core::score_fleet(fleet, predictor, test_start, test_end, cfg);
  const auto eval = core::evaluate_fixed_recall(fleet, scores, test_start, test_end,
                                                cfg.horizon_days, target_recall);
  return eval.precision;
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
    // memcmp, not ==: NaN holes must sit in exactly the same cells.
    if (ra.size() != rb.size() ||
        std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

bool ingest_reports_equal(const data::IngestReport& a, const data::IngestReport& b) {
  return a.rows_total == b.rows_total && a.rows_ok == b.rows_ok &&
         a.rows_quarantined == b.rows_quarantined &&
         a.cells_recovered == b.cells_recovered &&
         a.gap_days_bridged == b.gap_days_bridged &&
         a.drives_quarantined == b.drives_quarantined &&
         a.error_counts == b.error_counts &&
         a.quarantined_drive_ids == b.quarantined_drive_ids;
}

}  // namespace

int main() {
  const benchx::BenchScale scale = benchx::scale_from_env();
  const std::string model = "MC1";
  const double target_recall = benchx::paper_recall(model);
  const std::size_t hw_threads = util::default_thread_count();

  std::printf("Hot-path bench — model %s, %zu drives, %d days, %zu trees, %zu hw threads\n\n",
              model.c_str(), scale.total_drives, scale.num_days, scale.trees, hw_threads);

  const auto fleet = benchx::make_fleet(model, scale);
  const auto phases = core::standard_phases(fleet.num_days);
  const auto& phase = phases.back();

  core::ExperimentConfig cfg = benchx::compare_config(scale).exp;

  // --- 1. Forest fit: exact vs histogram on the selection sample set.
  const auto ds = core::build_selection_samples(fleet, 0, phase.test_start - 1, cfg);
  std::printf("fit benchmark: %zu samples x %zu base features, %zu trees\n", ds.size(),
              ds.num_features(), cfg.forest.num_trees);
  std::fflush(stdout);

  ml::RandomForest forest_exact, forest_hist;
  const double fit_exact_s =
      time_forest_fit(ds, cfg.forest, ml::SplitMethod::kExact, forest_exact);
  std::printf("  exact:     %8.3f s\n", fit_exact_s);
  std::fflush(stdout);
  const double fit_hist_s =
      time_forest_fit(ds, cfg.forest, ml::SplitMethod::kHistogram, forest_hist);
  const double fit_speedup = fit_hist_s > 0.0 ? fit_exact_s / fit_hist_s : 0.0;
  std::printf("  histogram: %8.3f s   (speedup %.2fx)\n\n", fit_hist_s, fit_speedup);
  std::fflush(stdout);

  // --- 2. End-to-end precision at the paper's fixed recall, both
  // splitters. Drive-level precision at a fixed recall is a discrete
  // count ratio (one borderline drive moves it by whole points), so
  // average over several fleet seeds rather than judging a single draw.
  const std::uint64_t quality_seeds[] = {4242, 777, 31337, 99, 2026};
  double prec_exact = 0.0, prec_hist = 0.0;
  core::ExperimentConfig cfg_quality = cfg;
  cfg_quality.num_threads = hw_threads;  // speeds the bench; results unchanged
  for (const std::uint64_t seed : quality_seeds) {
    const auto qfleet = benchx::make_fleet(model, scale, seed);
    cfg_quality.forest.tree.split_method = ml::SplitMethod::kExact;
    const double pe = precision_with(qfleet, cfg_quality, phase.test_start,
                                     phase.test_end, target_recall);
    cfg_quality.forest.tree.split_method = ml::SplitMethod::kHistogram;
    const double ph = precision_with(qfleet, cfg_quality, phase.test_start,
                                     phase.test_end, target_recall);
    std::printf("  seed %-6llu precision @ recall>=%.2f:  exact %s, histogram %s\n",
                static_cast<unsigned long long>(seed), target_recall,
                benchx::pct(pe, 1).c_str(), benchx::pct(ph, 1).c_str());
    std::fflush(stdout);
    prec_exact += pe;
    prec_hist += ph;
  }
  prec_exact /= static_cast<double>(std::size(quality_seeds));
  prec_hist /= static_cast<double>(std::size(quality_seeds));
  std::printf("precision @ recall>=%.2f (mean of %zu seeds):  exact %s, histogram %s"
              " (diff %+.2f pts)\n\n",
              target_recall, std::size(quality_seeds), benchx::pct(prec_exact, 1).c_str(),
              benchx::pct(prec_hist, 1).c_str(), (prec_hist - prec_exact) * 100.0);
  std::fflush(stdout);

  // --- 3. Fleet scoring: serial vs ThreadPool fan-out (same predictor).
  core::ExperimentConfig cfg_score = cfg;
  cfg_score.forest.tree.split_method = ml::SplitMethod::kHistogram;
  cfg_score.num_threads = hw_threads;
  std::vector<std::size_t> all_cols(fleet.num_features());
  std::iota(all_cols.begin(), all_cols.end(), std::size_t{0});
  const auto predictor =
      core::train_predictor(fleet, all_cols, 0, phase.test_start - 1, cfg_score);

  cfg_score.num_threads = 1;
  util::Stopwatch sw;
  const auto serial =
      core::score_fleet(fleet, predictor, phase.test_start, phase.test_end, cfg_score);
  const double score_serial_s = sw.seconds();

  cfg_score.num_threads = hw_threads;
  sw.reset();
  const auto parallel =
      core::score_fleet(fleet, predictor, phase.test_start, phase.test_end, cfg_score);
  const double score_parallel_s = sw.seconds();
  const double score_speedup =
      score_parallel_s > 0.0 ? score_serial_s / score_parallel_s : 0.0;

  bool identical = serial.size() == parallel.size();
  for (std::size_t i = 0; identical && i < serial.size(); ++i) {
    identical = serial[i].drive_index == parallel[i].drive_index &&
                serial[i].first_day == parallel[i].first_day &&
                serial[i].scores == parallel[i].scores;
  }
  std::printf("score_fleet over %zu drives:\n  serial (1 thread):    %8.3f s\n"
              "  parallel (%zu threads): %8.3f s   (speedup %.2fx, outputs %s)\n\n",
              serial.size(), score_serial_s, hw_threads, score_parallel_s, score_speedup,
              identical ? "identical" : "DIFFER");

  // --- 4. Rolling-feature expansion: the fold (data::expand_series) vs
  // the naive per-day window rescan, full fleet, windows {7, 14, 30}.
  // The extremum stats (max/min/range) must match bitwise; the
  // prefix-sum stats to rounding.
  data::WindowFeatureConfig fg_cfg;
  fg_cfg.windows = {7, 14, 30};
  std::vector<std::size_t> fg_cols(fleet.num_features());
  std::iota(fg_cols.begin(), fg_cols.end(), std::size_t{0});
  const std::size_t fg_factor = data::expansion_factor(fg_cfg);

  double fg_naive_s = 0.0, fg_stream_s = 0.0, fg_max_rel = 0.0;
  bool fg_exact_bitwise = true;
  std::size_t fg_days_total = 0;
  for (const auto& drive : fleet.drives) {
    if (drive.num_days() == 0) continue;
    fg_days_total += drive.num_days();
    sw.reset();
    const data::Matrix ref = data::expand_series_naive(drive.values, fg_cols, fg_cfg);
    fg_naive_s += sw.seconds();
    sw.reset();
    const data::Matrix fast = data::expand_series(drive.values, fg_cols, fg_cfg);
    fg_stream_s += sw.seconds();
    // Per-base-column value scale: the documented tolerance for the
    // sum-based stats is relative to the column magnitude (the
    // sum2/n - mean^2 cancellation quantizes near-zero stds at
    // ~sqrt(ulp) of the scale), so normalize by |ref| + scale rather
    // than |ref| alone — a near-constant column's std of ~0 would
    // otherwise report the cancellation noise as O(1) relative error.
    std::vector<double> fg_scale(fg_cols.size(), 1.0);
    for (std::size_t b = 0; b < fg_cols.size(); ++b) {
      for (std::size_t d = 0; d < drive.num_days(); ++d) {
        const double v = std::abs(drive.values(d, fg_cols[b]));
        if (std::isfinite(v)) fg_scale[b] = std::max(fg_scale[b], v);
      }
    }
    for (std::size_t d = 0; d < ref.rows(); ++d) {
      for (std::size_t c = 0; c < ref.cols(); ++c) {
        const std::size_t within = c % fg_factor;
        const std::size_t stat = within == 0 ? 0 : (within - 1) % 6;
        const double f = fast(d, c), r = ref(d, c);
        if (within == 0 || stat == 0 || stat == 1 || stat == 4) {
          // identity / max / min / range: bit-exact contract.
          fg_exact_bitwise = fg_exact_bitwise && (f == r || (std::isnan(f) && std::isnan(r)));
        } else if (std::isfinite(f) && std::isfinite(r)) {
          fg_max_rel = std::max(fg_max_rel, std::abs(f - r) /
                                                (std::abs(r) + fg_scale[c / fg_factor]));
        }
      }
    }
  }
  const double fg_speedup = fg_stream_s > 0.0 ? fg_naive_s / fg_stream_s : 0.0;
  std::printf("rolling-feature expansion, %zu drive-days x %zu base features,"
              " windows {7,14,30}:\n  naive:     %8.3f s\n"
              "  streaming: %8.3f s   (speedup %.2fx, exact stats %s,"
              " max scaled err %.2e)\n\n",
              fg_days_total, fg_cols.size(), fg_naive_s, fg_stream_s, fg_speedup,
              fg_exact_bitwise ? "bitwise" : "DIFFER", fg_max_rel);

  // --- 5. Ranking hot path. (a) The Kendall-tau distance kernel on
  // tied rankings at window-expanded-scale n, merge-sort vs pair scan.
  const std::size_t kd_n = 4000;
  std::vector<double> kd_scores_a(kd_n), kd_scores_b(kd_n);
  util::Rng kd_rng(5150);
  for (std::size_t i = 0; i < kd_n; ++i) {
    kd_scores_a[i] = static_cast<double>(kd_rng.uniform_int(0, 500));
    kd_scores_b[i] = kd_scores_a[i] + kd_rng.normal(0.0, 50.0);
  }
  const auto kd_a = stats::ranking_from_scores(kd_scores_a);
  const auto kd_b = stats::ranking_from_scores(kd_scores_b);
  sw.reset();
  const std::size_t kd_ref = stats::kendall_tau_distance_naive(kd_a, kd_b);
  const double kd_naive_s = sw.seconds();
  const int kd_reps = 20;
  std::size_t kd_fast_dist = 0;
  sw.reset();
  for (int rep = 0; rep < kd_reps; ++rep)
    kd_fast_dist = stats::kendall_tau_distance(kd_a, kd_b);
  const double kd_fast_s = sw.seconds() / kd_reps;
  const double kd_speedup = kd_fast_s > 0.0 ? kd_naive_s / kd_fast_s : 0.0;
  const bool kd_identical = kd_fast_dist == kd_ref;
  std::printf("kendall tau distance, n=%zu tied rankings:\n"
              "  pair scan:  %8.4f s\n  merge sort: %8.4f s   (speedup %.1fx,"
              " counts %s)\n\n",
              kd_n, kd_naive_s, kd_fast_s, kd_speedup,
              kd_identical ? "identical" : "DIFFER");

  // (b) Full ensemble ranking + automated selection, sequential vs the
  // ranker job list at 8 threads, identical-output check. One
  // population gives five single-threaded jobs, so the parallel arm
  // ends with the slower of the XGBoost and RandomForest rankers. The
  // job list guards its pool: on a single-hardware-thread host (or a
  // matrix too small to amortize pool startup) the parallel arm
  // silently takes the serial path, so a speedup of ~1.0x next to
  // hw_threads=1 in the JSON means the guard worked, not that the pool
  // broke even. The tests prove thread-count invariance either way.
  const std::size_t ens_threads = 8;
  core::WefrOptions wopt;
  wopt.update_with_wearout = false;
  sw.reset();
  const auto ens_serial = core::select_features_for(ds, wopt);
  const double ens_serial_s = sw.seconds();
  wopt.num_threads = ens_threads;
  sw.reset();
  const auto ens_parallel = core::select_features_for(ds, wopt);
  const double ens_parallel_s = sw.seconds();
  const double ens_speedup = ens_parallel_s > 0.0 ? ens_serial_s / ens_parallel_s : 0.0;
  const bool ens_identical = ens_serial.ensemble.order == ens_parallel.ensemble.order &&
                             ens_serial.selected == ens_parallel.selected;
  std::printf("ensemble ranking + auto-select, %zu samples x %zu features:\n"
              "  serial:               %8.3f s\n"
              "  parallel (%zu threads): %8.3f s   (speedup %.2fx, selection %s)\n\n",
              ds.size(), ds.num_features(), ens_serial_s, ens_threads, ens_parallel_s,
              ens_speedup, ens_identical ? "identical" : "DIFFER");

  // --- 6. Ingestion: serial istream parse vs the chunked parallel
  // mmap parse (required bit-identical — fleet bytes and every report
  // tally), then the binary columnar fleet cache, cold (miss + snapshot
  // write) vs warm (validated mapped read). The warm figure is the
  // headline: a warm start skips both the parse and forward_fill, and
  // must come in at >=5x over the serial reparse at bench scale.
  namespace fs = std::filesystem;
  const fs::path ingest_root = fs::temp_directory_path() / "wefr_bench_ingest";
  std::error_code ing_ec;
  fs::remove_all(ingest_root, ing_ec);
  fs::create_directories(ingest_root);
  const std::string ingest_csv = (ingest_root / "fleet.csv").string();
  data::write_fleet_csv(fleet, ingest_csv);
  const auto ingest_bytes = static_cast<std::size_t>(fs::file_size(ingest_csv));

  data::ReadOptions ing_ropt;
  ing_ropt.policy = data::ParsePolicy::kRecover;
  data::IngestReport ing_rep_serial;
  data::FleetData ing_serial;
  sw.reset();
  {
    std::ifstream ifs(ingest_csv, std::ios::binary);
    ing_serial = data::read_fleet_csv(ifs, model, ing_ropt, &ing_rep_serial);
  }
  const double ing_serial_s = sw.seconds();

  data::ReadOptions ing_popt = ing_ropt;
  ing_popt.num_threads = hw_threads;
  data::IngestReport ing_rep_par;
  sw.reset();
  const data::FleetData ing_par =
      data::read_fleet_csv(ingest_csv, model, ing_popt, &ing_rep_par);
  const double ing_parallel_s = sw.seconds();
  const double ing_parse_speedup =
      ing_parallel_s > 0.0 ? ing_serial_s / ing_parallel_s : 0.0;
  bool ingest_identical = fleets_bitwise_equal(ing_serial, ing_par) &&
                          ingest_reports_equal(ing_rep_serial, ing_rep_par);
  std::printf("ingest parse, %zu rows / %.1f MiB csv:\n"
              "  serial istream:          %8.3f s\n"
              "  parallel mmap (%zu thr):   %8.3f s   (speedup %.2fx, outputs %s)\n",
              static_cast<std::size_t>(ing_rep_serial.rows_total),
              static_cast<double>(ingest_bytes) / (1024.0 * 1024.0), ing_serial_s,
              hw_threads, ing_parallel_s, ing_parse_speedup,
              ingest_identical ? "identical" : "DIFFER");
  std::fflush(stdout);

  // Cache baseline: the full uncached production load — serial parse +
  // forward_fill — since a validated snapshot replaces both.
  data::ReadOptions ing_1thr = ing_ropt;
  ing_1thr.num_threads = 1;
  sw.reset();
  const data::FleetData ing_reload = data::load_fleet_csv(ingest_csv, model, ing_1thr);
  const double ing_reload_s = sw.seconds();

  data::CacheOptions ing_cache;
  ing_cache.dir = (ingest_root / "cache").string();
  data::IngestReport ing_rep_cold;
  sw.reset();
  const data::FleetData ing_cold = data::load_fleet_csv_cached(
      ingest_csv, model, ing_popt, ing_cache, &ing_rep_cold);
  const double ing_cold_s = sw.seconds();

  double ing_warm_s = 1e300;
  data::FleetData ing_warm;
  data::IngestReport ing_rep_warm;
  for (int rep = 0; rep < 3; ++rep) {
    ing_rep_warm = data::IngestReport{};
    sw.reset();
    ing_warm = data::load_fleet_csv_cached(ingest_csv, model, ing_popt, ing_cache,
                                           &ing_rep_warm);
    ing_warm_s = std::min(ing_warm_s, sw.seconds());
  }
  const bool ing_warm_hit =
      ing_rep_cold.cache_misses == 1 && ing_rep_warm.cache_hits == 1;
  const double ing_warm_speedup = ing_warm_s > 0.0 ? ing_reload_s / ing_warm_s : 0.0;
  ingest_identical = ingest_identical && ing_warm_hit &&
                     fleets_bitwise_equal(ing_cold, ing_warm) &&
                     fleets_bitwise_equal(ing_reload, ing_warm);
  std::printf("columnar fleet cache:\n"
              "  uncached load (parse+fill): %8.3f s\n"
              "  cold (miss + write):        %8.3f s\n"
              "  warm (mapped hit):          %8.3f s   (%.1fx vs uncached serial load, %s)\n\n",
              ing_reload_s, ing_cold_s, ing_warm_s, ing_warm_speedup,
              ing_warm_hit ? "hit" : "NO HIT");
  std::fflush(stdout);
  fs::remove_all(ingest_root, ing_ec);

  // --- 7. obs overhead gate: scoring with a live Tracer + Registry
  // must cost at most 5% over the disabled (null Context) run. Reps are
  // interleaved and the side that runs first alternates per rep
  // (running the disabled side first every time hands the enabled side
  // a warmer cache and a consistent bias). Each rep yields one paired
  // ratio, enabled over disabled, and the gate reads their median: a
  // pair shares the host's state of the moment, so slow drift cancels
  // within it, and the median ignores the few pairs a scheduler hiccup
  // lands on — a min per side cannot do either, as its two minima may
  // come from different reps. The rep count is even, so each side runs
  // first equally often and an order effect cannot tip the median. A
  // small absolute escape hatch (median paired difference under 5 ms)
  // keeps a micro-scale run from failing on timer granularity alone.
  cfg_score.num_threads = 1;
  const int obs_reps = 10;
  std::vector<double> obs_off(obs_reps), obs_on(obs_reps), obs_ratios(obs_reps),
      obs_deltas(obs_reps);
  std::size_t obs_spans = 0;
  bool obs_shapes_equal = true;
  for (int rep = 0; rep < obs_reps; ++rep) {
    std::size_t off_drives = 0, on_drives = 0;
    const auto run_off = [&] {
      sw.reset();
      off_drives = core::score_fleet(fleet, predictor, phase.test_start, phase.test_end,
                                     cfg_score)
                       .size();
      obs_off[rep] = sw.seconds();
    };
    const auto run_on = [&] {
      obs::Tracer tracer;
      obs::Registry registry;
      obs::Context ctx{&tracer, &registry};
      sw.reset();
      on_drives = core::score_fleet(fleet, predictor, phase.test_start, phase.test_end,
                                    cfg_score, nullptr, &ctx)
                      .size();
      obs_on[rep] = sw.seconds();
      obs_spans = tracer.size();
    };
    if (rep % 2 == 0) {
      run_off();
      run_on();
    } else {
      run_on();
      run_off();
    }
    obs_shapes_equal = obs_shapes_equal && off_drives == on_drives;
    obs_ratios[rep] = obs_off[rep] > 0.0 ? obs_on[rep] / obs_off[rep] : 1.0;
    obs_deltas[rep] = obs_on[rep] - obs_off[rep];
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  const double obs_ratio = median(obs_ratios);
  const double obs_off_s = median(obs_off), obs_on_s = median(obs_on);
  const bool obs_gate_pass =
      obs_shapes_equal && (obs_ratio <= 1.05 || median(obs_deltas) < 0.005);
  std::printf("obs overhead gate (score_fleet, median of %d paired alternating reps):\n"
              "  disabled: %8.3f s (median)\n"
              "  enabled:  %8.3f s (median)   (paired ratio %.3f, %zu spans; gate %s)\n\n",
              obs_reps, obs_off_s, obs_on_s, obs_ratio, obs_spans,
              obs_gate_pass ? "PASS" : "FAIL");

  // --- 8. Forest inference: the scalar per-row recursive walk vs the
  // flattened engine, single-core, on the production-config histogram
  // forest. The flattened scores must be bit-identical to the recursive
  // oracle — including contiguous row slices of 1/7/256/n rows through
  // the Matrix entry and the whole matrix at 1 and hw threads — and must
  // clear >=5x over the scalar walk (the inference gate).
  const ml::RandomForest& inf_forest = forest_hist;
  const data::Matrix& inf_x = ds.x;
  const std::size_t inf_rows = inf_x.rows();
  const ml::FlatForest& inf_flat = *inf_forest.flat();

  auto time_once = [&](auto&& fn) {
    sw.reset();
    fn();
    return sw.seconds();
  };

  // The two arms are timed interleaved, one rep of each per round, and
  // the gate reads the median over rounds of each round's paired ratio,
  // walk over flattened — the estimator of the obs gate above. A round's
  // arms share the host's state of the moment, so slow drift cancels
  // within the pair, and the median ignores the rounds a scheduler hiccup
  // lands on; a min per arm can take its two minima from different
  // rounds. The walk runs first in even rounds and last in odd ones, over
  // an even number of rounds, so an order effect cannot tip the median.
  std::vector<double> inf_oracle(inf_rows);
  std::vector<double> inf_flat_scores;
  const int inf_rounds = 10;
  std::vector<double> inf_scalar(inf_rounds), inf_flat_t(inf_rounds), inf_ratio(inf_rounds);
  for (int round = 0; round < inf_rounds; ++round) {
    const auto walk = [&] {
      inf_scalar[round] = time_once([&] {
        for (std::size_t r = 0; r < inf_rows; ++r)
          inf_oracle[r] = inf_forest.predict_proba(inf_x.row(r));
      });
    };
    if (round % 2 == 0) walk();
    inf_flat_t[round] = time_once([&] { inf_flat_scores = inf_forest.predict_proba(inf_x); });
    if (round % 2 == 1) walk();
    inf_ratio[round] = inf_flat_t[round] > 0.0 ? inf_scalar[round] / inf_flat_t[round] : 0.0;
  }
  const double inf_scalar_s = median(inf_scalar), inf_flat_s = median(inf_flat_t);
  bool inf_identical = inf_flat_scores == inf_oracle;

  // Re-batching equivalence: contiguous slices of 1, 7, 256 and all
  // rows through the Matrix entry must splice into the oracle exactly,
  // as must the whole matrix at 1 and hw threads.
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{7}, std::size_t{256}, inf_rows}) {
    std::vector<double> spliced;
    spliced.reserve(inf_rows);
    for (std::size_t begin = 0; begin < inf_rows; begin += batch) {
      const auto part =
          inf_forest.predict_proba(inf_x.slice_rows(begin, std::min(batch, inf_rows - begin)));
      spliced.insert(spliced.end(), part.begin(), part.end());
    }
    inf_identical = inf_identical && spliced == inf_oracle;
  }
  for (const std::size_t threads : {std::size_t{1}, hw_threads}) {
    inf_identical =
        inf_identical && inf_forest.predict_proba(inf_x, threads) == inf_oracle;
  }

  auto rows_per_sec = [&](double s) {
    return s > 0.0 ? static_cast<double>(inf_rows) / s : 0.0;
  };
  const double inf_flat_speedup = median(inf_ratio);
  const bool inf_gate_pass = inf_identical && inf_flat_speedup >= 5.0;
  std::printf("forest inference, %zu rows x %zu features, %zu trees depth<=%d, 1 core,\n"
              "medians of %d interleaved rounds (speedup: median paired ratio):\n"
              "  scalar recursive walk: %8.4f s   (%8.2fk rows/s)\n"
              "  flattened:             %8.4f s   (%8.2fk rows/s, speedup %.2fx)\n"
              "  scores %s; inference gate (>=5x, bit-identical) %s\n\n",
              inf_rows, inf_x.cols(), inf_forest.num_trees(), inf_flat.max_depth(), inf_rounds,
              inf_scalar_s, rows_per_sec(inf_scalar_s) / 1e3, inf_flat_s,
              rows_per_sec(inf_flat_s) / 1e3, inf_flat_speedup,
              inf_identical ? "bit-identical" : "DIFFER", inf_gate_pass ? "PASS" : "FAIL");
  std::fflush(stdout);

  // --- machine-readable summary.
  {
    std::ofstream js("BENCH_hotpath.json");
    obs::json::Writer w(js);
    w.begin_object();
    w.field("model", model);
    w.key("scale").begin_object();
    w.field("drives", scale.total_drives).field("days", scale.num_days);
    w.field("trees", scale.trees).end_object();
    w.key("fit").begin_object();
    w.field("samples", ds.size()).field("features", ds.num_features());
    w.field("exact_seconds", fit_exact_s).field("histogram_seconds", fit_hist_s);
    w.field("speedup", fit_speedup).end_object();
    w.key("quality").begin_object();
    w.field("target_recall", target_recall).field("precision_exact", prec_exact);
    w.field("precision_histogram", prec_hist);
    w.field("precision_diff", prec_hist - prec_exact).end_object();
    w.key("score").begin_object();
    w.field("drives", serial.size()).field("threads", hw_threads);
    w.field("serial_seconds", score_serial_s).field("parallel_seconds", score_parallel_s);
    w.field("speedup", score_speedup).field("outputs_identical", identical).end_object();
    w.key("featuregen").begin_object();
    w.field("drive_days", fg_days_total).field("base_features", fg_cols.size());
    w.key("windows").begin_array().value(7).value(14).value(30).end_array();
    w.field("naive_seconds", fg_naive_s).field("streaming_seconds", fg_stream_s);
    w.field("speedup", fg_speedup).field("exact_stats_bitwise", fg_exact_bitwise);
    w.field("max_scaled_err", fg_max_rel).end_object();
    w.key("ranking").begin_object();
    w.field("hw_threads", hw_threads);
    w.field("kendall_n", kd_n).field("kendall_naive_seconds", kd_naive_s);
    w.field("kendall_fast_seconds", kd_fast_s).field("kendall_speedup", kd_speedup);
    w.field("kendall_identical", kd_identical);
    w.field("ensemble_samples", ds.size()).field("ensemble_features", ds.num_features());
    w.field("ensemble_serial_seconds", ens_serial_s);
    w.field("ensemble_threads", ens_threads);
    w.field("ensemble_parallel_seconds", ens_parallel_s);
    w.field("ensemble_speedup", ens_speedup);
    w.field("ensemble_identical", ens_identical).end_object();
    w.key("ingest").begin_object();
    w.field("csv_bytes", ingest_bytes);
    w.field("rows", ing_rep_serial.rows_total);
    w.field("threads", hw_threads);
    w.field("serial_seconds", ing_serial_s);
    w.field("parallel_seconds", ing_parallel_s);
    w.field("parse_speedup", ing_parse_speedup);
    w.field("serial_load_seconds", ing_reload_s);
    w.field("cold_cache_seconds", ing_cold_s);
    w.field("warm_cache_seconds", ing_warm_s);
    w.field("warm_speedup_vs_serial", ing_warm_speedup);
    w.field("cache_hit", ing_warm_hit);
    w.field("outputs_identical", ingest_identical).end_object();
    w.key("inference").begin_object();
    w.field("rows", inf_rows).field("features", inf_x.cols());
    w.field("trees", inf_forest.num_trees()).field("max_depth", inf_flat.max_depth());
    w.field("rounds", inf_rounds).field("estimator", "median_paired_ratio");
    w.field("scalar_seconds", inf_scalar_s);
    w.field("flat_seconds", inf_flat_s);
    w.field("scalar_rows_per_sec", rows_per_sec(inf_scalar_s));
    w.field("flat_rows_per_sec", rows_per_sec(inf_flat_s));
    w.field("flat_speedup", inf_flat_speedup);
    w.field("min_speedup", 5.0);
    w.field("outputs_identical", inf_identical);
    w.field("gate_pass", inf_gate_pass).end_object();
    w.key("obs").begin_object();
    w.field("reps", obs_reps).field("spans", obs_spans);
    w.field("estimator", "median_paired_ratio");
    w.field("disabled_seconds", obs_off_s).field("enabled_seconds", obs_on_s);
    w.field("overhead_ratio", obs_ratio).field("max_ratio", 1.05);
    w.field("gate_pass", obs_gate_pass).end_object();
    w.end_object();
    js << '\n';
  }
  std::printf("wrote BENCH_hotpath.json\n");
  const bool all_equivalent = identical && fg_exact_bitwise && fg_max_rel < 1e-6 &&
                              kd_identical && ens_identical && ingest_identical &&
                              inf_identical;
  return all_equivalent && obs_gate_pass && inf_gate_pass ? 0 : 1;
}
