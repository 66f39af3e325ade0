// bench_e2e — end-to-end benchmark of the two jobs the system runs: the
// weekly WEFR selection + retrain, and daily per-drive scoring (a batch
// rerun, or the resident wefrd daemon).
//
//   bench_e2e --workload NAME --out FILE.json [--seed N] [--seconds S]
//             [--trace DIR] [--git-rev REV]
//
// One workload per process. The current directory is the work
// directory: it holds the generated input CSV (<workload>-<seed>*.csv,
// reused when the same workload and seed run again) and the daemon's
// socket. Workloads (see README.md for the why of each):
//
//   batch_select    per rep, wefr_select's path: load_fleet_csv ->
//                   build_selection_samples -> run_wefr -> train_predictor
//                   -> score_fleet -> evaluate_fixed_recall
//   batch_score     per rep, load_fleet_csv -> score_fleet over the whole
//                   window, with the predictor trained in set-up
//   daemon_daily    one blocking client streams days into a resident
//                   daemon over its Unix socket: every active drive
//                   appends, then every active drive reads its score
//   daemon_recheck  the same loop with wefrd's weekly re-check (selection
//                   + retrain) and drift watch running in the loop
//
// Inputs come from smartsim and depend only on --seed; generating them
// is never timed. Every library call runs with T = hardware threads.
// End-to-end metrics are measured with observability off. With --trace
// the job runs again with an obs::Context passed into the same calls,
// each wrapped in a bench-side span named after its layer metric, and
// per-layer numbers are read from the span tree (self time = duration
// minus the union of the children's intervals). The Chrome trace goes
// to DIR/<workload>.trace.json.
//
// --out receives provenance, the workload shape, every metric with its
// unit, the correctness gates, and attempted/failed operation counts.
// The git revision recorded is --git-rev when given, else the one read
// when the build was configured.
// Exit status: 0 when every gate holds, 1 when one fails or the run
// throws, 2 on bad arguments or a sanitizer or unoptimised build.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/wefr.h"
#include "daemon/client.h"
#include "daemon/engine.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "data/cache.h"
#include "data/csv.h"
#include "data/window_features.h"
#include "ml/metrics.h"
#include "obs/context.h"
#include "obs/json.h"
#include "smartsim/generator.h"
#include "smartsim/profiles.h"
#include "span_tree.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace wefr;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = sizeof(WEFR_E2E_SANITIZE) > 1;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

constexpr const char* kModel = "MC1";
constexpr int kDays = 220;
constexpr int kTrainEnd = 150;  ///< batch jobs train on days 0..150
constexpr int kHorizon = 30;
constexpr double kTargetRecall = 0.30;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kMinReps = 5;
constexpr std::size_t kMaxReps = 40;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Linear-interpolated quantile, q in [0, 1]; NaN on empty input.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos)
      return std::string(util::trim(std::string_view(line).substr(colon + 1)));
  }
  return "unknown";
}

std::uint64_t score_digest(const std::vector<core::DriveDayScores>& scores) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  const auto mix = [&h](const void* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<const unsigned char*>(p)[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& ds : scores) {
    mix(&ds.drive_index, sizeof ds.drive_index);
    mix(&ds.first_day, sizeof ds.first_day);
    mix(ds.scores.data(), ds.scores.size() * sizeof(double));
  }
  return h;
}

bool same_bits(const std::vector<core::DriveDayScores>& a,
               const std::vector<core::DriveDayScores>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].drive_index != b[i].drive_index || a[i].first_day != b[i].first_day ||
        a[i].scores.size() != b[i].scores.size() ||
        std::memcmp(a[i].scores.data(), b[i].scores.data(),
                    a[i].scores.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

std::size_t rows_of(const std::vector<core::DriveDayScores>& scores) {
  std::size_t n = 0;
  for (const auto& ds : scores) n += ds.scores.size();
  return n;
}

// ---------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<std::pair<std::string, double>> shape;
  std::vector<Metric> metrics;  ///< end-to-end, observability off
  std::vector<Metric> layers;   ///< per-layer, from the --trace pass
  std::vector<std::pair<std::string, bool>> gates;
  /// Raw per-unit samples behind the medians (per rep, per day).
  std::map<std::string, std::vector<double>> series;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(std::string name, double v, std::string unit) {
    metrics.push_back({std::move(name), v, std::move(unit)});
  }
  void layer(std::string name, double v, std::string unit) {
    layers.push_back({std::move(name), v, std::move(unit)});
  }
  void gate(std::string name, bool ok) { gates.emplace_back(std::move(name), ok); }
  void failed_frac() {
    metric("failed_frac",
           attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted),
           "ratio");
  }
  bool correct() const {
    return attempted > 0 && failed == 0 &&
           std::all_of(gates.begin(), gates.end(), [](const auto& g) { return g.second; });
  }
};

// ---------------------------------------------------------------- config

struct Env {
  std::string workload;
  std::uint64_t seed = 4242;
  double seconds = 10.0;
  std::string out;
  std::string trace_dir;
  std::string git_rev = WEFR_E2E_GIT_REV;
  std::size_t threads = 1;

  bool traced() const { return !trace_dir.empty(); }
};

core::ExperimentConfig experiment_config(const Env& env) {
  core::ExperimentConfig cfg;  // paper defaults: 100 trees, depth 13, 30-day horizon
  cfg.num_threads = env.threads;
  return cfg;
}

core::WefrOptions wefr_options(const Env& env) {
  core::WefrOptions w;
  w.num_threads = env.threads;
  return w;
}

data::ReadOptions read_options(const Env& env) {
  data::ReadOptions r;
  r.num_threads = env.threads;
  return r;
}

/// Observability sinks of one traced pass.
struct Tracing {
  obs::Tracer tracer;
  obs::Registry registry;
  obs::Context ctx{&tracer, &registry};
};

const obs::Context* ctx_of(Tracing* tr) { return tr != nullptr ? &tr->ctx : nullptr; }

// ---------------------------------------------------------------- inputs

/// MC1 fleet over kDays days. The hazard is inflated so about a fifth of
/// the drives fail inside the window, which keeps the positive class and
/// the wear-out change point populated at bench scale.
data::FleetData simulate(std::size_t drives, std::uint64_t seed) {
  const auto& profile = smartsim::profile_by_name(kModel);
  smartsim::SimOptions opt;
  opt.num_drives = drives;
  opt.num_days = kDays;
  opt.seed = seed;
  opt.afr_scale = 0.22 * 100.0 * 365.0 / (profile.target_afr * kDays);
  return smartsim::generate_fleet(profile, opt);
}

/// The fleet as recorded before `end_day`: each drive's rows for days
/// < end_day, trouble tickets declared as in the CSV format.
data::FleetData history_before(const data::FleetData& fleet, int end_day) {
  data::FleetData h;
  h.model_name = fleet.model_name;
  h.feature_names = fleet.feature_names;
  h.num_days = end_day;
  for (const auto& d : fleet.drives) {
    if (d.first_day >= end_day) continue;
    data::DriveSeries s;
    s.drive_id = d.drive_id;
    s.first_day = d.first_day;
    s.fail_day = d.fail_day;
    const auto rows =
        static_cast<std::size_t>(std::min(d.last_day(), end_day - 1) - d.first_day + 1);
    s.values = data::Matrix(rows, d.values.cols());
    for (std::size_t r = 0; r < rows; ++r) {
      const auto src = d.values.row(r);
      std::copy(src.begin(), src.end(), s.values.row(r).begin());
    }
    h.drives.push_back(std::move(s));
  }
  return h;
}

/// Seed of the k-th fleet a workload draws from --seed.
std::uint64_t fleet_seed(std::uint64_t seed, std::size_t k) { return seed * 1000003ULL + k; }

using FleetMaker = std::function<data::FleetData()>;

/// Writes every CSV of `inputs` (file name, fleet generator) that does
/// not exist yet. Each is generated in its own forked child, all at
/// once, so generation is parallel and its memory never shows in this
/// process's peak RSS; a child writes to a temporary that is renamed
/// only once complete, so an interrupted run leaves no partial input.
void generate_csvs(const std::vector<std::pair<std::string, FleetMaker>>& inputs) {
  namespace fs = std::filesystem;
  std::vector<std::pair<pid_t, const std::string*>> children;
  for (const auto& [name, make] : inputs) {
    if (fs::exists(name)) continue;
    const pid_t pid = fork();
    if (pid == 0) {
      int rc = 0;
      try {
        data::write_fleet_csv(make(), name + ".tmp");
      } catch (...) {
        rc = 1;
      }
      _exit(rc);
    }
    children.emplace_back(pid, &name);
  }
  bool ok = true;
  for (const auto& [pid, name] : children) {
    int status = 0;
    const bool done = pid > 0 && waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0;
    if (done) fs::rename(*name + ".tmp", *name);
    ok = ok && done;
  }
  if (!ok) throw std::runtime_error("input generation failed");
}

/// This workload's inputs for this seed, named <workload>-<seed>-<part>.csv
/// and generated when missing. The workload's inputs for other seeds are
/// deleted first, so the work directory keeps one input set per workload.
std::vector<std::string> workload_csvs(const Env& env,
                                       const std::vector<std::pair<std::string, FleetMaker>>& parts) {
  namespace fs = std::filesystem;
  const std::string prefix = env.workload + "-";
  const std::string mine = prefix + std::to_string(env.seed) + "-";
  for (const auto& e : fs::directory_iterator(".")) {
    const std::string f = e.path().filename().string();
    if (f.rfind(prefix, 0) == 0 && f.rfind(mine, 0) != 0 &&
        (f.ends_with(".csv") || f.ends_with(".csv.tmp")))
      fs::remove(e.path());
  }
  std::vector<std::pair<std::string, FleetMaker>> named;
  std::vector<std::string> names;
  for (const auto& [part, make] : parts) {
    names.push_back(mine + part + ".csv");
    named.emplace_back(names.back(), make);
  }
  generate_csvs(named);
  return names;
}

/// The reference fleet. batch_select runs the weekly job on it, the
/// scoring workloads' set-up trains the production predictor on it, and
/// daemon_recheck serves it. It is the same for every seed: how long
/// selection and training take depends on what WEFR selects (how many
/// features, where the wear-out change point splits the fleet), which
/// varies from fleet to fleet by 10% and more, so work whose cost hinges
/// on one selection runs on this fixed fleet.
constexpr std::uint64_t kReferenceSeed = 4242;
constexpr std::size_t kReferenceDrives = 600;

data::FleetData reference_fleet() { return simulate(kReferenceDrives, kReferenceSeed); }

std::string reference_csv() {
  const std::string name = "reference-" + std::to_string(kReferenceSeed) + ".csv";
  generate_csvs({{name, reference_fleet}});
  return name;
}

// ---------------------------------------------------------------- layers

/// Per-layer samples of a traced pass: one value per traced call of the
/// layer (a rep, a set-up, an oracle pass); each is reported as the
/// median of its samples.
struct LayerSamples {
  std::map<std::string, std::vector<double>> values;

  void add(const std::string& name, double v) { values[name].push_back(v); }

  /// Reads the layer metrics of one traced call rooted at span `root`.
  /// Only layers whose bench span appears under `root` get a sample.
  void add_call(const e2e::SpanTree& tree, std::size_t root, double csv_bytes) {
    const auto self = tree.self_by_name(root);
    const auto self_of = [&](const char* n) {
      const auto it = self.find(n);
      return it == self.end() ? 0.0 : it->second;
    };
    const auto wall = [&](const char* n) -> std::optional<double> {
      const auto spans = tree.find_under(root, n);
      if (spans.empty()) return std::nullopt;
      double s = 0.0;
      for (std::size_t i : spans) s += tree.dur_s(i);
      return s;
    };
    if (const auto s = wall("data.ingest")) {
      add("data.ingest_s", *s);
      add("data.ingest_mb_per_s", csv_bytes / 1e6 / *s);
      add("data.ingest.tokenize_s", self_of("ingest:tokenize"));
      add("data.ingest.merge_s", self_of("ingest:merge"));
      add("data.ingest.fill_s", self_of("ingest:forward_fill"));
    }
    // build_selection_samples does no work outside its build_samples span.
    if (const auto s = wall("data.selection_samples")) add("data.selection_samples_s", *s);
    if (const auto s = wall("core.select")) {
      add("core.select_s", *s);
      add("core.ranker.pearson_s", self_of("ranker:Pearson"));
      add("core.ranker.spearman_s", self_of("ranker:Spearman"));
      add("core.ranker.jindex_s", self_of("ranker:J-index"));
      add("core.ranker.random_forest_s", self_of("ranker:RandomForest"));
      add("core.ranker.xgboost_s", self_of("ranker:XGBoost"));
      add("core.ensemble_s", self_of("ensemble"));
      add("core.auto_select_s", self_of("auto_select"));
      add("core.survival_cpd_s", self_of("survival") + self_of("cpd"));
    }
    if (const auto s = wall("ml.fit")) {
      add("ml.fit_s", *s);
      add("ml.forest_fit_s", self_of("forest:fit"));
      add("ml.flatten_s", self_of("forest:flatten"));
      double train_samples = 0.0;
      for (std::size_t f : tree.find_under(root, "ml.fit")) {
        const auto under_fit = tree.self_by_name(f);
        const auto it = under_fit.find("build_samples");
        if (it != under_fit.end()) train_samples += it->second;
      }
      add("data.train_samples_s", train_samples);
    }
    if (const auto s = wall("core.score")) {
      add("core.score_s", *s);
      // score_fleet traces neither its window expansion nor its per-drive
      // inference, so the two are one layer here.
      add("core.score.featuregen_predict_s", self_of("score_fleet"));
    }
    if (const auto s = wall("core.eval")) add("core.eval_s", *s);  // no program spans inside
  }
};

/// The spans whose self time (or, for the two bench spans, whose wall
/// time) is a layer metric: the leaves of the breakdown.
const std::vector<std::string_view> kLayerLeafSpans = {
    "ingest:tokenize", "ingest:merge",    "ingest:forward_fill", "data.selection_samples",
    "ranker:Pearson",  "ranker:Spearman", "ranker:J-index",      "ranker:RandomForest",
    "ranker:XGBoost",  "ensemble",        "auto_select",         "survival",
    "cpd",             "build_samples",   "forest:fit",          "forest:flatten",
    "score_fleet",     "core.eval"};

/// Emits the layers every workload reports: the sampled layers and the
/// cost of tracing.
void emit_layers(Result& r, LayerSamples& ls, double overhead, double spans_per_unit) {
  ls.add("obs.trace_overhead", overhead);
  ls.add("obs.spans", spans_per_unit);
  for (const auto& [name, v] : ls.values) {
    const char* unit = "s";
    if (name == "data.ingest_mb_per_s") unit = "MB/s";
    if (name == "ml.fit_rows" || name == "ml.predict_rows" || name == "obs.spans") unit = "count";
    if (name == "obs.trace_overhead") unit = "ratio";
    r.layer(name, median(v), unit);
  }
}

void write_trace(const Env& env, const obs::Tracer& tracer) {
  std::filesystem::create_directories(env.trace_dir);
  std::ofstream os(env.trace_dir + "/" + env.workload + ".trace.json");
  tracer.write_chrome_trace(os);
}

// ---------------------------------------------------------------- shared stages

data::FleetData ingest(const Env& env, const std::string& csv, const obs::Context* ctx) {
  obs::Span span(ctx, "data.ingest");
  return data::load_fleet_csv(csv, kModel, read_options(env), nullptr, ctx);
}

struct Model {
  core::WefrResult selection;
  core::WefrPredictor predictor;
  std::size_t fit_rows = 0;  ///< training rows, counted when traced
};

/// Selection + training on days [0, train_end]: the weekly job's model
/// half, shared by batch_select's reps and the other workloads' set-ups.
/// Throws when a selection degrades (counted as a failed operation).
Model select_and_train(const Env& env, const data::FleetData& fleet, int train_end,
                       Tracing* tr) {
  const obs::Context* ctx = ctx_of(tr);
  const auto cfg = experiment_config(env);
  Model m;
  data::Dataset samples;
  {
    obs::Span span(ctx, "data.selection_samples");
    samples = core::build_selection_samples(fleet, 0, train_end, cfg, ctx);
  }
  core::PipelineDiagnostics diag;
  {
    obs::Span span(ctx, "core.select");
    m.selection = core::run_wefr(fleet, samples, train_end, wefr_options(env), &diag, ctx);
  }
  if (diag.selection_degraded) throw std::runtime_error("selection degraded: " + diag.summary());
  const auto samples_total = [tr] {
    return tr != nullptr ? tr->registry.counter("wefr_samples_total").value() : 0;
  };
  const std::uint64_t rows0 = samples_total();
  {
    obs::Span span(ctx, "ml.fit");
    m.predictor = core::train_predictor(fleet, m.selection, 0, train_end, cfg, ctx);
  }
  m.fit_rows = samples_total() - rows0;
  return m;
}

/// Selected columns of every population plus the change point, as text
/// (equal strings = identical selections).
std::string selection_signature(const core::WefrResult& sel) {
  std::string s;
  const auto cols = [&s](const char* label, const core::GroupSelection& g) {
    s += label;
    for (std::size_t c : g.selected) s += " " + std::to_string(c);
    s += ";";
  };
  cols("all", sel.all);
  if (sel.low) cols("low", *sel.low);
  if (sel.high) cols("high", *sel.high);
  if (sel.change_point) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "cp %.17g", sel.change_point->mwi_threshold);
    s += buf;
  }
  return s;
}

/// Runs `rep` until `budget_s` is spent, at least `min_reps` times,
/// counting a throw as a failed operation. Returns the wall seconds of
/// the reps that completed.
std::vector<double> run_reps(Result& r, double budget_s, std::size_t min_reps,
                             const std::function<void()>& rep) {
  std::vector<double> t;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kMaxReps && (i < min_reps || seconds_since(start) < budget_s);
       ++i) {
    ++r.attempted;
    const auto t0 = Clock::now();
    try {
      rep();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rep %zu failed: %s\n", i, e.what());
      ++r.failed;
      continue;
    }
    t.push_back(seconds_since(t0));
  }
  return t;
}

/// Runs `setup` `times` times and reports the median as setup_s.
void timed_setups(Result& r, int times, const std::function<void()>& setup) {
  std::vector<double> s;
  for (int i = 0; i < times; ++i) {
    const auto t0 = Clock::now();
    setup();
    s.push_back(seconds_since(t0));
  }
  r.metric("setup_s", median(s), "s");
  r.series["setup_s"] = s;
}

/// The job metric of a batch workload: one job unit is one rep.
void rep_metrics(Result& r, const std::vector<double>& rep_s) {
  r.metric("job_s", median(rep_s), "s");
  r.series["rep_s"] = rep_s;
}

/// The production predictor: the weekly job's model half run on the
/// reference fleet.
Model train_reference(const Env& env, const std::string& reference, Tracing* tr) {
  const auto fleet = ingest(env, reference, ctx_of(tr));
  return select_and_train(env, fleet, kTrainEnd, tr);
}

/// Reads the layers of a traced batch pass (its "setup" and "rep" spans,
/// which ingest `setup_bytes` and `rep_bytes` of CSV) and gates that the
/// layer leaves account for at least 90% of each rep: the share of the
/// rep's wall time during which one of them runs. The rest is work in
/// the program's and the bench's enclosing spans outside every leaf.
void batch_trace_layers(Result& r, const e2e::SpanTree& tree, LayerSamples& ls,
                        double setup_bytes, double rep_bytes, double overhead) {
  std::vector<double> spans, coverage;
  for (std::size_t root : tree.find("setup")) ls.add_call(tree, root, setup_bytes);
  for (std::size_t root : tree.find("rep")) {
    ls.add_call(tree, root, rep_bytes);
    coverage.push_back(tree.covered_s(root, kLayerLeafSpans) / tree.dur_s(root));
    spans.push_back(static_cast<double>(tree.subtree_size(root)));
  }
  emit_layers(r, ls, overhead, median(spans));
  r.layer("obs.layer_coverage", median(coverage), "ratio");
  r.gate("layer_self_times_cover_90pct_of_rep", median(coverage) >= 0.9);
}

// ---------------------------------------------------------------- batch

Result run_batch_select(const Env& env) {
  // The weekly job's cost depends on what WEFR selects, so it runs on
  // the reference fleet and runs with different seeds time the same work.
  const std::string csv = reference_csv();
  const double csv_bytes = static_cast<double>(std::filesystem::file_size(csv));
  const auto cfg = experiment_config(env);
  const int t0 = kTrainEnd + 1, t1 = kDays - 1;
  Result r;
  r.shape = {{"drives", kReferenceDrives}, {"days", kDays}, {"train_end", kTrainEnd},
             {"csv_mb", csv_bytes / 1e6}};

  struct Outcome {
    std::string selection;
    std::uint64_t digest = 0;
    double auc = 0.0, f05 = 0.0;
  };
  std::vector<Outcome> outcomes;  // one per rep
  const auto rep = [&](Tracing* tr, LayerSamples* ls) {
    const obs::Context* ctx = ctx_of(tr);
    obs::Span rep_span(ctx, "rep");
    const auto fleet = ingest(env, csv, ctx);
    Model m = select_and_train(env, fleet, kTrainEnd, tr);
    std::vector<core::DriveDayScores> scores;
    {
      obs::Span span(ctx, "core.score");
      scores = core::score_fleet(fleet, m.predictor, t0, t1, cfg, nullptr, ctx);
    }
    Outcome out;
    obs::Span span(ctx, "core.eval");
    out.f05 = core::evaluate_fixed_recall(fleet, scores, t0, t1, kHorizon, kTargetRecall).f05;
    std::vector<double> flat;
    std::vector<int> labels;
    for (const auto& ds : scores) {
      const auto& d = fleet.drives[ds.drive_index];
      for (std::size_t i = 0; i < ds.scores.size(); ++i) {
        const int day = ds.first_day + static_cast<int>(i);
        flat.push_back(ds.scores[i]);
        labels.push_back(d.failed() && d.fail_day > day && d.fail_day <= day + kHorizon);
      }
    }
    out.auc = ml::auc(flat, labels);
    span.finish();
    rep_span.finish();
    out.selection = selection_signature(m.selection);
    out.digest = score_digest(scores);
    outcomes.push_back(std::move(out));
    if (ls != nullptr) {
      ls->add("ml.fit_rows", static_cast<double>(m.fit_rows));
      ls->add("ml.predict_rows", static_cast<double>(rows_of(scores)));
    }
  };

  // A rep builds all of its state itself, so the weekly job has no
  // set-up; setup_s times the warm-up ingest that brings the CSV into the
  // page cache before the first rep.
  timed_setups(r, kSetupRepeats, [&] { ingest(env, csv, nullptr); });

  const double budget = env.traced() ? env.seconds / 2 : env.seconds;
  const std::size_t min_reps = env.traced() ? 2 : kMinReps;
  const std::vector<double> times = run_reps(r, budget, min_reps, [&] { rep(nullptr, nullptr); });
  rep_metrics(r, times);
  r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  if (!outcomes.empty()) {
    r.metric("auc", outcomes[0].auc, "ratio");
    r.metric("f05", outcomes[0].f05, "ratio");
  }

  if (env.traced()) {
    Tracing tr;
    LayerSamples ls;
    const std::vector<double> traced = run_reps(r, budget, 2, [&] { rep(&tr, &ls); });
    batch_trace_layers(r, e2e::SpanTree(tr.tracer.snapshot()), ls, 0.0, csv_bytes,
                       median(traced) / median(times));
    write_trace(env, tr.tracer);
  }

  const auto all_equal = [&](auto field) {
    return !outcomes.empty() && std::all_of(outcomes.begin(), outcomes.end(), [&](const Outcome& o) {
      return field(o) == field(outcomes[0]);
    });
  };
  r.gate("selection_identical_across_reps", all_equal([](const Outcome& o) { return o.selection; }));
  r.gate("scores_bit_identical_across_reps", all_equal([](const Outcome& o) { return o.digest; }));
  r.gate("auc_f05_identical_across_reps",
         all_equal([](const Outcome& o) { return std::pair(o.auc, o.f05); }));
  r.failed_frac();
  return r;
}

Result run_batch_score(const Env& env) {
  constexpr std::size_t kDrives = 1500;
  const std::string reference = reference_csv();
  const std::string csv = workload_csvs(env, {{"0", [&env] {
                                                 return simulate(kDrives, fleet_seed(env.seed, 0));
                                               }}})[0];
  const double ref_bytes = static_cast<double>(std::filesystem::file_size(reference));
  const double csv_bytes = static_cast<double>(std::filesystem::file_size(csv));
  const auto cfg = experiment_config(env);
  Result r;
  r.shape = {{"drives", kDrives}, {"days", kDays}, {"reference_drives", kReferenceDrives},
             {"train_end", kTrainEnd}, {"csv_mb", csv_bytes / 1e6}};

  // Set-up: the weekly job's output, the predictor trained on the
  // reference fleet's days 0..150.
  Model model;
  const auto setup = [&](Tracing* tr) {
    obs::Span span(ctx_of(tr), "setup");
    model = train_reference(env, reference, tr);
  };
  timed_setups(r, env.traced() ? 1 : kSetupRepeats, [&] { setup(nullptr); });

  std::vector<std::uint64_t> digests;
  std::size_t rows = 0;
  const auto rep = [&](const obs::Context* ctx) {
    obs::Span rep_span(ctx, "rep");
    const auto fleet = ingest(env, csv, ctx);
    std::vector<core::DriveDayScores> scores;
    {
      obs::Span span(ctx, "core.score");
      scores = core::score_fleet(fleet, model.predictor, 0, kDays - 1, cfg, nullptr, ctx);
    }
    rep_span.finish();
    digests.push_back(score_digest(scores));
    rows = rows_of(scores);
  };

  const double budget = env.traced() ? env.seconds / 2 : env.seconds;
  const std::vector<double> times = run_reps(r, budget, env.traced() ? 2 : kMinReps, [&] { rep(nullptr); });
  rep_metrics(r, times);
  r.metric("peak_rss_mb", peak_rss_mib(), "MiB");

  if (env.traced()) {
    Tracing tr;
    LayerSamples ls;
    setup(&tr);
    ls.add("ml.fit_rows", static_cast<double>(model.fit_rows));
    const std::vector<double> traced = run_reps(r, budget, 2, [&] { rep(&tr.ctx); });
    ls.add("ml.predict_rows", static_cast<double>(rows));
    batch_trace_layers(r, e2e::SpanTree(tr.tracer.snapshot()), ls, ref_bytes, csv_bytes,
                       median(traced) / median(times));
    write_trace(env, tr.tracer);
  }

  r.gate("score_digest_identical_across_reps",
         !digests.empty() && std::all_of(digests.begin(), digests.end(),
                                          [&](std::uint64_t d) { return d == digests[0]; }));
  r.failed_frac();
  return r;
}

// ---------------------------------------------------------------- daemon

struct DaemonSpec {
  std::size_t drives = 0;
  int start_day = 0;  ///< first streamed day; earlier days are set-up history
  bool recheck = false;
};

daemon::EngineOptions engine_options(const Env& env, const DaemonSpec& spec) {
  daemon::EngineOptions e;
  e.experiment = experiment_config(env);
  e.wefr = wefr_options(env);
  e.auto_check = spec.recheck;
  if (spec.recheck) {  // wefrd's defaults: weekly check, drift watch on
    e.check_interval_days = 7;
    e.online_drift_check = true;
    e.warmup_days = spec.start_day;
  }
  return e;
}

/// Appends days [d0, d1] of `fleet` day-major, like a live feed. Every
/// 7th day closes with a rescore, as a daemon scoring weekly would have
/// done; the engine keeps each appended day's window-expanded row (all
/// 38 base columns x 13) until a rescore consumes it, so without these
/// the history's pending rows would dominate memory.
void append_days(daemon::Engine& engine, const data::FleetData& fleet, int d0, int d1) {
  for (int day = d0; day <= d1; ++day) {
    for (const auto& d : fleet.drives) {
      if (day < d.first_day || day > d.last_day()) continue;
      engine.append_day(d.drive_id, day,
                        d.values.row(static_cast<std::size_t>(day - d.first_day)), d.fail_day);
    }
    if ((day + 1) % 7 == 0) engine.rescore();
  }
}

struct Resident {
  std::unique_ptr<daemon::Engine> engine;
  core::WefrPredictor predictor;
  std::size_t fit_rows = 0;  ///< training rows, counted when traced
};

/// wefrd bootstrap: train the production predictor on the reference
/// fleet, ingest the served fleet's history CSV, load the history into a
/// fresh engine, and score it.
Resident daemon_setup(const Env& env, const DaemonSpec& spec, const std::string& reference,
                      const std::string& csv, Tracing* tr) {
  const obs::Context* ctx = ctx_of(tr);
  obs::Span span(ctx, "setup");
  Model m = train_reference(env, reference, tr);
  const auto history = ingest(env, csv, ctx);
  Resident res;
  res.predictor = m.predictor;
  res.fit_rows = m.fit_rows;
  res.engine = std::make_unique<daemon::Engine>(engine_options(env, spec),
                                                data::WindowFeatureConfig{}, ctx);
  res.engine->resident().set_schema(history.model_name, history.feature_names);
  res.engine->set_predictor(std::move(m.predictor));
  {
    obs::Span load(ctx, "daemon.resident_load");
    append_days(*res.engine, history, 0, spec.start_day - 1);
  }
  res.engine->rescore();
  return res;
}

/// Owns the thread running Server::run; stop() (or the destructor)
/// stops the loop and joins, so no path out of the caller leaks it.
class ServerThread {
 public:
  explicit ServerThread(daemon::Server& server)
      : server_(server), thread_([this] {
          try {
            server_.run();
          } catch (const std::exception& e) {
            error_ = e.what();
          }
        }) {}
  ~ServerThread() { stop(); }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  /// Stops and joins; returns what the loop threw, if anything.
  std::string stop() {
    server_.request_stop();
    if (thread_.joinable()) thread_.join();
    return error_;
  }

 private:
  daemon::Server& server_;
  std::string error_;
  std::thread thread_;
};

/// Latencies of one closed-loop pass over the socket.
struct LoopStats {
  std::vector<double> append_us;  ///< every append
  std::vector<double> read_us;    ///< every read but each day's first
  std::vector<double> close_ms;   ///< each day's first read (pays the rescore)
  std::vector<double> day_s;
  std::vector<double> check_stall_s;  ///< check-triggering append + that day's first read
  std::uint64_t frames_rejected = 0;
};

/// Serves days [d0, d1] of `fleet` to `engine` over a Unix socket in the
/// work directory: one blocking client, like fleet_monitor --daemon.
/// Each day every active drive appends, then every active drive reads
/// its score, both in a per-day order shuffled from `order_seed`. A
/// refusal, a transport failure, or a read that does not return the day
/// just appended counts as a failed operation.
LoopStats serve_days(Result& r, daemon::Engine& engine, const data::FleetData& fleet, int d0,
                     int d1, bool watch_checks, std::uint64_t order_seed,
                     const obs::Context* ctx) {
  daemon::ServerOptions sopt;
  sopt.socket_path = "e2e-" + std::to_string(::getpid()) + ".sock";  // relative: sun_path is short
  daemon::Server server(engine, sopt);
  std::string err;
  if (!server.listen_unix(&err)) throw std::runtime_error(err);
  ServerThread loop(server);

  daemon::Client::Options copt;
  copt.socket_path = sopt.socket_path;
  copt.client_name = "bench_e2e";
  copt.model_name = fleet.model_name;
  copt.feature_names = fleet.feature_names;
  daemon::Client client(copt);
  if (!client.connect(&err)) throw std::runtime_error("connect: " + err);

  const auto checks_so_far = [&]() -> long long {
    daemon::Msg rep;
    if (!client.report(rep) || rep.type != daemon::MsgType::kReportOk) return -1;
    const auto at = rep.text.find("\"checks\":");
    return at == std::string::npos ? -1 : std::atoll(rep.text.c_str() + at + 9);
  };
  long long checks = watch_checks ? checks_so_far() : 0;

  LoopStats st;
  util::Rng order_rng(order_seed);
  std::vector<const data::DriveSeries*> active;
  daemon::Msg reply;
  std::vector<double> values;
  for (int day = d0; day <= d1; ++day) {
    active.clear();
    for (const auto& d : fleet.drives)
      if (day >= d.first_day && day <= d.last_day()) active.push_back(&d);
    order_rng.shuffle(active);

    obs::Span day_span(ctx, "daemon.day");
    const auto day_t0 = Clock::now();
    double first_append_s = -1.0, close_s = -1.0;
    for (const auto* d : active) {
      const auto row = d->values.row(static_cast<std::size_t>(day - d->first_day));
      values.assign(row.begin(), row.end());
      ++r.attempted;
      const auto t = Clock::now();
      const bool ok = client.append_day(d->drive_id, day, values, d->fail_day, reply);
      const double s = seconds_since(t);
      if (!ok || reply.type != daemon::MsgType::kAppendOk) {
        ++r.failed;
        continue;
      }
      st.append_us.push_back(s * 1e6);
      if (first_append_s < 0) first_append_s = s;
    }
    for (const auto* d : active) {
      ++r.attempted;
      const auto t = Clock::now();
      const bool ok = client.score_drive(d->drive_id, reply);
      const double s = seconds_since(t);
      if (!ok || reply.type != daemon::MsgType::kScoreOk || !reply.found ||
          reply.score_day != day) {
        ++r.failed;
        continue;
      }
      if (close_s < 0) {
        close_s = s;
        st.close_ms.push_back(s * 1e3);
      } else {
        st.read_us.push_back(s * 1e6);
      }
    }
    day_span.finish();
    st.day_s.push_back(seconds_since(day_t0));
    if (watch_checks) {  // outside the day's timing
      const long long now = checks_so_far();
      if (now > checks && first_append_s >= 0 && close_s >= 0)
        st.check_stall_s.push_back(first_append_s + close_s);
      checks = now;
    }
  }
  client.shutdown_server(reply);
  client.close();
  err = loop.stop();
  if (!err.empty()) throw std::runtime_error("server loop: " + err);
  st.frames_rejected = server.frames_rejected();
  return st;
}

/// Sums of consecutive `n`-day groups (a partial tail group is dropped).
std::vector<double> group_sums(const std::vector<double>& v, std::size_t n) {
  std::vector<double> out;
  for (std::size_t i = 0; i + n <= v.size(); i += n) {
    double s = 0.0;
    for (std::size_t j = i; j < i + n; ++j) s += v[j];
    out.push_back(s);
  }
  return out;
}

/// Engine costs without the socket: replays the measured day stream into
/// a second engine (same predictor, no in-loop checks) and times each
/// append, each day-close rescore, and the clean reads after it.
void engine_replay_layers(Result& r, const Env& env, const DaemonSpec& spec,
                          const data::FleetData& fleet, const core::WefrPredictor& predictor,
                          double append_p50_us) {
  auto eopt = engine_options(env, spec);
  eopt.auto_check = false;
  daemon::Engine engine(eopt);
  engine.resident().set_schema(fleet.model_name, fleet.feature_names);
  engine.set_predictor(predictor);
  append_days(engine, fleet, 0, spec.start_day - 1);
  engine.rescore();

  std::vector<double> append_us, rescore_ms, clean_us, rows;
  double incremental = 0.0, rescored = 0.0;
  for (int day = spec.start_day; day < kDays; ++day) {
    std::size_t reads = 0;
    for (const auto& d : fleet.drives) {
      if (day < d.first_day || day > d.last_day()) continue;
      const auto t = Clock::now();
      engine.append_day(d.drive_id, day,
                        d.values.row(static_cast<std::size_t>(day - d.first_day)), d.fail_day);
      append_us.push_back(seconds_since(t) * 1e6);
    }
    auto t = Clock::now();
    const auto stats = engine.rescore();
    rescore_ms.push_back(seconds_since(t) * 1e3);
    rows.push_back(static_cast<double>(stats.rows_scored));
    incremental += static_cast<double>(stats.drives_incremental);
    rescored += static_cast<double>(stats.drives_rescored);
    for (const auto& d : fleet.drives) {
      if (day < d.first_day || day > d.last_day() || ++reads > 64) continue;
      int sday = 0;
      double score = 0.0;
      t = Clock::now();
      engine.rescore();  // what a non-first read pays: the dirty-set scan
      engine.latest_score(d.drive_id, sday, score);
      clean_us.push_back(seconds_since(t) * 1e6);
    }
  }
  r.layer("daemon.engine_append_p50_us", median(append_us), "us");
  r.layer("daemon.engine_rescore_p50_ms", median(rescore_ms), "ms");
  r.layer("daemon.engine_clean_read_us", median(clean_us), "us");
  r.layer("daemon.rescore_rows_per_day", median(rows), "count");
  r.layer("daemon.incremental_frac", rescored > 0 ? incremental / rescored : 0.0, "ratio");

  // Wire codec cost of one append request and its reply.
  const auto& d0 = fleet.drives[0];
  daemon::Msg req;
  req.type = daemon::MsgType::kAppendDay;
  req.drive_id = d0.drive_id;
  req.day = 0;
  req.fail_day = d0.fail_day;
  const auto row = d0.values.row(0);
  req.values.assign(row.begin(), row.end());
  daemon::Msg ok;
  ok.type = daemon::MsgType::kAppendOk;
  std::vector<double> codec_us;
  for (int batch = 0; batch < 9; ++batch) {
    constexpr int kIters = 2000;
    const auto t = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      std::uint32_t seq = 0;
      std::string payload;
      daemon::Msg back;
      const auto round_trip = [&](const daemon::Msg& m, data::DaemonFrameKind kind) {
        const auto frame = data::encode_daemon_frame(kind, 7, daemon::encode_message(m));
        if (!data::decode_daemon_frame(frame, kind, seq, payload) ||
            !daemon::decode_message(payload, back))
          throw std::runtime_error("codec round trip failed");
      };
      round_trip(req, data::DaemonFrameKind::kRequest);
      round_trip(ok, data::DaemonFrameKind::kResponse);
    }
    codec_us.push_back(seconds_since(t) * 1e6 / kIters);
  }
  const double codec = median(codec_us);
  r.layer("daemon.codec_us", codec, "us");
  r.layer("daemon.transport_us", append_p50_us - median(append_us) - codec, "us");
}

Result run_daemon(const Env& env, const DaemonSpec& spec) {
  const std::string reference = reference_csv();
  // Generated in-process as well: the fleet is also the client's stream.
  // daemon_recheck's time goes to its in-loop re-selections, so it serves
  // the reference fleet and the seed only orders each day's requests.
  const auto fleet =
      spec.recheck ? reference_fleet() : simulate(spec.drives, fleet_seed(env.seed, 0));
  const auto history = [&] { return history_before(fleet, spec.start_day); };
  std::string csv;
  if (spec.recheck) {
    csv = "reference-" + std::to_string(kReferenceSeed) + "-before-" +
          std::to_string(spec.start_day) + ".csv";
    generate_csvs({{csv, history}});
  } else {
    csv = workload_csvs(env, {{"history", history}})[0];
  }
  const double csv_bytes = static_cast<double>(std::filesystem::file_size(csv));
  const double setup_bytes =
      csv_bytes + static_cast<double>(std::filesystem::file_size(reference));
  const auto eopt = engine_options(env, spec);
  const int last_day = kDays - 1;
  Result r;
  r.shape = {{"drives", fleet.drives.size()},
             {"days", kDays},
             {"resident_days", spec.start_day},
             {"streamed_days", kDays - spec.start_day},
             {"reference_drives", kReferenceDrives},
             {"history_csv_mb", csv_bytes / 1e6}};

  // Oracle gate: the daemon's scores must be bit-identical to the batch
  // pipeline rerun in full on the same resident fleet.
  const auto oracle_gate = [&](const daemon::Engine& engine, const obs::Context* ctx) {
    std::vector<core::DriveDayScores> oracle;
    {
      obs::Span root(ctx, "oracle");
      obs::Span span(ctx, "core.score");
      oracle = core::score_fleet(engine.fleet(), *engine.predictor(), 0,
                                 engine.resident().max_day(), eopt.experiment, nullptr, ctx);
    }
    r.gate(ctx != nullptr ? "traced_scores_bit_identical_to_batch_oracle"
                          : "scores_bit_identical_to_batch_oracle",
           same_bits(engine.scores(), oracle));
    return rows_of(oracle);
  };
  const auto check_gates = [&](const daemon::Engine& engine, const LoopStats& st) {
    r.gate("frames_rejected_zero", st.frames_rejected == 0);
    if (!spec.recheck) return;
    const auto& checks = engine.checks();
    r.gate("at_least_4_checks", checks.size() >= 4);
    r.gate("every_check_trained", std::all_of(checks.begin(), checks.end(),
                                              [](const auto& c) { return c.trained; }));
  };

  Resident res;
  timed_setups(r, env.traced() ? 1 : kSetupRepeats, [&] {
    res = Resident{};  // free the previous set-up's engine first
    res = daemon_setup(env, spec, reference, csv, nullptr);
  });
  const LoopStats st =
      serve_days(r, *res.engine, fleet, spec.start_day, last_day, spec.recheck, env.seed,
                 nullptr);
  oracle_gate(*res.engine, nullptr);
  check_gates(*res.engine, st);
  res = Resident{};

  // The recheck job unit is a week, so each unit carries one check.
  const std::size_t unit = spec.recheck ? 7 : 1;
  const double job_s = median(group_sums(st.day_s, unit));
  r.metric("job_s", job_s, "s");
  r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  if (unit > 1) r.metric("fleet_day_s", median(st.day_s), "s");  // else it is job_s
  r.series["day_s"] = st.day_s;
  const double append_p50 = quantile(st.append_us, 0.5);
  r.metric("append_p50_us", append_p50, "us");
  r.metric("append_p99_us", quantile(st.append_us, 0.99), "us");
  r.metric("score_read_p50_us", quantile(st.read_us, 0.5), "us");
  if (st.read_us.size() >= 1000) r.metric("score_read_p99_us", quantile(st.read_us, 0.99), "us");
  r.metric("day_close_p50_ms", quantile(st.close_ms, 0.5), "ms");
  if (st.close_ms.size() >= 100) r.metric("day_close_p90_ms", quantile(st.close_ms, 0.9), "ms");
  if (spec.recheck) {
    r.metric("check_stall_s", median(st.check_stall_s), "s");
    r.series["check_stall_s"] = st.check_stall_s;
  }

  if (env.traced()) {
    Tracing tr;
    LayerSamples ls;
    res = daemon_setup(env, spec, reference, csv, &tr);
    const LoopStats tst =
        serve_days(r, *res.engine, fleet, spec.start_day, last_day, spec.recheck, env.seed,
                   &tr.ctx);
    ls.add("ml.fit_rows", static_cast<double>(res.fit_rows));
    ls.add("ml.predict_rows", static_cast<double>(oracle_gate(*res.engine, &tr.ctx)));
    check_gates(*res.engine, tst);

    // The engine's checks pass no obs into selection and training, so
    // each check's stages are re-run here on the same history.
    const auto cfg = experiment_config(env);
    for (const auto& c : res.engine->checks()) {
      obs::Span root(&tr.ctx, "daemon.check.replay");
      const auto& f = res.engine->fleet();
      data::Dataset samples;
      {
        obs::Span s(&tr.ctx, "daemon.check.samples");
        samples = core::build_selection_samples(f, 0, c.day - 1, cfg, &tr.ctx);
      }
      core::WefrResult sel;
      {
        obs::Span s(&tr.ctx, "daemon.check.select");
        sel = core::run_wefr(f, samples, c.day - 1, wefr_options(env), nullptr, &tr.ctx);
      }
      obs::Span s(&tr.ctx, "daemon.check.fit");
      core::train_predictor(f, sel, 0, c.day - 1, cfg, &tr.ctx);
    }
    const core::WefrPredictor predictor = res.predictor;
    res = Resident{};

    const e2e::SpanTree tree(tr.tracer.snapshot());
    for (std::size_t i : tree.find("setup")) ls.add_call(tree, i, setup_bytes);
    for (std::size_t i : tree.find("oracle")) ls.add_call(tree, i, 0.0);
    const auto days = tree.find("daemon.day");
    const double phase_lo = tree.spans()[days.front()].start_us;
    const double phase_hi = tree.spans()[days.back()].start_us + tree.spans()[days.back()].dur_us;
    const auto in_phase = std::count_if(tree.spans().begin(), tree.spans().end(), [&](auto& s) {
      return s.start_us >= phase_lo && s.start_us <= phase_hi;
    });
    const double traced_job_s = median(group_sums(tst.day_s, unit));
    emit_layers(r, ls, traced_job_s / job_s,
                static_cast<double>(in_phase) / static_cast<double>(days.size()));
    for (std::size_t i : tree.find("daemon.resident_load"))
      r.layer("daemon.resident_load_s", tree.dur_s(i), "s");
    r.layer("daemon.frames_rejected", static_cast<double>(tst.frames_rejected), "count");
    if (spec.recheck) {
      std::vector<double> check_s, full_s;
      const auto rescores = tree.find("daemon:rescore");
      for (std::size_t c : tree.find("daemon:check")) {
        check_s.push_back(tree.dur_s(c));
        const double end = tree.spans()[c].start_us + tree.spans()[c].dur_us;
        const auto next = std::find_if(rescores.begin(), rescores.end(), [&](std::size_t i) {
          return tree.spans()[i].start_us >= end;
        });
        if (next != rescores.end()) full_s.push_back(tree.dur_s(*next));
      }
      r.layer("daemon.check_s", median(check_s), "s");
      r.layer("daemon.full_rescore_s", median(full_s), "s");
      for (const char* stage : {"samples", "select", "fit"}) {
        std::vector<double> v;
        for (std::size_t i : tree.find(std::string("daemon.check.") + stage))
          v.push_back(tree.dur_s(i));
        r.layer(std::string("daemon.check.") + stage + "_s", median(v), "s");
      }
    }
    engine_replay_layers(r, env, spec, fleet, predictor, append_p50);
    write_trace(env, tr.tracer);
  }
  r.failed_frac();
  return r;
}

// ---------------------------------------------------------------- output

void write_result(const Env& env, const Result& r) {
  std::ofstream os(env.out);
  if (!os) throw std::runtime_error("cannot write " + env.out);
  obs::json::Writer w(os);
  w.begin_object();
  w.field("workload", env.workload);
  w.field("seed", env.seed);
  w.key("provenance").begin_object();
  w.field("git_rev", env.git_rev);
  w.field("build_type", WEFR_E2E_BUILD_TYPE);
  w.field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.field("threads", static_cast<std::uint64_t>(env.threads));
  w.field("cpu_model", cpu_model());
  w.field("seed", env.seed);
  w.field("traced", env.traced());
  w.end_object();
  w.key("shape").begin_object();
  for (const auto& [k, v] : r.shape) w.field(k, v);
  w.end_object();
  w.field("correct", r.correct());
  w.field("attempted", r.attempted);
  w.field("failed", r.failed);
  w.key("gates").begin_object();
  for (const auto& [k, ok] : r.gates) w.field(k, ok);
  w.end_object();
  w.key("series").begin_object();
  for (const auto& [k, v] : r.series) {
    w.key(k).begin_array();
    for (double x : v) w.value(x);
    w.end_array();
  }
  w.end_object();
  for (const auto* group : {&r.metrics, &r.layers}) {
    if (group == &r.layers && !env.traced()) continue;
    w.key(group == &r.metrics ? "metrics" : "layers").begin_object();
    for (const auto& m : *group) {
      w.key(m.name).begin_object();
      w.field("value", m.value).field("unit", m.unit);
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();
  os << '\n';
}

void print_result(const Env& env, const Result& r) {
  std::printf("bench_e2e %s seed %llu, %zu threads\n", env.workload.c_str(),
              static_cast<unsigned long long>(env.seed), env.threads);
  for (const auto* group : {&r.metrics, &r.layers}) {
    for (const auto& m : *group)
      std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, ok] : r.gates)
    std::printf("  gate %-40s %s\n", name.c_str(), ok ? "PASS" : "FAIL");
  std::printf("  %llu attempted, %llu failed -> %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.correct() ? "correct" : "INCORRECT");
}

void usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload batch_select|batch_score|daemon_daily|"
               "daemon_recheck\n"
               "                 --out FILE.json [--seed N] [--seconds S] [--trace DIR]\n"
               "                 [--git-rev REV]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Env env;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    bool ok = value != nullptr;
    if (arg == "--workload" && ok) {
      env.workload = value;
    } else if (arg == "--seed" && ok) {
      ok = util::parse_int_as(value, env.seed);
    } else if (arg == "--seconds" && ok) {
      ok = util::parse_double(value, env.seconds) && env.seconds > 0;
    } else if (arg == "--out" && ok) {
      env.out = value;
    } else if (arg == "--trace" && ok) {
      env.trace_dir = value;
    } else if (arg == "--git-rev" && ok) {
      env.git_rev = value;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad argument: %s\n", arg.c_str());
      usage();
      return 2;
    }
    ++i;
  }
  if (env.out.empty()) {
    usage();
    return 2;
  }
  if (kSanitizedBuild || !kOptimizedBuild) {
    std::fprintf(stderr, "bench_e2e: refusing to time a %s build\n",
                 kSanitizedBuild ? "sanitizer" : "unoptimised");
    return 2;
  }
  env.threads = std::max(1u, std::thread::hardware_concurrency());

  Result r;
  try {
    if (env.workload == "batch_select") {
      r = run_batch_select(env);
    } else if (env.workload == "batch_score") {
      r = run_batch_score(env);
    } else if (env.workload == "daemon_daily") {
      r = run_daemon(env, DaemonSpec{1500, 90, false});
    } else if (env.workload == "daemon_recheck") {
      r = run_daemon(env, DaemonSpec{kReferenceDrives, 192, true});
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", env.workload.c_str());
      usage();
      return 2;
    }
    write_result(env, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e %s: %s\n", env.workload.c_str(), e.what());
    return 1;
  }
  print_result(env, r);
  return r.correct() ? 0 : 1;
}
