#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/diagnostics.h"
#include "core/pipeline.h"
#include "core/wefr.h"
#include "obs/context.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "smartsim/generator.h"
#include "util/thread_pool.h"

namespace wefr {
namespace {

// Minimal JSON syntax validator: consumes one value, returns the index
// one past it, throws on malformed input. Enough to prove every emitter
// produces well-formed JSON without pulling in a parser dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  void check() {
    std::size_t i = value(skip(0));
    i = skip(i);
    if (i != s_.size()) throw std::runtime_error("trailing garbage at " + std::to_string(i));
  }

 private:
  std::size_t skip(std::size_t i) const {
    while (i < s_.size() && std::isspace(static_cast<unsigned char>(s_[i]))) ++i;
    return i;
  }
  char at(std::size_t i) const {
    if (i >= s_.size()) throw std::runtime_error("unexpected end of input");
    return s_[i];
  }
  std::size_t literal(std::size_t i, const char* word) const {
    for (const char* p = word; *p != '\0'; ++p, ++i) {
      if (at(i) != *p) throw std::runtime_error("bad literal at " + std::to_string(i));
    }
    return i;
  }
  std::size_t string(std::size_t i) const {
    if (at(i) != '"') throw std::runtime_error("expected string at " + std::to_string(i));
    for (++i;; ++i) {
      const char c = at(i);
      if (c == '\\') {
        ++i;
        at(i);
      } else if (c == '"') {
        return i + 1;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        throw std::runtime_error("raw control char at " + std::to_string(i));
      }
    }
  }
  std::size_t number(std::size_t i) const {
    const std::size_t start = i;
    if (at(i) == '-') ++i;
    while (i < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i])) ||
                             s_[i] == '.' || s_[i] == 'e' || s_[i] == 'E' ||
                             s_[i] == '+' || s_[i] == '-')) {
      ++i;
    }
    if (i == start) throw std::runtime_error("expected number at " + std::to_string(i));
    return i;
  }
  std::size_t value(std::size_t i) const {
    switch (at(i)) {
      case '{': {
        i = skip(i + 1);
        if (at(i) == '}') return i + 1;
        for (;;) {
          i = string(skip(i));
          i = skip(i);
          if (at(i) != ':') throw std::runtime_error("expected ':' at " + std::to_string(i));
          i = value(skip(i + 1));
          i = skip(i);
          if (at(i) == ',') {
            ++i;
          } else if (at(i) == '}') {
            return i + 1;
          } else {
            throw std::runtime_error("expected ',' or '}' at " + std::to_string(i));
          }
        }
      }
      case '[': {
        i = skip(i + 1);
        if (at(i) == ']') return i + 1;
        for (;;) {
          i = value(skip(i));
          i = skip(i);
          if (at(i) == ',') {
            ++i;
          } else if (at(i) == ']') {
            return i + 1;
          } else {
            throw std::runtime_error("expected ',' or ']' at " + std::to_string(i));
          }
        }
      }
      case '"':
        return string(i);
      case 't':
        return literal(i, "true");
      case 'f':
        return literal(i, "false");
      case 'n':
        return literal(i, "null");
      default:
        return number(i);
    }
  }

  const std::string& s_;
};

void expect_valid_json(const std::string& s) {
  try {
    JsonChecker(s).check();
  } catch (const std::exception& e) {
    FAIL() << "invalid JSON: " << e.what() << "\n" << s;
  }
}

// ---------- json::Writer ----------

TEST(JsonWriter, EmitsExpectedDocument) {
  std::ostringstream os;
  obs::json::Writer w(os, 0);
  w.begin_object();
  w.field("name", "a\"b\\c\n");
  w.field("count", 3);
  w.field("ratio", 0.5);
  w.field("ok", true);
  w.key("items").begin_array().value(1).value(2).end_array();
  w.key("none").null();
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(),
            "{\"name\":\"a\\\"b\\\\c\\n\",\"count\":3,\"ratio\":0.5,"
            "\"ok\":true,\"items\":[1,2],\"none\":null}");
  expect_valid_json(os.str());
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  obs::json::Writer w(os, 0);
  w.begin_array();
  w.value(std::nan(""));
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonWriter, DoubleFormattingRoundTrips) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 12345.6789, -0.0, 2e20}) {
    const std::string s = obs::json::format_double(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
}

TEST(JsonWriter, StructuralMisuseThrows) {
  std::ostringstream os;
  obs::json::Writer w(os, 0);
  w.begin_object();
  EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  EXPECT_THROW(w.end_array(), std::logic_error);
}

TEST(JsonWriter, EscapeCoversControlChars) {
  EXPECT_EQ(obs::json::escape("tab\there"), "tab\\there");
  EXPECT_EQ(obs::json::escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(obs::json::escape("plain"), "plain");
}

// ---------- Tracer / Span ----------

TEST(Trace, NestedSpansFormTree) {
  obs::Tracer tracer;
  std::uint64_t outer_id = 0, inner_id = 0;
  {
    obs::Span outer(&tracer, "outer");
    outer_id = outer.id();
    EXPECT_EQ(tracer.current_span(), outer_id);
    {
      obs::Span inner(&tracer, "inner");
      inner_id = inner.id();
      EXPECT_EQ(tracer.current_span(), inner_id);
    }
    EXPECT_EQ(tracer.current_span(), outer_id);
  }
  EXPECT_EQ(tracer.current_span(), 0u);

  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Completion order: inner finishes first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, outer_id);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_GE(spans[1].dur_us, spans[0].dur_us);
  EXPECT_LE(spans[1].start_us, spans[0].start_us);
}

TEST(Trace, FinishIsIdempotent) {
  obs::Tracer tracer;
  obs::Span span(&tracer, "once");
  span.finish();
  span.finish();
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Trace, ExplicitParentAcrossThreadPool) {
  obs::Tracer tracer;
  obs::Span root(&tracer, "root");
  const std::uint64_t root_id = root.id();

  util::ThreadPool pool(4);
  pool.parallel_for(16, [&](std::size_t i) {
    obs::Span worker(&tracer, "task:" + std::to_string(i), root_id);
    // Nested spans on the worker thread chain off the explicit parent.
    obs::Span nested(&tracer, "nested:" + std::to_string(i));
    EXPECT_EQ(tracer.current_span(), nested.id());
  });
  root.finish();

  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 33u);  // root + 16 * (task + nested)
  std::size_t tasks = 0, nested = 0;
  for (const auto& s : spans) {
    if (s.name.rfind("task:", 0) == 0) {
      ++tasks;
      EXPECT_EQ(s.parent, root_id);
    } else if (s.name.rfind("nested:", 0) == 0) {
      ++nested;
      EXPECT_NE(s.parent, root_id);
      EXPECT_NE(s.parent, 0u);
    }
  }
  EXPECT_EQ(tasks, 16u);
  EXPECT_EQ(nested, 16u);

  // Every span id is unique even under concurrency.
  std::vector<std::uint64_t> ids;
  for (const auto& s : spans) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(Trace, ChromeTraceIsValidJson) {
  obs::Tracer tracer;
  {
    obs::Span a(&tracer, "load \"csv\"");
    obs::Span b(&tracer, "rank");
  }
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string doc = os.str();
  expect_valid_json(doc);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\""), std::string::npos);
  EXPECT_NE(doc.find("load \\\"csv\\\""), std::string::npos);
}

TEST(Trace, DisabledSpanIsInert) {
  obs::Span null_tracer(static_cast<obs::Tracer*>(nullptr), "x");
  EXPECT_EQ(null_tracer.id(), 0u);

  obs::Span null_ctx(static_cast<const obs::Context*>(nullptr), "y");
  EXPECT_EQ(null_ctx.id(), 0u);

  obs::Context metrics_only;  // tracer == nullptr
  obs::Registry registry;
  metrics_only.metrics = &registry;
  obs::Span no_tracer(&metrics_only, "z");
  EXPECT_EQ(no_tracer.id(), 0u);
}

// ---------- Context helpers ----------

TEST(Context, HelpersNoOpWhenDisabled) {
  obs::add_counter(nullptr, "wefr_x_total", 3);  // must not crash
  EXPECT_EQ(obs::counter_or_null(nullptr, "wefr_x_total"), nullptr);
  EXPECT_EQ(obs::histogram_or_null(nullptr, "wefr_h", {1.0, 2.0}), nullptr);

  obs::Context tracer_only;  // metrics == nullptr
  obs::Tracer tracer;
  tracer_only.tracer = &tracer;
  obs::add_counter(&tracer_only, "wefr_x_total", 3);
  EXPECT_EQ(obs::counter_or_null(&tracer_only, "wefr_x_total"), nullptr);
}

TEST(Context, HelpersHitRegistryWhenEnabled) {
  obs::Registry registry;
  obs::Context ctx;
  ctx.metrics = &registry;
  obs::add_counter(&ctx, "wefr_x_total", 2);
  obs::add_counter(&ctx, "wefr_x_total");
  EXPECT_EQ(registry.counter("wefr_x_total").value(), 3u);
  auto* h = obs::histogram_or_null(&ctx, "wefr_h", {1.0, 2.0});
  ASSERT_NE(h, nullptr);
  h->observe(1.5);
  EXPECT_EQ(h->snapshot().count, 1u);
}

// ---------- Metrics ----------

TEST(Metrics, HistogramBucketBoundaries) {
  obs::Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);   // <= 1.0
  h.observe(1.0);   // <= 1.0 (le semantics: boundary lands in its bucket)
  h.observe(1.01);  // <= 2.0
  h.observe(5.0);   // <= 5.0
  h.observe(99.0);  // +Inf overflow
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.01 + 5.0 + 99.0);
}

TEST(Metrics, CountersConcurrentlyExact) {
  obs::Registry registry;
  obs::Counter& c = registry.counter("wefr_hits_total");
  util::ThreadPool pool(4);
  pool.parallel_for(1000, [&](std::size_t) { c.add(1); });
  EXPECT_EQ(c.value(), 1000u);
}

TEST(Metrics, RegistryFindOrCreateReturnsSameObject) {
  obs::Registry registry;
  EXPECT_TRUE(registry.empty());
  obs::Counter& a = registry.counter("wefr_a_total", "first help");
  obs::Counter& b = registry.counter("wefr_a_total", "ignored help");
  EXPECT_EQ(&a, &b);
  EXPECT_FALSE(registry.empty());
}

TEST(Metrics, SanitizeNameToPrometheusCharset) {
  EXPECT_EQ(obs::Registry::sanitize_name("wefr_ok_total"), "wefr_ok_total");
  EXPECT_EQ(obs::Registry::sanitize_name("bad-name.with space"), "bad_name_with_space");
  EXPECT_EQ(obs::Registry::sanitize_name("7leading"), "_7leading");
}

TEST(Metrics, JsonExportIsValid) {
  obs::Registry registry;
  registry.counter("wefr_rows_total", "rows seen").add(7);
  registry.gauge("wefr_temp").set(36.5);
  registry.histogram("wefr_lat_seconds", {0.1, 1.0}).observe(0.05);
  std::ostringstream os;
  registry.write_json(os);
  const std::string doc = os.str();
  expect_valid_json(doc);
  EXPECT_NE(doc.find("\"wefr_rows_total\""), std::string::npos);
  EXPECT_NE(doc.find("\"wefr_temp\""), std::string::npos);
  EXPECT_NE(doc.find("\"wefr_lat_seconds\""), std::string::npos);
}

TEST(Metrics, PrometheusExportShape) {
  obs::Registry registry;
  registry.counter("wefr_rows_total").add(7);
  registry.histogram("wefr_lat_seconds", {0.1, 1.0}).observe(0.05);
  std::ostringstream os;
  registry.write_prometheus(os);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("# TYPE wefr_rows_total counter"), std::string::npos);
  EXPECT_NE(doc.find("wefr_rows_total 7"), std::string::npos);
  EXPECT_NE(doc.find("# TYPE wefr_lat_seconds histogram"), std::string::npos);
  EXPECT_NE(doc.find("wefr_lat_seconds_bucket{le=\"0.1\"} 1"), std::string::npos);
  EXPECT_NE(doc.find("wefr_lat_seconds_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(doc.find("wefr_lat_seconds_count 1"), std::string::npos);
}

TEST(Metrics, PrometheusHelpAndTypeForEveryFamily) {
  obs::Registry registry;
  registry.counter("wefr_with_help_total", "documented counter").add(1);
  registry.counter("wefr_no_help_total").add(2);
  registry.gauge("wefr_some_gauge").set(1.5);
  registry.histogram("wefr_lat_seconds", {0.1, 1.0}).observe(0.2);

  std::ostringstream os;
  registry.write_prometheus(os);
  const std::string doc = os.str();

  // Every sample line's metric has exactly one HELP and one TYPE line,
  // emitted before its samples.
  std::set<std::string> helped, typed;
  std::istringstream is(doc);
  std::string line;
  const auto strip_suffix = [](std::string base) {
    for (const char* suf : {"_bucket", "_sum", "_count"}) {
      const std::string s(suf);
      if (base.size() > s.size() && base.compare(base.size() - s.size(), s.size(), s) == 0)
        return base.substr(0, base.size() - s.size());
    }
    return base;
  };
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::string name = rest.substr(0, rest.find(' '));
      EXPECT_TRUE(helped.insert(name).second) << "duplicate HELP for " << name;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::string name = rest.substr(0, rest.find(' '));
      EXPECT_TRUE(typed.insert(name).second) << "duplicate TYPE for " << name;
      continue;
    }
    const std::string base = line.substr(0, line.find_first_of("{ "));
    const bool ok = helped.count(base) + helped.count(strip_suffix(base)) > 0 &&
                    typed.count(base) + typed.count(strip_suffix(base)) > 0;
    EXPECT_TRUE(ok) << "sample line before/without HELP+TYPE: " << line;
  }
  EXPECT_NE(doc.find("# HELP wefr_with_help_total documented counter"),
            std::string::npos);
  // A metric registered without help still gets a synthesized one.
  EXPECT_NE(doc.find("# HELP wefr_no_help_total "), std::string::npos);
  EXPECT_NE(doc.find("# TYPE wefr_some_gauge gauge"), std::string::npos);
  EXPECT_NE(doc.find("wefr_lat_seconds_bucket{le=\"1\"} 1"), std::string::npos);
}

// ---------- Structured logging ----------

TEST(Log, ParseLogLevel) {
  obs::LogLevel lvl = obs::LogLevel::kInfo;
  EXPECT_TRUE(obs::parse_log_level("quiet", lvl));
  EXPECT_EQ(lvl, obs::LogLevel::kQuiet);
  EXPECT_TRUE(obs::parse_log_level("info", lvl));
  EXPECT_EQ(lvl, obs::LogLevel::kInfo);
  EXPECT_TRUE(obs::parse_log_level("debug", lvl));
  EXPECT_EQ(lvl, obs::LogLevel::kDebug);
  EXPECT_FALSE(obs::parse_log_level("verbose", lvl));
  EXPECT_FALSE(obs::parse_log_level("", lvl));
}

TEST(Log, LevelGatingAndLineFormat) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  {
    obs::Logger log(obs::LogLevel::kInfo, sink);
    EXPECT_TRUE(log.enabled(obs::LogLevel::kInfo));
    EXPECT_FALSE(log.enabled(obs::LogLevel::kDebug));
    log.infof("ingest", "%d drives", 412);
    log.debugf("select", "hidden at info level");
  }
  std::fflush(sink);
  std::rewind(sink);
  std::string text;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), sink) != nullptr) text += buf;
  std::fclose(sink);
  // One timestamped, stage-tagged line; the debug line is gated out.
  EXPECT_EQ(text.rfind("[+", 0), 0u) << text;
  EXPECT_NE(text.find("s] [ingest] 412 drives"), std::string::npos) << text;
  EXPECT_EQ(text.find("hidden"), std::string::npos) << text;
}

TEST(Log, QuietSuppressesEverything) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  {
    obs::Logger log(obs::LogLevel::kQuiet, sink);
    log.info("ingest", "nope");
    log.infof("fleet", "also nope");
  }
  std::fflush(sink);
  std::rewind(sink);
  char buf[8];
  EXPECT_EQ(std::fgets(buf, sizeof(buf), sink), nullptr);
  std::fclose(sink);
}

// ---------- RunReport ----------

TEST(RunReport, SchemaVersionAndSectionsPresent) {
  obs::Tracer tracer;
  obs::Registry registry;
  { obs::Span s(&tracer, "stage"); }
  registry.counter("wefr_rows_total").add(3);

  obs::RunReport report;
  report.tool = "test_tool";
  report.model = "MC1";
  report.run_info["drives"] = 10.0;
  report.params["policy"] = "strict";
  report.diagnostics.push_back({"ensemble", "ranker_failed", "Pearson threw"});
  report.diagnostic_counters["rankers_failed"] = 1.0;
  report.ingest["rows_ok"] = 100.0;
  obs::RunReport::Group g;
  g.label = "all";
  g.features = {"pe_cycles", "read_err"};
  g.num_samples = 42;
  g.num_positives = 7;
  report.selection.push_back(g);
  report.change_point_mwi = 120.0;
  obs::RunReport::Scoring sc;
  sc.drives = 10;
  sc.auc = 0.9;
  report.scoring = sc;
  report.tracer = &tracer;
  report.metrics = &registry;

  std::ostringstream os;
  report.write_json(os);
  const std::string doc = os.str();
  expect_valid_json(doc);
  EXPECT_NE(doc.find("\"schema_version\": 4"), std::string::npos);
  for (const char* key : {"\"tool\"", "\"model\"", "\"run_info\"", "\"params\"",
                          "\"diagnostics\"", "\"ingest\"", "\"selection\"",
                          "\"scoring\"", "\"spans\"", "\"metrics\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(doc.find("\"pe_cycles\""), std::string::npos);
  EXPECT_EQ(doc.find("\"sharding\""), std::string::npos);
}

TEST(RunReport, MinimalReportStillValid) {
  obs::RunReport report;
  report.tool = "t";
  std::ostringstream os;
  report.write_json(os);
  expect_valid_json(os.str());
  EXPECT_NE(os.str().find("\"schema_version\""), std::string::npos);
}

// ---------- Diagnostics bridge ----------

TEST(DiagnosticsBridge, NotesBecomeRegistryCounters) {
  obs::Registry registry;
  core::PipelineDiagnostics diag;
  diag.note("ensemble", "before_attach");  // not replayed
  diag.attach(&registry);
  diag.note("ensemble", "ranker_failed", "Pearson threw");
  diag.note("scoring", "ranker_failed");
  diag.note("cpd", "no_change_point");
  EXPECT_EQ(registry.counter("wefr_diag_events_total").value(), 3u);
  EXPECT_EQ(registry.counter("wefr_diag_ranker_failed_total").value(), 2u);
  EXPECT_EQ(registry.counter("wefr_diag_no_change_point_total").value(), 1u);

  obs::RunReport report;
  diag.fill_run_report(report);
  EXPECT_EQ(report.diagnostics.size(), 4u);
  EXPECT_EQ(report.diagnostics[1].stage, "ensemble");
  EXPECT_EQ(report.diagnostics[1].code, "ranker_failed");
  EXPECT_FALSE(report.diagnostic_counters.empty());
}

// ---------- Pipeline integration ----------

TEST(PipelineObs, RunEmitsSpanTreeAndCounters) {
  // A fleet with a wear-out change point, so Lines 9-15 rank both wear
  // groups on the same job list as the whole model.
  smartsim::SimOptions sim;
  sim.num_drives = 200;
  sim.num_days = 120;
  sim.seed = 31;
  sim.afr_scale = 30.0;
  const auto fleet = generate_fleet(smartsim::profile_by_name("MC1"), sim);

  core::ExperimentConfig cfg;
  cfg.forest.num_trees = 5;
  cfg.negative_keep_prob = 0.2;
  core::WefrOptions wopt;
  wopt.num_threads = 4;

  obs::Tracer tracer;
  obs::Registry registry;
  obs::Context ctx{&tracer, &registry};

  const int train_end = 109;
  const auto samples = core::build_selection_samples(fleet, 0, train_end, cfg, &ctx);
  const auto sel = core::run_wefr(fleet, samples, train_end, wopt, nullptr, &ctx);
  ASSERT_TRUE(sel.change_point.has_value()) << "fixture must exercise Lines 9-15";
  ASSERT_TRUE(sel.low.has_value() && !sel.low->fallback);
  ASSERT_TRUE(sel.high.has_value() && !sel.high->fallback);
  const auto pred = core::train_predictor(fleet, sel, 0, train_end, cfg, &ctx);
  const auto scores =
      core::score_fleet(fleet, pred, train_end + 1, fleet.num_days - 1, cfg, nullptr, &ctx);
  ASSERT_FALSE(scores.empty());

  // The span tree covers selection -> training -> scoring. Every
  // population's select span hangs off run_wefr and holds one ensemble
  // span (with exactly the five ranker spans, even though they ran on
  // pool threads) and one auto_select span.
  const auto spans = tracer.snapshot();
  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  std::uint64_t run_wefr_id = 0;
  for (const auto& s : spans) {
    by_id[s.id] = &s;
    if (s.name == "run_wefr") run_wefr_id = s.id;
  }
  ASSERT_NE(run_wefr_id, 0u);
  std::map<std::uint64_t, std::multiset<std::string>> children;
  for (const auto& s : spans) children[s.parent].insert(s.name);
  const std::multiset<std::string> five_rankers = {"ranker:Pearson", "ranker:Spearman",
                                                   "ranker:J-index", "ranker:RandomForest",
                                                   "ranker:XGBoost"};
  std::set<std::string> selects;
  std::size_t ensembles = 0;
  bool saw_fit = false, saw_score = false, saw_build = false;
  for (const auto& s : spans) {
    if (s.name == "survival" || s.name == "cpd") EXPECT_EQ(s.parent, run_wefr_id) << s.name;
    if (s.name.rfind("select:", 0) == 0) {
      selects.insert(s.name);
      EXPECT_EQ(s.parent, run_wefr_id) << s.name;
      EXPECT_EQ(children[s.id], (std::multiset<std::string>{"auto_select", "ensemble"}))
          << s.name;
    }
    if (s.name == "ensemble") {
      ++ensembles;
      ASSERT_TRUE(by_id.count(s.parent));
      EXPECT_EQ(by_id[s.parent]->name.rfind("select:", 0), 0u);
      EXPECT_EQ(children[s.id], five_rankers) << "under " << by_id[s.parent]->name;
    }
    if (s.name.rfind("ranker:", 0) == 0) {
      ASSERT_TRUE(by_id.count(s.parent));
      EXPECT_EQ(by_id[s.parent]->name, "ensemble");
    }
    saw_fit = saw_fit || s.name == "forest:fit";
    saw_score = saw_score || s.name == "score_fleet";
    saw_build = saw_build || s.name == "build_samples";
  }
  EXPECT_EQ(selects, (std::set<std::string>{"select:all", "select:low", "select:high"}));
  EXPECT_EQ(ensembles, 3u);
  EXPECT_TRUE(saw_fit);
  EXPECT_TRUE(saw_score);
  EXPECT_TRUE(saw_build);

  // Stage counters flowed into the registry.
  EXPECT_GT(registry.counter("wefr_samples_total").value(), 0u);
  EXPECT_EQ(registry.counter("wefr_rankers_run_total").value(), 15u);
  EXPECT_GT(registry.counter("wefr_score_drives_total").value(), 0u);
  EXPECT_EQ(registry.counter("wefr_score_drives_total").value(), scores.size());

  // And the null-context run is unaffected (API-level no-op check).
  const auto samples_off = core::build_selection_samples(fleet, 0, train_end, cfg);
  EXPECT_EQ(samples_off.size(), samples.size());
}

}  // namespace
}  // namespace wefr
