#include "obs/report.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wefr::obs {

namespace {

/// Emits the span forest as nested JSON objects. Children are attached
/// by parent id and ordered by start time; spans whose parent never
/// finished (still open at snapshot time) surface as roots.
void write_span_tree(json::Writer& w, const std::vector<SpanRecord>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].start_us < spans[b].start_us;
  });

  std::vector<std::vector<std::size_t>> children(spans.size());
  std::vector<std::size_t> roots;
  // id -> index lookup
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].id, i);
  for (const std::size_t i : order) {
    const auto it = spans[i].parent == 0 ? by_id.end() : by_id.find(spans[i].parent);
    if (it == by_id.end()) {
      roots.push_back(i);
    } else {
      children[it->second].push_back(i);
    }
  }

  const auto emit = [&](const auto& self, std::size_t i) -> void {
    const SpanRecord& s = spans[i];
    w.begin_object();
    w.field("name", std::string_view(s.name));
    w.field("start_us", s.start_us);
    w.field("dur_us", s.dur_us);
    w.field("tid", s.tid);
    if (!children[i].empty()) {
      w.key("children").begin_array();
      for (const std::size_t c : children[i]) self(self, c);
      w.end_array();
    }
    w.end_object();
  };

  w.begin_array();
  for (const std::size_t r : roots) emit(emit, r);
  w.end_array();
}

void write_string_map(json::Writer& w, const std::map<std::string, std::string>& m) {
  w.begin_object();
  for (const auto& [k, v] : m) w.field(k, std::string_view(v));
  w.end_object();
}

void write_double_map(json::Writer& w, const std::map<std::string, double>& m) {
  w.begin_object();
  for (const auto& [k, v] : m) w.field(k, v);
  w.end_object();
}

}  // namespace

void RunReport::write_json(std::ostream& os) const {
  json::Writer w(os);
  w.begin_object();
  w.field("schema_version", kSchemaVersion);
  w.field("tool", std::string_view(tool));
  w.field("model", std::string_view(model));
  w.key("run_info");
  write_double_map(w, run_info);
  w.key("params");
  write_string_map(w, params);

  w.key("ingest");
  write_double_map(w, ingest);

  w.key("diagnostics").begin_object();
  w.key("counters");
  write_double_map(w, diagnostic_counters);
  w.key("events").begin_array();
  for (const Event& e : diagnostics) {
    w.begin_object();
    w.field("stage", std::string_view(e.stage));
    w.field("code", std::string_view(e.code));
    w.field("detail", std::string_view(e.detail));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("selection").begin_object();
  w.key("groups").begin_array();
  for (const Group& g : selection) {
    w.begin_object();
    w.field("label", std::string_view(g.label));
    w.field("num_samples", g.num_samples);
    w.field("num_positives", g.num_positives);
    w.field("fallback", g.fallback);
    w.field("degraded", g.degraded);
    w.key("features").begin_array();
    for (const std::string& f : g.features) w.value(std::string_view(f));
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("change_point");
  if (change_point_mwi.has_value()) {
    w.begin_object();
    w.field("mwi_threshold", *change_point_mwi);
    if (change_point_z.has_value()) w.field("zscore", *change_point_z);
    w.end_object();
  } else {
    w.null();
  }
  w.end_object();

  w.key("scoring");
  if (scoring.has_value()) {
    w.begin_object();
    w.field("drives", scoring->drives);
    w.field("drive_days", scoring->drive_days);
    w.field("day_lo", scoring->day_lo);
    w.field("day_hi", scoring->day_hi);
    w.field("in_sample", scoring->in_sample);
    const auto opt_field = [&](const char* k, const std::optional<double>& v) {
      w.key(k);
      if (v.has_value()) {
        w.value(*v);
      } else {
        w.null();
      }
    };
    opt_field("auc", scoring->auc);
    opt_field("precision", scoring->precision);
    opt_field("recall", scoring->recall);
    opt_field("f05", scoring->f05);
    opt_field("threshold", scoring->threshold);
    w.end_object();
  } else {
    w.null();
  }

  w.key("metrics");
  if (metrics != nullptr) {
    metrics->write_json(w);
  } else {
    w.null();
  }

  w.key("spans");
  if (tracer != nullptr) {
    write_span_tree(w, tracer->snapshot());
  } else {
    w.null();
  }
  w.end_object();
}

void RunReport::write_json_file(const std::string& path) const {
  std::ofstream ofs(path);
  if (!ofs) throw std::runtime_error("RunReport: cannot open " + path);
  write_json(ofs);
  if (!ofs) throw std::runtime_error("RunReport: write failed for " + path);
}

}  // namespace wefr::obs
