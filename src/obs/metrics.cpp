#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <stdexcept>

#include "obs/json.h"

namespace wefr::obs {

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: no buckets");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end())
    throw std::invalid_argument("Histogram: bounds must be strictly increasing");
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.count = count_.load(std::memory_order_relaxed);
  return s;
}

std::string Registry::sanitize_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty()) out = "_";
  if (std::isdigit(static_cast<unsigned char>(out[0]))) out.insert(out.begin(), '_');
  return out;
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  const std::string key = sanitize_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
    if (!help.empty()) help_.emplace(key, help);
  }
  return *slot;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  const std::string key = sanitize_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
    if (!help.empty()) help_.emplace(key, help);
  }
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> upper_bounds,
                               const std::string& help) {
  const std::string key = sanitize_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
    if (!help.empty()) help_.emplace(key, help);
  }
  return *slot;
}

bool Registry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void Registry::write_json(json::Writer& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.field(name, g->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    w.key(name).begin_object();
    w.key("buckets").begin_array();
    for (std::size_t i = 0; i < s.counts.size(); ++i) {
      w.begin_object();
      if (i < s.bounds.size()) {
        w.field("le", s.bounds[i]);
      } else {
        w.field("le", "+Inf");
      }
      w.field("count", s.counts[i]);
      w.end_object();
    }
    w.end_array();
    w.field("sum", s.sum);
    w.field("count", s.count);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

void Registry::write_json(std::ostream& os) const {
  json::Writer w(os);
  write_json(w);
}

void Registry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto head = [&](const std::string& name, const char* type) {
    const auto it = help_.find(name);
    os << "# HELP " << name << ' '
       << (it != help_.end() ? it->second : "wefr metric (no help recorded)") << '\n'
       << "# TYPE " << name << ' ' << type << '\n';
  };
  for (const auto& [name, c] : counters_) {
    head(name, "counter");
    os << name << ' ' << c->value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    head(name, "gauge");
    os << name << ' ' << json::format_double(g->value()) << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    head(name, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < s.counts.size(); ++i) {
      cumulative += s.counts[i];
      os << name << "_bucket{le=\"";
      if (i < s.bounds.size()) {
        os << json::format_double(s.bounds[i]);
      } else {
        os << "+Inf";
      }
      os << "\"} " << cumulative << '\n';
    }
    os << name << "_sum " << json::format_double(s.sum) << '\n'
       << name << "_count " << s.count << '\n';
  }
}

}  // namespace wefr::obs
