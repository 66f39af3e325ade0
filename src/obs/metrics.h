#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wefr::obs {

namespace json {
class Writer;
}

/// Monotonically increasing event count. All mutators are lock-free
/// relaxed atomics — safe to hammer from ThreadPool workers.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written instantaneous value (thread-safe set/add).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]
/// (Prometheus "le" semantics), plus an implicit +Inf overflow bucket.
/// observe() is an atomic increment on the bucket plus a CAS-add on the
/// running sum — no locks on the fast path.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  struct Snapshot {
    std::vector<double> bounds;          ///< finite upper bounds
    std::vector<std::uint64_t> counts;   ///< per bucket, bounds.size()+1 (+Inf last)
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  Snapshot snapshot() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  ///< bounds_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Named-metric registry: counters, gauges, and histograms registered
/// by name, exported as JSON or Prometheus text. Registration takes a
/// mutex once and hands back a stable reference; every subsequent
/// update through that reference is lock-free. Names are sanitized to
/// the Prometheus charset ([a-zA-Z0-9_:], leading digit prefixed).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates; re-registering an existing name returns the same
  /// object (a help string is kept from the first registration).
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds,
                       const std::string& help = "");

  bool empty() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} value
  /// emitted into an in-flight writer (for embedding in a RunReport).
  void write_json(json::Writer& w) const;
  /// Standalone JSON document of the same shape.
  void write_json(std::ostream& os) const;
  /// Prometheus text exposition format. Every metric gets exactly one
  /// `# HELP` and one `# TYPE` line (a default help is synthesized when
  /// none was registered); histograms expand to `_bucket{le}`/`_sum`/
  /// `_count`.
  void write_prometheus(std::ostream& os) const;

  static std::string sanitize_name(const std::string& name);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> help_;
};

}  // namespace wefr::obs
