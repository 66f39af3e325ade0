#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/stopwatch.h"

namespace wefr::obs {

struct Context;  // obs/context.h

/// One finished trace span. Times are microseconds on the tracer's
/// monotonic clock (util::Stopwatch), relative to tracer construction.
struct SpanRecord {
  std::uint64_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint64_t parent = 0;  ///< id of the enclosing span, 0 = root
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t tid = 0;  ///< dense per-tracer thread number (0 = first seen)
};

/// Collects trace spans for one pipeline run. Thread-safe: spans may
/// begin and end on any thread (ThreadPool workers included); the only
/// shared state is touched once per span end, under a mutex, so the
/// traced code's hot loops never contend on the tracer.
///
/// Span nesting is tracked per thread (a thread-local stack), so
/// `run_wefr -> ensemble -> ranker:<name>` forms a tree when the calls
/// nest on one thread. Work fanned out across a pool does not inherit
/// the submitting thread's stack — fan-out sites pass the parent span
/// id explicitly (see Span's three-argument constructor).
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Microseconds since tracer construction (monotonic).
  double now_us() const { return epoch_.micros(); }

  /// Innermost span currently open on the calling thread (0 when none).
  std::uint64_t current_span() const;

  /// Number of spans finished so far.
  std::size_t size() const;

  /// Copy of every finished span, in completion order.
  std::vector<SpanRecord> snapshot() const;

  /// Chrome trace-event JSON ("complete" X events), loadable in
  /// chrome://tracing or https://ui.perfetto.dev.
  void write_chrome_trace(std::ostream& os) const;

 private:
  friend class Span;

  std::uint64_t next_id() { return next_.fetch_add(1, std::memory_order_relaxed); }
  void record(SpanRecord&& rec, std::thread::id tid);

  util::Stopwatch epoch_;
  std::atomic<std::uint64_t> next_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<std::thread::id> threads_;  ///< index = dense tid
};

/// RAII span: starts timing on construction, records itself into the
/// tracer on destruction (or finish()). Inert when the tracer is null —
/// no clock read, no allocation — which is the zero-overhead-when-
/// disabled contract the bench gate verifies.
class Span {
 public:
  Span() = default;
  /// Parent = innermost open span on this thread (if any).
  Span(Tracer* tracer, std::string name);
  /// Explicit parent, for spans opened on pool worker threads.
  Span(Tracer* tracer, std::string name, std::uint64_t parent);
  /// Convenience over a nullable Context (null context = inert span).
  Span(const Context* ctx, const char* name);
  Span(const Context* ctx, const char* name, std::uint64_t parent);

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;

  ~Span() { finish(); }

  /// Ends the span now (idempotent; the destructor calls it too).
  void finish();

  /// Span id to hand to children created on other threads (0 if inert).
  std::uint64_t id() const { return rec_.id; }

 private:
  void start(Tracer* tracer, std::string&& name, std::uint64_t parent, bool implicit_parent);

  Tracer* tracer_ = nullptr;
  SpanRecord rec_;
};

}  // namespace wefr::obs
