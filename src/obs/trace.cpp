#include "obs/trace.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "obs/context.h"
#include "obs/json.h"

namespace wefr::obs {

namespace {

/// Per-thread stack of open spans, tagged by tracer so two live tracers
/// cannot see each other's nesting.
struct OpenSpan {
  const Tracer* tracer;
  std::uint64_t id;
};
thread_local std::vector<OpenSpan> t_open_spans;

}  // namespace

std::uint64_t Tracer::current_span() const {
  for (auto it = t_open_spans.rbegin(); it != t_open_spans.rend(); ++it) {
    if (it->tracer == this) return it->id;
  }
  return 0;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::record(SpanRecord&& rec, std::thread::id tid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(threads_.begin(), threads_.end(), tid);
  if (it == threads_.end()) {
    threads_.push_back(tid);
    it = threads_.end() - 1;
  }
  rec.tid = static_cast<std::uint32_t>(it - threads_.begin());
  spans_.push_back(std::move(rec));
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const std::vector<SpanRecord> spans = snapshot();
  json::Writer w(os);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (const SpanRecord& s : spans) {
    w.begin_object();
    w.field("name", std::string_view(s.name));
    w.field("cat", "wefr");
    w.field("ph", "X");
    w.field("ts", s.start_us);
    w.field("dur", s.dur_us);
    w.field("pid", 1);
    w.field("tid", s.tid);
    w.key("args").begin_object();
    w.field("id", s.id);
    w.field("parent", s.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void Span::start(Tracer* tracer, std::string&& name, std::uint64_t parent,
                 bool implicit_parent) {
  if (tracer == nullptr) return;
  tracer_ = tracer;
  rec_.id = tracer->next_id();
  rec_.parent = implicit_parent ? tracer->current_span() : parent;
  rec_.name = std::move(name);
  rec_.start_us = tracer->now_us();
  t_open_spans.push_back({tracer, rec_.id});
}

Span::Span(Tracer* tracer, std::string name) {
  start(tracer, std::move(name), 0, /*implicit_parent=*/true);
}

Span::Span(Tracer* tracer, std::string name, std::uint64_t parent) {
  start(tracer, std::move(name), parent, /*implicit_parent=*/false);
}

Span::Span(const Context* ctx, const char* name) {
  if (ctx != nullptr && ctx->tracer != nullptr)
    start(ctx->tracer, std::string(name), 0, /*implicit_parent=*/true);
}

Span::Span(const Context* ctx, const char* name, std::uint64_t parent) {
  if (ctx != nullptr && ctx->tracer != nullptr)
    start(ctx->tracer, std::string(name), parent, /*implicit_parent=*/false);
}

Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_), rec_(std::move(other.rec_)) {
  other.tracer_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    finish();
    tracer_ = other.tracer_;
    rec_ = std::move(other.rec_);
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::finish() {
  if (tracer_ == nullptr) return;
  rec_.dur_us = tracer_->now_us() - rec_.start_us;
  // Pop this span's open-stack entry. Spans normally finish LIFO per
  // thread, but a moved-from guard finishing late must still remove its
  // own entry, not whatever sits on top.
  for (auto it = t_open_spans.rbegin(); it != t_open_spans.rend(); ++it) {
    if (it->tracer == tracer_ && it->id == rec_.id) {
      t_open_spans.erase(std::next(it).base());
      break;
    }
  }
  tracer_->record(std::move(rec_), std::this_thread::get_id());
  tracer_ = nullptr;
}

}  // namespace wefr::obs
