#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace wefr::e2e {

/// A finished span list indexed as a tree, with each span's self time:
/// its duration minus the union of its children's intervals, clipped to
/// the span. Children opened on pool threads (explicit parent ids) count
/// like any other child, so a span whose work fans out over a pool has
/// self time only where none of its children was running, and children
/// running side by side are not double-subtracted.
class SpanTree {
 public:
  explicit SpanTree(std::vector<obs::SpanRecord> spans);

  const std::vector<obs::SpanRecord>& spans() const { return spans_; }

  /// Indices of the spans named `name`, in start order.
  std::vector<std::size_t> find(std::string_view name) const;

  /// Indices of the spans named `name` inside the subtree of `root`
  /// (root included), in start order.
  std::vector<std::size_t> find_under(std::size_t root, std::string_view name) const;

  double dur_s(std::size_t i) const { return spans_[i].dur_us * 1e-6; }

  /// Self seconds summed by span name over the subtree of `root` (root
  /// included).
  std::map<std::string, double> self_by_name(std::size_t root) const;

  /// Seconds of `root`'s duration during which at least one span of its
  /// subtree (root excluded) named in `names` is open.
  double covered_s(std::size_t root, const std::vector<std::string_view>& names) const;

  /// Number of spans in the subtree of `root` (root included).
  std::size_t subtree_size(std::size_t root) const;

 private:
  template <typename Fn>
  void walk(std::size_t root, Fn&& fn) const;

  std::vector<obs::SpanRecord> spans_;
  std::vector<std::vector<std::size_t>> children_;
  std::vector<double> self_us_;
};

}  // namespace wefr::e2e
