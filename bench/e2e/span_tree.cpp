#include "span_tree.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace wefr::e2e {

namespace {

/// Length of the union of intervals [a, b) sorted by start.
double union_length(const std::vector<std::pair<double, double>>& iv) {
  double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > cur_b) {
      if (cur_b > cur_a) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) covered += cur_b - cur_a;
  return covered;
}

}  // namespace

SpanTree::SpanTree(std::vector<obs::SpanRecord> spans) : spans_(std::move(spans)) {
  std::sort(spans_.begin(), spans_.end(), [](const auto& a, const auto& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us : a.id < b.id;
  });
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans_.size(); ++i) by_id.emplace(spans_[i].id, i);

  children_.resize(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto it = by_id.find(spans_[i].parent);
    if (spans_[i].parent != 0 && it != by_id.end()) children_[it->second].push_back(i);
  }

  self_us_.resize(spans_.size());
  std::vector<std::pair<double, double>> iv;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double lo = spans_[i].start_us;
    const double hi = lo + spans_[i].dur_us;
    iv.clear();
    for (std::size_t c : children_[i]) {
      const double a = std::max(lo, spans_[c].start_us);
      const double b = std::min(hi, spans_[c].start_us + spans_[c].dur_us);
      if (b > a) iv.emplace_back(a, b);
    }
    // Children are already in start order.
    self_us_[i] = std::max(0.0, spans_[i].dur_us - union_length(iv));
  }
}

template <typename Fn>
void SpanTree::walk(std::size_t root, Fn&& fn) const {
  std::vector<std::size_t> stack{root};
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    fn(i);
    for (std::size_t c : children_[i]) stack.push_back(c);
  }
}

std::vector<std::size_t> SpanTree::find(std::string_view name) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) out.push_back(i);
  return out;
}

std::vector<std::size_t> SpanTree::find_under(std::size_t root, std::string_view name) const {
  std::vector<std::size_t> out;
  walk(root, [&](std::size_t i) {
    if (spans_[i].name == name) out.push_back(i);
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::map<std::string, double> SpanTree::self_by_name(std::size_t root) const {
  std::map<std::string, double> out;
  walk(root, [&](std::size_t i) { out[spans_[i].name] += self_us_[i] * 1e-6; });
  return out;
}

double SpanTree::covered_s(std::size_t root,
                           const std::vector<std::string_view>& names) const {
  const double lo = spans_[root].start_us;
  const double hi = lo + spans_[root].dur_us;
  std::vector<std::pair<double, double>> iv;
  walk(root, [&](std::size_t i) {
    if (i == root || std::find(names.begin(), names.end(), spans_[i].name) == names.end())
      return;
    const double a = std::max(lo, spans_[i].start_us);
    const double b = std::min(hi, spans_[i].start_us + spans_[i].dur_us);
    if (b > a) iv.emplace_back(a, b);
  });
  std::sort(iv.begin(), iv.end());
  return union_length(iv) * 1e-6;
}

std::size_t SpanTree::subtree_size(std::size_t root) const {
  std::size_t n = 0;
  walk(root, [&](std::size_t) { ++n; });
  return n;
}

}  // namespace wefr::e2e
