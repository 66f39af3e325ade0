#include "stats/complexity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/thread_pool.h"

namespace wefr::stats {

ComplexityMeasures feature_complexity(std::span<const double> x, std::span<const int> y) {
  if (x.size() != y.size()) throw std::invalid_argument("feature_complexity: length mismatch");

  // Per-class running stats.
  double sum[2] = {0, 0}, sum2[2] = {0, 0};
  double mn[2] = {std::numeric_limits<double>::infinity(),
                  std::numeric_limits<double>::infinity()};
  double mx[2] = {-std::numeric_limits<double>::infinity(),
                  -std::numeric_limits<double>::infinity()};
  std::size_t cnt[2] = {0, 0};
  for (std::size_t i = 0; i < x.size(); ++i) {
    const int c = y[i] != 0 ? 1 : 0;
    sum[c] += x[i];
    sum2[c] += x[i] * x[i];
    mn[c] = std::min(mn[c], x[i]);
    mx[c] = std::max(mx[c], x[i]);
    ++cnt[c];
  }
  ComplexityMeasures out;
  if (cnt[0] == 0 || cnt[1] == 0) {
    out.fisher_ratio = 0.0;
    out.overlap_volume = 1.0;
    out.feature_efficiency = 0.0;
    return out;
  }

  const double mean0 = sum[0] / static_cast<double>(cnt[0]);
  const double mean1 = sum[1] / static_cast<double>(cnt[1]);
  const double var0 = std::max(0.0, sum2[0] / static_cast<double>(cnt[0]) - mean0 * mean0);
  const double var1 = std::max(0.0, sum2[1] / static_cast<double>(cnt[1]) - mean1 * mean1);
  const double diff = mean0 - mean1;
  const double denom = var0 + var1;
  if (denom <= 0.0) {
    // Both classes constant: infinitely easy when the constants differ,
    // impossible when equal. Represent "infinitely easy" with a huge
    // finite ratio so downstream reciprocals stay finite.
    out.fisher_ratio = diff != 0.0 ? 1e12 : 0.0;
  } else {
    out.fisher_ratio = diff * diff / denom;
  }

  // Overlap region across the two class ranges.
  const double lo = std::max(mn[0], mn[1]);
  const double hi = std::min(mx[0], mx[1]);
  const double total_lo = std::min(mn[0], mn[1]);
  const double total_hi = std::max(mx[0], mx[1]);
  const double total_range = total_hi - total_lo;
  if (total_range <= 0.0) {
    // All values identical: complete overlap, nothing separable.
    out.overlap_volume = 1.0;
    out.feature_efficiency = 0.0;
    return out;
  }
  const double overlap = std::max(0.0, hi - lo);
  out.overlap_volume = overlap / total_range;

  // F3: fraction of points outside [lo, hi] (strictly outside when the
  // overlap is non-degenerate; a degenerate single-point overlap still
  // excludes points not equal to it).
  std::size_t outside = 0;
  if (hi < lo) {
    outside = x.size();  // disjoint class ranges: everything separable
  } else {
    for (double v : x) outside += (v < lo || v > hi) ? 1 : 0;
  }
  out.feature_efficiency = static_cast<double>(outside) / static_cast<double>(x.size());
  return out;
}

std::vector<double> ensemble_complexity(std::span<const std::vector<double>> columns,
                                        std::span<const int> y,
                                        std::size_t num_threads) {
  const std::size_t nf = columns.size();
  std::vector<ComplexityMeasures> measures(nf);
  auto scan_one = [&](std::size_t i) { measures[i] = feature_complexity(columns[i], y); };
  if (num_threads > 1 && nf > 1) {
    util::ThreadPool pool(std::min(num_threads, nf));
    pool.parallel_for(nf, scan_one);
  } else {
    for (std::size_t i = 0; i < nf; ++i) scan_one(i);
  }

  std::vector<double> inv_f1(nf), f2(nf), inv_f3(nf);
  constexpr double kEps = 1e-12;
  for (std::size_t i = 0; i < nf; ++i) {
    inv_f1[i] = 1.0 / (measures[i].fisher_ratio + kEps);
    f2[i] = measures[i].overlap_volume;
    inv_f3[i] = 1.0 / (measures[i].feature_efficiency + kEps);
  }
  auto minmax_normalize = [](std::vector<double>& v) {
    if (v.empty()) return;
    const auto [mn_it, mx_it] = std::minmax_element(v.begin(), v.end());
    const double mn = *mn_it, mx = *mx_it;
    if (mx - mn <= 0.0) {
      std::fill(v.begin(), v.end(), 0.0);
      return;
    }
    for (double& x : v) x = (x - mn) / (mx - mn);
  };
  minmax_normalize(inv_f1);
  minmax_normalize(f2);
  minmax_normalize(inv_f3);

  std::vector<double> out(nf);
  for (std::size_t i = 0; i < nf; ++i) out[i] = (inv_f1[i] + f2[i] + inv_f3[i]) / 3.0;
  return out;
}

}  // namespace wefr::stats
