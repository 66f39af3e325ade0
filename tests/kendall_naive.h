#pragma once

// The O(n^2) pair-scan Kendall-tau distance: the equivalence oracle for
// stats::kendall_tau_distance's merge-sort path. Only tests
// (test_perf_kernels) and bench_hotpath's ranking section call it, so it
// lives here rather than in src/.

#include <cstddef>
#include <span>
#include <stdexcept>

namespace wefr::stats {

/// Discordant pairs of two rankings by scanning every pair: a pair
/// counts when the rankings order it strictly oppositely, so ties and
/// NaN ranks are never discordant.
inline std::size_t kendall_tau_distance_naive(std::span<const double> rank_a,
                                              std::span<const double> rank_b) {
  if (rank_a.size() != rank_b.size())
    throw std::invalid_argument("kendall_tau_distance: length mismatch");
  const std::size_t n = rank_a.size();
  std::size_t discordant = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double da = rank_a[i] - rank_a[j];
      const double db = rank_b[i] - rank_b[j];
      // Strictly opposite orders only; ties are not discordant.
      if (da * db < 0.0) ++discordant;
    }
  }
  return discordant;
}

}  // namespace wefr::stats
