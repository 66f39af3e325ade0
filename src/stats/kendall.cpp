#include "stats/kendall.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/ranking.h"

namespace wefr::stats {

namespace {

/// Counts strict inversions (i < j with seq[i] > seq[j]) by merge sort.
/// `seq` is sorted ascending in place; `tmp` is scratch of equal size.
std::size_t count_inversions(std::vector<double>& seq, std::vector<double>& tmp) {
  const std::size_t n = seq.size();
  std::size_t inversions = 0;
  // Bottom-up merge sort: no recursion, one scratch buffer.
  for (std::size_t width = 1; width < n; width *= 2) {
    for (std::size_t lo = 0; lo + width < n; lo += 2 * width) {
      const std::size_t mid = lo + width;
      const std::size_t hi = std::min(lo + 2 * width, n);
      std::size_t i = lo, j = mid, k = lo;
      while (i < mid && j < hi) {
        if (seq[j] < seq[i]) {
          // seq[j] jumps ahead of every remaining left element: each of
          // those pairs is a strict inversion. Equal values take the
          // left element first and count nothing.
          inversions += mid - i;
          tmp[k++] = seq[j++];
        } else {
          tmp[k++] = seq[i++];
        }
      }
      while (i < mid) tmp[k++] = seq[i++];
      while (j < hi) tmp[k++] = seq[j++];
      std::copy(tmp.begin() + static_cast<std::ptrdiff_t>(lo),
                tmp.begin() + static_cast<std::ptrdiff_t>(hi),
                seq.begin() + static_cast<std::ptrdiff_t>(lo));
    }
  }
  return inversions;
}

/// Builds the rank_b sequence ordered by (rank_a asc, rank_b asc) and
/// counts its strict inversions: exactly the pairs ordered strictly one
/// way by A and strictly the opposite way by B. Pairs tied in A land in
/// a run sorted by B (no inversion among them); pairs tied in B never
/// produce a strict inversion.
std::size_t discordant_from_order(std::span<const double> rank_a,
                                  std::span<const double> rank_b,
                                  std::span<const std::size_t> order_a) {
  std::vector<double> seq(order_a.size());
  for (std::size_t i = 0; i < order_a.size(); ++i) seq[i] = rank_b[order_a[i]];
  // Re-sort each equal-rank_a run by rank_b. Runs are tie groups of the
  // cached argsort, typically short; the cached sort itself is shared
  // across every pairing of rank_a.
  std::size_t i = 0;
  while (i < seq.size()) {
    std::size_t j = i + 1;
    while (j < seq.size() && rank_a[order_a[j]] == rank_a[order_a[i]]) ++j;
    if (j - i > 1) std::sort(seq.begin() + static_cast<std::ptrdiff_t>(i),
                             seq.begin() + static_cast<std::ptrdiff_t>(j));
    i = j;
  }
  std::vector<double> tmp(seq.size());
  return count_inversions(seq, tmp);
}

}  // namespace

std::size_t kendall_tau_distance(std::span<const double> rank_a,
                                 std::span<const double> rank_b) {
  if (rank_a.size() != rank_b.size())
    throw std::invalid_argument("kendall_tau_distance: length mismatch");
  // A NaN rank compares false with everything, so the pair scan never
  // counts such pairs: drop them up front (also keeps the sort's
  // comparator a strict weak ordering).
  std::vector<double> a, b;
  bool has_nan = false;
  for (std::size_t i = 0; i < rank_a.size(); ++i) {
    has_nan = has_nan || std::isnan(rank_a[i]) || std::isnan(rank_b[i]);
  }
  std::span<const double> sa = rank_a, sb = rank_b;
  if (has_nan) {
    a.reserve(rank_a.size());
    b.reserve(rank_b.size());
    for (std::size_t i = 0; i < rank_a.size(); ++i) {
      if (std::isnan(rank_a[i]) || std::isnan(rank_b[i])) continue;
      a.push_back(rank_a[i]);
      b.push_back(rank_b[i]);
    }
    sa = a;
    sb = b;
  }
  return discordant_from_order(sa, sb, argsort_ascending(sa));
}

std::size_t kendall_tau_distance_presorted(std::span<const double> rank_a,
                                           std::span<const double> rank_b,
                                           std::span<const std::size_t> order_a) {
  if (rank_a.size() != rank_b.size() || rank_a.size() != order_a.size())
    throw std::invalid_argument("kendall_tau_distance_presorted: length mismatch");
  return discordant_from_order(rank_a, rank_b, order_a);
}

double kendall_tau_distance_normalized(std::span<const double> rank_a,
                                       std::span<const double> rank_b) {
  const std::size_t n = rank_a.size();
  if (n < 2) return 0.0;
  const double pairs = static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  return static_cast<double>(kendall_tau_distance(rank_a, rank_b)) / pairs;
}

}  // namespace wefr::stats
