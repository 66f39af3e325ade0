#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wefr::stats {

/// Kendall-tau rank distance between two rankings, as used by WEFR's
/// outlier pruning (Section IV-B): the number of discordant pairs, i.e.
/// pairs of distinct features (i, j) whose relative order differs
/// between ranking A and ranking B. Rankings are "rank position per
/// feature" vectors (smaller = more important); fractional tied ranks
/// are allowed, and a pair tied in either ranking counts as concordant
/// (theta = 0), matching the paper's definition of "same order". A pair
/// involving a NaN rank is never discordant (NaN comparisons are false),
/// matching the O(n^2) pair-scan oracle in tests/kendall_naive.h.
///
/// O(n log n): sort by (rank_a, rank_b), then count the strict
/// inversions of the rank_b sequence with a merge sort — rankings over
/// window-expanded feature sets reach thousands of entries, and the
/// ensemble computes one distance per ranker pair per wear group.
std::size_t kendall_tau_distance(std::span<const double> rank_a,
                                 std::span<const double> rank_b);

/// As `kendall_tau_distance`, but reusing a precomputed ascending
/// argsort of `rank_a` (ties in any relative order) — the sort cache the
/// ensemble shares across a ranker's pairwise distances, so each ranking
/// is argsorted exactly once. Both rankings must be NaN-free (ensemble
/// rankings are: they come from sanitized scores).
std::size_t kendall_tau_distance_presorted(std::span<const double> rank_a,
                                           std::span<const double> rank_b,
                                           std::span<const std::size_t> order_a);

/// Normalized distance in [0, 1]: distance / C(n, 2). Returns 0 for
/// rankings with fewer than two items.
double kendall_tau_distance_normalized(std::span<const double> rank_a,
                                       std::span<const double> rank_b);

}  // namespace wefr::stats
