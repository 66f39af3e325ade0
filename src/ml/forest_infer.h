#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/matrix.h"

namespace wefr::obs {
struct Context;
}

namespace wefr::ml {

class RandomForest;

/// One flattened tree node: a 32-byte aligned record, so a node visit
/// touches one cache line. Trees are emitted in BFS order, which keeps
/// each level's nodes on neighbouring lines, so the top of a tree —
/// which every row visits — packs into a handful of them.
///
/// Each child reference packs the child's *node byte offset* (low 32)
/// with the byte offset of the child's own staged split column (high
/// 32). Carrying the destination's stage offset inside the pointer is
/// what makes the batch walk fast: the step's stage load needs only the
/// packed word from the previous step — it issues in parallel with the
/// node-record load instead of serially after it, cutting the per-level
/// dependency chain from node-load -> stage-load -> compare to
/// max(node-load, stage-load) -> compare.
///
/// Leaves pack both children as themselves with stage offset 0, a
/// reserved stage column holding -inf, and overlay the payload on the
/// threshold. Since `-inf <= v` holds for every finite payload, a
/// parked row keeps re-selecting its leaf with no termination test, and
/// the end-of-tree accumulate reads the payload from the very line the
/// last level visit just touched instead of missing into a separate
/// value array.
struct alignas(32) WideNode {
  double thr;           ///< split threshold; the leaf payload on leaves
  std::uint64_t left;   ///< left child: node byte off | stage byte off << 32
  std::uint64_t right;  ///< right child, same packing
  std::uint64_t pad_ = 0;
};

/// A fitted random forest compiled into flat packed-node form for the
/// scoring hot path.
///
/// The recursive per-row walk (`DecisionTree::predict_proba`) chases
/// 40-byte nodes through per-tree vectors and takes an unpredictable
/// branch at every level. The
/// flattening pass rewrites every tree into one contiguous node run
/// (BFS order, leaves parked as self-loops), so a batched traversal
/// can advance a whole block of rows through a tree level-by-level
/// with a branchless cmov select and no termination test. Feature
/// columns for the block are staged into a small column-major scratch
/// that stays cache-resident across all trees, and rows walk in
/// register-resident groups of sixteen independent chains so the
/// per-step load dependencies overlap; each WideNode child reference
/// carries the destination's staged-column byte offset, letting every
/// step's value load issue in parallel with its node-record load.
///
/// Equivalence contract, pinned by tests/test_forest_infer.cpp and the
/// bench_hotpath inference gate: the kernel lands on exactly the leaf
/// the recursive walk lands on, and leaf values are accumulated in tree
/// order — so batch scores are bit-identical to the per-row walk at any
/// row range and thread count. NaN feature values route right at every
/// split, exactly like the recursive `v <= thr ? left : right`.
class FlatForest {
 public:
  FlatForest() = default;

  /// Flattens a fitted forest; leaf payloads are leaf probabilities
  /// (callers average over trees). Wraps itself in a "forest:flatten"
  /// span when `obs` is live, parented on `parent_span` when it is not 0
  /// (a pool thread has no open span to inherit), else on the calling
  /// thread's innermost open span.
  static FlatForest from(const RandomForest& forest, const obs::Context* obs = nullptr,
                         std::uint64_t parent_span = 0);

  bool empty() const { return root_packed_.empty(); }
  std::size_t num_trees() const { return root_packed_.size(); }
  std::size_t num_features() const { return num_features_; }
  /// Depth of the deepest tree (0 = all single-leaf trees).
  int max_depth() const { return max_depth_; }

  /// Adds each tree's leaf value (in tree order) for rows
  /// [row_begin, row_end) of `x`: out[i] accumulates row
  /// `row_begin + i`. Callers pre-fill `out` (0 for a forest's sum).
  void accumulate(const data::Matrix& x, std::size_t row_begin, std::size_t row_end,
                  std::span<double> out) const;

 private:
  std::size_t num_features_ = 0;
  int max_depth_ = 0;

  // Nodes, all trees concatenated in BFS order (see WideNode);
  // `root_packed_` holds each tree's root in the same packed-ref
  // encoding so the walk starts without a lookup.
  std::vector<WideNode> wide_;
  std::vector<std::uint64_t> root_packed_;  ///< per-tree packed root ref
  std::vector<std::int32_t> tree_depth_;    ///< deepest leaf per tree

  // Active features (split on at least once), indexed by active
  // position `s`; the staged column for `s` is `s + 1` (column 0 is the
  // reserved -inf column leaves park on).
  std::vector<std::int32_t> active_;  ///< s -> original column
};

}  // namespace wefr::ml
