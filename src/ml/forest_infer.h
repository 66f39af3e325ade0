#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/matrix.h"

namespace wefr::obs {
struct Context;
}

namespace wefr::ml {

class Gbdt;
class RandomForest;

/// One column substitution applied during batch inference: the value of
/// feature `feature` for the i-th scored row is read from `values[i]`
/// instead of the matrix. Permutation importance shuffles one column
/// this way without ever copying the matrix or the rows.
struct ColumnOverride {
  std::size_t feature = 0;
  std::span<const double> values;
};

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

/// A fitted tree ensemble compiled into flat packed-node form for the
/// scoring hot path.
///
/// The recursive per-row walk (`DecisionTree::predict_proba`,
/// `Gbdt::Tree::predict`) chases 40-byte nodes through per-tree
/// vectors and takes an unpredictable branch at every level. The
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
/// bench_hotpath inference gate: both kernel clones (AVX2 / default)
/// land on exactly the leaf the recursive walk lands on, and leaf
/// values are accumulated in tree order — so batch scores
/// are bit-identical to the per-row walk at any batch size, batch
/// composition, and thread count. NaN feature values route right at
/// every split, exactly like the recursive `v <= thr ? left : right`.
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
  /// Flattens a fitted GBDT; leaf payloads are shrunk leaf weights
  /// (callers add the base score and apply the link function).
  static FlatForest from(const Gbdt& model, const obs::Context* obs = nullptr);

  bool empty() const { return root_packed_.empty(); }
  std::size_t num_trees() const { return root_packed_.size(); }
  std::size_t num_features() const { return num_features_; }
  /// Depth of the deepest tree (0 = all single-leaf trees).
  int max_depth() const { return max_depth_; }

  /// Adds each tree's leaf value (in tree order) for row `rows[i]` of
  /// `x` into `out[i]`. `out.size()` must equal `rows.size()`; callers
  /// pre-fill `out` with the ensemble's additive base (0 for a forest,
  /// the log-odds prior for a GBDT).
  void accumulate(const data::Matrix& x, std::span<const std::size_t> rows,
                  std::span<double> out, const ColumnOverride* override_col = nullptr) const;

  /// Contiguous-range convenience: rows [row_begin, row_end) of `x`,
  /// out[i] accumulates row `row_begin + i`.
  void accumulate(const data::Matrix& x, std::size_t row_begin, std::size_t row_end,
                  std::span<double> out) const;

  /// Single-tree accumulate (OOB importance scores each tree on its own
  /// out-of-bag rows): adds tree `tree`'s leaf value per row into `out`.
  void accumulate_tree(std::size_t tree, const data::Matrix& x,
                       std::span<const std::size_t> rows, std::span<double> out,
                       const ColumnOverride* override_col = nullptr) const;

  /// Process-wide kernel pin for benches/tests: when `on` is false the
  /// traversal always uses the baseline clone even on AVX2 hardware.
  /// Never affects results — the clones are IEEE-exact twins.
  static void set_avx2_enabled(bool on);
  /// True when the next traversal will dispatch to the AVX2 clone.
  static bool avx2_enabled();
  /// True when this build/CPU has an AVX2 clone at all.
  static bool avx2_available();

 private:
  /// Implementation detail of the two from() overloads (defined in
  /// forest_infer.cpp): builds the node arrays from a neutral node form.
  friend struct FlatBuilder;

  void accumulate_range(const data::Matrix& x, const std::size_t* rows,
                        std::size_t row_begin, std::size_t n, std::span<double> out,
                        std::size_t tree_begin, std::size_t tree_end,
                        const ColumnOverride* override_col) const;

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
  std::vector<std::int32_t> active_;        ///< s -> original column
  std::vector<std::int32_t> feature_slot_;  ///< column -> s, -1 if unused
};

}  // namespace wefr::ml
