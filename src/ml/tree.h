#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "data/matrix.h"
#include "util/rng.h"

namespace wefr::ml {

class FlatForest;
class QuantizedDataset;

/// How a tree searches for split thresholds on coarsely coded features
/// (more distinct values than `max_bins`). A feature coded one bin per
/// distinct value gets the same split, bit for bit, from counting as
/// from sorting, so DecisionTree counts it under every method whenever
/// its bins are few next to the node's distinct rows, and sorts it
/// otherwise. (Gbdt applies the method to every feature: its exact
/// search adds gradients in value-then-row order, which per-bin sums
/// would round differently.)
enum class SplitMethod {
  /// Per fit, pick histogram when the sample count reaches
  /// `TreeOptions::histogram_cutoff`, exact below it.
  kAuto,
  /// Sort every candidate feature's node rank codes — O(F n log n) per
  /// node over 32-bit integers.
  kExact,
  /// Accumulate per-bin histograms over quantized codes — O(F (n + bins))
  /// per node, no per-node sorting.
  kHistogram,
};

/// Training controls for a single CART classification tree.
struct TreeOptions {
  int max_depth = 13;             ///< paper setting for the RF predictor
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Number of features examined per split; 0 means all, otherwise a
  /// random subset of this size is drawn per node (used by the forest).
  std::size_t max_features = 0;
  /// Split-search strategy; kAuto keeps small fits bit-identical to the
  /// historical exact behaviour while large fits get histogram speed.
  SplitMethod split_method = SplitMethod::kAuto;
  /// Histogram bin budget per feature (clamped to [2, 256]).
  std::size_t max_bins = 256;
  /// kAuto switches to histogram at this many fit samples.
  std::size_t histogram_cutoff = 2048;
  /// In histogram mode, nodes with fewer samples than this fall back to
  /// the exact sort-based search on coarsely coded features: sorting is
  /// cheap on small nodes and recovers the fine-grained thresholds global
  /// bins cannot offer deep in the tree. 0 disables the fallback. Features
  /// coded one bin per value ignore it (see SplitMethod).
  std::size_t exact_node_cutoff = 512;
};

/// Binary CART classification tree (Gini impurity, axis-aligned splits,
/// exact greedy or histogram split search, both over the column-major
/// codes of ml::QuantizedDataset). Produces calibrated leaf
/// probabilities (positive-class fraction) and accumulates
/// impurity-decrease feature importance during training.
class DecisionTree {
 public:
  /// Fits the tree on rows `sample_idx` of `x` (indices may repeat — the
  /// forest passes bootstrap samples). `rng` is consumed only when
  /// `opt.max_features > 0`. Split search runs on the rank/bin codes of
  /// `x`: a caller that already coded `x` (the forest codes once and
  /// shares across trees) passes them as `quantized`; otherwise the tree
  /// codes `x` locally. Under kAuto the histogram search engages when
  /// `sample_idx` holds at least `opt.histogram_cutoff` rows.
  void fit(const data::Matrix& x, std::span<const int> y,
           std::span<const std::size_t> sample_idx, const TreeOptions& opt, util::Rng& rng,
           const QuantizedDataset* quantized = nullptr);

  /// Convenience fit over all rows.
  void fit(const data::Matrix& x, std::span<const int> y, const TreeOptions& opt,
           util::Rng& rng);

  /// Probability that `row` belongs to the positive class.
  double predict_proba(std::span<const double> row) const;

  /// Per-feature total weighted Gini decrease accumulated over the
  /// tree's splits; length = number of training features. Unnormalized.
  const std::vector<double>& impurity_importance() const { return importance_; }

  /// Number of nodes (0 before fit).
  std::size_t node_count() const { return nodes_.size(); }
  /// Depth of the deepest leaf (0 for a single-leaf tree).
  int depth() const;
  bool trained() const { return !nodes_.empty(); }

  /// Writes the tree as one line per node (see RandomForest::save).
  void save(std::ostream& os) const;
  /// Restores a tree written by save(); throws std::runtime_error on
  /// malformed input, including nodes that do not form one tree rooted
  /// at node 0, leaving this tree unchanged.
  void load(std::istream& is);

  /// Buffers reused across every node of one fit (defined in tree.cpp;
  /// public so the file-local split helpers can name it).
  struct BuildContext;

  /// One distinct training row and how often the sample holds it.
  /// Bootstrap samples repeat rows, and split search only ever counts
  /// rows, so each distinct row is visited once with its multiplicity.
  struct WeightedRow {
    std::uint32_t row;
    std::uint32_t weight;
  };

 private:
  /// The flattening pass (ml::FlatForest) recompiles nodes_ into SoA
  /// form; the recursive walk above stays the equivalence oracle.
  friend class FlatForest;

  struct Node {
    // Leaf when feature < 0.
    std::int32_t feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double prob = 0.0;
    std::int32_t depth = 0;
  };

  std::int32_t build(BuildContext& ctx, std::vector<WeightedRow>& rows, std::size_t begin,
                     std::size_t end, int depth);

  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

}  // namespace wefr::ml
