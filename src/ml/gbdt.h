#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/matrix.h"
#include "ml/tree.h"
#include "util/rng.h"

namespace wefr::ml {

class QuantizedDataset;

/// Gradient-boosted-tree training controls (XGBoost-style second-order
/// boosting with logistic loss).
struct GbdtOptions {
  std::size_t num_rounds = 50;
  int max_depth = 4;
  double learning_rate = 0.1;
  double reg_lambda = 1.0;        ///< L2 on leaf weights
  double gamma = 0.0;             ///< min gain to split
  double min_child_weight = 1.0;  ///< min sum of hessians per child
  /// Row subsample per round in (0, 1]; 1 disables subsampling.
  double subsample = 1.0;
  /// Feature subsample per tree in (0, 1]; 1 disables subsampling.
  double colsample = 1.0;
  /// Split-search strategy, shared with the CART tree (ml::SplitMethod):
  /// histogram accumulates per-bin gradient/hessian sums over codes
  /// quantized once per fit instead of sorting each node.
  SplitMethod split_method = SplitMethod::kAuto;
  /// Histogram bin budget per feature (clamped to [2, 256]).
  std::size_t max_bins = 256;
  /// kAuto switches to histogram at this many training rows.
  std::size_t histogram_cutoff = 2048;
  /// In histogram mode, nodes with fewer rows than this fall back to the
  /// exact sort-based search on every feature, however it is coded (see
  /// TreeOptions::exact_node_cutoff and SplitMethod).
  std::size_t exact_node_cutoff = 512;
};

/// Gradient-boosted decision trees for binary classification.
///
/// Boosts regression trees on the logistic loss using first and second
/// order gradients; leaf weight = -G / (H + lambda); split gain is the
/// standard XGBoost structure-score improvement. Exposes the two
/// XGBoost importance notions the paper uses as a preliminary selector:
/// "weight" (number of splits on a feature) and "gain" (total gain of
/// those splits).
class Gbdt {
 public:
  /// Fits `opt.num_rounds` boosted trees on (x, y); codes `x` once
  /// (ml::QuantizedDataset at `opt.max_bins` bins) and calls the overload
  /// below.
  void fit(const data::Matrix& x, std::span<const int> y, const GbdtOptions& opt,
           util::Rng& rng);
  /// As above, on a coding of `x` the caller already built (the ranker
  /// job list codes each population once for every ranker). Throws
  /// std::invalid_argument when `coded` is not x's shape or was built
  /// with another bin budget than `opt.max_bins`.
  void fit(const data::Matrix& x, std::span<const int> y, const QuantizedDataset& coded,
           const GbdtOptions& opt, util::Rng& rng);

  /// P(y = 1) for a single row.
  double predict_proba(std::span<const double> row) const;

  /// Split-count ("weight") importance, normalized to sum 1 unless all 0.
  std::vector<double> weight_importance() const;
  /// Total-gain importance, normalized to sum 1 unless all 0.
  std::vector<double> gain_importance() const;
  /// Combined importance used by the XGBoost ranker: normalized
  /// weight + gain averaged (both signals the paper cites).
  std::vector<double> combined_importance() const;

  std::size_t num_trees() const { return trees_.size(); }
  bool trained() const { return !trees_.empty(); }
  std::size_t num_features() const { return num_features_; }

 private:
  struct Node {
    std::int32_t feature = -1;  // leaf when < 0
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double weight = 0.0;  // leaf output
  };
  struct Tree {
    std::vector<Node> nodes;
    double predict(std::span<const double> row) const;
  };

  /// Buffers reused across every node and round of one fit (defined in
  /// gbdt.cpp).
  struct BuildContext;

  std::int32_t build_node(BuildContext& ctx, std::vector<std::size_t>& idx,
                          std::size_t begin, std::size_t end, int depth,
                          std::span<const std::size_t> features, Tree& tree);

  double raw_score(std::span<const double> row) const;

  std::vector<Tree> trees_;
  double base_score_ = 0.0;  // log-odds prior
  std::size_t num_features_ = 0;
  std::vector<double> split_count_;
  std::vector<double> split_gain_;
};

}  // namespace wefr::ml
