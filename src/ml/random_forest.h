#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "data/matrix.h"
#include "ml/tree.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wefr::obs {
struct Context;
}

namespace wefr::ml {

class FlatForest;
class QuantizedDataset;

/// Random-Forest training controls. Defaults follow the paper's
/// prediction-model setting (100 trees, max depth 13).
struct ForestOptions {
  std::size_t num_trees = 100;
  TreeOptions tree;
  /// Bootstrap sample size as a fraction of the training set.
  double bootstrap_fraction = 1.0;
  /// Per-split feature subsample; 0 means sqrt(#features).
  std::size_t max_features = 0;
  /// Worker threads for tree fitting; 0 = sequential.
  std::size_t num_threads = 0;
};

/// Bagged ensemble of CART trees with per-split feature subsampling.
/// Ranks features by mean Gini impurity decrease.
class RandomForest {
 public:
  /// One forest of a fit job list (see fit_all).
  struct FitJob {
    const data::Matrix* x = nullptr;
    std::span<const int> y;
    /// x's coding at `opt.tree.max_bins` bins; null = coded on the job list.
    const QuantizedDataset* coded = nullptr;
    /// The forest's per-tree streams fork off it, in tree order.
    util::Rng* rng = nullptr;
    RandomForest* forest = nullptr;  ///< receives the fitted forest
  };

  /// Fits every job's forest as one job list on one pool of
  /// `opt.num_threads` workers: codes each uncoded job's columns, then
  /// fits all trees, larger training sets first, then flattens every
  /// forest. Each forest is bit-identical to fitting it on its own: its
  /// trees draw from streams forked off its own rng, in tree order,
  /// before any tree is fitted. Every job is checked before any work
  /// starts; a bad job throws std::invalid_argument and fits nothing.
  ///
  /// `obs` (nullable) wraps the job list in one "forest:fit" span, with
  /// each forest's "forest:flatten" span parented on it explicitly (they
  /// run on pool threads); counts the trees fitted, and records the job
  /// list's wall time in the wefr_forest_fit_seconds histogram.
  static void fit_all(std::span<const FitJob> jobs, const ForestOptions& opt,
                      const obs::Context* obs = nullptr);

  /// Fits `opt.num_trees` trees on bootstrap resamples of (x, y): the
  /// one-forest case of fit_all. Deterministic for a given seed,
  /// including in threaded mode (each tree gets its own pre-forked
  /// stream). The rank/bin codes of `x` (ml::QuantizedDataset) are built
  /// once here and shared read-only by every tree.
  void fit(const data::Matrix& x, std::span<const int> y, const ForestOptions& opt,
           util::Rng& rng, const obs::Context* obs = nullptr);
  /// As above, on a coding of `x` the caller already built. Throws
  /// std::invalid_argument when `coded` is not x's shape or was built
  /// with another bin budget than `opt.tree.max_bins`.
  void fit(const data::Matrix& x, std::span<const int> y, const QuantizedDataset& coded,
           const ForestOptions& opt, util::Rng& rng, const obs::Context* obs = nullptr);

  /// Mean positive-class probability across trees for a single row.
  double predict_proba(std::span<const double> row) const;

  /// Probabilities for every row of `x`, scored through the flattened
  /// SoA engine (ml::FlatForest) built at fit/load time — bit-identical
  /// to the per-row recursive walk. `num_threads > 1` fans row blocks
  /// out over a ThreadPool; results are identical at any thread count.
  /// `obs` (nullable) wraps the call in a "forest:predict_batch" span
  /// and counts the rows scored (wefr_forest_rows_scored_total,
  /// wefr_inference_rows_total).
  std::vector<double> predict_proba(const data::Matrix& x,
                                    std::size_t num_threads = 0,
                                    const obs::Context* obs = nullptr) const;

  /// Normalized mean impurity-decrease importance (sums to 1 unless all
  /// zero). Length = number of training features.
  std::vector<double> impurity_importance() const;

  /// Serializes the fitted forest to a line-oriented text format
  /// (version-tagged; raw doubles at full precision). Throws when not
  /// trained or on I/O failure.
  void save(std::ostream& os) const;
  /// Restores a forest written by save(); replaces this object's state.
  /// Throws std::runtime_error on malformed input, leaving this object
  /// unchanged.
  void load(std::istream& is);

  std::size_t num_trees() const { return trees_.size(); }
  bool trained() const { return !trees_.empty(); }
  std::size_t num_features() const { return num_features_; }

  /// The flattened inference engine compiled from this forest at
  /// fit/load time (null before either). Exposed for benches and tests.
  const FlatForest* flat() const { return flat_.get(); }

 private:
  friend class FlatForest;

  const FlatForest& flat_ref() const;

  std::vector<DecisionTree> trees_;
  std::size_t num_features_ = 0;
  /// SoA-compiled twin of trees_, rebuilt at the end of fit()/load();
  /// shared so copies of a fitted forest share one flat image.
  std::shared_ptr<const FlatForest> flat_;
};

}  // namespace wefr::ml
