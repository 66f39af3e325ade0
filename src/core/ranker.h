#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/matrix.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "util/rng.h"

namespace wefr::ml {
class QuantizedDataset;
}

namespace wefr::core {

/// Bin budget of the coding the rankers share (see
/// FeatureRanker::score): the RF and XGBoost rankers' max_bins.
inline constexpr std::size_t kRankerBins = 256;

/// A preliminary feature-selection approach: assigns every learning
/// feature an importance score (higher = more important). WEFR runs
/// five of these (Section II-C) and combines their rankings.
class FeatureRanker {
 public:
  virtual ~FeatureRanker() = default;

  /// Human-readable name ("Pearson", "XGBoost", ...).
  virtual std::string name() const = 0;

  /// Importance score per feature column of `x` against labels `y`.
  /// `coded` is x's ml::QuantizedDataset at kRankerBins bins when
  /// reads_coding() is true and x is not empty, and an empty coding
  /// otherwise. core::score_rankers codes each population once and
  /// hands that one coding to every ranker.
  virtual std::vector<double> score(const data::Matrix& x, std::span<const int> y,
                                    const ml::QuantizedDataset& coded) const = 0;

  /// Convenience: codes `x` when the ranker reads the coding, then
  /// scores it.
  std::vector<double> score(const data::Matrix& x, std::span<const int> y) const;

  /// 1-based fractional ranking derived from score() (rank 1 = most
  /// important; ties averaged).
  std::vector<double> ranking(const data::Matrix& x, std::span<const int> y) const;

  /// True for rankers that fit a model (forest, boosting): the longest
  /// jobs on the ensemble's job list, which starts them first.
  virtual bool fits_model() const { return false; }

  /// True for rankers whose score reads the coding: the sort-based ones
  /// (Spearman and J-index read its ranks, the tree ensembles split on
  /// it). A population is coded only when some ranker reads it.
  virtual bool reads_coding() const { return false; }

  /// Worker threads for this ranker's internal per-feature (statistical
  /// rankers) or per-tree (forest ranker) fan-out; 0 = sequential. Every
  /// ranker writes per-feature slots or pre-forks RNG streams, so scores
  /// are identical for any thread count.
  void set_num_threads(std::size_t n) { num_threads_ = n; }
  std::size_t num_threads() const { return num_threads_; }

 protected:
  std::size_t num_threads_ = 0;
};

/// |Pearson correlation| between each feature and the target.
class PearsonRanker final : public FeatureRanker {
 public:
  using FeatureRanker::score;
  std::string name() const override { return "Pearson"; }
  std::vector<double> score(const data::Matrix& x, std::span<const int> y,
                            const ml::QuantizedDataset& coded) const override;
};

/// |Spearman correlation| between each feature and the target. A
/// column's fractional ranks come from the coding's ranks; a column
/// holding a NaN is ranked by stats::spearman_with_ranks instead.
class SpearmanRanker final : public FeatureRanker {
 public:
  using FeatureRanker::score;
  std::string name() const override { return "Spearman"; }
  bool reads_coding() const override { return true; }
  std::vector<double> score(const data::Matrix& x, std::span<const int> y,
                            const ml::QuantizedDataset& coded) const override;
};

/// Youden J-index of each feature as a single-threshold classifier. A
/// column's cut points come from the coding's ranks; a column holding a
/// NaN is scored by stats::youden_j_index instead.
class JIndexRanker final : public FeatureRanker {
 public:
  using FeatureRanker::score;
  std::string name() const override { return "J-index"; }
  bool reads_coding() const override { return true; }
  std::vector<double> score(const data::Matrix& x, std::span<const int> y,
                            const ml::QuantizedDataset& coded) const override;
};

/// Random-Forest feature importance: the mean impurity decrease of a
/// forest fit on the population (ml::RandomForest::impurity_importance).
class RandomForestRanker final : public FeatureRanker {
 public:
  explicit RandomForestRanker(ml::ForestOptions opt = default_options(), std::uint64_t seed = 7)
      : opt_(opt), seed_(seed) {}

  using FeatureRanker::score;
  std::string name() const override { return "RandomForest"; }
  bool fits_model() const override { return true; }
  bool reads_coding() const override { return true; }
  std::vector<double> score(const data::Matrix& x, std::span<const int> y,
                            const ml::QuantizedDataset& coded) const override;

  /// Lighter forest than the prediction model: selection only needs a
  /// stable importance ordering, not a calibrated classifier.
  static ml::ForestOptions default_options();

 private:
  ml::ForestOptions opt_;
  std::uint64_t seed_;
};

/// XGBoost-style gradient-boosting importance (weight + gain combined).
class XgboostRanker final : public FeatureRanker {
 public:
  explicit XgboostRanker(ml::GbdtOptions opt = default_options(), std::uint64_t seed = 11)
      : opt_(opt), seed_(seed) {}

  using FeatureRanker::score;
  std::string name() const override { return "XGBoost"; }
  bool fits_model() const override { return true; }
  bool reads_coding() const override { return true; }
  std::vector<double> score(const data::Matrix& x, std::span<const int> y,
                            const ml::QuantizedDataset& coded) const override;

  static ml::GbdtOptions default_options();

 private:
  ml::GbdtOptions opt_;
  std::uint64_t seed_;
};

/// The paper's five preliminary approaches, in Section II-C order.
/// `num_threads` is applied to every ranker's internal fan-out (see
/// FeatureRanker::set_num_threads); results are thread-count invariant.
std::vector<std::unique_ptr<FeatureRanker>> make_standard_rankers(std::uint64_t seed = 7,
                                                                  std::size_t num_threads = 0);

}  // namespace wefr::core
