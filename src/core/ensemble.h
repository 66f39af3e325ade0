#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/diagnostics.h"
#include "core/ranker.h"
#include "data/matrix.h"

namespace wefr::obs {
struct Context;
}

namespace wefr::core {

/// Controls for WEFR's robust ensemble ranking (Section IV-B).
struct EnsembleOptions {
  /// z threshold on a ranker's mean Kendall-tau distance for it to be
  /// discarded as an outlier (paper: 1.96, the 95% confidence level).
  double outlier_z = 1.96;
  /// Worker threads for the ranker job list (the parallel composition
  /// measured by Exp#4); 0 = sequential.
  std::size_t num_threads = 0;
};

/// Output of the ensemble ranking step.
struct EnsembleResult {
  std::vector<std::string> ranker_names;
  /// Per ranker: 1-based fractional ranking of every feature.
  std::vector<std::vector<double>> rankings;
  /// Per ranker: raw importance scores (diagnostics / Table IV).
  std::vector<std::vector<double>> scores;
  /// Mean Kendall-tau distance of each ranker to the others.
  std::vector<double> mean_distance;
  /// True for rankers discarded as outliers.
  std::vector<bool> discarded;
  /// True for rankers that threw on degenerate input (constant
  /// features, single-class labels); they contribute a neutral ranking
  /// and are excluded from the distance statistics and the average.
  std::vector<bool> failed;
  /// Count of non-finite ranker scores replaced by 0 before ranking.
  std::size_t sanitized_scores = 0;
  /// Final ranking per feature: mean of the surviving rankings
  /// (smaller = more important).
  std::vector<double> final_ranking;
  /// Features ordered most-important first under the final ranking.
  std::vector<std::size_t> order;
};

/// Raw importance scores of every ranker on one population, before
/// finalize_ensemble sanitises, ranks and averages them.
struct RankerScores {
  std::vector<std::string> names;            ///< per ranker
  std::vector<std::vector<double>> scores;   ///< per ranker: raw importances
  std::vector<std::uint8_t> failed;          ///< 1 = ranker threw on this input
  std::vector<std::string> failure_reasons;  ///< exception text when failed
};

/// One sample population on the ranker job list.
struct RankingPopulation {
  const data::Matrix* x = nullptr;
  std::span<const int> y;
  /// Span the population's "ranker:<name>" spans hang off (its
  /// "ensemble" span; 0 = root).
  std::uint64_t parent_span = 0;
};

/// Scores every (population, ranker) pair as one job list on one pool of
/// `num_threads` workers: Algorithm 1's whole-model and per-wear-group
/// rankings share the cores instead of each waiting on its slowest
/// ranker. Model-fitting rankers on the larger populations are claimed
/// first, so the long jobs start while the short ones fill the gaps.
/// Each ranker runs single-threaded inside its job (no nested pools).
/// A ranker that throws is recorded as failed with zero scores.
///
/// Before the ranker jobs, each population's columns are coded once
/// (ml::QuantizedDataset at kRankerBins bins), one job per column on the
/// same pool, and that one coding goes to every ranker (see
/// FeatureRanker::score); scores equal each ranker's own-coding scores
/// bit for bit.
///
/// The pool starts only when it can win: more than one job, more than
/// one hardware thread, and at least 4096 sample-matrix cells in total;
/// otherwise the jobs run in order on the calling thread. Scores are
/// identical either way.
std::vector<RankerScores> score_rankers(std::span<const std::unique_ptr<FeatureRanker>> rankers,
                                        std::span<const RankingPopulation> populations,
                                        std::size_t num_threads,
                                        const obs::Context* obs = nullptr);

/// Turns one population's raw scores into its ensemble ranking: zeroes
/// non-finite importances, derives fractional rankings, prunes
/// Kendall-tau outliers and averages the survivors (see ensemble_rank
/// for the rules and the diagnostics noted).
EnsembleResult finalize_ensemble(RankerScores raw, std::size_t num_features,
                                 const EnsembleOptions& opt = {},
                                 PipelineDiagnostics* diag = nullptr,
                                 const obs::Context* obs = nullptr);

/// Runs every ranker, prunes ranking outliers by Kendall-tau distance
/// (a ranker is dropped when its mean distance to the others exceeds
/// the across-ranker mean by `outlier_z` standard deviations), and
/// averages the surviving rankings into the final ranking.
///
/// At least one ranking always survives: if the rule would discard all
/// (impossible with a one-sided test, but guarded anyway) the pruning
/// step is skipped.
///
/// Degraded inputs never throw past this function: a ranker that throws
/// is recorded as failed (neutral ranking, excluded from the average),
/// non-finite scores are zeroed, and when every ranker fails the final
/// ranking is neutral. Each fallback is noted in `diag` when given.
///
/// The one-population case of score_rankers + finalize_ensemble, with
/// `opt.num_threads` workers on the job list.
///
/// `obs` (nullable) wraps the step in an "ensemble" span with one
/// "ranker:<name>" child per ranker (children are parented explicitly,
/// so the tree is correct in threaded mode too) and counts rankers run
/// and discarded.
EnsembleResult ensemble_rank(std::span<const std::unique_ptr<FeatureRanker>> rankers,
                             const data::Matrix& x, std::span<const int> y,
                             const EnsembleOptions& opt = {},
                             PipelineDiagnostics* diag = nullptr,
                             const obs::Context* obs = nullptr);

}  // namespace wefr::core
