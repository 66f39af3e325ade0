#pragma once

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
  /// Worker threads for running rankers in parallel (the deployment mode
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
