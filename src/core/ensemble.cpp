#include "core/ensemble.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "obs/context.h"
#include "obs/trace.h"
#include "stats/descriptive.h"
#include "stats/kendall.h"
#include "stats/ranking.h"
#include "util/thread_pool.h"

namespace wefr::core {

namespace {

/// Raw per-ranker score vectors, before sanitization and ranking.
struct RankerRawScores {
  std::vector<std::string> names;            ///< per ranker
  std::vector<std::vector<double>> scores;   ///< per ranker: raw importances
  std::vector<std::uint8_t> failed;          ///< 1 = ranker threw on this input
  std::vector<std::string> failure_reasons;  ///< exception text when failed
};

/// Runs every ranker and collects raw scores: failures are captured
/// (zero scores + reason) and left for finalize_scores to record.
/// `parent_span` parents the per-ranker spans.
RankerRawScores score_rankers(std::span<const std::unique_ptr<FeatureRanker>> rankers,
                              const data::Matrix& x, std::span<const int> y,
                              const EnsembleOptions& opt, const obs::Context* obs,
                              std::uint64_t parent_span) {
  const std::size_t k = rankers.size();
  const std::size_t nf = x.cols();

  RankerRawScores raw;
  raw.names.resize(k);
  raw.scores.resize(k);
  raw.failed.assign(k, 0);
  raw.failure_reasons.resize(k);

  // Ranker spans are parented on the caller's span explicitly: in
  // threaded mode the pool workers have no open-span stack of their
  // own, so implicit (thread-local) parentage would orphan them.
  auto run_one = [&](std::size_t i) {
    raw.names[i] = rankers[i]->name();
    obs::Span ranker_span(obs, ("ranker:" + raw.names[i]).c_str(), parent_span);
    try {
      raw.scores[i] = rankers[i]->score(x, y);
      if (raw.scores[i].size() != nf)
        throw std::runtime_error("returned " + std::to_string(raw.scores[i].size()) +
                                 " scores for " + std::to_string(nf) + " features");
    } catch (const std::exception& e) {
      raw.failed[i] = 1;
      raw.failure_reasons[i] = e.what();
      raw.scores[i].assign(nf, 0.0);
    }
  };
  // Fan out only when the pool can actually win: on a single hardware
  // thread the workers just take turns (BENCH_hotpath measured a ~2%
  // *slowdown* from pool overhead), and for tiny sample matrices the
  // per-ranker work is smaller than the thread handoff it would buy.
  const bool pool_can_win =
      util::default_thread_count() > 1 && x.rows() * x.cols() >= 4096;
  if (opt.num_threads > 1 && k > 1 && pool_can_win) {
    util::ThreadPool pool(std::min(opt.num_threads, k));
    pool.parallel_for(k, run_one);
  } else {
    for (std::size_t i = 0; i < k; ++i) run_one(i);
  }
  return raw;
}

/// Deterministic finalization of raw ranker scores: sanitize non-finite
/// importances, derive fractional rankings, prune Kendall-tau outliers,
/// and average the survivors.
EnsembleResult finalize_scores(RankerRawScores raw, std::size_t nf, const EnsembleOptions& opt,
                               PipelineDiagnostics* diag, const obs::Context* obs) {
  const std::size_t k = raw.names.size();
  const double neutral_rank = (static_cast<double>(nf) + 1.0) / 2.0;

  EnsembleResult out;
  out.ranker_names = std::move(raw.names);
  out.scores = std::move(raw.scores);
  out.rankings.resize(k);
  out.failed.assign(k, false);

  for (std::size_t i = 0; i < k; ++i) {
    if (raw.failed[i] != 0) {
      out.failed[i] = true;
      out.scores[i].assign(nf, 0.0);
      out.rankings[i].assign(nf, neutral_rank);
      if (diag != nullptr) {
        ++diag->rankers_failed;
        diag->note("ensemble", "ranker_failed",
                   out.ranker_names[i] + ": " + raw.failure_reasons[i]);
      }
      continue;
    }
    // Degenerate inputs can yield NaN/inf importances (zero-variance
    // columns, vanishing denominators); zero them so the fractional
    // ranking stays well ordered.
    for (double& s : out.scores[i]) {
      if (!std::isfinite(s)) {
        s = 0.0;
        ++out.sanitized_scores;
      }
    }
    out.rankings[i] = stats::ranking_from_scores(out.scores[i]);
  }
  if (out.sanitized_scores > 0 && diag != nullptr) {
    diag->scores_sanitized += out.sanitized_scores;
    diag->note("ensemble", "scores_sanitized",
               std::to_string(out.sanitized_scores) + " non-finite importances -> 0");
  }

  std::vector<std::size_t> live;  // rankers that actually produced a ranking
  for (std::size_t a = 0; a < k; ++a) {
    if (!out.failed[a]) live.push_back(a);
  }

  // Pairwise Kendall-tau distances and per-ranker mean distance D-bar,
  // over the live rankers only (a failed ranker's neutral ranking would
  // otherwise drag the distance statistics). Sort cache: each live
  // ranking is argsorted once and the order is shared across its k-1
  // pairings (the merge-sort tau itself is O(n log n) per pair).
  out.mean_distance.assign(k, 0.0);
  if (live.size() > 1) {
    std::vector<std::vector<std::size_t>> sorted(k);
    for (std::size_t a : live) sorted[a] = stats::argsort_ascending(out.rankings[a]);
    std::vector<std::vector<double>> dist(k, std::vector<double>(k, 0.0));
    for (std::size_t ia = 0; ia < live.size(); ++ia) {
      for (std::size_t ib = ia + 1; ib < live.size(); ++ib) {
        const std::size_t a = live[ia], b = live[ib];
        const double d = static_cast<double>(stats::kendall_tau_distance_presorted(
            out.rankings[a], out.rankings[b], sorted[a]));
        dist[a][b] = dist[b][a] = d;
      }
    }
    for (std::size_t a : live) {
      double sum = 0.0;
      for (std::size_t b : live) {
        if (b != a) sum += dist[a][b];
      }
      out.mean_distance[a] = sum / static_cast<double>(live.size() - 1);
    }
  }

  // Outlier pruning: drop rankers whose D-bar is more than outlier_z
  // standard deviations ABOVE the mean of D-bar (one-sided — a ranker
  // unusually close to the others is agreement, not bias). Population
  // stddev: with k = 5 rankers the maximum sample-stddev z-score is
  // (k-1)/sqrt(k) = 1.79 < 1.96, i.e. the paper's rule could never fire.
  out.discarded.assign(k, false);
  for (std::size_t a = 0; a < k; ++a) out.discarded[a] = out.failed[a];
  if (live.size() > 2) {
    std::vector<double> live_dbar;
    for (std::size_t a : live) live_dbar.push_back(out.mean_distance[a]);
    const double m = stats::mean(live_dbar);
    const double sd = stats::stddev(live_dbar);
    if (sd > 0.0) {
      for (std::size_t a : live) {
        if (out.mean_distance[a] > m + opt.outlier_z * sd) {
          out.discarded[a] = true;
          if (diag != nullptr)
            diag->note("ensemble", "ranker_outlier", out.ranker_names[a]);
        }
      }
    }
    // Guard: never discard every live ranking.
    bool any_kept = false;
    for (std::size_t a : live) any_kept = any_kept || !out.discarded[a];
    if (!any_kept) {
      for (std::size_t a : live) out.discarded[a] = false;
    }
  }

  // Final ranking: mean of surviving rankings per feature. When every
  // ranker failed there is nothing to average — fall back to the
  // neutral ranking (identity order), tagged in the diagnostics.
  out.final_ranking.assign(nf, 0.0);
  std::size_t kept = 0;
  for (std::size_t a = 0; a < k; ++a) {
    if (out.discarded[a]) continue;
    ++kept;
    for (std::size_t f = 0; f < nf; ++f) out.final_ranking[f] += out.rankings[a][f];
  }
  if (kept == 0) {
    out.final_ranking.assign(nf, neutral_rank);
    if (diag != nullptr)
      diag->note("ensemble", "all_rankers_failed", "neutral final ranking");
  } else {
    for (std::size_t f = 0; f < nf; ++f) out.final_ranking[f] /= static_cast<double>(kept);
  }

  // Most-important-first order (smaller mean rank first; ties by index).
  std::vector<double> neg(nf);
  for (std::size_t f = 0; f < nf; ++f) neg[f] = -out.final_ranking[f];
  out.order = stats::order_by_score(neg);

  if (obs != nullptr) {
    obs::add_counter(obs, "wefr_rankers_run_total", k);
    std::size_t discarded = 0;
    for (std::size_t a = 0; a < k; ++a) discarded += out.discarded[a] ? 1 : 0;
    obs::add_counter(obs, "wefr_rankers_discarded_total", discarded);
  }
  return out;
}

}  // namespace

EnsembleResult ensemble_rank(std::span<const std::unique_ptr<FeatureRanker>> rankers,
                             const data::Matrix& x, std::span<const int> y,
                             const EnsembleOptions& opt, PipelineDiagnostics* diag,
                             const obs::Context* obs) {
  obs::Span ensemble_span(obs, "ensemble");
  if (rankers.empty()) throw std::invalid_argument("ensemble_rank: no rankers");
  if (x.rows() != y.size()) throw std::invalid_argument("ensemble_rank: shape mismatch");

  return finalize_scores(score_rankers(rankers, x, y, opt, obs, ensemble_span.id()), x.cols(),
                         opt, diag, obs);
}

}  // namespace wefr::core
