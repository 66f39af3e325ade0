#include "core/ensemble.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "ml/quantize.h"
#include "obs/context.h"
#include "obs/trace.h"
#include "stats/descriptive.h"
#include "stats/kendall.h"
#include "stats/ranking.h"
#include "util/thread_pool.h"

namespace wefr::core {

std::vector<RankerScores> score_rankers(std::span<const std::unique_ptr<FeatureRanker>> rankers,
                                        std::span<const RankingPopulation> populations,
                                        std::size_t num_threads, const obs::Context* obs) {
  const std::size_t k = rankers.size();
  std::vector<RankerScores> raw(populations.size());
  struct Job {
    std::size_t population;
    std::size_t ranker;
  };
  std::vector<Job> jobs;
  std::size_t cells = 0;
  for (std::size_t p = 0; p < populations.size(); ++p) {
    raw[p].names.resize(k);
    for (std::size_t i = 0; i < k; ++i) raw[p].names[i] = rankers[i]->name();
    raw[p].scores.resize(k);
    raw[p].failed.assign(k, 0);
    raw[p].failure_reasons.resize(k);
    for (std::size_t i = 0; i < k; ++i) jobs.push_back({p, i});
    cells += populations[p].x->rows() * populations[p].x->cols();
  }
  // Longest first: model-fitting rankers before per-column statistics,
  // larger populations before smaller ones. The pool claims jobs in
  // list order, so the long poles start at once.
  std::stable_sort(jobs.begin(), jobs.end(), [&](const Job& a, const Job& b) {
    const bool fa = rankers[a.ranker]->fits_model(), fb = rankers[b.ranker]->fits_model();
    if (fa != fb) return fa;
    return populations[a.population].x->rows() > populations[b.population].x->rows();
  });

  // One coding per population, shared by every ranker that reads it
  // (see FeatureRanker::score), built as per-column jobs ahead of the
  // ranker jobs.
  struct Column {
    std::size_t population;
    std::size_t column;
  };
  std::vector<ml::QuantizedDataset> coded(populations.size());
  std::vector<Column> columns;
  const bool any_reads = std::any_of(rankers.begin(), rankers.end(),
                                     [](const auto& r) { return r->reads_coding(); });
  for (std::size_t p = 0; any_reads && p < populations.size(); ++p) {
    const data::Matrix& x = *populations[p].x;
    if (x.rows() == 0 || x.cols() == 0) continue;  // nothing to code
    coded[p].prepare(x, kRankerBins);
    for (std::size_t c = 0; c < x.cols(); ++c) columns.push_back({p, c});
  }
  auto code_one = [&](std::size_t i) {
    const Column col = columns[i];
    coded[col.population].build_feature(*populations[col.population].x, col.column);
  };

  // Ranker spans are parented on their population's span explicitly:
  // pool workers have no open-span stack of their own, so implicit
  // (thread-local) parentage would orphan them.
  auto run_one = [&](std::size_t j) {
    const Job job = jobs[j];
    const RankingPopulation& pop = populations[job.population];
    RankerScores& out = raw[job.population];
    const std::size_t i = job.ranker;
    const std::size_t nf = pop.x->cols();
    obs::Span ranker_span(obs, ("ranker:" + out.names[i]).c_str(), pop.parent_span);
    try {
      out.scores[i] = rankers[i]->score(*pop.x, pop.y, coded[job.population]);
      if (out.scores[i].size() != nf)
        throw std::runtime_error("returned " + std::to_string(out.scores[i].size()) +
                                 " scores for " + std::to_string(nf) + " features");
    } catch (const std::exception& e) {
      out.failed[i] = 1;
      out.failure_reasons[i] = e.what();
      out.scores[i].assign(nf, 0.0);
    }
  };
  // Fan out only when the pool can actually win: on a single hardware
  // thread the workers just take turns (BENCH_hotpath measured a ~2%
  // *slowdown* from pool overhead), and for tiny sample matrices the
  // per-ranker work is smaller than the thread handoff it would buy.
  const bool pool_can_win = util::default_thread_count() > 1 && cells >= 4096;
  if (num_threads > 1 && jobs.size() > 1 && pool_can_win) {
    util::ThreadPool pool(std::min(num_threads, jobs.size()));
    pool.parallel_for(columns.size(), code_one);
    pool.parallel_for(jobs.size(), run_one);
  } else {
    for (std::size_t i = 0; i < columns.size(); ++i) code_one(i);
    for (std::size_t j = 0; j < jobs.size(); ++j) run_one(j);
  }
  return raw;
}

EnsembleResult finalize_ensemble(RankerScores raw, std::size_t nf, const EnsembleOptions& opt,
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

EnsembleResult ensemble_rank(std::span<const std::unique_ptr<FeatureRanker>> rankers,
                             const data::Matrix& x, std::span<const int> y,
                             const EnsembleOptions& opt, PipelineDiagnostics* diag,
                             const obs::Context* obs) {
  obs::Span ensemble_span(obs, "ensemble");
  if (rankers.empty()) throw std::invalid_argument("ensemble_rank: no rankers");
  if (x.rows() != y.size()) throw std::invalid_argument("ensemble_rank: shape mismatch");

  const RankingPopulation population{&x, y, ensemble_span.id()};
  auto raw = score_rankers(rankers, {&population, 1}, opt.num_threads, obs);
  return finalize_ensemble(std::move(raw.front()), x.cols(), opt, diag, obs);
}

}  // namespace wefr::core
