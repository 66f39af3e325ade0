#include "core/pipeline.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "data/window_features.h"
#include "obs/context.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wefr::core {

namespace {

/// Forest options with the experiment-level thread knob applied when the
/// forest's own knob is unset.
ml::ForestOptions forest_options_for(const ExperimentConfig& cfg) {
  ml::ForestOptions opt = cfg.forest;
  if (opt.num_threads == 0) opt.num_threads = cfg.num_threads;
  return opt;
}

data::SamplingOptions sampling_for(const ExperimentConfig& cfg, int day_lo, int day_hi,
                                   bool downsample) {
  data::SamplingOptions opt;
  opt.horizon_days = cfg.horizon_days;
  opt.day_lo = day_lo;
  opt.day_hi = day_hi;
  opt.negative_keep_prob = downsample ? cfg.negative_keep_prob : 1.0;
  opt.expand_windows = cfg.expand_windows;
  opt.window_config = cfg.windows;
  opt.num_threads = cfg.num_threads;
  return opt;
}

}  // namespace

data::Dataset build_selection_samples(const data::FleetData& fleet, int day_lo, int day_hi,
                                      const ExperimentConfig& cfg, const obs::Context* obs) {
  util::Rng rng(cfg.seed ^ 0x5e1ec7104b15ULL);
  data::SamplingOptions opt;
  opt.horizon_days = cfg.horizon_days;
  opt.day_lo = day_lo;
  opt.day_hi = day_hi;
  opt.negative_keep_prob = cfg.negative_keep_prob;
  opt.expand_windows = false;  // selection operates on the original features
  opt.num_threads = cfg.num_threads;
  return data::build_samples(fleet, opt, &rng, obs);
}

WefrPredictor::Route WefrPredictor::route(double mwi) const {
  if (!wear_threshold.has_value() || std::isnan(mwi)) return Route::kAll;
  if (mwi <= *wear_threshold) return low.has_value() ? Route::kLow : Route::kAll;
  return high.has_value() ? Route::kHigh : Route::kAll;
}

namespace {

/// A bundle's training set and the rng its forest forks its trees from,
/// left as sampling left it.
struct TrainingSet {
  data::Dataset samples;
  util::Rng rng;
};

/// The training set train_bundle fits on.
TrainingSet bundle_training_set(const data::FleetData& fleet,
                                std::span<const std::size_t> base_cols, int day_lo,
                                int day_hi, const ExperimentConfig& cfg,
                                const std::function<bool(std::size_t, int)>& sample_filter,
                                const obs::Context* obs) {
  if (base_cols.empty()) throw std::invalid_argument("train_bundle: no base features");
  TrainingSet set{{}, util::Rng(cfg.seed ^ (0x9e3779b9ULL + base_cols.size() * 131 +
                                            base_cols[0]))};
  data::SamplingOptions opt = sampling_for(cfg, day_lo, day_hi, /*downsample=*/true);
  opt.keep = sample_filter;
  set.samples = data::build_samples(fleet, base_cols, opt, &set.rng, obs);
  if (set.samples.size() == 0) throw std::runtime_error("train_bundle: no training samples");
  return set;
}

}  // namespace

PredictorBundle train_bundle(const data::FleetData& fleet,
                             std::span<const std::size_t> base_cols, int day_lo, int day_hi,
                             const ExperimentConfig& cfg,
                             const std::function<bool(std::size_t, int)>& sample_filter,
                             const obs::Context* obs) {
  obs::Span span(obs, "train_bundle");
  TrainingSet set =
      bundle_training_set(fleet, base_cols, day_lo, day_hi, cfg, sample_filter, obs);
  PredictorBundle bundle;
  bundle.base_cols.assign(base_cols.begin(), base_cols.end());
  bundle.forest.fit(set.samples.x, set.samples.y, forest_options_for(cfg), set.rng, obs);
  return bundle;
}

WefrPredictor train_predictor(const data::FleetData& fleet,
                              std::span<const std::size_t> base_cols, int day_lo, int day_hi,
                              const ExperimentConfig& cfg, const obs::Context* obs) {
  obs::Span span(obs, "train_predictor");
  WefrPredictor pred;
  pred.all = train_bundle(fleet, base_cols, day_lo, day_hi, cfg, {}, obs);
  pred.mwi_col = fleet.feature_index("MWI_N");
  return pred;
}

WefrPredictor train_predictor(const data::FleetData& fleet, const WefrResult& sel,
                              int day_lo, int day_hi, const ExperimentConfig& cfg,
                              const obs::Context* obs) {
  obs::Span span(obs, "train_predictor");
  WefrPredictor pred;
  pred.mwi_col = fleet.feature_index("MWI_N");
  pred.all.base_cols = sel.all.selected;
  // Every bundle's training set first, then all three forests as one
  // fit job list (RandomForest::fit_all): each bundle samples with its
  // own rng and its forest forks its trees off that rng, so a forest is
  // the one a bundle-at-a-time fit gives.
  TrainingSet all_set =
      bundle_training_set(fleet, sel.all.selected, day_lo, day_hi, cfg, {}, obs);
  std::optional<TrainingSet> low_set, high_set;

  if (sel.change_point.has_value() && sel.low.has_value() && sel.high.has_value() &&
      pred.mwi_col >= 0) {
    const double thr = sel.change_point->mwi_threshold;
    const std::size_t mwi = static_cast<std::size_t>(pred.mwi_col);

    auto group_filter = [&fleet, mwi, thr](bool want_low) {
      return [&fleet, mwi, thr, want_low](std::size_t drive_index, int day) {
        const auto& drive = fleet.drives[drive_index];
        const std::size_t local = static_cast<std::size_t>(day - drive.first_day);
        const double v = drive.values(local, mwi);
        // A NaN wear indicator belongs to neither group (it would land in
        // "high" via NaN <= thr == false); such days train only the
        // whole-model bundle. This is its own rule, not
        // WefrPredictor::route: route picks among the bundles that were
        // trained, and here no group bundle exists yet. The two agree
        // that a NaN day is the whole-model bundle's.
        if (std::isnan(v)) return false;
        return (v <= thr) == want_low;
      };
    };

    // A wear group gets its own model only when its training slice holds
    // enough positives to learn from; otherwise scoring falls back to the
    // whole-model bundle for that group.
    auto try_group = [&](const GroupSelection& gs,
                         bool want_low) -> std::optional<TrainingSet> {
      // A group whose selection fell back to the whole-model feature set
      // has too few positives to support a specialized model either —
      // route it to the whole-model bundle (updating then degrades to
      // no-updating for that group instead of hurting it).
      if (gs.fallback) return std::nullopt;
      try {
        TrainingSet set{{}, util::Rng(cfg.seed ^ (want_low ? 0xa5a5ULL : 0x5a5aULL))};
        data::SamplingOptions opt = sampling_for(cfg, day_lo, day_hi, /*downsample=*/true);
        opt.keep = group_filter(want_low);
        set.samples = data::build_samples(fleet, gs.selected, opt, &set.rng, obs);
        // A specialized model must beat the whole-model bundle it
        // replaces; starved groups (few positives) reliably do worse, so
        // fall back.
        if (set.samples.size() < 400 || set.samples.num_positive() < 25) return std::nullopt;
        return set;
      } catch (const std::exception&) {
        return std::nullopt;
      }
    };

    low_set = try_group(*sel.low, /*want_low=*/true);
    high_set = try_group(*sel.high, /*want_low=*/false);
    if (low_set.has_value()) pred.low.emplace().base_cols = sel.low->selected;
    if (high_set.has_value()) pred.high.emplace().base_cols = sel.high->selected;
    if (pred.low.has_value() || pred.high.has_value()) pred.wear_threshold = thr;
  }

  std::vector<ml::RandomForest::FitJob> jobs;
  const auto add_job = [&](TrainingSet& set, PredictorBundle& bundle) {
    jobs.push_back({&set.samples.x, set.samples.y, nullptr, &set.rng, &bundle.forest});
  };
  add_job(all_set, pred.all);
  if (low_set.has_value()) add_job(*low_set, *pred.low);
  if (high_set.has_value()) add_job(*high_set, *pred.high);
  ml::RandomForest::fit_all(jobs, forest_options_for(cfg), obs);
  return pred;
}

std::vector<DriveDayScores> score_fleet(const data::FleetData& fleet,
                                        const WefrPredictor& predictor, int t0, int t1,
                                        const ExperimentConfig& cfg,
                                        PipelineDiagnostics* diag, const obs::Context* obs) {
  std::vector<std::size_t> all(fleet.drives.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return score_fleet(fleet, predictor, all, t0, t1, cfg, diag, obs);
}

std::vector<DriveDayScores> score_fleet(const data::FleetData& fleet,
                                        const WefrPredictor& predictor,
                                        std::span<const std::size_t> drives, int t0, int t1,
                                        const ExperimentConfig& cfg,
                                        PipelineDiagnostics* diag, const obs::Context* obs) {
  obs::Span span(obs, "score_fleet");
  if (t0 > t1) throw std::invalid_argument("score_fleet: t0 > t1");

  const bool routed = predictor.wear_threshold.has_value() && predictor.mwi_col >= 0;

  // Collect candidate drives with observations in [t0, t1] first so the
  // parallel fan-out below writes each drive's scores into a fixed slot
  // — output order (and every value) matches the sequential run.
  std::vector<std::size_t> eligible;
  for (std::size_t di : drives) {
    if (di >= fleet.drives.size())
      throw std::invalid_argument("score_fleet: drive index out of range");
    const auto& drive = fleet.drives[di];
    if (drive.num_days() == 0) continue;
    if (std::max(t0, drive.first_day) > std::min(t1, drive.last_day())) continue;
    eligible.push_back(di);
  }

  std::vector<DriveDayScores> out(eligible.size());
  // Per-slot tallies folded into `diag` after the (possibly parallel)
  // loop, so the sink is never written concurrently.
  std::vector<std::size_t> rerouted(eligible.size(), 0);
  std::vector<std::size_t> missing_feats(eligible.size(), 0);
  auto score_drive = [&](std::size_t slot) {
    const std::size_t di = eligible[slot];
    const auto& drive = fleet.drives[di];
    const int lo = std::max(t0, drive.first_day);
    const int hi = std::min(t1, drive.last_day());

    // Heterogeneous-fleet degradation check: in a schema-reconciled
    // pool, a column the drive's model never reports is NaN over its
    // whole series (forward_fill leaves all-NaN columns untouched), so
    // first-and-last-row NaN detects it in O(base_cols). Such drives
    // still score — tree splits send NaN down the right child, a
    // deterministic neutral path — but the degradation is tallied so
    // callers know which scores rest on a partial feature set.
    if (drive.num_days() > 0) {
      for (std::size_t c : predictor.all.base_cols) {
        if (std::isnan(drive.values(0, c)) &&
            std::isnan(drive.values(drive.num_days() - 1, c))) {
          ++missing_feats[slot];
        }
      }
    }

    DriveDayScores& ds = out[slot];
    ds.drive_index = di;
    ds.first_day = lo;
    const std::size_t num_days = static_cast<std::size_t>(hi - lo + 1);
    ds.scores.assign(num_days, 0.0);

    // Route first: each scored day joins exactly one bundle's list, by
    // WefrPredictor::route. `rows[r]` are the drive's local days routed
    // to r, `pos[r]` their positions in ds.scores.
    std::array<std::vector<std::size_t>, 3> rows, pos;
    for (int day = lo; day <= hi; ++day) {
      const std::size_t local = static_cast<std::size_t>(day - drive.first_day);
      auto r = WefrPredictor::Route::kAll;
      if (routed) {
        const double mwi = drive.values(local, static_cast<std::size_t>(predictor.mwi_col));
        // An unroutable wear indicator scores with the whole-model bundle
        // rather than silently landing in the high-wear group; tallied.
        if (std::isnan(mwi)) ++rerouted[slot];
        r = predictor.route(mwi);
      }
      rows[static_cast<std::size_t>(r)].push_back(local);
      pos[static_cast<std::size_t>(r)].push_back(static_cast<std::size_t>(day - lo));
    }

    // Then each bundle expands only its own days and scores them as one
    // batch through the flattened engine; scores are scattered back by
    // day position. The day-list kernel folds the drive's full history
    // from day 0, so scores stay bit-identical no matter how the scored
    // range is chunked (running sums would otherwise drift ~1e-15
    // relative depending on where a slice started — enough to flip a
    // discrete alarm near a threshold), and each probability is
    // bit-identical to the historical per-day recursive walk.
    // Workers pass obs = nullptr to the forest: inference rows are
    // tallied once after the fan-out so tracing adds no work to the
    // scoring hot path.
    auto score_bundle = [&](const PredictorBundle& bundle,
                            const std::vector<std::size_t>& rows,
                            const std::vector<std::size_t>& pos) {
      if (rows.empty()) return;
      const data::Matrix feats =
          cfg.expand_windows
              ? data::expand_series(drive.values, bundle.base_cols, rows, cfg.windows, obs)
              : drive.values.select_rows(rows).select_columns(bundle.base_cols);
      const std::vector<double> batch = bundle.forest.predict_proba(feats);
      for (std::size_t i = 0; i < pos.size(); ++i) ds.scores[pos[i]] = batch[i];
    };
    score_bundle(predictor.all, rows[0], pos[0]);
    if (predictor.low.has_value()) score_bundle(*predictor.low, rows[1], pos[1]);
    if (predictor.high.has_value()) score_bundle(*predictor.high, rows[2], pos[2]);
  };

  // One task per drive drowned the pool in atomic traffic and task
  // dispatch for short test windows (each drive scores only a few
  // days): batch drives per worker instead, and stay serial outright
  // when the fleet is too small to cover even two batches.
  constexpr std::size_t kDriveChunk = 16;
  if (cfg.num_threads > 1 && eligible.size() >= 2 * kDriveChunk) {
    util::ThreadPool pool(cfg.num_threads);
    pool.parallel_for_chunked(eligible.size(), kDriveChunk, score_drive);
  } else {
    for (std::size_t slot = 0; slot < eligible.size(); ++slot) score_drive(slot);
  }
  std::size_t total_rerouted = 0;
  for (std::size_t n : rerouted) total_rerouted += n;
  if (diag != nullptr && total_rerouted > 0) {
    diag->score_days_rerouted += total_rerouted;
    diag->note("score", "days_rerouted_nan_mwi",
               std::to_string(total_rerouted) + " drive-days -> whole-model bundle");
  }
  std::size_t drives_partial = 0, cols_missing = 0;
  for (std::size_t n : missing_feats) {
    drives_partial += n > 0 ? 1 : 0;
    cols_missing += n;
  }
  if (diag != nullptr && drives_partial > 0) {
    diag->score_drives_missing_features += drives_partial;
    diag->note("score", "drives_missing_features",
               std::to_string(drives_partial) + " drives scored without " +
                   std::to_string(cols_missing) + " selected feature columns");
  }
  if (obs != nullptr) {
    // Tallied once here (not in the per-day loop) so tracing adds no
    // work to the scoring hot path.
    std::size_t total_days = 0;
    auto* hist = obs::histogram_or_null(obs, "wefr_score_days_per_drive",
                                        {1.0, 7.0, 30.0, 90.0, 365.0, 1825.0});
    for (const auto& ds : out) {
      total_days += ds.scores.size();
      if (hist != nullptr) hist->observe(static_cast<double>(ds.scores.size()));
    }
    obs::add_counter(obs, "wefr_score_drives_total", out.size());
    obs::add_counter(obs, "wefr_score_days_total", total_days);
    obs::add_counter(obs, "wefr_score_days_rerouted_total", total_rerouted);
    obs::add_counter(obs, "wefr_inference_rows_total", total_days);
  }
  return out;
}

namespace {

/// Per-drive alarm lookup: earliest day whose score reaches a threshold.
struct AlarmIndex {
  std::size_t drive_index = 0;
  bool actual_positive = false;
  int fail_day = -1;
  std::vector<double> scores_desc;
  std::vector<int> earliest_day;  ///< earliest day among the top-k scores

  /// Earliest alarm day at threshold thr, or -1 when no score reaches it.
  int alarm_day(double thr) const {
    // Count scores >= thr in the descending array.
    const auto it = std::lower_bound(scores_desc.begin(), scores_desc.end(), thr,
                                     [](double s, double t) { return s >= t; });
    const std::size_t k = static_cast<std::size_t>(it - scores_desc.begin());
    return k == 0 ? -1 : earliest_day[k - 1];
  }
};

}  // namespace

DriveLevelEval evaluate_fixed_recall(const data::FleetData& fleet,
                                     std::span<const DriveDayScores> scores, int t0, int t1,
                                     int horizon, double target_recall,
                                     const std::vector<bool>* drive_mask) {
  if (target_recall < 0.0 || target_recall > 1.0)
    throw std::invalid_argument("evaluate_fixed_recall: target outside [0,1]");

  std::vector<AlarmIndex> drives;
  std::vector<double> all_scores;
  for (const auto& ds : scores) {
    if (drive_mask != nullptr &&
        (ds.drive_index >= drive_mask->size() || !(*drive_mask)[ds.drive_index]))
      continue;
    const auto& drive = fleet.drives[ds.drive_index];
    AlarmIndex ai;
    ai.drive_index = ds.drive_index;
    ai.fail_day = drive.fail_day;
    ai.actual_positive = drive.failed() && drive.fail_day > t0 &&
                         drive.fail_day <= t1 + horizon;

    std::vector<std::pair<double, int>> pairs;
    pairs.reserve(ds.scores.size());
    for (std::size_t i = 0; i < ds.scores.size(); ++i) {
      pairs.emplace_back(ds.scores[i], ds.first_day + static_cast<int>(i));
      all_scores.push_back(ds.scores[i]);
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    ai.scores_desc.reserve(pairs.size());
    ai.earliest_day.reserve(pairs.size());
    int earliest = INT32_MAX;
    for (const auto& [s, d] : pairs) {
      earliest = std::min(earliest, d);
      ai.scores_desc.push_back(s);
      ai.earliest_day.push_back(earliest);
    }
    drives.push_back(std::move(ai));
  }

  DriveLevelEval best;
  if (drives.empty() || all_scores.empty()) return best;

  // Candidate thresholds: up to ~400 quantiles of all scores plus a
  // sentinel above the maximum (predict nothing).
  std::sort(all_scores.begin(), all_scores.end());
  all_scores.erase(std::unique(all_scores.begin(), all_scores.end()), all_scores.end());
  std::vector<double> candidates;
  const std::size_t want = 400;
  if (all_scores.size() <= want) {
    candidates = all_scores;
  } else {
    for (std::size_t i = 0; i < want; ++i) {
      const std::size_t j = i * (all_scores.size() - 1) / (want - 1);
      candidates.push_back(all_scores[j]);
    }
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  }
  candidates.push_back(all_scores.back() + 1.0);

  // Paper-style drive-level accounting: precision is over predicted
  // drives (first alarm must be followed by the failure within the
  // horizon), recall is over ALL actually-failing drives — a premature
  // alarm therefore counts against both (fp and fn).
  auto eval_at = [&](double thr) {
    ml::Confusion c;
    for (const auto& ai : drives) {
      const int alarm = ai.alarm_day(thr);
      const bool predicted = alarm >= 0;
      const bool correct =
          predicted && ai.fail_day > alarm && ai.fail_day <= alarm + horizon;
      if (correct) ++c.tp;
      if (predicted && !correct) ++c.fp;
      if (ai.actual_positive && !correct) ++c.fn;
      if (!predicted && !ai.actual_positive) ++c.tn;
    }
    return c;
  };

  // Fixed-recall semantics: among operating points reaching the target,
  // take the one with the SMALLEST recall (the point just past the
  // target — methods are then compared at matched recall, as in the
  // paper's tables), breaking ties by precision then threshold. When the
  // target is unreachable, fall back to the maximum-recall point.
  bool have_target = false;
  bool have_any = false;
  for (double thr : candidates) {
    const ml::Confusion c = eval_at(thr);
    const double p = ml::precision(c);
    const double r = ml::recall(c);
    const bool meets = r >= target_recall;
    bool better = false;
    if (!have_any) {
      better = true;
    } else if (meets && !have_target) {
      better = true;
    } else if (meets == have_target) {
      if (meets) {
        better = r < best.recall ||
                 (r == best.recall &&
                  (p > best.precision ||
                   (p == best.precision && thr > best.threshold)));
      } else {
        better = r > best.recall || (r == best.recall && p > best.precision);
      }
    }
    if (better) {
      best.confusion = c;
      best.precision = p;
      best.recall = r;
      best.f05 = ml::f05(c);
      best.threshold = thr;
      best.achieved_recall = r;
      have_any = true;
      have_target = have_target || meets;
    }
  }
  return best;
}

}  // namespace wefr::core
