#include "core/wefr.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/context.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace wefr::core {

namespace {

/// Keep-every-feature fallback used when a population is too degenerate
/// to rank (empty or single-class).
void degrade_to_all_features(GroupSelection& out, const data::Dataset& samples) {
  out.degraded = true;
  out.selected.clear();
  for (std::size_t c = 0; c < samples.feature_names.size(); ++c) out.selected.push_back(c);
  out.selected_names = samples.feature_names;
  out.selection = AutoSelectResult{};
  out.selection.count = out.selected.size();
  out.selection.selected = out.selected;
}

/// Constant feature columns cannot separate classes; they are legal
/// input but worth surfacing (a stuck sensor shows up here).
std::size_t count_constant_columns(const data::Dataset& samples) {
  std::size_t n = 0;
  for (std::size_t c = 0; c < samples.num_features(); ++c) {
    bool constant = true;
    for (std::size_t r = 1; r < samples.size() && constant; ++r) {
      constant = samples.x(r, c) == samples.x(0, c);
    }
    n += constant ? 1 : 0;
  }
  return n;
}

/// One population of Algorithm 1 (the whole model or one wear group),
/// from the moment its gate is settled to its serial finish. A
/// population that passed its gate is ranked on the shared job list; its
/// "select:<label>" and "ensemble" spans stay open from then until
/// finish_selection closes them.
struct Population {
  Population(std::string name, const data::Dataset& set, const obs::Context* obs)
      : label(std::move(name)), samples(set), positives(set.num_positive()),
        parent_span(obs != nullptr && obs->tracer != nullptr ? obs->tracer->current_span()
                                                               : 0) {}

  /// Non-empty with both classes: anything less leaves every ranker and
  /// complexity measure blind.
  bool rankable() const { return positives > 0 && positives < samples.size(); }

  std::string label;
  const data::Dataset& samples;
  std::size_t positives;
  std::uint64_t parent_span;  ///< the caller's span when the population was settled
  obs::Span select_span;
  obs::Span ensemble_span;
  RankerScores raw;
};

/// Scores every (population, ranker) pair of `pops` as one job list on
/// one pool (see score_rankers), leaving each population's raw scores in
/// `raw`.
void rank_populations(std::span<Population* const> pops, const WefrOptions& opt,
                      const obs::Context* obs) {
  if (pops.empty()) return;
  // Spans open last to first, so that each population's select span is
  // the innermost open one when its serial finish runs: auto_select
  // takes its parent from the thread's open-span stack.
  for (auto it = pops.rbegin(); it != pops.rend(); ++it) {
    Population& p = **it;
    p.select_span = obs::Span(obs, ("select:" + p.label).c_str(), p.parent_span);
    p.ensemble_span = obs::Span(obs, "ensemble", p.select_span.id());
  }
  std::vector<RankingPopulation> inputs;
  for (const Population* p : pops)
    inputs.push_back({&p->samples.x, p->samples.y, p->ensemble_span.id()});
  const std::size_t threads =
      opt.ensemble.num_threads != 0 ? opt.ensemble.num_threads : opt.num_threads;
  // The job list is the one pool: each ranker runs single-threaded.
  const auto rankers = make_standard_rankers(opt.ranker_seed);
  auto raw = score_rankers(rankers, inputs, threads, obs);
  for (std::size_t i = 0; i < pops.size(); ++i) pops[i]->raw = std::move(raw[i]);
}

/// Lines 1-8 after the job list, for one population: a degenerate one
/// keeps every feature; a ranked one gets its ensemble finalised and its
/// feature count chosen. Every diagnostic of the population is noted
/// here, so calling this in Algorithm 1's order keeps `diag` in order.
GroupSelection finish_selection(Population& p, const WefrOptions& opt,
                                PipelineDiagnostics* diag, const obs::Context* obs) {
  GroupSelection out;
  out.label = p.label;
  out.num_samples = p.samples.size();
  out.num_positives = p.positives;

  if (!p.rankable()) {
    obs::Span span(obs, ("select:" + p.label).c_str(), p.parent_span);
    degrade_to_all_features(out, p.samples);
    if (diag != nullptr) {
      diag->selection_degraded = true;
      if (out.num_samples == 0)
        diag->note("selection:" + p.label, "empty_population", "no samples to rank");
      else
        diag->note("selection:" + p.label, "single_class",
                   out.num_positives == 0 ? "no positive samples" : "no negative samples");
    }
    return out;
  }

  if (diag != nullptr) {
    const std::size_t constant = count_constant_columns(p.samples);
    if (constant > 0) {
      diag->constant_features += constant;
      diag->note("selection:" + p.label, "constant_features",
                 std::to_string(constant) + " constant columns ranked neutrally");
    }
  }
  out.ensemble =
      finalize_ensemble(std::move(p.raw), p.samples.num_features(), opt.ensemble, diag, obs);
  p.ensemble_span.finish();
  AutoSelectOptions sel_opt = opt.auto_select;
  if (sel_opt.num_threads == 0) sel_opt.num_threads = opt.num_threads;
  out.selection = auto_select(p.samples.x, p.samples.y, out.ensemble.order, sel_opt, obs);
  p.select_span.finish();
  out.selected = out.selection.selected;
  out.selected_names.reserve(out.selected.size());
  for (std::size_t c : out.selected) out.selected_names.push_back(p.samples.feature_names[c]);
  return out;
}

/// Lines 9-15's per-group selection: the group's own when it cleared
/// `min_group_positives` and could be ranked, otherwise the whole-model
/// set. `p` is empty when no sample fell into the group.
GroupSelection finish_group(std::optional<Population>& p, const std::string& label,
                            const GroupSelection& all, const WefrOptions& opt,
                            PipelineDiagnostics* diag, const obs::Context* obs) {
  GroupSelection gs;
  if (p.has_value()) {
    if (p->positives >= opt.min_group_positives) {
      gs = finish_selection(*p, opt, diag, obs);
      // A single-class group (all positives) degrades inside
      // finish_selection; inherit the whole-model set instead of
      // keeping every feature for just one wear regime.
      if (!gs.degraded) return gs;
    }
    gs.num_samples = p->samples.size();
    gs.num_positives = p->positives;
  }
  // Too small (or too degenerate) to re-select robustly: inherit the
  // whole-model features.
  gs.label = label;
  gs.fallback = true;
  gs.selected = all.selected;
  gs.selected_names = all.selected_names;
  if (diag != nullptr)
    diag->note("group:" + label, "fallback_whole_model",
               std::to_string(gs.num_positives) + " positives of " +
                   std::to_string(gs.num_samples) + " samples");
  return gs;
}

}  // namespace

GroupSelection select_features_for(const data::Dataset& samples, const WefrOptions& opt,
                                   const std::string& label, PipelineDiagnostics* diag,
                                   const obs::Context* obs) {
  if (samples.size() == 0 && diag == nullptr)
    throw std::invalid_argument("select_features_for: empty sample set");
  Population p(label, samples, obs);
  if (p.rankable()) {
    Population* const one[] = {&p};
    rank_populations(one, opt, obs);
  }
  return finish_selection(p, opt, diag, obs);
}

WefrResult run_wefr(const data::FleetData& fleet, const data::Dataset& train,
                    int train_day_end, const WefrOptions& opt,
                    PipelineDiagnostics* diag, const obs::Context* obs) {
  obs::Span run_span(obs, "run_wefr");
  if (train.feature_names != fleet.feature_names)
    throw std::invalid_argument(
        "run_wefr: train dataset must carry the fleet's base features");
  if (train.size() == 0 && diag == nullptr)
    throw std::invalid_argument("select_features_for: empty sample set");

  // Settle every population before ranking any. Survival and change
  // point read only the fleet, so Lines 9-15's split is known before
  // Lines 1-8 rank: whether "all" can be ranked, the wear groups, and
  // each group's gate.
  WefrResult out;
  Population all("all", train, obs);
  const int mwi_col = fleet.feature_index("MWI_N");
  if (opt.update_with_wearout && all.rankable() && mwi_col >= 0) {
    {
      obs::Span survival_span(obs, "survival");
      out.survival = survival_vs_mwi(fleet, train_day_end, opt.survival_min_count,
                                     opt.survival_bucket_width);
    }
    obs::Span cpd_span(obs, "cpd");
    out.change_point = detect_wear_change_point(out.survival, opt.cpd);
  }

  std::optional<data::Dataset> low_set, high_set;
  std::optional<Population> low, high;
  std::size_t nan_mwi_samples = 0;
  if (out.change_point.has_value()) {
    const double thr = out.change_point->mwi_threshold;
    const std::size_t mwi = static_cast<std::size_t>(mwi_col);
    std::vector<std::size_t> low_idx, high_idx;
    for (std::size_t i = 0; i < train.size(); ++i) {
      const double v = train.x(i, mwi);
      if (v != v) {
        // NaN wear indicator: the sample cannot be routed to a group.
        ++nan_mwi_samples;
        continue;
      }
      (v <= thr ? low_idx : high_idx).push_back(i);
    }
    if (!low_idx.empty()) low.emplace("low", low_set.emplace(data::subset(train, low_idx)), obs);
    if (!high_idx.empty())
      high.emplace("high", high_set.emplace(data::subset(train, high_idx)), obs);
  }

  std::vector<Population*> ranked;
  if (all.rankable()) ranked.push_back(&all);
  for (std::optional<Population>* g : {&low, &high}) {
    if (g->has_value() && (*g)->positives >= opt.min_group_positives && (*g)->rankable())
      ranked.push_back(&**g);
  }
  rank_populations(ranked, opt, obs);

  // Serial tail, in Algorithm 1's order. Lines 1-8 on all samples:
  out.all = finish_selection(all, opt, diag, obs);

  if (!opt.update_with_wearout) return out;
  if (out.all.degraded) {
    // A population that could not be ranked cannot be re-ranked per
    // wear group either; skip Lines 9-15 instead of compounding the
    // degradation.
    if (diag != nullptr) {
      diag->wearout_skipped = true;
      diag->note("wearout", "skipped_degraded_selection");
    }
    return out;
  }

  // Lines 9-15: change-point detection on the survival-rate curve and
  // per-wear-group re-selection.
  if (mwi_col < 0) {
    // Model without a wear indicator: nothing to update.
    if (diag != nullptr) {
      diag->wearout_skipped = true;
      diag->note("survival", "no_mwi_feature");
    }
    return out;
  }
  if (diag != nullptr && out.survival.drives_skipped_nan > 0) {
    diag->survival_drives_skipped += out.survival.drives_skipped_nan;
    diag->note("survival", "drives_skipped_nan_mwi",
               std::to_string(out.survival.drives_skipped_nan) + " drives");
  }
  if (!out.change_point.has_value()) {
    if (diag != nullptr) {
      diag->wearout_skipped = true;
      diag->note("cpd",
                 out.survival.mwi.size() < 8 ? "curve_too_short" : "no_significant_change",
                 std::to_string(out.survival.mwi.size()) + " curve points");
    }
    return out;
  }
  if (diag != nullptr && nan_mwi_samples > 0) {
    diag->note("wearout", "samples_unroutable_nan_mwi",
               std::to_string(nan_mwi_samples) + " samples");
  }
  out.low = finish_group(low, "low", out.all, opt, diag, obs);
  out.high = finish_group(high, "high", out.all, opt, diag, obs);
  return out;
}

void fill_run_report(const WefrResult& result, obs::RunReport& report) {
  const auto add_group = [&report](const GroupSelection& gs) {
    obs::RunReport::Group g;
    g.label = gs.label;
    g.features = gs.selected_names;
    g.num_samples = gs.num_samples;
    g.num_positives = gs.num_positives;
    g.fallback = gs.fallback;
    g.degraded = gs.degraded;
    report.selection.push_back(std::move(g));
  };
  add_group(result.all);
  if (result.low.has_value()) add_group(*result.low);
  if (result.high.has_value()) add_group(*result.high);
  if (result.change_point.has_value()) {
    report.change_point_mwi = result.change_point->mwi_threshold;
    report.change_point_z = result.change_point->zscore;
  }
}

}  // namespace wefr::core
