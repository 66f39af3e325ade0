#include "core/wefr.h"

#include <stdexcept>

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

}  // namespace

GroupSelection select_features_for(const data::Dataset& samples, const WefrOptions& opt,
                                   const std::string& label, PipelineDiagnostics* diag,
                                   const obs::Context* obs) {
  obs::Span span(obs, ("select:" + label).c_str());
  if (samples.size() == 0 && diag == nullptr)
    throw std::invalid_argument("select_features_for: empty sample set");

  GroupSelection out;
  out.label = label;
  out.num_samples = samples.size();
  out.num_positives = samples.num_positive();

  if (samples.size() == 0) {
    degrade_to_all_features(out, samples);
    diag->selection_degraded = true;
    diag->note("selection:" + label, "empty_population", "no samples to rank");
    return out;
  }
  if (out.num_positives == 0 || out.num_positives == out.num_samples) {
    // Single-class labels: every ranker and complexity measure is blind
    // here; ranking would be arbitrary. Keep every feature instead.
    degrade_to_all_features(out, samples);
    if (diag != nullptr) {
      diag->selection_degraded = true;
      diag->note("selection:" + label, "single_class",
                 out.num_positives == 0 ? "no positive samples" : "no negative samples");
    }
    return out;
  }

  if (diag != nullptr) {
    const std::size_t constant = count_constant_columns(samples);
    if (constant > 0) {
      diag->constant_features += constant;
      diag->note("selection:" + label, "constant_features",
                 std::to_string(constant) + " constant columns ranked neutrally");
    }
  }

  // The experiment-level thread knob flows into every stage that is
  // left at its sequential default (ranker internals, ranker-level
  // fan-out, complexity scan); per-wear-group re-selection re-enters
  // here, so Lines 9-15 parallelize the same way.
  EnsembleOptions ens_opt = opt.ensemble;
  if (ens_opt.num_threads == 0) ens_opt.num_threads = opt.num_threads;
  AutoSelectOptions sel_opt = opt.auto_select;
  if (sel_opt.num_threads == 0) sel_opt.num_threads = opt.num_threads;
  const auto rankers = make_standard_rankers(opt.ranker_seed, opt.num_threads);
  out.ensemble = ensemble_rank(rankers, samples.x, samples.y, ens_opt, diag, obs);
  out.selection = auto_select(samples.x, samples.y, out.ensemble.order, sel_opt, obs);
  out.selected = out.selection.selected;
  out.selected_names.reserve(out.selected.size());
  for (std::size_t c : out.selected) out.selected_names.push_back(samples.feature_names[c]);
  return out;
}

WefrResult run_wefr(const data::FleetData& fleet, const data::Dataset& train,
                    int train_day_end, const WefrOptions& opt,
                    PipelineDiagnostics* diag, const obs::Context* obs) {
  obs::Span run_span(obs, "run_wefr");
  if (train.feature_names != fleet.feature_names)
    throw std::invalid_argument(
        "run_wefr: train dataset must carry the fleet's base features");

  WefrResult out;
  // Lines 1-8: ensemble ranking + automated selection on all samples.
  out.all = select_features_for(train, opt, "all", diag, obs);

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
  const int mwi_col = fleet.feature_index("MWI_N");
  if (mwi_col < 0) {
    // Model without a wear indicator: nothing to update.
    if (diag != nullptr) {
      diag->wearout_skipped = true;
      diag->note("survival", "no_mwi_feature");
    }
    return out;
  }

  {
    obs::Span survival_span(obs, "survival");
    out.survival = survival_vs_mwi(fleet, train_day_end, opt.survival_min_count,
                                   opt.survival_bucket_width);
  }
  if (diag != nullptr && out.survival.drives_skipped_nan > 0) {
    diag->survival_drives_skipped += out.survival.drives_skipped_nan;
    diag->note("survival", "drives_skipped_nan_mwi",
               std::to_string(out.survival.drives_skipped_nan) + " drives");
  }
  {
    obs::Span cpd_span(obs, "cpd");
    out.change_point = detect_wear_change_point(out.survival, opt.cpd);
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

  const double thr = out.change_point->mwi_threshold;
  const std::size_t mwi = static_cast<std::size_t>(mwi_col);
  std::vector<std::size_t> low_idx, high_idx;
  std::size_t nan_mwi_samples = 0;
  for (std::size_t i = 0; i < train.size(); ++i) {
    const double v = train.x(i, mwi);
    if (v != v) {
      // NaN wear indicator: the sample cannot be routed to a group.
      ++nan_mwi_samples;
      continue;
    }
    (v <= thr ? low_idx : high_idx).push_back(i);
  }
  if (diag != nullptr && nan_mwi_samples > 0) {
    diag->note("wearout", "samples_unroutable_nan_mwi",
               std::to_string(nan_mwi_samples) + " samples");
  }

  auto select_group = [&](const std::vector<std::size_t>& idx,
                          const std::string& label) -> GroupSelection {
    GroupSelection gs;
    if (!idx.empty()) {
      const data::Dataset group = data::subset(train, idx);
      if (group.num_positive() >= opt.min_group_positives) {
        gs = select_features_for(group, opt, label, diag, obs);
        // A single-class group (all positives) degrades inside
        // select_features_for; inherit the whole-model set instead of
        // keeping every feature for just one wear regime.
        if (!gs.degraded) return gs;
      }
      gs.num_samples = group.size();
      gs.num_positives = group.num_positive();
    }
    // Too small (or too degenerate) to re-select robustly: inherit the
    // whole-model features.
    gs.label = label;
    gs.fallback = true;
    gs.selected = out.all.selected;
    gs.selected_names = out.all.selected_names;
    if (diag != nullptr)
      diag->note("group:" + label, "fallback_whole_model",
                 std::to_string(gs.num_positives) + " positives of " +
                     std::to_string(gs.num_samples) + " samples");
    return gs;
  };

  out.low = select_group(low_idx, "low");
  out.high = select_group(high_idx, "high");
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
