#include "daemon/engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "obs/context.h"
#include "obs/json.h"
#include "obs/log.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace wefr::daemon {

namespace {
/// Rows per scoring job: small enough that a block's gathered rows stay
/// in cache while the forest stages them.
constexpr std::size_t kBlockRows = 256;

/// Largest pass buffer: a stale drive whose rows would push the pass
/// past it goes to the batch oracle instead (a long backlog appended
/// under a predictor would otherwise be expanded whole).
constexpr std::size_t kMaxPassDoubles = std::size_t{8} << 20;  // 64 MiB

/// Runs fn(0 .. n-1) on `pool`, or inline without one or with one job.
void run_jobs(util::ThreadPool* pool, std::size_t n,
              const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && n > 1) {
    pool->parallel_for(n, fn);
    return;
  }
  for (std::size_t k = 0; k < n; ++k) fn(k);
}
}  // namespace

Engine::Engine(EngineOptions options, data::WindowFeatureConfig windows,
               const obs::Context* obs, obs::Logger* log)
    : opt_(std::move(options)), resident_(std::move(windows)), obs_(obs), log_(log) {
  if (opt_.check_interval_days < 1)
    throw std::invalid_argument("Engine: check_interval_days < 1");
  if (opt_.warmup_days < 30) throw std::invalid_argument("Engine: warmup too short");
  if (opt_.alarm_threshold <= 0.0 || opt_.alarm_threshold > 1.0)
    throw std::invalid_argument("Engine: alarm_threshold outside (0,1]");
  if (opt_.target_recall < 0.0 || opt_.target_recall > 1.0)
    throw std::invalid_argument("Engine: target_recall outside [0,1]");
  if (opt_.validation_frac <= 0.0 || opt_.validation_frac >= 1.0)
    throw std::invalid_argument("Engine: validation_frac outside (0,1)");
  if (opt_.drift_cooldown_days < 1)
    throw std::invalid_argument("Engine: drift_cooldown_days < 1");
  next_check_day_ = opt_.warmup_days;
  threshold_ = opt_.alarm_threshold;
  drift_cpd_ = changepoint::OnlineChangePointDetector(opt_.drift_cpd);
  // The engine's experiment windows must match the resident kernels, or
  // the batch oracle would expand different features than the folds.
  opt_.experiment.windows = resident_.windows();
}

double Engine::active_mean_mwi(int day) const {
  double sum = 0.0;
  std::size_t n = 0;
  const auto col = static_cast<std::size_t>(mwi_col_);
  for (const auto& drive : fleet().drives) {
    if (drive.first_day > day || drive.last_day() < day) continue;
    const double v = drive.values(static_cast<std::size_t>(day - drive.first_day), col);
    if (std::isnan(v)) continue;
    sum += v;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : std::nan("");
}

void Engine::observe_completed_days(int up_to_day) {
  if (opt_.online_drift_check && mwi_col_ < 0) mwi_col_ = fleet().feature_index("MWI_N");
  if (!opt_.online_drift_check || mwi_col_ < 0) {
    high_water_day_ = std::max(high_water_day_, up_to_day);
    return;
  }
  // Feed the delta of the active fleet's mean MWI_N through the online
  // detector for every newly completed day from warmup_days on: before
  // the first check there is nothing for a detection to pull forward,
  // and the set-up days' deltas would only train the detector on a
  // fleet still filling up.
  for (int d = std::max(high_water_day_, opt_.warmup_days); d < up_to_day; ++d) {
    const double m = active_mean_mwi(d);
    if (std::isnan(m)) continue;
    double prob = -1.0;
    if (have_last_mwi_) prob = drift_cpd_.observe(m - last_mean_mwi_);
    last_mean_mwi_ = m;
    have_last_mwi_ = true;
    const bool cooled =
        last_drift_day_ < 0 || d - last_drift_day_ >= opt_.drift_cooldown_days;
    const bool burned_in =
        drift_cpd_.time() > changepoint::OnlineChangePointDetector::kShortRunWindow + 4;
    if (prob >= opt_.drift_probability_threshold && cooled && burned_in) {
      last_drift_day_ = d;
      drift_detections_.push_back(DriftDetection{d, prob});
      drift_pending_ = true;
      drift_probability_ = prob;
      next_check_day_ = std::min(next_check_day_, d + 1);
      if (log_ != nullptr)
        log_->infof("daemon", "drift detected at day %d (p=%.3f); check pulled forward", d,
                    prob);
      obs::add_counter(obs_, "wefr_daemon_drift_detections_total");
      high_water_day_ = d + 1;
      return;  // the pulled check runs before further observation
    }
  }
  high_water_day_ = std::max(high_water_day_, up_to_day);
}

void Engine::run_check(int day) {
  close_judgement();  // outside the span: a check's time is selection + training
  obs::Span span(obs_, "daemon:check");
  const int train_end = day - 1;
  CheckEvent ev;
  ev.day = day;
  ev.drift_triggered = drift_pending_;
  ev.change_probability = drift_probability_;
  const auto samples = core::build_selection_samples(fleet(), 0, train_end, opt_.experiment);
  if (samples.num_positive() == 0) {
    checks_.push_back(ev);  // nothing to learn from yet
    return;
  }
  const util::Stopwatch select_timer;
  core::WefrResult sel = core::run_wefr(fleet(), samples, train_end, opt_.wefr);
  if (log_ != nullptr)
    log_->debugf("daemon", "check at day %d: selection %.3f s on %zu threads", day,
                 select_timer.seconds(), opt_.wefr.num_threads);
  if (sel.change_point.has_value()) ev.wear_threshold = sel.change_point->mwi_threshold;
  ev.selected_all = sel.all.selected_names;
  if (sel.low.has_value()) ev.selected_low = sel.low->selected_names;
  if (sel.high.has_value()) ev.selected_high = sel.high->selected_names;
  ev.features_changed = !selection_.has_value() ||
                        selection_->all.selected != sel.all.selected ||
                        selection_->change_point.has_value() != sel.change_point.has_value();
  const bool need_retrain =
      opt_.retrain_every_check || ev.features_changed || !predictor_.has_value();
  selection_ = std::move(sel);
  if (need_retrain) {
    install_predictor(
        core::train_predictor(fleet(), *selection_, 0, train_end, opt_.experiment));
    ev.trained = true;
  }

  // Recalibrate the alarm threshold to the fixed-recall operating point
  // on the trailing validation slice.
  if (opt_.target_recall > 0.0 && predictor_.has_value()) {
    const int val_days =
        std::max(7, static_cast<int>(opt_.validation_frac * static_cast<double>(day)));
    const int val_start = std::max(0, train_end - val_days + 1);
    const auto scores =
        core::score_fleet(fleet(), *predictor_, val_start, train_end, opt_.experiment);
    const auto eval =
        core::evaluate_fixed_recall(fleet(), scores, val_start, train_end,
                                    opt_.experiment.horizon_days, opt_.target_recall);
    if (eval.confusion.total() > 0 && eval.threshold > 0.0) {
      threshold_ = eval.threshold;
    }
  }
  checks_.push_back(ev);
  obs::add_counter(obs_, "wefr_daemon_checks_total");
  if (log_ != nullptr)
    log_->infof("daemon", "check at day %d: %zu features%s%s", day,
                ev.selected_all.size(), ev.trained ? ", retrained" : "",
                ev.drift_triggered ? " (drift-triggered)" : "");
}

AppendResult Engine::append_day(const std::string& drive_id, int day,
                                std::span<const double> values, int fail_day) {
  if (day > high_water_day_) observe_completed_days(day);
  if (opt_.auto_check && resident_.has_schema() && day >= next_check_day_ &&
      day >= opt_.warmup_days) {
    run_check(day);
    next_check_day_ = day + opt_.check_interval_days;
    drift_pending_ = false;
    drift_probability_ = 0.0;
  }

  AppendResult res = resident_.append_day(drive_id, day, values, fail_day);
  dirty_ = true;
  if (res.new_drive) score_states_.emplace_back();
  if (res.went_nonfinite) {
    // The non-finite value retroactively rewrites this drive's feature
    // semantics (see ResidentFleet), so its existing scores are stale.
    ScoreState& ss = score_states_[res.drive_index];
    ss.full_dirty = true;
    ss.scored_until = -1;
    ss.scores.clear();
  }
  obs::add_counter(obs_, "wefr_daemon_appends_total");
  return res;
}

void Engine::set_predictor(core::WefrPredictor predictor) {
  close_judgement();
  install_predictor(std::move(predictor));
}

void Engine::close_judgement() {
  if (predictor_.has_value()) rescore();
  for (std::size_t di = 0; di < score_states_.size(); ++di)
    score_states_[di].judged_until = fleet().drives[di].last_day();
}

void Engine::install_predictor(core::WefrPredictor predictor) {
  predictor_ = std::move(predictor);
  dirty_ = true;
  for (auto& ss : score_states_) {
    ss.scored_until = -1;
    // Whole histories go through the oracle; the fold path only scores
    // days appended under this predictor.
    ss.full_dirty = true;
    ss.scores.clear();
  }
}

void Engine::judge(std::size_t di) {
  ScoreState& ss = score_states_[di];
  for (int day = std::max(ss.judged_until + 1, ss.first_day);
       !ss.alarmed && day <= ss.scored_until; ++day) {
    const double score = ss.scores[static_cast<std::size_t>(day - ss.first_day)];
    if (score < threshold_) continue;
    ss.alarmed = true;
    alarms_.push_back(Alarm{di, day, score});
  }
  ss.judged_until = std::max(ss.judged_until, ss.scored_until);
}

std::size_t Engine::dirty_count() const {
  std::size_t n = 0;
  for (std::size_t di = 0; di < score_states_.size(); ++di) {
    const auto& ss = score_states_[di];
    if (ss.full_dirty || ss.scored_until < fleet().drives[di].last_day()) ++n;
  }
  return n;
}

std::size_t Engine::score_folded(std::span<const FoldJob> incr, const double* rows,
                                 util::ThreadPool* pool) {
  const core::WefrPredictor& pred = *predictor_;
  const bool routed = pred.wear_threshold.has_value() && pred.mwi_col >= 0;
  const std::size_t factor = resident_.expansion_factor();
  const std::size_t width = resident_.row_width();

  // Route every folded row to its bundle by WefrPredictor::route,
  // score_fleet's rule. Each entry names the pass-buffer row to read and
  // the score slot to fill; to[r] holds the rows routed to r.
  struct Pending {
    const double* row;
    double* score;
  };
  std::array<std::vector<Pending>, 3> to;
  std::size_t scored = 0;
  for (const FoldJob& job : incr) {
    ScoreState& ss = score_states_[job.drive];
    const data::DriveSeries& drive = fleet().drives[job.drive];
    if (ss.scores.empty()) ss.first_day = drive.first_day;
    const auto base = static_cast<std::size_t>(job.first_day - ss.first_day);
    ss.scores.resize(base + job.days, 0.0);
    const auto local0 = static_cast<std::size_t>(job.first_day - drive.first_day);
    for (std::size_t i = 0; i < job.days; ++i) {
      auto r = core::WefrPredictor::Route::kAll;
      if (routed) r = pred.route(drive.values(local0 + i, static_cast<std::size_t>(pred.mwi_col)));
      to[static_cast<std::size_t>(r)].push_back(
          {rows + (job.first_row + i) * width, &ss.scores[base + i]});
    }
    ss.scored_until = job.first_day + static_cast<int>(job.days) - 1;
    scored += job.days;
  }

  // Cut each bundle's rows into blocks and score every block of every
  // bundle as one job list. A job gathers its rows into the bundle's
  // expanded layout and scores them in one forest call; small blocks
  // keep the gathered rows in cache while the forest stages them.
  // Expansion is per-column independent, so a subset expansion is a
  // column gather of the full one (bit-identical to what the batch
  // oracle's expand_for(bundle) produces for the same days), and the
  // flattened engine scores a row the same bits in any batch, on any
  // thread.
  struct Block {
    const core::PredictorBundle* bundle;
    std::span<const Pending> rows;
  };
  std::vector<Block> blocks;
  const auto cut = [&](const core::PredictorBundle& b, std::span<const Pending> pending) {
    for (std::size_t lo = 0; lo < pending.size(); lo += kBlockRows)
      blocks.push_back(Block{&b, pending.subspan(lo, std::min(kBlockRows, pending.size() - lo))});
  };
  cut(pred.all, to[0]);
  if (pred.low.has_value()) cut(*pred.low, to[1]);
  if (pred.high.has_value()) cut(*pred.high, to[2]);
  const auto score_block = [&](std::size_t k) {
    const Block& blk = blocks[k];
    const auto& cols = blk.bundle->base_cols;
    data::Matrix g = data::Matrix::uninitialized(blk.rows.size(), cols.size() * factor);
    for (std::size_t i = 0; i < blk.rows.size(); ++i) {
      double* dst = g.row(i).data();
      for (std::size_t bi = 0; bi < cols.size(); ++bi)
        std::memcpy(dst + bi * factor, blk.rows[i].row + cols[bi] * factor,
                    factor * sizeof(double));
    }
    const std::vector<double> p = blk.bundle->forest.predict_proba(g);
    for (std::size_t i = 0; i < blk.rows.size(); ++i) *blk.rows[i].score = p[i];
  };
  run_jobs(pool, blocks.size(), score_block);
  return scored;
}

RescoreStats Engine::rescore() {
  RescoreStats stats;
  const bool scoring = predictor_.has_value();
  if (!dirty_ && !(scoring && opt_.oracle_check)) {
    // Nothing appended, installed or restored since the last pass: the
    // dirty set is empty, so a read pays no walk over the drives.
    if (scoring) obs::add_counter(obs_, "wefr_daemon_rescores_total");
    last_rescore_ = stats;
    return stats;
  }
  obs::Span span(obs_, "daemon:rescore");

  // Plan the pass on this thread. A stale streaming drive whose first
  // unscored day is its first unfolded day is scored from the rows its
  // fold emits into the pass buffer, as long as they fit under
  // kMaxPassDoubles. Every other stale drive goes to the batch oracle,
  // and its pending days fold into its window state only. Without a
  // predictor nothing is stale: every pending day folds state-only, so
  // no backlog ever becomes expanded rows.
  const std::size_t width = resident_.row_width();
  std::vector<FoldJob> folds, incr;
  std::vector<std::size_t> full;
  std::size_t pass_rows = 0;
  bool capped = false;  // a drive went to the oracle for kMaxPassDoubles
  for (std::size_t di = 0; di < score_states_.size(); ++di) {
    const ScoreState& ss = score_states_[di];
    const data::DriveSeries& drive = fleet().drives[di];
    const std::size_t pending = resident_.unfolded_days(di);
    const bool stale = scoring && (ss.full_dirty || ss.scored_until < drive.last_day());
    if (!stale && pending == 0) continue;
    FoldJob job{di, pending, kStateOnly, resident_.first_unfolded_day(di)};
    const int next_day = ss.scored_until < 0 ? drive.first_day : ss.scored_until + 1;
    const bool streams = stale && !ss.full_dirty && pending > 0 && job.first_day == next_day;
    if (streams && (pass_rows + pending) * width <= kMaxPassDoubles) {
      job.first_row = pass_rows;
      pass_rows += pending;
      incr.push_back(job);
    } else if (stale) {
      capped = capped || streams;
      full.push_back(di);
    }
    if (pending > 0) folds.push_back(job);
  }

  // The pass buffer is sized here, so pool threads never allocate for
  // it. It is reused from pass to pass, and released when a pass needs
  // under a quarter of it: a fresh multi-MB block per pass grows the
  // heap (bench_e2e's daemon_recheck read ~17 MiB more peak RSS with
  // one). A pass that hit the cap releases its buffer at its own end
  // instead, so the small pass after a backlog does not pay to unmap
  // it. One pool per pass runs the folds, then the scoring blocks.
  const std::size_t need = pass_rows * width;
  if (need > pass_capacity_ || need < pass_capacity_ / 4) {
    pass_buffer_.reset();
    pass_buffer_ = std::make_unique_for_overwrite<double[]>(need);
    pass_capacity_ = need;
  }
  double* const rows = pass_buffer_.get();
  const std::size_t threads = std::min(opt_.experiment.num_threads,
                                       std::max(folds.size(), pass_rows / kBlockRows + 1));
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  util::ThreadPool* const workers = pool.has_value() ? &*pool : nullptr;
  run_jobs(workers, folds.size(), [&](std::size_t k) {
    const FoldJob& job = folds[k];
    resident_.fold(job.drive, job.first_row == kStateOnly
                                  ? std::span<double>()
                                  : std::span<double>(rows + job.first_row * width,
                                                      job.days * width));
  });
  if (!scoring) {
    dirty_ = false;
    last_rescore_ = stats;
    return stats;
  }

  if (!full.empty()) {
    // The batch oracle itself, on the drive subset — bit-identical by
    // construction (score_fleet's subset overload is its own whole-
    // fleet decomposition).
    const auto res = core::score_fleet(fleet(), *predictor_, full, 0, resident_.max_day(),
                                       opt_.experiment);
    for (const auto& ds : res) {
      ScoreState& ss = score_states_[ds.drive_index];
      ss.first_day = ds.first_day;
      ss.scores = ds.scores;
      ss.scored_until = ds.first_day + static_cast<int>(ds.scores.size()) - 1;
      ss.full_dirty = false;
      stats.rows_scored += ds.scores.size();
    }
  }

  if (!incr.empty()) stats.rows_scored += score_folded(incr, rows, workers);
  if (capped) {
    pass_buffer_.reset();
    pass_capacity_ = 0;
  }

  // Judge on this thread, after scoring: alarms are shared state.
  const auto first_new = static_cast<std::ptrdiff_t>(alarms_.size());
  for (std::size_t di : full) judge(di);
  for (const FoldJob& job : incr) judge(job.drive);
  std::sort(alarms_.begin() + first_new, alarms_.end(), [](const Alarm& a, const Alarm& b) {
    return a.day != b.day ? a.day < b.day : a.drive_index < b.drive_index;
  });

  stats.drives_full = full.size();
  stats.drives_incremental = incr.size();
  stats.drives_rescored = full.size() + incr.size();
  dirty_ = false;

  if (opt_.oracle_check) {
    stats.oracle_checked = true;
    const auto oracle =
        core::score_fleet(fleet(), *predictor_, 0, resident_.max_day(), opt_.experiment);
    const auto mine = scores();
    stats.oracle_match = oracle.size() == mine.size();
    for (std::size_t i = 0; stats.oracle_match && i < oracle.size(); ++i) {
      stats.oracle_match = oracle[i].drive_index == mine[i].drive_index &&
                           oracle[i].first_day == mine[i].first_day &&
                           oracle[i].scores.size() == mine[i].scores.size();
      for (std::size_t d = 0; stats.oracle_match && d < oracle[i].scores.size(); ++d) {
        // Bitwise, not ==: a 0.0 vs -0.0 or NaN divergence must fail.
        stats.oracle_match =
            std::memcmp(&oracle[i].scores[d], &mine[i].scores[d], sizeof(double)) == 0;
      }
    }
    if (!stats.oracle_match && log_ != nullptr)
      log_->infof("daemon", "ORACLE MISMATCH after rescore at day %d", resident_.max_day());
  }

  obs::add_counter(obs_, "wefr_daemon_rescores_total");
  obs::add_counter(obs_, "wefr_daemon_drives_incremental_total", stats.drives_incremental);
  obs::add_counter(obs_, "wefr_daemon_drives_full_total", stats.drives_full);
  obs::add_counter(obs_, "wefr_daemon_rows_scored_total", stats.rows_scored);
  last_rescore_ = stats;
  return stats;
}

std::vector<core::DriveDayScores> Engine::scores() const {
  std::vector<core::DriveDayScores> out;
  out.reserve(score_states_.size());
  for (std::size_t di = 0; di < score_states_.size(); ++di) {
    const auto& ss = score_states_[di];
    if (ss.scores.empty()) continue;
    core::DriveDayScores ds;
    ds.drive_index = di;
    ds.first_day = ss.first_day;
    ds.scores = ss.scores;
    out.push_back(std::move(ds));
  }
  return out;
}

bool Engine::latest_score(const std::string& drive_id, int& day, double& score) const {
  const std::size_t di = resident_.find_drive(drive_id);
  if (di == ResidentFleet::npos || score_states_[di].scores.empty()) return false;
  const auto& ss = score_states_[di];
  day = ss.first_day + static_cast<int>(ss.scores.size()) - 1;
  score = ss.scores.back();
  return true;
}

bool Engine::load_snapshot(std::string_view payload, std::string* why) {
  if (!resident_.load_snapshot(payload, why)) return false;
  score_states_.assign(resident_.num_drives(), ScoreState{});
  dirty_ = true;
  // Restored days were judged (or not) by the previous process. Their
  // first pass scores them through the batch oracle and folds them
  // into the window state only.
  for (std::size_t di = 0; di < score_states_.size(); ++di) {
    score_states_[di].judged_until = fleet().drives[di].last_day();
    score_states_[di].full_dirty = true;
  }
  // The last day in the snapshot may have been mid-ingest when the
  // previous process stopped; treat only earlier days as complete. The
  // drift detector restarts cold (its stream state is not persisted) at
  // max(warmup_days, this watermark).
  high_water_day_ = std::max(0, resident_.max_day());
  next_check_day_ = std::max(opt_.warmup_days, resident_.max_day() + 1);
  return true;
}

std::string Engine::report_json() const {
  std::ostringstream os;
  obs::json::Writer w(os, 0);
  w.begin_object();
  w.field("model", fleet().model_name);
  w.field("drives", static_cast<std::uint64_t>(resident_.num_drives()));
  w.field("max_day", resident_.max_day());
  w.field("dirty_drives", static_cast<std::uint64_t>(dirty_count()));
  w.field("has_predictor", predictor_.has_value());
  w.field("next_check_day", next_check_day_);
  w.field("checks", static_cast<std::uint64_t>(checks_.size()));
  w.field("drift_detections", static_cast<std::uint64_t>(drift_detections_.size()));
  w.key("last_rescore").begin_object();
  w.field("drives_rescored", static_cast<std::uint64_t>(last_rescore_.drives_rescored));
  w.field("drives_incremental",
          static_cast<std::uint64_t>(last_rescore_.drives_incremental));
  w.field("drives_full", static_cast<std::uint64_t>(last_rescore_.drives_full));
  w.field("rows_scored", static_cast<std::uint64_t>(last_rescore_.rows_scored));
  if (last_rescore_.oracle_checked) w.field("oracle_match", last_rescore_.oracle_match);
  w.end_object();
  w.end_object();
  return os.str();
}

void replay(Engine& engine, const data::FleetData& fleet, int end_day) {
  engine.resident().set_schema(fleet.model_name, fleet.feature_names);
  const int from = engine.resident().max_day() + 1;
  if (end_day < from) throw std::invalid_argument("daemon::replay: rewind");
  end_day = std::min(end_day, fleet.num_days);
  for (int day = from; day < end_day; ++day) {
    for (const auto& d : fleet.drives) {
      if (day < d.first_day || day > d.last_day()) continue;
      engine.append_day(d.drive_id, day,
                        d.values.row(static_cast<std::size_t>(day - d.first_day)),
                        d.fail_day);
    }
    // Weekly rescores keep each pass to a week of rows, as a live
    // feed's daily reads would.
    if ((day + 1) % 7 == 0) engine.rescore();
  }
  engine.rescore();
}

}  // namespace wefr::daemon
