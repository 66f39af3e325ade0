#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "core/pipeline.h"
#include "data/labeling.h"
#include "smartsim/generator.h"

namespace wefr::core {
namespace {

ExperimentConfig light_cfg() {
  ExperimentConfig cfg;
  cfg.forest.num_trees = 15;
  cfg.forest.tree.max_depth = 9;
  cfg.forest.tree.min_samples_leaf = 4;
  cfg.negative_keep_prob = 0.08;
  return cfg;
}

const data::FleetData& shared_fleet() {
  static const data::FleetData fleet = [] {
    smartsim::SimOptions opt;
    opt.num_drives = 700;
    opt.num_days = 220;
    opt.seed = 51;
    opt.afr_scale = 30.0;
    return generate_fleet(smartsim::profile_by_name("MC1"), opt);
  }();
  return fleet;
}

TEST(Pipeline, SelectionSamplesHaveBaseFeatures) {
  const auto& fleet = shared_fleet();
  const auto ds = build_selection_samples(fleet, 0, 150, light_cfg());
  EXPECT_EQ(ds.feature_names, fleet.feature_names);
  EXPECT_GT(ds.size(), 100u);
  EXPECT_GT(ds.num_positive(), 10u);
  for (std::size_t i = 0; i < ds.size(); ++i) EXPECT_LE(ds.day[i], 150);
}

TEST(Pipeline, TrainBundleAndScore) {
  const auto& fleet = shared_fleet();
  const auto cfg = light_cfg();
  const std::vector<std::size_t> cols = {0, 1, 2, 3};
  const auto bundle = train_bundle(fleet, cols, 0, 150, cfg);
  EXPECT_TRUE(bundle.forest.trained());
  EXPECT_EQ(bundle.base_cols, cols);

  WefrPredictor pred;
  pred.all = bundle;
  const auto scores = score_fleet(fleet, pred, 160, 219, cfg);
  EXPECT_GT(scores.size(), 0u);
  for (const auto& ds : scores) {
    EXPECT_GE(ds.first_day, 160);
    for (double s : ds.scores) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(Pipeline, TrainBundleRejectsEmptyFeatures) {
  const auto& fleet = shared_fleet();
  const std::vector<std::size_t> none;
  EXPECT_THROW(train_bundle(fleet, none, 0, 100, light_cfg()), std::invalid_argument);
}

TEST(Pipeline, ScoreFleetSkipsFailedDrives) {
  const auto& fleet = shared_fleet();
  const auto cfg = light_cfg();
  const std::vector<std::size_t> cols = {0, 1};
  const auto pred = train_predictor(fleet, cols, 0, 150, cfg);
  const auto scores = score_fleet(fleet, pred, 200, 219, cfg);
  for (const auto& ds : scores) {
    const auto& drive = fleet.drives[ds.drive_index];
    // Drives failing before day 200 have no observations there.
    if (drive.failed()) EXPECT_GT(drive.fail_day, 200);
  }
}

TEST(Pipeline, EvaluateDetectsPlantedFailures) {
  const auto& fleet = shared_fleet();
  const auto cfg = light_cfg();
  // Use the planted signature features (raw channels).
  std::vector<std::size_t> cols;
  for (const auto* name : {"OCE_R", "UCE_R", "CMDT_R", "MWI_N", "POH_R"}) {
    const int c = fleet.feature_index(name);
    ASSERT_GE(c, 0) << name;
    cols.push_back(static_cast<std::size_t>(c));
  }
  const auto pred = train_predictor(fleet, cols, 0, 159, cfg);
  const auto scores = score_fleet(fleet, pred, 160, 219, cfg);
  const auto eval =
      evaluate_fixed_recall(fleet, scores, 160, 219, cfg.horizon_days, 0.3);
  // The signature is planted, so a real signal must be found.
  EXPECT_GE(eval.recall, 0.3);
  EXPECT_GT(eval.precision, 0.3);
  EXPECT_GT(eval.f05, 0.3);
}

TEST(Pipeline, FixedRecallIsRespectedWhenReachable) {
  const auto& fleet = shared_fleet();
  const auto cfg = light_cfg();
  const auto cols = data::all_feature_columns(fleet);
  const auto pred = train_predictor(fleet, cols, 0, 159, cfg);
  const auto scores = score_fleet(fleet, pred, 160, 219, cfg);
  for (double target : {0.1, 0.2, 0.3}) {
    const auto eval =
        evaluate_fixed_recall(fleet, scores, 160, 219, cfg.horizon_days, target);
    EXPECT_GE(eval.recall, target) << "target " << target;
  }
}

TEST(Pipeline, HigherTargetRecallLowersPrecision) {
  const auto& fleet = shared_fleet();
  const auto cfg = light_cfg();
  const auto cols = data::all_feature_columns(fleet);
  const auto pred = train_predictor(fleet, cols, 0, 159, cfg);
  const auto scores = score_fleet(fleet, pred, 160, 219, cfg);
  const auto lo = evaluate_fixed_recall(fleet, scores, 160, 219, cfg.horizon_days, 0.1);
  const auto hi = evaluate_fixed_recall(fleet, scores, 160, 219, cfg.horizon_days, 0.6);
  EXPECT_GE(lo.precision, hi.precision);
}

TEST(Pipeline, DriveMaskRestrictsEvaluation) {
  const auto& fleet = shared_fleet();
  const auto cfg = light_cfg();
  const std::vector<std::size_t> cols = {0, 1, 2};
  const auto pred = train_predictor(fleet, cols, 0, 159, cfg);
  const auto scores = score_fleet(fleet, pred, 160, 219, cfg);
  std::vector<bool> none(fleet.drives.size(), false);
  const auto eval =
      evaluate_fixed_recall(fleet, scores, 160, 219, cfg.horizon_days, 0.3, &none);
  EXPECT_EQ(eval.confusion.total(), 0u);
}

TEST(Pipeline, EmptyScoresGiveEmptyEval) {
  const auto& fleet = shared_fleet();
  const std::vector<DriveDayScores> none;
  const auto eval = evaluate_fixed_recall(fleet, none, 0, 10, 30, 0.3);
  EXPECT_EQ(eval.confusion.total(), 0u);
  EXPECT_DOUBLE_EQ(eval.f05, 0.0);
}

TEST(Pipeline, WearRoutedPredictorScoresEveryday) {
  const auto& fleet = shared_fleet();
  const auto cfg = light_cfg();
  const auto selection = build_selection_samples(fleet, 0, 159, cfg);
  WefrOptions wopt;
  const auto sel = run_wefr(fleet, selection, 159, wopt);
  const auto pred = train_predictor(fleet, sel, 0, 159, cfg);
  const auto scores = score_fleet(fleet, pred, 160, 219, cfg);
  EXPECT_GT(scores.size(), 0u);
  std::size_t total_days = 0;
  for (const auto& ds : scores) total_days += ds.scores.size();
  // Every observed drive-day in the window must be scored.
  std::size_t expected = 0;
  for (const auto& drive : fleet.drives) {
    const int lo = std::max(160, drive.first_day);
    const int hi = std::min(219, drive.last_day());
    if (lo <= hi) expected += static_cast<std::size_t>(hi - lo + 1);
  }
  EXPECT_EQ(total_days, expected);
}

TEST(Pipeline, ScoreFleetRejectsBadWindow) {
  const auto& fleet = shared_fleet();
  WefrPredictor pred;
  EXPECT_THROW(score_fleet(fleet, pred, 10, 5, light_cfg()), std::invalid_argument);
}

TEST(Pipeline, ParallelScoreFleetMatchesSerial) {
  const auto& fleet = shared_fleet();
  auto cfg = light_cfg();
  const std::vector<std::size_t> cols = {0, 1, 2, 3};
  const auto pred = train_predictor(fleet, cols, 0, 159, cfg);

  cfg.num_threads = 1;
  const auto serial = score_fleet(fleet, pred, 160, 219, cfg);
  cfg.num_threads = 4;
  const auto parallel = score_fleet(fleet, pred, 160, 219, cfg);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].drive_index, parallel[i].drive_index);
    EXPECT_EQ(serial[i].first_day, parallel[i].first_day);
    ASSERT_EQ(serial[i].scores.size(), parallel[i].scores.size());
    for (std::size_t d = 0; d < serial[i].scores.size(); ++d)
      EXPECT_DOUBLE_EQ(serial[i].scores[d], parallel[i].scores[d]);
  }
}

TEST(Pipeline, ThreadedTrainingMatchesSerial) {
  // ExperimentConfig::num_threads flows into the forest fit when
  // forest.num_threads is 0; per-tree pre-forked streams keep the
  // model identical either way.
  const auto& fleet = shared_fleet();
  auto serial_cfg = light_cfg();
  serial_cfg.num_threads = 1;
  auto par_cfg = light_cfg();
  par_cfg.num_threads = 4;
  const std::vector<std::size_t> cols = {0, 1, 2, 3, 4};
  const auto ps = train_predictor(fleet, cols, 0, 159, serial_cfg);
  const auto pp = train_predictor(fleet, cols, 0, 159, par_cfg);
  const auto ss = score_fleet(fleet, ps, 200, 219, serial_cfg);
  const auto sp = score_fleet(fleet, pp, 200, 219, par_cfg);
  ASSERT_EQ(ss.size(), sp.size());
  for (std::size_t i = 0; i < ss.size(); ++i) {
    ASSERT_EQ(ss[i].scores.size(), sp[i].scores.size());
    for (std::size_t d = 0; d < ss[i].scores.size(); ++d)
      EXPECT_DOUBLE_EQ(ss[i].scores[d], sp[i].scores[d]);
  }
}

std::string saved(const ml::RandomForest& forest) {
  std::ostringstream os;
  forest.save(os);
  return os.str();
}

/// A wear group's forest as train_predictor samples it, fitted on its
/// own by RandomForest::fit.
std::string group_forest_alone(const data::FleetData& fleet, const GroupSelection& gs,
                               double thr, bool want_low, const ExperimentConfig& cfg) {
  util::Rng rng(cfg.seed ^ (want_low ? 0xa5a5ULL : 0x5a5aULL));
  data::SamplingOptions opt;
  opt.horizon_days = cfg.horizon_days;
  opt.day_lo = 0;
  opt.day_hi = 159;
  opt.negative_keep_prob = cfg.negative_keep_prob;
  opt.expand_windows = cfg.expand_windows;
  opt.window_config = cfg.windows;
  opt.num_threads = cfg.num_threads;
  const auto mwi = static_cast<std::size_t>(fleet.feature_index("MWI_N"));
  opt.keep = [&](std::size_t di, int day) {
    const auto& drive = fleet.drives[di];
    const double v = drive.values(static_cast<std::size_t>(day - drive.first_day), mwi);
    return !std::isnan(v) && (v <= thr) == want_low;
  };
  const data::Dataset train = data::build_samples(fleet, gs.selected, opt, &rng);
  ml::ForestOptions fopt = cfg.forest;
  fopt.num_threads = cfg.num_threads;
  ml::RandomForest forest;
  forest.fit(train.x, train.y, fopt, rng);
  return saved(forest);
}

TEST(Pipeline, PredictorJobListMatchesBundleAtATimeFits) {
  const auto& fleet = shared_fleet();
  auto cfg = light_cfg();
  cfg.num_threads = 4;
  const int mwi = fleet.feature_index("MWI_N");
  ASSERT_GE(mwi, 0);
  std::vector<double> wear;  // MWI_N over the training days, to place thresholds
  for (const auto& drive : fleet.drives)
    for (std::size_t d = 0; d < drive.num_days() && drive.first_day + static_cast<int>(d) <= 159;
         ++d)
      if (!std::isnan(drive.values(d, static_cast<std::size_t>(mwi))))
        wear.push_back(drive.values(d, static_cast<std::size_t>(mwi)));
  std::sort(wear.begin(), wear.end());
  const double median = wear[wear.size() / 2];

  WefrResult sel;
  sel.all.selected = {0, 1, 2, 3};
  sel.low.emplace().selected = {1, 2, 4};
  sel.high.emplace().selected = {0, 3, 5};
  sel.change_point = WearChangePoint{median, 0.0, 0.0};
  const auto both = train_predictor(fleet, sel, 0, 159, cfg);
  ASSERT_TRUE(both.low.has_value() && both.high.has_value());
  EXPECT_EQ(saved(both.all.forest),
            saved(train_bundle(fleet, sel.all.selected, 0, 159, cfg).forest));
  EXPECT_EQ(saved(both.low->forest), group_forest_alone(fleet, *sel.low, median, true, cfg));
  EXPECT_EQ(saved(both.high->forest), group_forest_alone(fleet, *sel.high, median, false, cfg));

  // A low group starved of rows, and a high group whose sampling throws
  // (a selected column the fleet does not have): both fall back, and the
  // whole-model forest is unchanged.
  GroupSelection bad_high = *sel.high;
  sel.high->selected = {fleet.num_features() + 5};
  sel.change_point->mwi_threshold = wear[wear.size() / 200];
  const auto starved = train_predictor(fleet, sel, 0, 159, cfg);
  EXPECT_FALSE(starved.low.has_value());
  EXPECT_FALSE(starved.high.has_value());
  EXPECT_FALSE(starved.wear_threshold.has_value());
  EXPECT_EQ(saved(starved.all.forest), saved(both.all.forest));

  // A group whose selection fell back trains no bundle of its own.
  sel.high = bad_high;
  sel.high->fallback = true;
  sel.change_point->mwi_threshold = median;
  const auto one = train_predictor(fleet, sel, 0, 159, cfg);
  ASSERT_TRUE(one.low.has_value());
  EXPECT_FALSE(one.high.has_value());
  EXPECT_EQ(one.wear_threshold, median);
  EXPECT_EQ(saved(one.low->forest), saved(both.low->forest));
  EXPECT_EQ(saved(one.all.forest), saved(both.all.forest));
}

TEST(Pipeline, RouteIsTheOneBundleRule) {
  WefrPredictor pred;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using Route = WefrPredictor::Route;
  EXPECT_EQ(pred.route(10.0), Route::kAll);  // no threshold: unrouted
  pred.wear_threshold = 50.0;
  EXPECT_EQ(pred.route(10.0), Route::kAll);  // no group bundle trained
  pred.low.emplace();
  EXPECT_EQ(pred.route(50.0), Route::kLow);
  EXPECT_EQ(pred.route(60.0), Route::kAll);
  pred.high.emplace();
  EXPECT_EQ(pred.route(60.0), Route::kHigh);
  EXPECT_EQ(pred.route(nan), Route::kAll);
  pred.low.reset();
  EXPECT_EQ(pred.route(10.0), Route::kAll);
}

}  // namespace
}  // namespace wefr::core
