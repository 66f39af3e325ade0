// Schema-reconciliation suite: canonical feature naming, union /
// intersect alignment of heterogeneous per-model fleets (with a full
// SchemaReconciliation ledger), the mixed-CSV pooled loader under
// every parse policy, the pad_missing_columns ingestion knob a
// union-schema CSV relies on, and the score_fleet diagnostic for drives
// whose model lacks a selected feature column.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/wefr.h"
#include "data/csv.h"
#include "data/ingest.h"
#include "data/schema.h"
#include "smartsim/generator.h"
#include "smartsim/profiles.h"

namespace wefr::data {
namespace {

/// Hand-built fleet: every drive observes `days` rows of
/// base + feature_index, so remapped cells are recognizable.
FleetData make_fleet(const std::string& model, std::vector<std::string> features,
                     std::size_t drives, int days, double base) {
  FleetData f;
  f.model_name = model;
  f.feature_names = std::move(features);
  f.num_days = days;
  for (std::size_t i = 0; i < drives; ++i) {
    DriveSeries d;
    d.drive_id = model + "_" + std::to_string(i);
    d.values = Matrix(static_cast<std::size_t>(days), f.feature_names.size());
    for (std::size_t r = 0; r < d.values.rows(); ++r)
      for (std::size_t c = 0; c < d.values.cols(); ++c)
        d.values(r, c) = base + static_cast<double>(c);
    f.drives.push_back(std::move(d));
  }
  return f;
}

TEST(CanonicalName, FoldsKnownAliases) {
  EXPECT_EQ(canonical_feature_name("MWI_NORM"), "MWI_N");
  EXPECT_EQ(canonical_feature_name("mwi_norm"), "MWI_N");
  EXPECT_EQ(canonical_feature_name("WEAROUT_R"), "MWI_R");
  EXPECT_EQ(canonical_feature_name("POWER_ON_HOURS_R"), "POH_R");
  EXPECT_EQ(canonical_feature_name("REALLOC_SECTORS_N"), "RSC_N");
}

TEST(CanonicalName, TrimsAndUppercasesCanonicalShapes) {
  EXPECT_EQ(canonical_feature_name("  MWI_N "), "MWI_N");
  EXPECT_EQ(canonical_feature_name("mwi_n"), "MWI_N");
}

TEST(CanonicalName, UnknownNamesPassThrough) {
  EXPECT_EQ(canonical_feature_name("VENDOR_BLOB"), "VENDOR_BLOB");
  EXPECT_EQ(canonical_feature_name(""), "");
}

TEST(Reconcile, UnionNanFillsMissingColumns) {
  const FleetData a = make_fleet("A", {"X", "Y"}, 2, 3, 10.0);
  const FleetData b = make_fleet("B", {"Y", "Z"}, 1, 3, 20.0);

  SchemaReconciliation recon;
  std::vector<std::string> drive_model;
  const FleetData pooled =
      reconcile_fleets({a, b}, SchemaPolicy::kUnion, &recon, &drive_model);

  ASSERT_EQ(pooled.feature_names, (std::vector<std::string>{"X", "Y", "Z"}));
  ASSERT_EQ(pooled.drives.size(), 3u);
  EXPECT_EQ(pooled.model_name, "mixed(A+B)");
  EXPECT_EQ(pooled.num_days, 3);
  EXPECT_EQ(drive_model, (std::vector<std::string>{"A", "A", "B"}));

  // A-drives carry values in X/Y and NaN in Z; B-drives the mirror.
  EXPECT_DOUBLE_EQ(pooled.drives[0].values(0, 0), 10.0);  // A: X
  EXPECT_DOUBLE_EQ(pooled.drives[0].values(0, 1), 11.0);  // A: Y
  EXPECT_TRUE(std::isnan(pooled.drives[0].values(0, 2)));  // A lacks Z
  EXPECT_TRUE(std::isnan(pooled.drives[2].values(0, 0)));  // B lacks X
  EXPECT_DOUBLE_EQ(pooled.drives[2].values(0, 1), 20.0);  // B: Y
  EXPECT_DOUBLE_EQ(pooled.drives[2].values(0, 2), 21.0);  // B: Z

  EXPECT_EQ(recon.policy, SchemaPolicy::kUnion);
  EXPECT_EQ(recon.sources, 2u);
  EXPECT_EQ(recon.columns, pooled.feature_names);
  EXPECT_TRUE(recon.dropped.empty());
  ASSERT_EQ(recon.nan_filled.size(), 2u);
  EXPECT_EQ(recon.nan_filled[0], "A:Z");
  EXPECT_EQ(recon.nan_filled[1], "B:X");
  // 2 A-drives x 3 days x 1 column + 1 B-drive x 3 days x 1 column.
  EXPECT_EQ(recon.cells_nan_filled, 9u);
  EXPECT_FALSE(recon.trivial());
  EXPECT_NE(recon.summary().find("2 sources"), std::string::npos);
}

TEST(Reconcile, IntersectDropsUnsharedColumns) {
  const FleetData a = make_fleet("A", {"X", "Y"}, 1, 2, 10.0);
  const FleetData b = make_fleet("B", {"Y", "Z"}, 1, 2, 20.0);

  SchemaReconciliation recon;
  const FleetData pooled = reconcile_fleets({a, b}, SchemaPolicy::kIntersect, &recon);

  ASSERT_EQ(pooled.feature_names, (std::vector<std::string>{"Y"}));
  ASSERT_EQ(pooled.drives.size(), 2u);
  EXPECT_DOUBLE_EQ(pooled.drives[0].values(0, 0), 11.0);  // A's Y
  EXPECT_DOUBLE_EQ(pooled.drives[1].values(0, 0), 20.0);  // B's Y
  EXPECT_EQ(recon.cells_nan_filled, 0u);
  EXPECT_TRUE(recon.nan_filled.empty());
  // X dropped for A, Z dropped for B.
  ASSERT_EQ(recon.dropped.size(), 2u);
  EXPECT_EQ(recon.dropped[0], "A:X");
  EXPECT_EQ(recon.dropped[1], "B:Z");
}

TEST(Reconcile, AliasesUnifyBeforeAlignment) {
  // Same physical column under two vendor spellings: the union must
  // merge them into one canonical column, not NaN-fill two.
  const FleetData a = make_fleet("A", {"MWI_NORM"}, 1, 2, 10.0);
  const FleetData b = make_fleet("B", {"MWI_N"}, 1, 2, 20.0);

  SchemaReconciliation recon;
  const FleetData pooled = reconcile_fleets({a, b}, SchemaPolicy::kUnion, &recon);

  ASSERT_EQ(pooled.feature_names, (std::vector<std::string>{"MWI_N"}));
  EXPECT_EQ(recon.cells_nan_filled, 0u);
  ASSERT_EQ(recon.renamed.size(), 1u);
  EXPECT_EQ(recon.renamed[0], "A:MWI_NORM->MWI_N");
  EXPECT_DOUBLE_EQ(pooled.drives[0].values(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(pooled.drives[1].values(0, 0), 20.0);
}

TEST(Reconcile, DegenerateInputsDegradeWithoutThrowing) {
  SchemaReconciliation recon;
  const FleetData empty = reconcile_fleets({}, SchemaPolicy::kUnion, &recon);
  EXPECT_EQ(empty.model_name, "mixed()");
  EXPECT_TRUE(empty.drives.empty());
  EXPECT_TRUE(empty.feature_names.empty());
  EXPECT_EQ(recon.sources, 0u);

  // A drive-less source still contributes its columns to the union.
  FleetData no_drives = make_fleet("N", {"X"}, 0, 2, 0.0);
  const FleetData a = make_fleet("A", {"Y"}, 1, 2, 10.0);
  const FleetData pooled = reconcile_fleets({no_drives, a}, SchemaPolicy::kUnion);
  EXPECT_EQ(pooled.feature_names, (std::vector<std::string>{"X", "Y"}));
  ASSERT_EQ(pooled.drives.size(), 1u);

  // An empty intersection yields zero-column drives, not a throw.
  const FleetData b = make_fleet("B", {"Z"}, 1, 2, 20.0);
  const FleetData none = reconcile_fleets({a, b}, SchemaPolicy::kIntersect);
  EXPECT_TRUE(none.feature_names.empty());
  ASSERT_EQ(none.drives.size(), 2u);
  EXPECT_EQ(none.drives[0].values.cols(), 0u);
}

TEST(Reconcile, GeneratedProfilesPoolLosslessly) {
  // Real profiles: an SSD and the HDD-like profile share some columns
  // (POH, RSC) but not the NAND-specific ones; the union must carry
  // both sets and NaN-fill the gaps.
  smartsim::SimOptions opt;
  opt.num_drives = 20;
  opt.num_days = 60;
  opt.seed = 5;
  const FleetData ssd = generate_fleet(smartsim::profile_by_name("MC1"), opt);
  opt.seed = 6;
  const FleetData hdd = generate_fleet(smartsim::profile_by_name("HDD1"), opt);

  SchemaReconciliation recon;
  std::vector<std::string> drive_model;
  const FleetData pooled =
      reconcile_fleets({ssd, hdd}, SchemaPolicy::kUnion, &recon, &drive_model);

  EXPECT_EQ(pooled.drives.size(), ssd.drives.size() + hdd.drives.size());
  EXPECT_GE(pooled.num_features(), ssd.num_features());
  EXPECT_GE(pooled.num_features(), hdd.num_features());
  EXPECT_FALSE(recon.nan_filled.empty());
  EXPECT_GT(recon.cells_nan_filled, 0u);

  // An HDD drive's NAND-wear column is never observed.
  const int mwi = pooled.feature_index("MWI_N");
  ASSERT_GE(mwi, 0);
  const auto& hdd_drive = pooled.drives[ssd.drives.size()];
  EXPECT_EQ(drive_model[ssd.drives.size()], "HDD1");
  EXPECT_TRUE(std::isnan(hdd_drive.values(0, static_cast<std::size_t>(mwi))));
}

// ---------------------------------------------------------------------------
// pad_missing_columns: short rows as a schema statement, not corruption.

constexpr const char* kPooledCsv =
    "drive_id,day,failed,fail_day,f0,f1,f2\n"
    "a,0,0,-1,1,2,3\n"
    "a,1,0,-1,4,5,6\n"
    "b,0,0,-1,7,8\n"   // model lacking f2: short by one
    "b,1,0,-1,9\n";    // short by two

TEST(PadMissingColumns, StrictAcceptsShortRowsWhenEnabled) {
  ReadOptions opt;
  opt.policy = ParsePolicy::kStrict;
  opt.pad_missing_columns = true;
  IngestReport rep;
  const FleetData fleet = read_fleet_csv_buffer(kPooledCsv, "P", opt, &rep);
  ASSERT_EQ(fleet.drives.size(), 2u);
  EXPECT_EQ(rep.rows_padded, 2u);
  EXPECT_EQ(rep.cells_padded, 3u);
  EXPECT_EQ(rep.rows_quarantined, 0u);
  // Padded cells surface as missing data (NaN before fill).
  const auto& b = fleet.drives[1];
  EXPECT_DOUBLE_EQ(b.values(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(b.values(0, 1), 8.0);
}

TEST(PadMissingColumns, StrictStillRejectsShortRowsByDefault) {
  ReadOptions opt;
  opt.policy = ParsePolicy::kStrict;
  IngestReport rep;
  EXPECT_THROW(read_fleet_csv_buffer(kPooledCsv, "P", opt, &rep), std::runtime_error);
}

TEST(PadMissingColumns, LongRowsStayInvalid) {
  // Padding pardons missing trailing columns only; surplus fields are
  // still structural corruption.
  const std::string csv =
      "drive_id,day,failed,fail_day,f0\n"
      "a,0,0,-1,1,2\n";
  ReadOptions opt;
  opt.policy = ParsePolicy::kRecover;
  opt.pad_missing_columns = true;
  IngestReport rep;
  const FleetData fleet = read_fleet_csv_buffer(csv, "P", opt, &rep);
  EXPECT_EQ(rep.rows_padded, 0u);
  EXPECT_EQ(rep.rows_quarantined, 1u);
  EXPECT_TRUE(fleet.drives.empty());
}

// ---------------------------------------------------------------------------
// load_mixed_fleet_csvs: per-model files -> one pooled fleet.

struct CsvEnv {
  std::vector<std::string> paths;

  explicit CsvEnv(const std::string& tag,
                  const std::vector<std::string>& contents) {
    for (std::size_t i = 0; i < contents.size(); ++i) {
      paths.push_back(::testing::TempDir() + "wefr_schema_" + tag + "_" +
                      std::to_string(i) + ".csv");
      std::ofstream ofs(paths.back(), std::ios::binary | std::ios::trunc);
      ofs << contents[i];
    }
  }
  ~CsvEnv() {
    for (const auto& p : paths) std::remove(p.c_str());
  }
};

const char* model_a_csv() {
  return "drive_id,day,failed,fail_day,X,Y\n"
         "a0,0,0,-1,1,2\n"
         "a0,1,0,-1,3,4\n"
         "a1,0,0,-1,5,6\n"
         "a1,1,0,-1,7,8\n";
}

const char* model_b_csv() {
  return "drive_id,day,failed,fail_day,Y,Z\n"
         "b0,0,0,-1,10,11\n"
         "b0,1,0,-1,12,13\n";
}

TEST(MixedLoad, PoolsTwoCsvsUnderEveryPolicy) {
  const CsvEnv env("pool", {model_a_csv(), model_b_csv()});
  for (const auto policy :
       {ParsePolicy::kStrict, ParsePolicy::kRecover, ParsePolicy::kSkipDrive}) {
    ReadOptions opt;
    opt.policy = policy;
    SchemaReconciliation recon;
    std::vector<IngestReport> reports;
    std::vector<std::string> drive_model;
    const FleetData pooled =
        load_mixed_fleet_csvs(env.paths, {"A", "B"}, opt, CacheOptions{},
                              SchemaPolicy::kUnion, &recon, &reports, &drive_model);
    ASSERT_EQ(reports.size(), 2u) << "policy " << static_cast<int>(policy);
    EXPECT_FALSE(reports[0].fatal);
    EXPECT_FALSE(reports[1].fatal);
    ASSERT_EQ(pooled.drives.size(), 3u) << "policy " << static_cast<int>(policy);
    EXPECT_EQ(pooled.model_name, "mixed(A+B)");
    EXPECT_EQ(pooled.feature_names, (std::vector<std::string>{"X", "Y", "Z"}));
    EXPECT_EQ(drive_model, (std::vector<std::string>{"A", "A", "B"}));
    EXPECT_EQ(recon.sources, 2u);
    EXPECT_GT(recon.cells_nan_filled, 0u);
    // Pooled drives keep their source values under the union mapping.
    EXPECT_DOUBLE_EQ(pooled.drives[2].values(0, 1), 10.0);  // B's Y
    EXPECT_TRUE(std::isnan(pooled.drives[2].values(0, 0)));  // B lacks X
  }
}

TEST(MixedLoad, ModelNamesDefaultToCsvStem) {
  const CsvEnv env("stem", {model_a_csv()});
  SchemaReconciliation recon;
  ReadOptions opt;
  opt.policy = ParsePolicy::kRecover;
  const FleetData pooled = load_mixed_fleet_csvs(
      env.paths, {}, opt, CacheOptions{}, SchemaPolicy::kUnion, &recon);
  const std::string stem = std::filesystem::path(env.paths[0]).stem().string();
  EXPECT_EQ(pooled.model_name, "mixed(" + stem + ")");
}

TEST(MixedLoad, FatalSourceIsSkippedNotFatal) {
  const CsvEnv env("fatal", {model_a_csv(), "not,a,fleet,header\n"});
  ReadOptions opt;
  opt.policy = ParsePolicy::kRecover;
  SchemaReconciliation recon;
  std::vector<IngestReport> reports;
  const FleetData pooled =
      load_mixed_fleet_csvs(env.paths, {"A", "B"}, opt, CacheOptions{},
                            SchemaPolicy::kUnion, &recon, &reports);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_FALSE(reports[0].fatal);
  EXPECT_TRUE(reports[1].fatal);
  // The pool carries the healthy source only.
  ASSERT_EQ(pooled.drives.size(), 2u);
  EXPECT_EQ(recon.sources, 1u);
}

}  // namespace
}  // namespace wefr::data

namespace wefr::core {
namespace {

TEST(ScoreFleet, TagsDrivesMissingSelectedFeatures) {
  // Churn-aware degradation: pool an SSD fleet with an HDD-like fleet
  // WITHOUT zero-filling, so HDD drives carry all-NaN columns for the
  // NAND features the predictor selects. Scoring must complete for
  // every drive and tag the gap instead of throwing.
  ExperimentConfig cfg;
  cfg.forest.num_trees = 10;
  cfg.forest.tree.max_depth = 8;
  cfg.negative_keep_prob = 0.1;
  smartsim::SimOptions sopt;
  sopt.num_drives = 220;
  sopt.num_days = 160;
  sopt.seed = 61;
  sopt.afr_scale = 25.0;
  const auto ssd = generate_fleet(smartsim::profile_by_name("MC1"), sopt);
  smartsim::SimOptions hopt;
  hopt.num_drives = 40;
  hopt.num_days = 160;
  hopt.seed = 62;
  hopt.afr_scale = 25.0;
  const auto hdd = generate_fleet(smartsim::profile_by_name("HDD1"), hopt);

  const auto pooled = data::reconcile_fleets({ssd, hdd}, data::SchemaPolicy::kUnion);

  const int train_end = 119;
  const auto samples = build_selection_samples(pooled, 0, train_end, cfg);
  const auto sel = run_wefr(pooled, samples, train_end, WefrOptions{});
  // The scenario needs a selected feature the HDD schema lacks.
  bool selected_nand = false;
  for (const auto& name : sel.all.selected_names)
    selected_nand = selected_nand || hdd.feature_index(name) < 0;
  if (!selected_nand) GTEST_SKIP() << "selection fit inside the HDD schema";

  const auto pred = train_predictor(pooled, sel, 0, train_end, cfg);
  PipelineDiagnostics diag;
  std::vector<DriveDayScores> scores;
  ASSERT_NO_THROW(scores = score_fleet(pooled, pred, train_end + 1,
                                       pooled.num_days - 1, cfg, &diag));
  EXPECT_FALSE(scores.empty());
  EXPECT_GT(diag.score_drives_missing_features, 0u);
  EXPECT_TRUE(diag.has("drives_missing_features"));
  // Every scored value is still a probability.
  for (const auto& ds : scores) {
    for (double s : ds.scores) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

}  // namespace
}  // namespace wefr::core
