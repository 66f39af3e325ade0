#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "data/csv.h"
#include "data/preprocess.h"

namespace wefr::data {
namespace {

/// A clean 2-drive, 2-feature fleet CSV baseline (drive a: days 0-2,
/// drive b: days 1-2); tests append corrupted rows to it.
std::string csv_with(const std::string& extra_rows) {
  std::string s =
      "drive_id,day,failed,fail_day,f0,f1\n"
      "a,0,0,-1,1,10\n"
      "a,1,0,-1,2,20\n"
      "a,2,0,-1,3,30\n"
      "b,1,1,2,4,40\n"
      "b,2,1,2,5,50\n";
  return s + extra_rows;
}

ReadOptions recover() {
  ReadOptions opt;
  opt.policy = ParsePolicy::kRecover;
  return opt;
}

ReadOptions skip_drive() {
  ReadOptions opt;
  opt.policy = ParsePolicy::kSkipDrive;
  return opt;
}

FleetData parse(const std::string& text, const ReadOptions& opt, IngestReport& rep) {
  std::istringstream is(text);
  return read_fleet_csv(is, "M", opt, &rep);
}

void expect_strict_throws(const std::string& text) {
  std::istringstream is(text);
  EXPECT_THROW(read_fleet_csv(is, "M"), std::runtime_error);
}

TEST(Ingest, CleanInputIsCleanInEveryPolicy) {
  for (const auto& opt : {ReadOptions{}, recover(), skip_drive()}) {
    IngestReport rep;
    const FleetData fleet = parse(csv_with(""), opt, rep);
    EXPECT_EQ(fleet.drives.size(), 2u);
    EXPECT_EQ(rep.rows_total, 5u);
    EXPECT_EQ(rep.rows_ok, 5u);
    EXPECT_TRUE(rep.clean()) << rep.summary();
  }
}

TEST(Ingest, EmptyInputQuarantinedNotFatalThrow) {
  expect_strict_throws("");
  IngestReport rep;
  const FleetData fleet = parse("", recover(), rep);
  EXPECT_TRUE(fleet.drives.empty());
  EXPECT_TRUE(rep.fatal);
  EXPECT_EQ(rep.errors(RowError::kEmptyInput), 1u);
}

TEST(Ingest, HeaderTooShortIsFatalNotThrow) {
  expect_strict_throws("drive_id,day\n");
  IngestReport rep;
  const FleetData fleet = parse("drive_id,day\n", recover(), rep);
  EXPECT_TRUE(fleet.drives.empty());
  EXPECT_TRUE(rep.fatal);
  EXPECT_EQ(rep.errors(RowError::kBadHeader), 1u);
}

TEST(Ingest, WrongHeaderNamesIsFatalNotThrow) {
  const std::string text = "serial,day,failed,fail_day,f0\nx,0,0,-1,1\n";
  expect_strict_throws(text);
  IngestReport rep;
  const FleetData fleet = parse(text, recover(), rep);
  EXPECT_TRUE(fleet.drives.empty());
  EXPECT_TRUE(rep.fatal);
  EXPECT_EQ(rep.errors(RowError::kBadHeader), 1u);
  EXPECT_FALSE(rep.fatal_detail.empty());
}

TEST(Ingest, WrongFieldCountQuarantinesRowOnly) {
  const std::string text = csv_with("c,0,0,-1,6\n");  // one field short
  expect_strict_throws(text);
  IngestReport rep;
  const FleetData fleet = parse(text, recover(), rep);
  EXPECT_EQ(fleet.drives.size(), 2u);  // a and b survive, c never starts
  EXPECT_EQ(rep.rows_quarantined, 1u);
  EXPECT_EQ(rep.rows_ok, 5u);
  EXPECT_EQ(rep.errors(RowError::kWrongFieldCount), 1u);
  ASSERT_EQ(rep.quarantined_drive_ids.size(), 1u);
  EXPECT_EQ(rep.quarantined_drive_ids[0], "c");
}

TEST(Ingest, BadMetaFieldQuarantinesRowOnly) {
  const std::string text = csv_with("c,zero,0,-1,6,60\n");
  expect_strict_throws(text);
  IngestReport rep;
  const FleetData fleet = parse(text, recover(), rep);
  EXPECT_EQ(fleet.drives.size(), 2u);
  EXPECT_EQ(rep.errors(RowError::kBadMetaField), 1u);
  EXPECT_EQ(rep.rows_quarantined, 1u);
}

TEST(Ingest, BadFeatureValueBecomesNanHole) {
  const std::string text = csv_with("c,0,0,-1,oops,60\n");
  expect_strict_throws(text);
  IngestReport rep;
  const FleetData fleet = parse(text, recover(), rep);
  ASSERT_EQ(fleet.drives.size(), 3u);  // the row SURVIVES with a hole
  EXPECT_EQ(rep.rows_ok, 6u);
  EXPECT_EQ(rep.rows_quarantined, 0u);
  EXPECT_EQ(rep.cells_recovered, 1u);
  EXPECT_EQ(rep.errors(RowError::kBadValue), 1u);
  EXPECT_TRUE(std::isnan(fleet.drives[2].values(0, 0)));
  EXPECT_DOUBLE_EQ(fleet.drives[2].values(0, 1), 60.0);
}

TEST(Ingest, NanTokenCountsAsMissingNotBad) {
  const std::string text = csv_with("c,0,0,-1,nan,\n");
  expect_strict_throws(text);  // strict accepts only finite values
  IngestReport rep;
  const FleetData fleet = parse(text, recover(), rep);
  ASSERT_EQ(fleet.drives.size(), 3u);
  EXPECT_EQ(rep.errors(RowError::kMissingValue), 2u);
  EXPECT_EQ(rep.errors(RowError::kBadValue), 0u);
  EXPECT_EQ(rep.cells_recovered, 2u);

  // A sign-bit NaN streams as "-nan"; it is just as missing.
  const std::string signed_text = csv_with("c,0,0,-1,-nan,-NaN\n");
  expect_strict_throws(signed_text);
  IngestReport signed_rep;
  const FleetData signed_fleet = parse(signed_text, recover(), signed_rep);
  ASSERT_EQ(signed_fleet.drives.size(), 3u);
  EXPECT_EQ(signed_rep.errors(RowError::kMissingValue), 2u);
  EXPECT_EQ(signed_rep.errors(RowError::kBadValue), 0u);
  EXPECT_EQ(signed_rep.cells_recovered, 2u);
}

TEST(Ingest, WrittenNanHolesReadBackAsMissing) {
  volatile double zero = 0.0;
  const double div_nan = zero / zero;  // sign bit set on x86-64
  FleetData fleet;
  fleet.model_name = "M";
  fleet.feature_names = {"f0", "f1", "f2"};
  fleet.num_days = 1;
  DriveSeries drive;
  drive.drive_id = "a";
  drive.values = Matrix(1, 3);
  drive.values(0, 0) = div_nan;
  drive.values(0, 1) = std::numeric_limits<double>::quiet_NaN();
  drive.values(0, 2) = 7.5;
  fleet.drives.push_back(drive);
  std::ostringstream os;
  write_fleet_csv(fleet, os);
  if (std::signbit(div_nan)) {
    EXPECT_NE(os.str().find("-nan"), std::string::npos) << os.str();
  }

  IngestReport rep;
  const FleetData back = parse(os.str(), recover(), rep);
  ASSERT_EQ(back.drives.size(), 1u);
  EXPECT_EQ(rep.errors(RowError::kMissingValue), 2u);
  EXPECT_EQ(rep.errors(RowError::kBadValue), 0u);
  EXPECT_TRUE(std::isnan(back.drives[0].values(0, 0)));
  EXPECT_TRUE(std::isnan(back.drives[0].values(0, 1)));
  EXPECT_EQ(back.drives[0].values(0, 2), 7.5);
}

TEST(Ingest, OutOfRangeDayIsBadMetaField) {
  // day / fail_day values no int can hold: rejected like unparseable
  // ones, never cast (the cast would be undefined behaviour).
  for (const std::string row : {"c,1e10,0,-1,6,60\n", "c,-1e300,0,-1,6,60\n",
                                "c,0,1,3e9,6,60\n"}) {
    SCOPED_TRACE(row);
    const std::string text = csv_with(row);
    std::istringstream is(text);
    try {
      read_fleet_csv(is, "M");
      ADD_FAILURE() << "expected strict throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "read_fleet_csv: bad day/failed/fail_day at line 7");
    }
    IngestReport rep;
    const FleetData fleet = parse(text, recover(), rep);
    EXPECT_EQ(fleet.drives.size(), 2u);
    EXPECT_EQ(rep.errors(RowError::kBadMetaField), 1u);
    EXPECT_EQ(rep.rows_quarantined, 1u);
    EXPECT_EQ(rep.rows_ok, 5u);
  }
}

TEST(Ingest, DuplicateDayQuarantined) {
  const std::string text = csv_with("b,2,1,2,5,50\n");  // day 2 again
  expect_strict_throws(text);
  IngestReport rep;
  const FleetData fleet = parse(text, recover(), rep);
  EXPECT_EQ(rep.errors(RowError::kNonContiguousDay), 1u);
  EXPECT_EQ(rep.rows_quarantined, 1u);
  ASSERT_EQ(fleet.drives.size(), 2u);
  EXPECT_EQ(fleet.drives[1].num_days(), 2u);  // not three
}

TEST(Ingest, SmallGapBridgedWithNanDays) {
  const std::string text = csv_with("b,5,1,2,6,60\n");  // days 3-4 missing
  expect_strict_throws(text);
  IngestReport rep;
  const FleetData fleet = parse(text, recover(), rep);
  EXPECT_TRUE(rep.fatal == false);
  EXPECT_EQ(rep.gap_days_bridged, 2u);
  EXPECT_EQ(rep.rows_quarantined, 0u);
  ASSERT_EQ(fleet.drives.size(), 2u);
  const DriveSeries& b = fleet.drives[1];
  ASSERT_EQ(b.num_days(), 5u);  // days 1,2,(3),(4),5
  EXPECT_TRUE(std::isnan(b.values(2, 0)));
  EXPECT_TRUE(std::isnan(b.values(3, 1)));
  EXPECT_DOUBLE_EQ(b.values(4, 0), 6.0);
  EXPECT_EQ(fleet.num_days, 6);
}

TEST(Ingest, HugeGapQuarantined) {
  ReadOptions opt = recover();
  opt.max_gap_days = 3;
  const std::string text = csv_with("b,50,1,2,6,60\n");
  IngestReport rep;
  std::istringstream is(text);
  const FleetData fleet = read_fleet_csv(is, "M", opt, &rep);
  EXPECT_EQ(rep.errors(RowError::kNonContiguousDay), 1u);
  EXPECT_EQ(rep.gap_days_bridged, 0u);
  EXPECT_EQ(fleet.drives[1].num_days(), 2u);
}

TEST(Ingest, ReappearingDriveQuarantined) {
  const std::string text = csv_with("a,3,0,-1,9,90\n");  // a after b
  expect_strict_throws(text);
  IngestReport rep;
  const FleetData fleet = parse(text, recover(), rep);
  EXPECT_EQ(rep.errors(RowError::kReappearingDrive), 1u);
  EXPECT_EQ(rep.rows_quarantined, 1u);
  ASSERT_EQ(fleet.drives.size(), 2u);
  EXPECT_EQ(fleet.drives[0].num_days(), 3u);  // original run untouched
}

TEST(Ingest, SkipDrivePoisonsWholeDrive) {
  // Drive b takes a structural error on its second row: in kSkipDrive
  // its already-accepted first row is reclaimed too.
  const std::string text =
      "drive_id,day,failed,fail_day,f0\n"
      "a,0,0,-1,1\n"
      "b,0,1,2,2\n"
      "b,1,1,2\n"  // wrong field count
      "b,2,1,2,4\n"
      "a2,0,0,-1,5\n";
  IngestReport rep;
  const FleetData fleet = parse(text, skip_drive(), rep);
  ASSERT_EQ(fleet.drives.size(), 2u);
  EXPECT_EQ(fleet.drives[0].drive_id, "a");
  EXPECT_EQ(fleet.drives[1].drive_id, "a2");
  EXPECT_EQ(rep.drives_quarantined, 1u);
  EXPECT_EQ(rep.rows_ok, 2u);
  EXPECT_EQ(rep.rows_quarantined, 3u);  // b's bad row + 2 reclaimed/poisoned
  ASSERT_EQ(rep.quarantined_drive_ids.size(), 1u);
  EXPECT_EQ(rep.quarantined_drive_ids[0], "b");
}

TEST(Ingest, RecoverKeepsDriveThatSkipDriveDrops) {
  const std::string text =
      "drive_id,day,failed,fail_day,f0\n"
      "b,0,1,2,2\n"
      "b,1,1,2\n"
      "b,2,1,2,4\n";
  IngestReport rep;
  const FleetData fleet = parse(text, recover(), rep);
  ASSERT_EQ(fleet.drives.size(), 1u);
  // Day 1's row was quarantined, and day 2 then bridged the 1-day hole
  // with a NaN row: the drive keeps 3 days, one synthetic.
  EXPECT_EQ(fleet.drives[0].num_days(), 3u);
  EXPECT_TRUE(std::isnan(fleet.drives[0].values(1, 0)));
  EXPECT_EQ(rep.gap_days_bridged, 1u);
}

TEST(Ingest, QuarantinedIdListIsBounded) {
  std::string text = "drive_id,day,failed,fail_day,f0\n";
  for (int i = 0; i < 10; ++i) {
    text += "d";
    text += std::to_string(i);
    text += ",0,0,-1\n";  // all short
  }
  ReadOptions opt = recover();
  opt.max_quarantined_ids = 4;
  IngestReport rep;
  std::istringstream is(text);
  read_fleet_csv(is, "M", opt, &rep);
  EXPECT_EQ(rep.errors(RowError::kWrongFieldCount), 10u);  // tallies exact
  EXPECT_EQ(rep.quarantined_drive_ids.size(), 4u);         // sample bounded
}

TEST(Ingest, MissingFileRetriesThenThrowsStrict) {
  ReadOptions opt;
  opt.max_io_attempts = 3;
  try {
    read_fleet_csv("/nonexistent/wefr_ingest_test.csv", "M", opt);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("after 3 attempts"), std::string::npos);
  }
}

TEST(Ingest, MissingFileRetriesThenReportsFatalRecover) {
  ReadOptions opt = recover();
  opt.max_io_attempts = 3;
  IngestReport rep;
  const FleetData fleet =
      read_fleet_csv("/nonexistent/wefr_ingest_test.csv", "M", opt, &rep);
  EXPECT_TRUE(fleet.drives.empty());
  EXPECT_TRUE(rep.fatal);
  EXPECT_EQ(rep.io_retries, 2u);  // attempts - 1
  EXPECT_EQ(rep.errors(RowError::kIoFailure), 1u);
}

TEST(Ingest, LoadFleetCsvRunsForwardFill) {
  const std::string path = ::testing::TempDir() + "wefr_ingest_fill.csv";
  {
    std::ofstream ofs(path);
    ofs << "drive_id,day,failed,fail_day,f0,f1\n"
           "a,0,0,-1,1,bad\n"   // f1 hole on day 0 (leading NaN)
           "a,1,0,-1,2,20\n";
  }
  IngestReport rep;
  const FleetData fleet = load_fleet_csv(path, "M", recover(), &rep);
  std::remove(path.c_str());
  ASSERT_EQ(fleet.drives.size(), 1u);
  EXPECT_EQ(rep.cells_recovered, 1u);
  EXPECT_EQ(rep.fill.cells_filled, 1u);
  EXPECT_EQ(rep.fill.leading_backfilled, 1u);
  EXPECT_DOUBLE_EQ(fleet.drives[0].values(0, 1), 20.0);  // backfilled
  EXPECT_EQ(count_missing(fleet), 0u);
}

TEST(Ingest, SummaryMentionsErrorClasses) {
  const std::string text = csv_with("c,0,0,-1,6\n");
  IngestReport rep;
  parse(text, recover(), rep);
  const std::string s = rep.summary();
  EXPECT_NE(s.find("wrong_field_count"), std::string::npos) << s;
}

TEST(Ingest, StrictOverloadMatchesLegacyReader) {
  // The policy-aware strict path and the historical 2-arg overload parse
  // clean input identically.
  IngestReport rep;
  const FleetData a = parse(csv_with(""), ReadOptions{}, rep);
  std::istringstream is(csv_with(""));
  const FleetData b = read_fleet_csv(is, "M");
  ASSERT_EQ(a.drives.size(), b.drives.size());
  EXPECT_EQ(a.num_days, b.num_days);
  for (std::size_t i = 0; i < a.drives.size(); ++i) {
    EXPECT_EQ(a.drives[i].drive_id, b.drives[i].drive_id);
    EXPECT_EQ(a.drives[i].num_days(), b.drives[i].num_days());
  }
}

}  // namespace
}  // namespace wefr::data
