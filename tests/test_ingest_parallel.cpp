// Equivalence suite for the parallel mmap/buffer CSV parser: on the
// same bytes, read_fleet_csv_buffer (chunked, multi-threaded) and the
// path overload (memory-mapped) must be BIT-IDENTICAL to the serial
// istream oracle — fleet contents, every IngestReport tally, and
// strict-mode exception messages — at every thread count and chunk
// size, over clean input, structural edge cases (CRLF, no trailing
// newline, blank lines, chunk boundaries landing mid-row or
// mid-quarantined-drive), and all six smartsim fault kinds under all
// three parse policies.
//
// The serial oracle shares tokenize_row with the parallel parser, so the
// suite also checks cell parsing against an independent reference built
// from util::split / util::trim / util::parse_double alone, and checks
// that load_fleet_csv's parallel forward fill is thread-invariant.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/csv.h"
#include "data/preprocess.h"
#include "smartsim/faultsim.h"
#include "smartsim/generator.h"
#include "util/rng.h"
#include "util/strings.h"

namespace wefr::data {
namespace {

struct ParseResult {
  bool threw = false;
  std::string what;
  FleetData fleet;
  IngestReport rep;
};

ParseResult run_serial(const std::string& text, const ReadOptions& opt) {
  ParseResult r;
  std::istringstream is(text);
  try {
    r.fleet = read_fleet_csv(is, "M", opt, &r.rep);
  } catch (const std::runtime_error& e) {
    r.threw = true;
    r.what = e.what();
  }
  return r;
}

ParseResult run_buffer(const std::string& text, ReadOptions opt,
                       std::size_t threads, std::size_t chunk_bytes) {
  ParseResult r;
  opt.num_threads = threads;
  opt.parallel_chunk_bytes = chunk_bytes;
  try {
    r.fleet = read_fleet_csv_buffer(text, "M", opt, &r.rep);
  } catch (const std::runtime_error& e) {
    r.threw = true;
    r.what = e.what();
  }
  return r;
}

void expect_fleet_equal(const FleetData& a, const FleetData& b,
                        const std::string& ctx) {
  EXPECT_EQ(a.model_name, b.model_name) << ctx;
  EXPECT_EQ(a.feature_names, b.feature_names) << ctx;
  EXPECT_EQ(a.num_days, b.num_days) << ctx;
  ASSERT_EQ(a.drives.size(), b.drives.size()) << ctx;
  for (std::size_t i = 0; i < a.drives.size(); ++i) {
    const auto& da = a.drives[i];
    const auto& db = b.drives[i];
    EXPECT_EQ(da.drive_id, db.drive_id) << ctx << " drive " << i;
    EXPECT_EQ(da.first_day, db.first_day) << ctx << " drive " << i;
    EXPECT_EQ(da.fail_day, db.fail_day) << ctx << " drive " << i;
    const auto ra = da.values.raw();
    const auto rb = db.values.raw();
    ASSERT_EQ(ra.size(), rb.size()) << ctx << " drive " << i;
    // memcmp, not ==: NaN holes must survive in the exact same cells.
    EXPECT_EQ(std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)), 0)
        << ctx << " drive " << i << " values differ bitwise";
  }
}

void expect_report_equal(const IngestReport& a, const IngestReport& b,
                         const std::string& ctx) {
  EXPECT_EQ(a.rows_total, b.rows_total) << ctx;
  EXPECT_EQ(a.rows_ok, b.rows_ok) << ctx;
  EXPECT_EQ(a.rows_quarantined, b.rows_quarantined) << ctx;
  EXPECT_EQ(a.cells_recovered, b.cells_recovered) << ctx;
  EXPECT_EQ(a.gap_days_bridged, b.gap_days_bridged) << ctx;
  EXPECT_EQ(a.drives_quarantined, b.drives_quarantined) << ctx;
  EXPECT_EQ(a.fatal, b.fatal) << ctx;
  EXPECT_EQ(a.fatal_detail, b.fatal_detail) << ctx;
  EXPECT_EQ(a.error_counts, b.error_counts) << ctx;
  EXPECT_EQ(a.quarantined_drive_ids, b.quarantined_drive_ids) << ctx;
}

constexpr std::size_t kThreadCounts[] = {1, 2, 8};
constexpr std::size_t kChunkBytes[] = {1, 7, 64, std::size_t{1} << 20};

/// The workhorse: serial oracle vs every (threads, chunk) combination.
void expect_equivalent(const std::string& text, const ReadOptions& opt,
                       const std::string& label) {
  const ParseResult oracle = run_serial(text, opt);
  for (std::size_t threads : kThreadCounts) {
    for (std::size_t chunk : kChunkBytes) {
      const std::string ctx = label + " [threads=" + std::to_string(threads) +
                              " chunk=" + std::to_string(chunk) + "]";
      const ParseResult got = run_buffer(text, opt, threads, chunk);
      ASSERT_EQ(oracle.threw, got.threw) << ctx;
      EXPECT_EQ(oracle.what, got.what) << ctx;
      expect_report_equal(oracle.rep, got.rep, ctx);
      if (!oracle.threw) expect_fleet_equal(oracle.fleet, got.fleet, ctx);
    }
  }
}

void expect_equivalent_all_policies(const std::string& text, const std::string& label) {
  for (const auto policy :
       {ParsePolicy::kStrict, ParsePolicy::kRecover, ParsePolicy::kSkipDrive}) {
    ReadOptions opt;
    opt.policy = policy;
    expect_equivalent(text, opt,
                      label + "/policy=" + std::to_string(static_cast<int>(policy)));
  }
}

std::string baseline_csv() {
  return "drive_id,day,failed,fail_day,f0,f1\n"
         "a,0,0,-1,1,10\n"
         "a,1,0,-1,2,20\n"
         "a,2,0,-1,3,30\n"
         "b,1,1,2,4,40\n"
         "b,2,1,2,5,50\n";
}

TEST(IngestParallel, CleanBaseline) {
  expect_equivalent_all_policies(baseline_csv(), "clean");
}

TEST(IngestParallel, CrlfLineEndings) {
  std::string text = baseline_csv();
  std::string crlf;
  for (char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  expect_equivalent_all_policies(crlf, "crlf");
}

TEST(IngestParallel, MissingTrailingNewline) {
  std::string text = baseline_csv();
  text.pop_back();
  expect_equivalent_all_policies(text, "no-trailing-newline");
}

TEST(IngestParallel, EmptyInputAndHeaderOnly) {
  expect_equivalent_all_policies("", "empty");
  expect_equivalent_all_policies("drive_id,day,failed,fail_day,f0\n", "header-only");
  expect_equivalent_all_policies("drive_id,day,failed,fail_day,f0", "header-no-nl");
  expect_equivalent_all_policies("drive_id,day\nx,0\n", "short-header");
}

TEST(IngestParallel, BlankLinesEverywhere) {
  // Blank and whitespace-only lines between rows shift line numbers
  // (and thus strict error messages) without being rows themselves.
  expect_equivalent_all_policies(
      "drive_id,day,failed,fail_day,f0,f1\n"
      "\n"
      "a,0,0,-1,1,10\n"
      "   \n"
      "a,1,0,-1,2,20\n"
      "\n\n"
      "b,1,1,2,4,40\n"
      "b,2,1,2,bad,50\n"
      "\n",
      "blank-lines");
}

TEST(IngestParallel, CorruptRowsEveryClass) {
  // One specimen of every row-level anomaly, so chunk boundaries can
  // land before/inside/after each under the tiny chunk sizes.
  expect_equivalent_all_policies(
      baseline_csv() +
          "c,0,0,-1,7\n"              // wrong field count
          "c,1,0,-1,8,80\n"           // (c poisoned under skip-drive)
          "d,zero,0,-1,9,90\n"        // bad meta
          "e,0,0,-1,10,100\n"
          "e,5,0,-1,11,110\n"         // gap bridged (4 NaN days)
          "e,200,0,-1,12,120\n"       // gap too large -> quarantined
          "a,3,0,-1,13,130\n"         // reappearing drive
          "f,0,0,-1,,140\n"           // missing cell
          "f,1,0,-1,nan,150\n"        // nan token cell
          "f,2,0,-1,x,160\n",         // bad cell
      "corrupt-classes");
}

TEST(IngestParallel, SixFaultKindsOnGeneratedFleet) {
  smartsim::SimOptions sim;
  sim.num_drives = 12;
  sim.num_days = 80;
  sim.seed = 99;
  const auto fleet =
      smartsim::generate_fleet(smartsim::profile_by_name("MC1"), sim);
  std::ostringstream os;
  write_fleet_csv(fleet, os);
  const std::string clean = os.str();

  const smartsim::FaultKind kinds[] = {
      smartsim::FaultKind::kTruncateRow,  smartsim::FaultKind::kNanBurst,
      smartsim::FaultKind::kStuckSensor,  smartsim::FaultKind::kDuplicateRow,
      smartsim::FaultKind::kOutOfOrderDay, smartsim::FaultKind::kBitFlip,
  };
  for (const auto kind : kinds) {
    smartsim::FaultPlan plan;
    plan.faults.push_back({kind, 0.08});
    plan.seed = 0xfeedu + static_cast<std::uint64_t>(kind);
    smartsim::FaultLog log;
    const std::string corrupted = smartsim::corrupt_csv(clean, plan, &log);
    ASSERT_GT(log.total_applied(), 0u) << smartsim::to_string(kind);
    expect_equivalent_all_policies(
        corrupted, std::string("fault=") + smartsim::to_string(kind));
  }

  // And the full blend at once.
  smartsim::FaultPlan mix;
  for (const auto kind : kinds) mix.faults.push_back({kind, 0.03});
  mix.seed = 0xc0ffee;
  expect_equivalent_all_policies(smartsim::corrupt_csv(clean, mix), "fault=mix");
}

TEST(IngestParallel, PathOverloadMatchesSerialOracle) {
  // The mmap-backed path overload (parallel parse) against the serial
  // istream oracle on the same bytes.
  const std::string text = baseline_csv() + "c,0,0,-1,bad,1\n";
  const std::string path = ::testing::TempDir() + "wefr_parallel_path.csv";
  {
    std::ofstream ofs(path, std::ios::binary);
    ofs << text;
  }
  for (const auto policy : {ParsePolicy::kRecover, ParsePolicy::kSkipDrive}) {
    ReadOptions opt;
    opt.policy = policy;
    const ParseResult oracle = run_serial(text, opt);
    for (std::size_t threads : kThreadCounts) {
      opt.num_threads = threads;
      opt.parallel_chunk_bytes = 16;
      IngestReport rep;
      const FleetData fleet = read_fleet_csv(path, "M", opt, &rep);
      const std::string ctx = "path[threads=" + std::to_string(threads) + "]";
      expect_report_equal(oracle.rep, rep, ctx);
      expect_fleet_equal(oracle.fleet, fleet, ctx);
    }
  }
  std::remove(path.c_str());
}

TEST(IngestParallel, StrictErrorMessagesCarryGlobalLineNumbers) {
  // Line numbers in strict throws must be file-global even when the
  // offending row sits in a late chunk.
  std::string text = "drive_id,day,failed,fail_day,f0\n";
  for (int d = 0; d < 50; ++d)
    text += "a," + std::to_string(d) + ",0,-1," + std::to_string(d) + "\n";
  text += "a,50,0,-1,bogus\n";  // line 52
  ReadOptions opt;
  opt.num_threads = 8;
  opt.parallel_chunk_bytes = 32;
  try {
    read_fleet_csv_buffer(text, "M", opt);
    FAIL() << "expected strict throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "read_fleet_csv: bad value at line 52");
  }
}

// --- independent cell-parsing reference --------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// One data line as the documented semantics read it.
struct RefRow {
  bool fields_ok = false;  ///< 4 + nf fields (or fewer, padded)
  bool meta_ok = false;
  int day = 0;
  int fail_day = 0;
  std::vector<double> cells;  ///< nf values, iff fields_ok
  std::size_t missing = 0, bad = 0, padded = 0;
};

bool ref_is_nan_token(std::string_view cell) {
  std::string lower;
  for (char c : cell) lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return lower == "nan" || lower == "-nan";
}

/// A finite double whose truncation an int holds.
bool ref_int_ok(double v) {
  return std::trunc(v) >= -2147483648.0 && std::trunc(v) <= 2147483647.0;
}

/// The field-count, pad_missing_columns, per-cell and meta rules, from
/// util::split (empty fields kept), util::trim and util::parse_double.
RefRow ref_row(std::string_view trimmed_line, std::size_t nf, bool pad) {
  RefRow r;
  const std::vector<std::string> fields = util::split(trimmed_line, ',');
  if (fields.size() < 4 || fields.size() > 4 + nf) return r;
  if (fields.size() < 4 + nf && !pad) return r;
  r.fields_ok = true;
  for (std::size_t f = 0; f < nf; ++f) {
    if (4 + f >= fields.size()) {
      r.cells.push_back(kNaN);
      ++r.padded;
      continue;
    }
    const std::string_view cell = util::trim(fields[4 + f]);
    double v = 0.0;
    if (util::parse_double(cell, v)) {
      r.cells.push_back(v);
    } else {
      r.cells.push_back(kNaN);
      ++(cell.empty() || ref_is_nan_token(cell) ? r.missing : r.bad);
    }
  }
  double day = 0.0, failed = 0.0, fail_day = 0.0;
  r.meta_ok = util::parse_double(fields[1], day) && util::parse_double(fields[2], failed) &&
              util::parse_double(fields[3], fail_day) && ref_int_ok(day) &&
              ref_int_ok(fail_day);
  if (r.meta_ok) {
    r.day = static_cast<int>(day);
    r.fail_day = static_cast<int>(fail_day);
  }
  return r;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = eol == std::string::npos ? text.size() : eol;
    lines.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return lines;
}

/// Gives every data line its own drive id (r0, r1, ...), so each
/// accepted line becomes a one-day drive and row assembly cannot mask
/// a cell-level difference. Blank lines stay as they are.
std::string rekey(const std::string& text) {
  const std::vector<std::string> lines = lines_of(text);
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (i == 0 || util::trim(line).empty()) {
      out += line;
    } else {
      const std::size_t lead = line.find_first_not_of(" \t\r\n\f\v");
      const std::size_t comma = line.find(',', lead);
      out += line.substr(0, lead) + "r" + std::to_string(i);
      if (comma != std::string::npos) out += line.substr(comma);
    }
    out += '\n';
  }
  return out;
}

/// Parses rekeyed `text` in recover mode at 1 and 4 threads, with the
/// default chunk size and one that cuts mid-row, and checks every
/// accepted cell's bits and the cell / field-count tallies against the
/// reference.
void expect_matches_reference(const std::string& text, bool pad, const std::string& label) {
  const std::vector<std::string> lines = lines_of(text);
  ASSERT_FALSE(lines.empty());
  const std::size_t nf = util::split(util::trim(lines[0]), ',').size() - 4;
  std::vector<RefRow> accepted;
  std::size_t rows = 0, wrong_count = 0, bad_meta = 0, missing = 0, bad = 0;
  std::size_t rows_padded = 0, cells_padded = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view t = util::trim(lines[i]);
    if (t.empty()) continue;
    ++rows;
    RefRow r = ref_row(t, nf, pad);
    if (!r.fields_ok) {
      ++wrong_count;
    } else if (!r.meta_ok) {
      ++bad_meta;
    } else {
      missing += r.missing;
      bad += r.bad;
      rows_padded += r.padded > 0 ? 1 : 0;
      cells_padded += r.padded;
      accepted.push_back(std::move(r));
    }
  }
  for (std::size_t threads : {1u, 4u}) {
    for (std::size_t chunk : {std::size_t{37}, std::size_t{1} << 20}) {
      const std::string ctx = label + " [pad=" + std::to_string(pad) +
                              " threads=" + std::to_string(threads) +
                              " chunk=" + std::to_string(chunk) + "]";
      ReadOptions opt;
      opt.policy = ParsePolicy::kRecover;
      opt.pad_missing_columns = pad;
      const ParseResult got = run_buffer(text, opt, threads, chunk);
      ASSERT_FALSE(got.threw) << ctx << ": " << got.what;
      EXPECT_EQ(got.rep.rows_total, rows) << ctx;
      EXPECT_EQ(got.rep.rows_ok, accepted.size()) << ctx;
      EXPECT_EQ(got.rep.errors(RowError::kWrongFieldCount), wrong_count) << ctx;
      EXPECT_EQ(got.rep.errors(RowError::kBadMetaField), bad_meta) << ctx;
      EXPECT_EQ(got.rep.errors(RowError::kMissingValue), missing) << ctx;
      EXPECT_EQ(got.rep.errors(RowError::kBadValue), bad) << ctx;
      EXPECT_EQ(got.rep.cells_recovered, missing + bad) << ctx;
      EXPECT_EQ(got.rep.rows_padded, rows_padded) << ctx;
      EXPECT_EQ(got.rep.cells_padded, cells_padded) << ctx;
      ASSERT_EQ(got.fleet.drives.size(), accepted.size()) << ctx;
      for (std::size_t k = 0; k < accepted.size(); ++k) {
        const DriveSeries& drive = got.fleet.drives[k];
        ASSERT_EQ(drive.num_days(), 1u) << ctx << " drive " << drive.drive_id;
        EXPECT_EQ(drive.first_day, accepted[k].day) << ctx << " drive " << drive.drive_id;
        EXPECT_EQ(drive.fail_day, accepted[k].fail_day) << ctx << " drive " << drive.drive_id;
        EXPECT_EQ(std::memcmp(drive.values.raw().data(), accepted[k].cells.data(),
                              nf * sizeof(double)),
                  0)
            << ctx << " drive " << drive.drive_id << " cells differ bitwise";
      }
    }
  }
}

std::string edge_cell_corpus() {
  return "drive_id,day,failed,fail_day,f0,f1,f2\n"
         "a,0,0,-1, 1.5,\t2,3 \t\n"      // blank- and tab-padded cells
         "a,0,0,-1,   ,,\t\n"             // whitespace-only and empty cells
         "a,0,0,-1,nan,NaN,-nan\n"
         "a,0,0,-1,inf,-inf,1e400\n"
         "a,0,0,-1,+5,.5,5.\n"
         "a,0,0,-1,0x10,-0,1e-320\n"
         "a,0,0,-1,-nan ,  NAN,nAn\n"
         "a,0,0,-1,-,--nan,nan(1)\n"
         "a,0,0,-1,1e5x,1 2,\"3\"\n"
         "a,0,0,-1,1,2,3,\n"               // trailing comma: one field long
         "a,0,0,-1,1,2,3,4\n"              // one field long
         "a,0,0,-1,1,2\n"                  // one field short
         "a,0,0,-1\n"                      // meta only
         "a,0,0\n"                         // meta short
         "a,1e10,0,-1,1,2,3\n"             // day out of int range
         "a,0,0,3e9,1,2,3\n"               // fail_day out of int range
         "a,x,0,-1,1,2,3\n"                // unparseable day
         "a , 7 ,1, 9 ,1,2,3\n"            // blank-padded meta fields
         "  a,2.9,0,-1.5,4,5,6\r\n"        // leading blanks, CR, fractional days
         "\t\r\n"                         // blank line
         "a,0,0,-1,1,2,3";                  // no trailing newline
}

TEST(IngestParallel, CellParsingMatchesIndependentReference) {
  const std::string text = rekey(edge_cell_corpus());
  std::string crlf;
  for (char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  for (const bool pad : {false, true}) {
    expect_matches_reference(text, pad, "edge-cells");
    expect_matches_reference(crlf, pad, "edge-cells-crlf");
  }
}

TEST(IngestParallel, FaultKindCellsMatchIndependentReference) {
  smartsim::SimOptions sim;
  sim.num_drives = 6;
  sim.num_days = 80;
  sim.seed = 7;
  std::ostringstream os;
  write_fleet_csv(smartsim::generate_fleet(smartsim::profile_by_name("MC1"), sim), os);
  const smartsim::FaultKind kinds[] = {
      smartsim::FaultKind::kTruncateRow,  smartsim::FaultKind::kNanBurst,
      smartsim::FaultKind::kStuckSensor,  smartsim::FaultKind::kDuplicateRow,
      smartsim::FaultKind::kOutOfOrderDay, smartsim::FaultKind::kBitFlip,
  };
  for (const auto kind : kinds) {
    smartsim::FaultPlan plan;
    plan.faults.push_back({kind, 0.1});
    plan.seed = 0xabcdu + static_cast<std::uint64_t>(kind);
    smartsim::FaultLog log;
    const std::string corrupted = smartsim::corrupt_csv(os.str(), plan, &log);
    ASSERT_GT(log.total_applied(), 0u) << smartsim::to_string(kind);
    for (const bool pad : {false, true})
      expect_matches_reference(rekey(corrupted), pad,
                               std::string("fault=") + smartsim::to_string(kind));
  }
}

// --- load_fleet_csv: the per-drive forward fill on the pool -------------

TEST(IngestParallel, LoadFleetCsvFillIsThreadInvariant) {
  smartsim::SimOptions sim;
  sim.num_drives = 40;
  sim.num_days = 60;
  sim.seed = 31;
  FleetData fleet = smartsim::generate_fleet(smartsim::profile_by_name("MC1"), sim);
  // Plant every repair forward_fill makes: an all-NaN column, leading
  // NaNs (backfilled) and scattered NaN holes.
  for (std::size_t d = 0; d < fleet.drives[0].num_days(); ++d)
    fleet.drives[0].values(d, 2) = kNaN;
  for (std::size_t d = 0; d < 4; ++d) fleet.drives[1].values(d, 0) = kNaN;
  util::Rng rng(5);
  for (auto& drive : fleet.drives)
    for (std::size_t d = 0; d < drive.num_days(); ++d)
      for (std::size_t c = 0; c < drive.values.cols(); ++c)
        if (rng.bernoulli(0.02)) drive.values(d, c) = kNaN;
  std::ostringstream os;
  write_fleet_csv(fleet, os);
  // Drop three days of one drive: recover mode bridges the gap with
  // all-NaN days, which the fill then repairs.
  const std::string gap_id = fleet.drives[3].drive_id;
  const int gap_from = fleet.drives[3].first_day + 10;
  std::string text;
  for (const std::string& line : lines_of(os.str())) {
    const auto fields = util::split(line, ',');
    const bool drop = fields.size() > 1 && fields[0] == gap_id &&
                      std::stoi(fields[1]) >= gap_from && std::stoi(fields[1]) < gap_from + 3;
    if (!drop) text += line + '\n';
  }
  const std::string path = ::testing::TempDir() + "wefr_parallel_fill.csv";
  {
    std::ofstream ofs(path, std::ios::binary);
    ofs << text;
  }

  ReadOptions opt;
  opt.policy = ParsePolicy::kRecover;
  opt.num_threads = 1;
  IngestReport oracle_rep;
  FleetData oracle = read_fleet_csv(path, "M", opt, &oracle_rep);
  FillStats oracle_fill;
  forward_fill(oracle, 0.0, &oracle_fill);
  ASSERT_EQ(oracle_rep.gap_days_bridged, 3u);
  ASSERT_GT(oracle_fill.all_nan_columns, 0u);
  ASSERT_GT(oracle_fill.leading_backfilled, 0u);
  ASSERT_GT(oracle_fill.cells_filled, oracle_fill.leading_backfilled);

  for (std::size_t threads : {1u, 4u}) {
    const std::string ctx = "load[threads=" + std::to_string(threads) + "]";
    opt.num_threads = threads;
    IngestReport rep;
    const FleetData got = load_fleet_csv(path, "M", opt, &rep);
    expect_report_equal(oracle_rep, rep, ctx);
    expect_fleet_equal(oracle, got, ctx);
    EXPECT_EQ(rep.fill.cells_filled, oracle_fill.cells_filled) << ctx;
    EXPECT_EQ(rep.fill.leading_backfilled, oracle_fill.leading_backfilled) << ctx;
    EXPECT_EQ(rep.fill.all_nan_columns, oracle_fill.all_nan_columns) << ctx;
    EXPECT_EQ(rep.fill.cells_left_missing, oracle_fill.cells_left_missing) << ctx;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wefr::data
