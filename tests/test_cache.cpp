// Columnar fleet cache suite: a warm hit must restore the exact
// FleetData + IngestReport the first parse produced, and every
// invalidation class — stale schema knobs, changed source file,
// truncated snapshot, flipped byte, mismatched parse policy — must
// fall back to a clean reparse (never crash), tallied as a
// cache_invalidation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>

#include "data/cache.h"
#include "data/csv.h"

namespace wefr::data {
namespace {

/// Messy but usable input: bad cells (NaN recovery + forward_fill
/// work), a bridged gap, and a quarantined row, so the cached report
/// has non-trivial tallies in every section.
std::string messy_csv() {
  return "drive_id,day,failed,fail_day,f0,f1\n"
         "a,0,0,-1,1,10\n"
         "a,1,0,-1,,20\n"       // missing cell -> NaN -> forward-filled
         "a,2,0,-1,3,bad\n"     // bad cell
         "a,5,0,-1,4,40\n"      // gap of 2 bridged
         "b,0,1,2,5,50\n"
         "b,1,1,2,6\n"          // wrong field count -> quarantined
         "b,0,1,2,7,70\n"       // duplicate day -> quarantined
         "c,0,0,-1,8,80\n";
}

struct Env {
  std::string dir;
  std::string csv;

  explicit Env(const std::string& tag) {
    dir = ::testing::TempDir() + "wefr_cache_" + tag;
    std::filesystem::remove_all(dir);
    csv = ::testing::TempDir() + "wefr_cache_" + tag + ".csv";
    write(messy_csv());
  }
  void write(const std::string& text) const {
    std::ofstream ofs(csv, std::ios::binary | std::ios::trunc);
    ofs << text;
  }
  ~Env() {
    std::filesystem::remove_all(dir);
    std::remove(csv.c_str());
  }
};

ReadOptions recover() {
  ReadOptions opt;
  opt.policy = ParsePolicy::kRecover;
  return opt;
}

void expect_same_fleet(const FleetData& a, const FleetData& b) {
  EXPECT_EQ(a.model_name, b.model_name);
  EXPECT_EQ(a.feature_names, b.feature_names);
  EXPECT_EQ(a.num_days, b.num_days);
  ASSERT_EQ(a.drives.size(), b.drives.size());
  for (std::size_t i = 0; i < a.drives.size(); ++i) {
    EXPECT_EQ(a.drives[i].drive_id, b.drives[i].drive_id);
    EXPECT_EQ(a.drives[i].first_day, b.drives[i].first_day);
    EXPECT_EQ(a.drives[i].fail_day, b.drives[i].fail_day);
    const auto ra = a.drives[i].values.raw();
    const auto rb = b.drives[i].values.raw();
    ASSERT_EQ(ra.size(), rb.size());
    EXPECT_EQ(std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)), 0)
        << "drive " << i << " values differ bitwise";
  }
}

void expect_same_parse_tallies(const IngestReport& a, const IngestReport& b) {
  EXPECT_EQ(a.rows_total, b.rows_total);
  EXPECT_EQ(a.rows_ok, b.rows_ok);
  EXPECT_EQ(a.rows_quarantined, b.rows_quarantined);
  EXPECT_EQ(a.cells_recovered, b.cells_recovered);
  EXPECT_EQ(a.gap_days_bridged, b.gap_days_bridged);
  EXPECT_EQ(a.drives_quarantined, b.drives_quarantined);
  EXPECT_EQ(a.error_counts, b.error_counts);
  EXPECT_EQ(a.quarantined_drive_ids, b.quarantined_drive_ids);
  EXPECT_EQ(a.fill.cells_filled, b.fill.cells_filled);
  EXPECT_EQ(a.fill.leading_backfilled, b.fill.leading_backfilled);
  EXPECT_EQ(a.fill.all_nan_columns, b.fill.all_nan_columns);
  EXPECT_EQ(a.fill.cells_left_missing, b.fill.cells_left_missing);
}

std::string snapshot_path(const Env& env) {
  return fleet_cache_path(env.dir, env.csv, "M");
}

TEST(Cache, WarmHitRestoresParseExactly) {
  Env env("hit");
  CacheOptions cache;
  cache.dir = env.dir;

  IngestReport cold_rep;
  CacheOutcome outcome = CacheOutcome::kDisabled;
  const FleetData cold =
      load_fleet_csv_cached(env.csv, "M", recover(), cache, &cold_rep, nullptr, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  EXPECT_EQ(cold_rep.cache_misses, 1u);
  EXPECT_EQ(cold_rep.cache_hits, 0u);
  ASSERT_FALSE(cold_rep.fatal);
  EXPECT_GT(cold_rep.cells_recovered, 0u);
  EXPECT_GT(cold_rep.fill.cells_filled, 0u);
  ASSERT_TRUE(std::filesystem::exists(snapshot_path(env)));

  IngestReport warm_rep;
  const FleetData warm =
      load_fleet_csv_cached(env.csv, "M", recover(), cache, &warm_rep, nullptr, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kHit);
  EXPECT_EQ(warm_rep.cache_hits, 1u);
  EXPECT_EQ(warm_rep.cache_misses, 0u);
  expect_same_fleet(cold, warm);
  expect_same_parse_tallies(cold_rep, warm_rep);
}

TEST(Cache, ChangedSourceInvalidates) {
  Env env("source");
  CacheOptions cache;
  cache.dir = env.dir;
  load_fleet_csv_cached(env.csv, "M", recover(), cache);

  env.write(messy_csv() + "c,1,0,-1,9,90\n");
  IngestReport rep;
  CacheOutcome outcome = CacheOutcome::kDisabled;
  const FleetData fleet =
      load_fleet_csv_cached(env.csv, "M", recover(), cache, &rep, nullptr, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kInvalidated);
  EXPECT_EQ(rep.cache_invalidations, 1u);
  EXPECT_EQ(rep.cache_misses, 1u);
  // The reparse saw the new row...
  EXPECT_EQ(fleet.drives.back().num_days(), 2u);
  // ...and rewrote the snapshot: next load hits again.
  IngestReport rep2;
  load_fleet_csv_cached(env.csv, "M", recover(), cache, &rep2, nullptr, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kHit);
}

TEST(Cache, StaleSchemaKnobInvalidates) {
  Env env("schema");
  CacheOptions cache;
  cache.dir = env.dir;
  load_fleet_csv_cached(env.csv, "M", recover(), cache);

  ReadOptions changed = recover();
  changed.max_gap_days = 1;  // the bridged gap now quarantines instead
  IngestReport rep;
  CacheOutcome outcome = CacheOutcome::kDisabled;
  load_fleet_csv_cached(env.csv, "M", changed, cache, &rep, nullptr, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kInvalidated);
  EXPECT_EQ(rep.gap_days_bridged, 0u);
  EXPECT_GT(rep.errors(RowError::kNonContiguousDay), 0u);
}

TEST(Cache, PolicyMismatchInvalidates) {
  Env env("policy");
  CacheOptions cache;
  cache.dir = env.dir;
  load_fleet_csv_cached(env.csv, "M", recover(), cache);

  ReadOptions skip = recover();
  skip.policy = ParsePolicy::kSkipDrive;
  IngestReport rep;
  CacheOutcome outcome = CacheOutcome::kDisabled;
  const FleetData fleet =
      load_fleet_csv_cached(env.csv, "M", skip, cache, &rep, nullptr, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kInvalidated);
  // skip-drive semantics actually applied by the reparse: b is gone.
  EXPECT_GT(rep.drives_quarantined, 0u);
  for (const auto& d : fleet.drives) EXPECT_NE(d.drive_id, "b");
}

TEST(Cache, TruncatedSnapshotInvalidates) {
  Env env("trunc");
  CacheOptions cache;
  cache.dir = env.dir;
  IngestReport cold_rep;
  const FleetData cold = load_fleet_csv_cached(env.csv, "M", recover(), cache, &cold_rep);

  const std::string snap = snapshot_path(env);
  const auto full = std::filesystem::file_size(snap);
  std::filesystem::resize_file(snap, full / 2);

  IngestReport rep;
  CacheOutcome outcome = CacheOutcome::kDisabled;
  const FleetData fleet =
      load_fleet_csv_cached(env.csv, "M", recover(), cache, &rep, nullptr, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kInvalidated);
  expect_same_fleet(cold, fleet);
  expect_same_parse_tallies(cold_rep, rep);
}

TEST(Cache, FlippedByteInvalidates) {
  Env env("bitrot");
  CacheOptions cache;
  cache.dir = env.dir;
  IngestReport cold_rep;
  const FleetData cold = load_fleet_csv_cached(env.csv, "M", recover(), cache, &cold_rep);

  const std::string snap = snapshot_path(env);
  std::string bytes;
  {
    std::ifstream ifs(snap, std::ios::binary);
    std::ostringstream os;
    os << ifs.rdbuf();
    bytes = os.str();
  }
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0x40;  // payload corruption, not the header
  {
    std::ofstream ofs(snap, std::ios::binary | std::ios::trunc);
    ofs << bytes;
  }

  std::string why;
  bool existed = false;
  FleetData fleet;
  IngestReport rep;
  EXPECT_FALSE(
      read_fleet_cache(snap, env.csv, "M", recover(), fleet, rep, &why, &existed));
  EXPECT_TRUE(existed);
  EXPECT_EQ(why, "checksum mismatch");

  CacheOutcome outcome = CacheOutcome::kDisabled;
  const FleetData reparsed =
      load_fleet_csv_cached(env.csv, "M", recover(), cache, &rep, nullptr, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kInvalidated);
  expect_same_fleet(cold, reparsed);
  expect_same_parse_tallies(cold_rep, rep);
}

TEST(Cache, GarbageSnapshotNeverCrashes) {
  Env env("garbage");
  CacheOptions cache;
  cache.dir = env.dir;
  const std::string snap = snapshot_path(env);
  std::filesystem::create_directories(env.dir);
  for (const std::string& junk :
       {std::string("x"), std::string("WEFRFC01"), std::string(4096, '\xff'),
        std::string(64, '\0')}) {
    std::ofstream(snap, std::ios::binary | std::ios::trunc) << junk;
    CacheOutcome outcome = CacheOutcome::kDisabled;
    IngestReport rep;
    const FleetData fleet =
        load_fleet_csv_cached(env.csv, "M", recover(), cache, &rep, nullptr, &outcome);
    EXPECT_EQ(outcome, CacheOutcome::kInvalidated);
    EXPECT_FALSE(rep.fatal);
    EXPECT_EQ(fleet.drives.size(), 3u);
  }
}

TEST(Cache, RefreshBypassesValidSnapshot) {
  Env env("refresh");
  CacheOptions cache;
  cache.dir = env.dir;
  load_fleet_csv_cached(env.csv, "M", recover(), cache);

  cache.refresh = true;
  IngestReport rep;
  CacheOutcome outcome = CacheOutcome::kDisabled;
  load_fleet_csv_cached(env.csv, "M", recover(), cache, &rep, nullptr, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  EXPECT_EQ(rep.cache_hits, 0u);
  EXPECT_EQ(rep.cache_misses, 1u);
}

TEST(Cache, FatalParseWritesNoSnapshot) {
  Env env("fatal");
  env.write("not,a,fleet\n");
  CacheOptions cache;
  cache.dir = env.dir;
  IngestReport rep;
  CacheOutcome outcome = CacheOutcome::kDisabled;
  load_fleet_csv_cached(env.csv, "M", recover(), cache, &rep, nullptr, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  EXPECT_TRUE(rep.fatal);
  EXPECT_FALSE(std::filesystem::exists(snapshot_path(env)));
}

TEST(Cache, DistinctSourcesDoNotCollide) {
  Env env("collide");
  const std::string other_csv = ::testing::TempDir() + "wefr_cache_collide_other.csv";
  {
    std::ofstream ofs(other_csv);
    ofs << "drive_id,day,failed,fail_day,f0\nz,0,0,-1,1\n";
  }
  EXPECT_NE(fleet_cache_path(env.dir, env.csv, "M"),
            fleet_cache_path(env.dir, other_csv, "M"));
  EXPECT_NE(fleet_cache_path(env.dir, env.csv, "M"),
            fleet_cache_path(env.dir, env.csv, "M2"));
  std::remove(other_csv.c_str());
}

TEST(Cache, ExpectedFeatureMismatchInvalidatesWithNewReason) {
  // Mixed-fleet loaders state the feature layout they need via
  // ReadOptions::expected_features; a snapshot written under a
  // different layout (e.g. before the fleet mix changed) must be
  // invalidated, never silently served.
  Env env("schema_mix");
  CacheOptions cache;
  cache.dir = env.dir;

  ReadOptions opt = recover();
  IngestReport rep;
  CacheOutcome outcome = CacheOutcome::kDisabled;
  load_fleet_csv_cached(env.csv, "M", opt, cache, &rep, nullptr, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);

  // Stating the layout the snapshot actually has still hits.
  opt.expected_features = {"f0", "f1"};
  rep = IngestReport{};
  load_fleet_csv_cached(env.csv, "M", opt, cache, &rep, nullptr, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kHit);

  // A different layout — the mix changed — must miss with the
  // dedicated invalidation reason.
  opt.expected_features = {"f0", "f1", "f2"};
  std::string why;
  bool existed = false;
  FleetData fleet;
  IngestReport probe;
  EXPECT_FALSE(read_fleet_cache(snapshot_path(env), env.csv, "M", opt, fleet, probe,
                                &why, &existed));
  EXPECT_TRUE(existed);
  EXPECT_EQ(why, "feature schema mismatch");

  rep = IngestReport{};
  load_fleet_csv_cached(env.csv, "M", opt, cache, &rep, nullptr, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kInvalidated);
  EXPECT_EQ(rep.cache_invalidations, 1u);
}

TEST(Cache, EmptyDirDisablesCaching) {
  Env env("disabled");
  CacheOptions cache;  // dir empty
  IngestReport rep;
  CacheOutcome outcome = CacheOutcome::kHit;
  load_fleet_csv_cached(env.csv, "M", recover(), cache, &rep, nullptr, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kDisabled);
  EXPECT_EQ(rep.cache_hits + rep.cache_misses, 0u);
}

std::string read_file(const std::string& path) {
  std::ifstream ifs(path, std::ios::binary);
  std::ostringstream os;
  os << ifs.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream ofs(path, std::ios::binary | std::ios::trunc);
  ofs << bytes;
}

/// 4 KB of doubles with every byte in play.
std::vector<double> digest_test_values() {
  std::mt19937_64 rng(0xd16e57ull);
  std::uniform_real_distribution<double> dist(-1e3, 1e3);
  std::vector<double> v(512);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// Applies `kMutations` paired top-byte mutations to `record`, each
/// XORing one nonzero mask into the top byte of two distinct 8-byte
/// digest words inside [lo, hi), and counts how many `accepts` lets
/// through. A digest that folds words by xor-multiply alone carries a
/// top-byte difference only upward, so such a pair can cancel.
std::size_t paired_top_byte_escapes(const std::string& record, std::size_t lo,
                                    std::size_t hi,
                                    const std::function<bool(const std::string&)>& accepts) {
  constexpr int kMutations = 4096;
  const std::size_t first_word = (lo + 7) / 8, end_word = hi / 8;
  EXPECT_GE(end_word, first_word + 2);
  std::mt19937_64 rng(0x70b17e5ull);
  std::uniform_int_distribution<std::size_t> word(first_word, end_word - 1);
  std::uniform_int_distribution<int> mask(1, 255);
  std::size_t escapes = 0;
  for (int m = 0; m < kMutations; ++m) {
    const std::size_t a = word(rng);
    std::size_t b = word(rng);
    while (b == a) b = word(rng);
    const auto x = static_cast<char>(mask(rng));
    std::string bad = record;
    bad[a * 8 + 7] = static_cast<char>(bad[a * 8 + 7] ^ x);
    bad[b * 8 + 7] = static_cast<char>(bad[b * 8 + 7] ^ x);
    if (accepts(bad)) ++escapes;
  }
  return escapes;
}

TEST(RecordDigest, PairedTopByteFlipsAreRejectedInEveryRecordKind) {
  const std::vector<double> values = digest_test_values();
  const std::string payload(reinterpret_cast<const char*>(values.data()),
                            values.size() * sizeof(double));
  const std::size_t header = kDaemonFrameHeaderSize;

  // WEFRDM01 daemon frames.
  const std::string frame = encode_daemon_frame(DaemonFrameKind::kRequest, 7, payload);
  EXPECT_EQ(0u, paired_top_byte_escapes(frame, header, header + payload.size(),
                                        [](const std::string& bad) {
                                          std::uint32_t seq = 0;
                                          std::string out;
                                          return decode_daemon_frame(
                                              bad, DaemonFrameKind::kRequest, seq, out,
                                              nullptr);
                                        }));

  // WEFRDS01 daemon snapshots.
  const std::string snapshot = encode_daemon_snapshot(payload);
  EXPECT_EQ(0u, paired_top_byte_escapes(snapshot, header, header + payload.size(),
                                        [](const std::string& bad) {
                                          std::string out;
                                          return decode_daemon_snapshot(bad, out, nullptr);
                                        }));

  // WEFRFC01 fleet cache: mutate the value block, the file's tail.
  Env env("digest");
  FleetData fleet;
  fleet.model_name = "M";
  fleet.feature_names = {"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"};
  DriveSeries drive;
  drive.drive_id = "d0";
  for (std::size_t r = 0; r < 64; ++r)
    drive.values.push_row(std::span<const double>(values.data() + r * 8, 8));
  fleet.drives.push_back(std::move(drive));
  fleet.num_days = 64;
  const std::string path = env.dir + "/digest.bin";
  std::filesystem::create_directories(env.dir);
  std::string err;
  ASSERT_TRUE(write_fleet_cache(path, env.csv, "M", recover(), fleet, IngestReport{}, &err))
      << err;
  const std::string cache = read_file(path);
  const std::size_t tail = cache.size() - sizeof(std::uint64_t);
  ASSERT_GT(tail, payload.size());
  EXPECT_EQ(0u, paired_top_byte_escapes(cache, tail - payload.size(), tail,
                                        [&](const std::string& bad) {
                                          write_file(path, bad);
                                          FleetData f;
                                          IngestReport rep;
                                          return read_fleet_cache(path, env.csv, "M",
                                                                  recover(), f, rep);
                                        }));
  write_file(path, cache);  // the clean file still loads
  FleetData back;
  IngestReport rep;
  ASSERT_TRUE(read_fleet_cache(path, env.csv, "M", recover(), back, rep));
  expect_same_fleet(fleet, back);
}

// A record written before the digest changed carries the previous
// format version, and is refused for it before its digest is checked.
TEST(RecordDigest, PreviousFormatVersionsAreRefusedAsVersionMismatch) {
  const auto with_version = [](std::string record, std::uint32_t version) {
    std::memcpy(record.data() + 8, &version, sizeof(version));
    return record;
  };
  std::string why;
  std::uint32_t seq = 0;
  std::string out;
  const std::string frame =
      with_version(encode_daemon_frame(DaemonFrameKind::kRequest, 1, "x"), 1);
  EXPECT_FALSE(decode_daemon_frame(frame, DaemonFrameKind::kRequest, seq, out, &why));
  EXPECT_EQ("format version mismatch", why);
  std::size_t total = 0;
  EXPECT_EQ(DaemonFramePeek::kBad, peek_daemon_frame(frame, total, &why));
  EXPECT_EQ("format version mismatch", why);

  EXPECT_FALSE(decode_daemon_snapshot(with_version(encode_daemon_snapshot("x"), 1), out, &why));
  EXPECT_EQ("format version mismatch", why);

  Env env("oldversion");
  CacheOptions cache;
  cache.dir = env.dir;
  load_fleet_csv_cached(env.csv, "M", recover(), cache);
  const std::string snap = snapshot_path(env);
  write_file(snap, with_version(read_file(snap), 2));
  FleetData fleet;
  IngestReport rep;
  EXPECT_FALSE(read_fleet_cache(snap, env.csv, "M", recover(), fleet, rep, &why));
  EXPECT_EQ("format version mismatch", why);
}

}  // namespace
}  // namespace wefr::data
