// Daemon suite: the resident incremental fleet-scoring engine and its
// wire protocol. Three contracts are pinned here:
//
//   1. Streaming bit-identity — the per-append streaming kernels of
//      daemon::ResidentFleet emit feature rows bit-identical to
//      data::expand_series over the full history, at every history
//      length, for any window config; and daemon::Engine's dirty-set
//      rescore reproduces core::score_fleet bit-for-bit regardless of
//      append ordering, rescore cut points, thread counts, or drives
//      knocked out of streaming mode by non-finite values.
//   2. Frame integrity — WEFRDM01 protocol frames and WEFRDS01
//      snapshot records refuse every single-bit tamper and truncation
//      (the digest covers header and payload both).
//   3. Transport semantics — the loopback and Unix-socket transports
//      run the same event loop; a client survives mid-stream
//      disconnects and whole-server restarts by redial + re-hello,
//      while a corrupted byte stream gets one error reply and a closed
//      connection, never a resync.
//   4. One deployment loop — the same fleet replayed in process and
//      streamed through a client makes the same checks, drift
//      detections, threshold recalibrations and alarms.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "daemon/client.h"
#include "daemon/engine.h"
#include "daemon/protocol.h"
#include "daemon/resident.h"
#include "daemon/server.h"
#include "data/cache.h"
#include "data/preprocess.h"
#include "data/window_features.h"
#include "obs/context.h"
#include "smartsim/generator.h"
#include "smartsim/mixed_fleet.h"

namespace wefr::daemon {
namespace {

data::FleetData mc1_fleet(std::uint64_t seed = 5, std::size_t drives = 60,
                          int days = 110, double afr_scale = 30.0) {
  smartsim::SimOptions opt;
  opt.num_drives = drives;
  opt.num_days = days;
  opt.seed = seed;
  opt.afr_scale = afr_scale;
  return generate_fleet(smartsim::profile_by_name("MC1"), opt);
}

core::ExperimentConfig light_cfg(std::size_t threads = 0) {
  core::ExperimentConfig cfg;
  cfg.forest.num_trees = 10;
  cfg.forest.tree.max_depth = 7;
  cfg.num_threads = threads;
  return cfg;
}

/// A deterministically-trained predictor with wear routing: three
/// distinct bundles (different feature subsets) plus a threshold in the
/// simulated MWI_N range, so the incremental scorer's per-day routing
/// (low / high / NaN-reroute) is actually exercised.
core::WefrPredictor routed_predictor(const data::FleetData& fleet, int train_end,
                                     const core::ExperimentConfig& cfg) {
  std::vector<std::size_t> all_cols(fleet.num_features());
  std::iota(all_cols.begin(), all_cols.end(), std::size_t{0});
  const std::vector<std::size_t> low_cols = {0, 1, 2, 3};
  const std::vector<std::size_t> high_cols = {2, 3, 4, 5};
  core::WefrPredictor p;
  p.all = core::train_bundle(fleet, all_cols, 0, train_end, cfg);
  p.low = core::train_bundle(fleet, low_cols, 0, train_end, cfg);
  p.high = core::train_bundle(fleet, high_cols, 0, train_end, cfg);
  p.wear_threshold = 88.0;  // simulated MWI_N wears down from 100
  p.mwi_col = fleet.feature_index("MWI_N");
  EXPECT_GE(p.mwi_col, 0);
  return p;
}

enum class Order { kDayMajor, kDriveMajor, kInterleaved };

/// Streams fleet days [day_lo, day_hi] into the engine in the given
/// order. All orders are valid protocol streams (per-drive contiguity
/// holds in each); they differ in when the day watermark advances.
void append_fleet(Engine& engine, const data::FleetData& fleet, int day_lo, int day_hi,
                  Order order) {
  const auto feed_one = [&](const data::DriveSeries& d, int day) {
    if (day < d.first_day || day > d.last_day()) return;
    engine.append_day(d.drive_id, day,
                      d.values.row(static_cast<std::size_t>(day - d.first_day)),
                      d.fail_day);
  };
  switch (order) {
    case Order::kDayMajor:
      for (int day = day_lo; day <= day_hi; ++day)
        for (const auto& d : fleet.drives) feed_one(d, day);
      break;
    case Order::kDriveMajor:
      for (const auto& d : fleet.drives)
        for (int day = day_lo; day <= day_hi; ++day) feed_one(d, day);
      break;
    case Order::kInterleaved: {
      // Half the fleet a week ahead of the other half, swapping leads
      // every chunk — drives at visibly different watermarks.
      const std::size_t half = fleet.drives.size() / 2;
      for (int chunk = day_lo; chunk <= day_hi; chunk += 7) {
        const int hi = std::min(day_hi, chunk + 6);
        for (std::size_t i = 0; i < half; ++i)
          for (int day = chunk; day <= hi; ++day) feed_one(fleet.drives[i], day);
        for (std::size_t i = half; i < fleet.drives.size(); ++i)
          for (int day = chunk; day <= hi; ++day) feed_one(fleet.drives[i], day);
      }
      break;
    }
  }
}

void expect_same_scores(const std::vector<core::DriveDayScores>& got,
                        const std::vector<core::DriveDayScores>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].drive_index, want[i].drive_index) << "entry " << i;
    EXPECT_EQ(got[i].first_day, want[i].first_day) << "entry " << i;
    ASSERT_EQ(got[i].scores.size(), want[i].scores.size()) << "entry " << i;
    ASSERT_EQ(0, std::memcmp(got[i].scores.data(), want[i].scores.data(),
                             got[i].scores.size() * sizeof(double)))
        << "scores differ for drive " << got[i].drive_index;
  }
}

Engine make_engine(const data::FleetData& fleet, const core::WefrPredictor& pred,
                   std::size_t threads = 0, bool oracle_check = false) {
  EngineOptions eopt;
  eopt.experiment = light_cfg(threads);
  eopt.auto_check = false;
  eopt.oracle_check = oracle_check;
  Engine engine(eopt, eopt.experiment.windows);
  engine.resident().set_schema(fleet.model_name, fleet.feature_names);
  engine.set_predictor(pred);
  return engine;
}

// ------------------------------------------------------------- framing

TEST(DaemonFrame, RoundTripWithBinaryPayload) {
  std::string payload = "daemon payload";
  payload.push_back('\0');
  payload += "\x01\xff tail";
  const std::string frame =
      data::encode_daemon_frame(data::DaemonFrameKind::kRequest, 42, payload);
  ASSERT_GE(frame.size(), data::kDaemonFrameHeaderSize + payload.size() + 8);

  std::size_t total = 0;
  std::string why;
  EXPECT_EQ(data::DaemonFramePeek::kFrame, data::peek_daemon_frame(frame, total, &why));
  EXPECT_EQ(frame.size(), total);

  std::uint32_t seq = 0;
  std::string out;
  ASSERT_TRUE(data::decode_daemon_frame(frame, data::DaemonFrameKind::kRequest, seq, out,
                                        &why))
      << why;
  EXPECT_EQ(42u, seq);
  EXPECT_EQ(payload, out);

  // The kind slot distinguishes requests from responses.
  EXPECT_FALSE(
      data::decode_daemon_frame(frame, data::DaemonFrameKind::kResponse, seq, out, &why));
}

TEST(DaemonFrame, PeekNeedsWholeHeaderThenWholeFrame) {
  const std::string frame =
      data::encode_daemon_frame(data::DaemonFrameKind::kResponse, 7, "pay");
  std::size_t total = 0;
  for (std::size_t len = 0; len < data::kDaemonFrameHeaderSize; ++len) {
    EXPECT_EQ(data::DaemonFramePeek::kNeedMore,
              data::peek_daemon_frame(frame.substr(0, len), total, nullptr))
        << "header prefix " << len;
  }
  // With the header visible the peek reports the full size; every
  // truncated decode refuses.
  for (std::size_t len = data::kDaemonFrameHeaderSize; len < frame.size(); ++len) {
    const std::string prefix = frame.substr(0, len);
    EXPECT_EQ(data::DaemonFramePeek::kFrame,
              data::peek_daemon_frame(prefix, total, nullptr));
    EXPECT_EQ(frame.size(), total);
    std::uint32_t seq = 0;
    std::string out;
    EXPECT_FALSE(data::decode_daemon_frame(prefix, data::DaemonFrameKind::kResponse, seq,
                                           out, nullptr))
        << "truncated at " << len;
  }
}

TEST(DaemonFrame, EverySingleBitFlipIsRejected) {
  const std::string frame = data::encode_daemon_frame(data::DaemonFrameKind::kRequest, 9,
                                                      "thirty-two bytes of payload data");
  // The word-wise digest covers header and payload both, so no offset —
  // magic, version, kind, even the sequence-number slot — survives a
  // flip.
  for (std::size_t off = 0; off < frame.size(); ++off) {
    std::string bad = frame;
    bad[off] = static_cast<char>(bad[off] ^ 0x20);
    std::uint32_t seq = 0;
    std::string out, why;
    EXPECT_FALSE(
        data::decode_daemon_frame(bad, data::DaemonFrameKind::kRequest, seq, out, &why))
        << "bit flip at offset " << off << " was accepted";
  }
}

TEST(DaemonFrame, PeekRejectsForeignMagicAndOversizedFrames) {
  std::string frame = data::encode_daemon_frame(data::DaemonFrameKind::kRequest, 1, "x");
  std::string bad = frame;
  bad[0] = 'X';
  std::size_t total = 0;
  std::string why;
  EXPECT_EQ(data::DaemonFramePeek::kBad, data::peek_daemon_frame(bad, total, &why));
  EXPECT_FALSE(why.empty());

  // A payload-size lie past the cap is refused at peek time, before any
  // allocation in its name.
  bad = frame;
  const std::uint64_t huge = data::kDaemonMaxFramePayload + 1;
  std::memcpy(bad.data() + 32, &huge, sizeof(huge));
  EXPECT_EQ(data::DaemonFramePeek::kBad, data::peek_daemon_frame(bad, total, &why));
}

TEST(DaemonSnapshotRecord, RoundTripTamperAndFile) {
  const std::string payload = "resident fleet snapshot bytes \x00\x01\x02";
  const std::string rec = data::encode_daemon_snapshot(payload);
  std::string out, why;
  ASSERT_TRUE(data::decode_daemon_snapshot(rec, out, &why)) << why;
  EXPECT_EQ(payload, out);

  for (std::size_t off = 0; off < rec.size(); off += 3) {
    std::string bad = rec;
    bad[off] = static_cast<char>(bad[off] ^ 0x40);
    EXPECT_FALSE(data::decode_daemon_snapshot(bad, out, nullptr)) << "offset " << off;
  }
  EXPECT_FALSE(data::decode_daemon_snapshot(rec.substr(0, rec.size() - 1), out, nullptr));

  const std::string path =
      testing::TempDir() + "wefrds_test_" + std::to_string(::getpid()) + ".bin";
  ASSERT_TRUE(data::write_daemon_snapshot(path, payload, &why)) << why;
  ASSERT_TRUE(data::read_daemon_snapshot(path, out, &why)) << why;
  EXPECT_EQ(payload, out);
  ::unlink(path.c_str());
}

// ------------------------------------------------------------ protocol

TEST(DaemonProtocol, MessageRoundTripAllTypes) {
  Msg m;
  m.type = MsgType::kHello;
  m.client_name = "tester";
  m.model_name = "MC1";
  m.feature_names = {"A_R", "A_N", "MWI_N"};
  Msg back;
  std::string why;
  ASSERT_TRUE(decode_message(encode_message(m), back, &why)) << why;
  EXPECT_EQ(MsgType::kHello, back.type);
  EXPECT_EQ(m.client_name, back.client_name);
  EXPECT_EQ(m.feature_names, back.feature_names);

  m = Msg{};
  m.type = MsgType::kAppendDay;
  m.drive_id = "MC1_17";
  m.day = 93;
  m.fail_day = 120;
  m.values = {1.0, -0.0, std::nan("")};
  ASSERT_TRUE(decode_message(encode_message(m), back, &why)) << why;
  EXPECT_EQ(m.drive_id, back.drive_id);
  EXPECT_EQ(m.day, back.day);
  EXPECT_EQ(m.fail_day, back.fail_day);
  ASSERT_EQ(3u, back.values.size());
  // Bitwise: -0.0 and NaN payloads must survive the wire untouched.
  EXPECT_EQ(0, std::memcmp(m.values.data(), back.values.data(), 3 * sizeof(double)));

  m = Msg{};
  m.type = MsgType::kScoreOk;
  m.found = true;
  m.score_day = 88;
  m.score = 0.625;
  m.days_scored = 1234;
  m.drives_rescored = 56;
  ASSERT_TRUE(decode_message(encode_message(m), back, &why)) << why;
  EXPECT_TRUE(back.found);
  EXPECT_EQ(88, back.score_day);
  EXPECT_EQ(0.625, back.score);
  EXPECT_EQ(1234u, back.days_scored);
  EXPECT_EQ(56u, back.drives_rescored);

  m = make_error("no predictor yet");
  ASSERT_TRUE(decode_message(encode_message(m), back, &why)) << why;
  EXPECT_EQ(MsgType::kError, back.type);
  EXPECT_EQ("no predictor yet", back.text);
}

TEST(DaemonProtocol, MalformedMessagesRefused) {
  Msg back;
  std::string why;
  EXPECT_FALSE(decode_message("", back, &why));
  EXPECT_FALSE(decode_message("abc", back, &why));  // truncated type tag

  const std::uint32_t bogus = 9999;
  std::string unknown(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  EXPECT_FALSE(decode_message(unknown, back, &why));
  EXPECT_NE(std::string::npos, why.find("unknown"));

  Msg m;
  m.type = MsgType::kReport;
  std::string trailing = encode_message(m) + "x";
  EXPECT_FALSE(decode_message(trailing, back, &why));

  m.type = MsgType::kAppendDay;
  m.drive_id = "d";
  m.values = {1.0, 2.0};
  const std::string enc = encode_message(m);
  EXPECT_FALSE(decode_message(std::string_view(enc).substr(0, enc.size() - 5), back, &why));
}

// ------------------------------------------------- resident bit-identity

/// Folds every unfolded day of drive `di` and returns the emitted rows.
data::Matrix fold_rows(ResidentFleet& resident, std::size_t di) {
  data::Matrix rows =
      data::Matrix::uninitialized(resident.unfolded_days(di), resident.row_width());
  resident.fold(di, rows.raw());
  return rows;
}

void append_rows(data::Matrix& dst, const data::Matrix& src) {
  for (std::size_t r = 0; r < src.rows(); ++r) dst.push_row(src.row(r));
}

void expect_same_rows(const data::Matrix& got, const data::Matrix& want,
                      const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t r = 0; r < got.rows(); ++r) {
    ASSERT_EQ(0, std::memcmp(got.row(r).data(), want.row(r).data(),
                             got.cols() * sizeof(double)))
        << what << ": row " << r << " diverged";
  }
}

void check_resident_matches_batch(const data::WindowFeatureConfig& cfg, int days,
                                  std::size_t cols) {
  std::mt19937_64 rng(0x5eedull + days);
  std::uniform_real_distribution<double> dist(-3.0, 3.0);
  data::Matrix series;
  std::vector<double> row(cols);
  for (int d = 0; d < days; ++d) {
    for (auto& v : row) v = dist(rng);
    series.push_row(row);
  }
  std::vector<std::size_t> base_cols(cols);
  std::iota(base_cols.begin(), base_cols.end(), std::size_t{0});
  std::vector<std::string> names;
  for (std::size_t c = 0; c < cols; ++c) names.push_back("f" + std::to_string(c));
  const data::Matrix want = data::expand_series(series, base_cols, cfg);

  // Fold-cut invariance: folding after every 1, 3 or 7 days, or once at
  // the end, emits the same bytes, equal to the batch expansion.
  for (const int cut : {1, 3, 7, days}) {
    ResidentFleet resident(cfg);
    resident.set_schema("T", names);
    data::Matrix streamed;
    for (int d = 0; d < days; ++d) {
      resident.append_day("drv", d, series.row(static_cast<std::size_t>(d)));
      ASSERT_EQ(static_cast<std::size_t>(d + 1) - streamed.rows(), resident.unfolded_days(0));
      if ((d + 1) % cut == 0) append_rows(streamed, fold_rows(resident, 0));
      // The rows emitted so far must match the batch expansion of the
      // history as of *this* length — checked via causality below, plus
      // directly at one mid-stream length.
      if (d == days / 2) {
        append_rows(streamed, fold_rows(resident, 0));
        data::Matrix prefix;
        for (int p = 0; p <= d; ++p) prefix.push_row(series.row(static_cast<std::size_t>(p)));
        expect_same_rows(streamed, data::expand_series(prefix, base_cols, cfg),
                         "mid-stream, length " + std::to_string(d + 1));
      }
    }
    append_rows(streamed, fold_rows(resident, 0));
    EXPECT_EQ(0u, resident.unfolded_days(0));
    EXPECT_EQ(days, resident.first_unfolded_day(0));
    expect_same_rows(streamed, want, "folds every " + std::to_string(cut) + " days");
  }
}

TEST(ResidentFleet, StreamingRowsMatchBatchExpansionDefaultWindows) {
  check_resident_matches_batch(data::WindowFeatureConfig{}, 41, 3);
}

TEST(ResidentFleet, StreamingRowsMatchBatchExpansionPowerOfTwoWindows) {
  data::WindowFeatureConfig cfg;
  cfg.windows = {1, 2, 4, 8};
  check_resident_matches_batch(cfg, 37, 2);
}

TEST(ResidentFleet, StreamingRowsMatchBatchExpansionWideWindows) {
  data::WindowFeatureConfig cfg;
  cfg.windows = {2, 5, 16, 30};
  check_resident_matches_batch(cfg, 64, 2);
}

// No window needs level 1, so level 2 is built fused from the raw ring.
TEST(ResidentFleet, StreamingRowsMatchBatchExpansionFusedLevelTwo) {
  data::WindowFeatureConfig cfg;
  cfg.windows = {7, 14, 30};
  check_resident_matches_batch(cfg, 70, 3);
}

TEST(ResidentFleet, NonFiniteValueKnocksDriveOutOfStreaming) {
  ResidentFleet resident;
  resident.set_schema("T", {"a", "b"});
  const double clean[2] = {1.0, 2.0};
  for (int d = 0; d < 5; ++d) {
    const auto res = resident.append_day("drv", d, clean);
    EXPECT_FALSE(res.went_nonfinite);
  }
  EXPECT_TRUE(resident.streaming(0));
  EXPECT_EQ(5u, resident.unfolded_days(0));

  // Appends are raw-only: the five days are still unfolded when the
  // NaN arrives, and none of them is ever folded after it.
  const double dirty[2] = {1.0, std::nan("")};
  const auto res = resident.append_day("drv", 5, dirty);
  EXPECT_TRUE(res.went_nonfinite);
  EXPECT_FALSE(resident.streaming(0));
  EXPECT_EQ(0u, resident.unfolded_days(0));
  resident.fold(0, {});  // a no-op for a non-streaming drive
  EXPECT_EQ(0, resident.first_unfolded_day(0));

  // Once out, a drive stays out — later finite days do not resume the
  // stream (the whole-column finiteness classification already flipped).
  const auto later = resident.append_day("drv", 6, clean);
  EXPECT_FALSE(later.went_nonfinite);
  EXPECT_FALSE(resident.streaming(0));
  // The raw history keeps everything for the batch oracle.
  EXPECT_EQ(7u, resident.fleet().drives[0].num_days());
}

TEST(ResidentFleet, RefusesGapsAndConflictingFailDays) {
  ResidentFleet resident;
  resident.set_schema("T", {"a"});
  const double v[1] = {1.0};
  resident.append_day("drv", 10, v);  // late start is fine
  EXPECT_EQ(10, resident.fleet().drives[0].first_day);
  EXPECT_THROW(resident.append_day("drv", 12, v), std::invalid_argument);  // gap
  EXPECT_THROW(resident.append_day("drv", 10, v), std::invalid_argument);  // replay
  resident.append_day("drv", 11, v, 40);
  EXPECT_THROW(resident.append_day("drv", 12, v, 41), std::invalid_argument);
  const std::vector<double> wide = {1.0, 2.0};
  EXPECT_THROW(resident.append_day("other", 0, wide), std::invalid_argument);
}

TEST(ResidentFleet, SnapshotRoundTripRebuildsStreamingState) {
  const auto fleet = mc1_fleet(17, 12, 60);
  ResidentFleet a;
  a.set_schema(fleet.model_name, fleet.feature_names);
  for (int day = 0; day < fleet.num_days; ++day) {
    for (const auto& d : fleet.drives) {
      if (day < d.first_day || day > d.last_day()) continue;
      a.append_day(d.drive_id, day, d.values.row(static_cast<std::size_t>(day - d.first_day)),
                   d.fail_day);
    }
  }
  // A non-finite drive must survive the round trip as non-streaming.
  const std::vector<double> dirty(fleet.num_features(), std::nan(""));
  a.append_day("nan_drive", 30, dirty);
  ASSERT_FALSE(a.streaming(a.find_drive("nan_drive")));

  const std::string payload = a.save_snapshot();
  ResidentFleet b;
  std::string why;
  ASSERT_TRUE(b.load_snapshot(payload, &why)) << why;

  ASSERT_EQ(a.num_drives(), b.num_drives());
  ASSERT_EQ(a.max_day(), b.max_day());
  for (std::size_t di = 0; di < a.num_drives(); ++di) {
    const auto& da = a.fleet().drives[di];
    const auto& db = b.fleet().drives[di];
    EXPECT_EQ(da.drive_id, db.drive_id);
    EXPECT_EQ(da.first_day, db.first_day);
    EXPECT_EQ(da.fail_day, db.fail_day);
    ASSERT_EQ(da.num_days(), db.num_days());
    ASSERT_EQ(0, std::memcmp(da.values.raw().data(), db.values.raw().data(),
                             da.values.rows() * da.values.cols() * sizeof(double)));
    EXPECT_EQ(a.streaming(di), b.streaming(di));
  }

  // Every restored day starts unfolded. Folding them rebuilds the
  // accumulators, which keep emitting bit-identical rows: fold both
  // sides state-only, append one more day to a streaming drive on both
  // sides and compare, also against the batch expansion.
  for (std::size_t di = 0; di < a.num_drives(); ++di) {
    EXPECT_EQ(a.unfolded_days(di), b.unfolded_days(di));
    a.fold(di, {});
    b.fold(di, {});
  }
  const auto& d0 = fleet.drives[0];
  std::vector<double> next(fleet.num_features(), 0.25);
  const int day = a.fleet().drives[0].last_day() + 1;
  a.append_day(d0.drive_id, day, next, d0.fail_day);
  b.append_day(d0.drive_id, day, next, d0.fail_day);
  const data::Matrix ra = fold_rows(a, 0), rb = fold_rows(b, 0);
  ASSERT_EQ(1u, ra.rows());
  expect_same_rows(rb, ra, "restored vs original");
  std::vector<std::size_t> all_cols(fleet.num_features());
  std::iota(all_cols.begin(), all_cols.end(), std::size_t{0});
  const data::Matrix batch = data::expand_series(b.fleet().drives[0].values, all_cols);
  ASSERT_EQ(0, std::memcmp(rb.row(0).data(), batch.row(batch.rows() - 1).data(),
                           rb.cols() * sizeof(double)));
}

// A daemon stopped before its first hello snapshots the pre-schema
// empty state; restarting from that snapshot must work (and must not be
// confused with a truncated payload).
TEST(ResidentFleet, EmptySnapshotRoundTripsBeforeAnySchema) {
  ResidentFleet a;
  const std::string payload = a.save_snapshot();

  ResidentFleet b;
  std::string why;
  ASSERT_TRUE(b.load_snapshot(payload, &why)) << why;
  EXPECT_FALSE(b.has_schema());
  EXPECT_EQ(0u, b.num_drives());

  // The restored instance is still a blank slate: schema + appends work.
  b.set_schema("T", {"x"});
  const double v[1] = {2.5};
  b.append_day("drv", 0, v);
  EXPECT_TRUE(b.streaming(0));

  // But an empty schema followed by drive payload is damage, not data:
  // flip the feature count to zero in a populated snapshot.
  ResidentFleet c;
  c.set_schema("T", {"x"});
  c.append_day("drv", 0, v);
  std::string damaged = c.save_snapshot();
  // Layout: u32 version, str model ("T": u32 len + 1 byte), u32 nwin,
  // nwin i32s, then u32 nfeat — zero it in place.
  const std::size_t nwin_at = sizeof(std::uint32_t) + sizeof(std::uint32_t) + 1;
  std::uint32_t nwin = 0;
  std::memcpy(&nwin, damaged.data() + nwin_at, sizeof(nwin));
  const std::size_t nfeat_at = nwin_at + sizeof(std::uint32_t) + nwin * sizeof(std::int32_t);
  const std::uint32_t zero = 0;
  std::memcpy(damaged.data() + nfeat_at, &zero, sizeof(zero));
  ResidentFleet d;
  EXPECT_FALSE(d.load_snapshot(damaged, &why));
}

TEST(ResidentFleet, SnapshotRefusesDamageAndConfigMismatch) {
  ResidentFleet a;
  a.set_schema("T", {"x"});
  const double v[1] = {1.5};
  for (int d = 0; d < 10; ++d) a.append_day("drv", d, v);
  const std::string payload = a.save_snapshot();

  std::string why;
  ResidentFleet truncated;
  EXPECT_FALSE(
      truncated.load_snapshot(std::string_view(payload).substr(0, payload.size() / 2), &why));

  data::WindowFeatureConfig other;
  other.windows = {3, 7, 14};
  ResidentFleet mismatched(other);
  EXPECT_FALSE(mismatched.load_snapshot(payload, &why));
  EXPECT_NE(std::string::npos, why.find("window"));

  ResidentFleet occupied;
  occupied.set_schema("T", {"x"});
  occupied.append_day("drv", 0, v);
  EXPECT_FALSE(occupied.load_snapshot(payload, &why));
}

// --------------------------------------------- engine vs batch oracle

TEST(Engine, MatchesBatchOracleAcrossAppendOrdersAndThreads) {
  const auto fleet = mc1_fleet();
  const auto cfg0 = light_cfg(0);
  const auto pred = routed_predictor(fleet, 79, cfg0);

  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    const auto oracle =
        core::score_fleet(fleet, pred, 0, fleet.num_days - 1, light_cfg(threads));
    for (const Order order : {Order::kDayMajor, Order::kDriveMajor, Order::kInterleaved}) {
      Engine engine = make_engine(fleet, pred, threads);
      append_fleet(engine, fleet, 0, fleet.num_days - 1, order);
      const auto stats = engine.rescore();
      EXPECT_EQ(fleet.drives.size(), stats.drives_rescored);
      EXPECT_EQ(0u, stats.drives_full);  // everything finite -> all streaming
      expect_same_scores(engine.scores(), oracle);
    }
  }
}

TEST(Engine, IncrementalRescoresMatchOracleAtEveryCutPoint) {
  const auto fleet = mc1_fleet(23, 40, 90);
  const auto cfg = light_cfg(0);
  const auto pred = routed_predictor(fleet, 59, cfg);
  Engine engine = make_engine(fleet, pred);

  std::size_t total_rows = 0;
  for (int lo = 0; lo < fleet.num_days; lo += 10) {
    const int hi = std::min(fleet.num_days - 1, lo + 9);
    append_fleet(engine, fleet, lo, hi, Order::kDayMajor);
    const auto stats = engine.rescore();
    total_rows += stats.rows_scored;
    EXPECT_EQ(0u, stats.drives_full);
    // Each pass is incremental: only the newly appended days run
    // inference, yet the cumulative result equals the from-scratch
    // oracle at this cut point.
    const auto oracle = core::score_fleet(fleet, pred, 0, hi, cfg);
    expect_same_scores(engine.scores(), oracle);
  }
  EXPECT_EQ(fleet.total_drive_days(), total_rows);  // no day scored twice

  // Once clean, a rescore is free.
  const auto idle = engine.rescore();
  EXPECT_EQ(0u, idle.drives_rescored);
  EXPECT_EQ(0u, idle.rows_scored);
}

TEST(Engine, NonFiniteDrivesFallBackToOracleScoring) {
  auto fleet = mc1_fleet(29, 30, 80);
  // Drive 3: NaN burst in one raw feature -> leaves streaming mode.
  for (int d = 20; d < 24; ++d) fleet.drives[3].values(d, 1) = std::nan("");
  // Drive 7: NaN in the MWI column. Any non-finite value exits
  // streaming mode, and on top of that the batch oracle cannot route
  // those days and rescores them against the whole-model bundle — both
  // behaviors must agree with score_fleet.
  const int mwi_col = fleet.feature_index("MWI_N");
  ASSERT_GE(mwi_col, 0);
  for (int d = 40; d < 43; ++d)
    fleet.drives[7].values(d, static_cast<std::size_t>(mwi_col)) = std::nan("");

  const auto cfg = light_cfg(0);
  const auto pred = routed_predictor(fleet, 49, cfg);
  Engine engine = make_engine(fleet, pred);
  append_fleet(engine, fleet, 0, fleet.num_days - 1, Order::kDayMajor);
  const auto stats = engine.rescore();
  EXPECT_EQ(2u, stats.drives_full);  // exactly the two NaN drives
  EXPECT_FALSE(engine.resident().streaming(3));
  EXPECT_FALSE(engine.resident().streaming(7));
  expect_same_scores(engine.scores(),
                     core::score_fleet(fleet, pred, 0, fleet.num_days - 1, cfg));

  const auto again = engine.rescore();
  EXPECT_EQ(0u, again.drives_rescored);
}

// Appends are raw-only, so a NaN can arrive while the drive still has
// unfolded days: it demotes the drive before they are ever folded, and
// from then on the oracle scores it.
TEST(Engine, NonFiniteValueAmidUnfoldedDaysDemotesToOracle) {
  auto fleet = mc1_fleet(73, 24, 70);
  fleet.drives[5].values(37, 2) = std::nan("");
  const auto cfg = light_cfg(0);
  const auto pred = routed_predictor(fleet, 39, cfg);
  const std::size_t n = fleet.drives.size();

  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    Engine engine = make_engine(fleet, pred, threads);
    append_fleet(engine, fleet, 0, 29, Order::kDayMajor);
    EXPECT_EQ(n, engine.rescore().drives_incremental);
    append_fleet(engine, fleet, 30, 36, Order::kDayMajor);
    ASSERT_EQ(7u, engine.resident().unfolded_days(5));
    append_fleet(engine, fleet, 37, 37, Order::kDayMajor);  // drive 5's NaN
    EXPECT_FALSE(engine.resident().streaming(5));
    EXPECT_EQ(0u, engine.resident().unfolded_days(5));
    append_fleet(engine, fleet, 38, 44, Order::kDayMajor);

    const auto stats = engine.rescore();
    EXPECT_EQ(1u, stats.drives_full);
    EXPECT_EQ(n - 1, stats.drives_incremental);
    expect_same_scores(engine.scores(), core::score_fleet(fleet, pred, 0, 44, light_cfg(threads)));

    append_fleet(engine, fleet, 45, fleet.num_days - 1, Order::kDayMajor);
    const auto more = engine.rescore();
    EXPECT_EQ(1u, more.drives_full);
    EXPECT_EQ(n - 1, more.drives_incremental);
    expect_same_scores(engine.scores(), core::score_fleet(fleet, pred, 0, fleet.num_days - 1,
                                                          light_cfg(threads)));
  }
}

// Days appended before the first predictor, and restored days, never
// become expanded rows: a rescore without a predictor folds them into
// the window state only, and the first pass under a predictor scores
// them through the oracle (with a state-only fold of whatever is still
// pending). From then on every drive streams, bit-identical to the
// batch oracle.
TEST(Engine, BacklogAndRestoredDrivesGoThroughOracleThenStream) {
  const auto fleet = mc1_fleet(79, 30, 90);
  const std::size_t n = fleet.drives.size();
  const auto expect_drained = [&](const Engine& e) {
    for (std::size_t di = 0; di < e.resident().num_drives(); ++di)
      ASSERT_EQ(0u, e.resident().unfolded_days(di)) << "drive " << di;
  };
  const auto day_count = [&](const Engine& e) {
    std::size_t days = 0;
    for (const auto& d : e.fleet().drives) days += d.num_days();
    return days;
  };

  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    const auto cfg = light_cfg(threads);
    const auto pred = routed_predictor(fleet, 49, light_cfg(0));
    EngineOptions eopt;
    eopt.experiment = cfg;
    eopt.auto_check = false;

    // A backlog: 20 days folded state-only by a predictor-less pass,
    // then 15 more left unfolded when the predictor arrives.
    Engine a(eopt, eopt.experiment.windows);
    a.resident().set_schema(fleet.model_name, fleet.feature_names);
    append_fleet(a, fleet, 0, 19, Order::kDayMajor);
    const auto idle = a.rescore();
    EXPECT_EQ(0u, idle.drives_rescored);
    EXPECT_EQ(0u, idle.rows_scored);
    expect_drained(a);
    append_fleet(a, fleet, 20, 34, Order::kDayMajor);
    a.set_predictor(pred);
    const auto first = a.rescore();
    EXPECT_EQ(n, first.drives_full);
    EXPECT_EQ(0u, first.drives_incremental);
    EXPECT_EQ(day_count(a), first.rows_scored);
    expect_drained(a);
    expect_same_scores(a.scores(), core::score_fleet(fleet, pred, 0, 34, cfg));
    append_fleet(a, fleet, 35, 49, Order::kDayMajor);
    const auto next = a.rescore();
    EXPECT_EQ(0u, next.drives_full);
    EXPECT_EQ(n, next.drives_incremental);
    expect_same_scores(a.scores(), core::score_fleet(fleet, pred, 0, 49, cfg));

    // Restored drives, with the predictor installed before the restore
    // and after it.
    const std::string snapshot = a.save_snapshot();
    for (const bool predictor_first : {true, false}) {
      Engine b(eopt, eopt.experiment.windows);
      if (predictor_first) b.set_predictor(pred);
      std::string why;
      ASSERT_TRUE(b.load_snapshot(snapshot, &why)) << why;
      if (!predictor_first) b.set_predictor(pred);
      const auto restored = b.rescore();
      EXPECT_EQ(n, restored.drives_full);
      EXPECT_EQ(0u, restored.drives_incremental);
      expect_drained(b);
      expect_same_scores(b.scores(), a.scores());
      append_fleet(b, fleet, 50, fleet.num_days - 1, Order::kDayMajor);
      const auto resumed = b.rescore();
      EXPECT_EQ(0u, resumed.drives_full);
      EXPECT_EQ(n, resumed.drives_incremental);
      expect_same_scores(b.scores(),
                         core::score_fleet(fleet, pred, 0, fleet.num_days - 1, cfg));
    }
  }
}

// A backlog appended under a predictor with no rescore in between: 100
// drives x 200 days, a few ending early at their failure, of rows of
// 494 doubles (38 columns x 13), more than the 64 MiB pass buffer holds
// (16,980 rows). The drives whose rows fit are scored from the fold,
// the rest through the oracle with a state-only fold, and the next pass
// streams every drive.
TEST(Engine, BacklogPastThePassBufferCapGoesToTheOracle) {
  const auto fleet = mc1_fleet(83, 100, 201, 5.0);
  const auto pred = routed_predictor(fleet, 119, light_cfg(0));
  const std::size_t n = fleet.drives.size();
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    Engine engine = make_engine(fleet, pred, threads);
    append_fleet(engine, fleet, 0, 199, Order::kDayMajor);
    ASSERT_EQ(n, engine.resident().num_drives());
    ASSERT_EQ(38u * 13u, engine.resident().row_width());

    // The plan walks drives in index order; a drive whose rows would
    // push the pass past the cap goes to the oracle.
    const std::size_t cap_rows =
        (std::size_t{64} << 20) / sizeof(double) / engine.resident().row_width();
    std::size_t rows = 0, fit = 0, total = 0;
    for (const auto& d : engine.fleet().drives) {
      total += d.num_days();
      if (rows + d.num_days() <= cap_rows) {
        rows += d.num_days();
        ++fit;
      }
    }
    ASSERT_GT(total, cap_rows);
    ASSERT_GT(fit, 0u);
    ASSERT_LT(fit, n);

    const auto stats = engine.rescore();
    EXPECT_EQ(fit, stats.drives_incremental);
    EXPECT_EQ(n - fit, stats.drives_full);
    EXPECT_EQ(total, stats.rows_scored);
    for (std::size_t di = 0; di < n; ++di)
      ASSERT_EQ(0u, engine.resident().unfolded_days(di)) << "drive " << di;
    expect_same_scores(engine.scores(), core::score_fleet(fleet, pred, 0, 199, light_cfg(threads)));

    append_fleet(engine, fleet, 200, 200, Order::kDayMajor);
    std::size_t live = 0;
    for (const auto& d : engine.fleet().drives) live += d.last_day() == 200 ? 1 : 0;
    ASSERT_GT(live, 0u);
    const auto next = engine.rescore();
    EXPECT_EQ(0u, next.drives_full);
    EXPECT_EQ(live, next.drives_incremental);
    EXPECT_EQ(live, next.rows_scored);
    expect_same_scores(engine.scores(), core::score_fleet(fleet, pred, 0, 200, light_cfg(threads)));
  }
}

TEST(Engine, OracleCheckModeSelfVerifies) {
  const auto fleet = mc1_fleet(31, 25, 70);
  const auto pred = routed_predictor(fleet, 49, light_cfg(0));
  Engine engine = make_engine(fleet, pred, 0, /*oracle_check=*/true);
  append_fleet(engine, fleet, 0, fleet.num_days - 1, Order::kInterleaved);
  const auto stats = engine.rescore();
  EXPECT_TRUE(stats.oracle_checked);
  EXPECT_TRUE(stats.oracle_match);
}

TEST(Engine, OneBatchedPassScoresAMixedDirtySet) {
  const auto fleet = mc1_fleet(61, 60, 110);
  const auto mwi_col = static_cast<std::size_t>(fleet.feature_index("MWI_N"));
  const double threshold = 88.0;  // routed_predictor's wear threshold
  const auto mwi = [&](const data::DriveSeries& d, int day) {
    return d.values(static_cast<std::size_t>(day - d.first_day), mwi_col);
  };

  // A drive whose MWI_N crosses the threshold at day `cross`: its
  // pending days [cross - 2, cross + 1] route to both group bundles.
  const std::size_t newcomer = fleet.drives.size() - 1;
  std::size_t straddler = newcomer;
  int cross = -1;
  for (std::size_t di = 0; di < newcomer && cross < 0; ++di) {
    const auto& d = fleet.drives[di];
    for (int day = d.first_day + 4; day < d.last_day(); ++day) {
      if (mwi(d, day - 1) > threshold && mwi(d, day) <= threshold) {
        straddler = di;
        cross = day;
        break;
      }
    }
  }
  ASSERT_GE(cross, 0) << "no drive crosses the wear threshold";

  const auto pred = routed_predictor(fleet, 59, light_cfg(0));
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    const auto cfg = light_cfg(threads);
    Engine engine = make_engine(fleet, pred, threads);
    const auto append = [&](const data::DriveSeries& d, int lo, int hi) {
      std::size_t n = 0;
      for (int day = std::max(lo, d.first_day); day <= std::min(hi, d.last_day()); ++day, ++n)
        engine.append_day(d.drive_id, day,
                          d.values.row(static_cast<std::size_t>(day - d.first_day)),
                          d.fail_day);
      return n;
    };

    // First pass: every drive but the newcomer, most up to day 80 (a
    // pass of several thousand rows), the straddler just short of its
    // crossing.
    constexpr int kCut = 80;
    for (std::size_t di = 0; di < newcomer; ++di)
      append(fleet.drives[di], 0, di == straddler ? cross - 3 : kCut);
    engine.rescore();
    expect_same_scores(engine.scores(), core::score_fleet(engine.fleet(), pred, 0,
                                                          engine.resident().max_day(), cfg));

    // Second pass: 1-day tails, 5-day tails, untouched drives, the
    // straddler's crossing and the newcomer's first ten days.
    std::size_t pending_rows = 0, dirty = 0;
    for (std::size_t di = 0; di < newcomer; ++di) {
      const auto& d = fleet.drives[di];
      std::size_t n = 0;
      if (di == straddler) {
        n = append(d, cross - 2, cross + 1);
      } else if (di % 3 == 0) {
        n = append(d, kCut + 1, kCut + 1);
      } else if (di % 3 == 1) {
        n = append(d, kCut + 1, kCut + 5);
      }
      pending_rows += n;
      dirty += n > 0 ? 1 : 0;
    }
    const auto& fresh = fleet.drives[newcomer];
    pending_rows += append(fresh, fresh.first_day, fresh.first_day + 9);
    ++dirty;
    ASSERT_LT(dirty, fleet.drives.size());  // some drives stay clean

    const auto stats = engine.rescore();
    EXPECT_EQ(0u, stats.drives_full);
    EXPECT_EQ(dirty, stats.drives_incremental) << "threads " << threads;
    EXPECT_EQ(dirty, stats.drives_rescored);
    EXPECT_EQ(pending_rows, stats.rows_scored) << "threads " << threads;
    expect_same_scores(engine.scores(), core::score_fleet(engine.fleet(), pred, 0,
                                                          engine.resident().max_day(), cfg));
  }
}

TEST(Engine, CleanPassIsFreeUntilSomethingChanges) {
  const auto fleet = mc1_fleet(67, 20, 60);
  const auto cfg = light_cfg(0);
  const auto pred = routed_predictor(fleet, 39, cfg);
  obs::Tracer tracer;
  obs::Registry metrics;
  const obs::Context ctx{&tracer, &metrics};
  EngineOptions eopt;
  eopt.experiment = cfg;
  eopt.auto_check = false;
  Engine engine(eopt, eopt.experiment.windows, &ctx);
  engine.resident().set_schema(fleet.model_name, fleet.feature_names);
  engine.set_predictor(pred);
  append_fleet(engine, fleet, 0, 49, Order::kDayMajor);
  EXPECT_EQ(fleet.drives.size(), engine.rescore().drives_rescored);

  // Clean: zero stats and no rescore span, but the call still counts.
  const std::size_t spans = tracer.size();
  const auto clean = engine.rescore();
  EXPECT_EQ(0u, clean.drives_rescored);
  EXPECT_EQ(0u, clean.drives_incremental);
  EXPECT_EQ(0u, clean.drives_full);
  EXPECT_EQ(0u, clean.rows_scored);
  EXPECT_FALSE(clean.oracle_checked);
  EXPECT_EQ(spans, tracer.size());
  EXPECT_EQ(2u, metrics.counter("wefr_daemon_rescores_total").value());

  // One appended day on one drive: the next pass scores exactly that row.
  const auto& d = *std::find_if(fleet.drives.begin(), fleet.drives.end(),
                                [](const data::DriveSeries& s) { return s.last_day() >= 50; });
  engine.append_day(d.drive_id, 50, d.values.row(static_cast<std::size_t>(50 - d.first_day)),
                    d.fail_day);
  const auto one = engine.rescore();
  EXPECT_EQ(1u, one.rows_scored);
  EXPECT_EQ(1u, one.drives_incremental);
  EXPECT_EQ(0u, engine.rescore().rows_scored);
  expect_same_scores(engine.scores(),
                     core::score_fleet(engine.fleet(), pred, 0, 50, cfg));

  // With the oracle check on, a clean pass still verifies itself.
  Engine checked = make_engine(fleet, pred, 0, /*oracle_check=*/true);
  append_fleet(checked, fleet, 0, 49, Order::kDayMajor);
  checked.rescore();
  const auto verified = checked.rescore();
  EXPECT_EQ(0u, verified.rows_scored);
  EXPECT_TRUE(verified.oracle_checked);
  EXPECT_TRUE(verified.oracle_match);

  // A restore followed by set_predictor, or a restore into an engine
  // whose last pass was clean: the next pass rescores every drive.
  const std::string snapshot = engine.save_snapshot();
  std::string why;
  Engine restored(eopt, eopt.experiment.windows);
  ASSERT_TRUE(restored.load_snapshot(snapshot, &why)) << why;
  restored.set_predictor(pred);
  const auto all = restored.rescore();
  EXPECT_EQ(fleet.drives.size(), all.drives_rescored);
  EXPECT_EQ(engine.fleet().total_drive_days(), all.rows_scored);
  expect_same_scores(restored.scores(), engine.scores());

  Engine reloaded(eopt, eopt.experiment.windows);
  reloaded.set_predictor(pred);
  EXPECT_EQ(0u, reloaded.rescore().drives_rescored);
  ASSERT_TRUE(reloaded.load_snapshot(snapshot, &why)) << why;
  EXPECT_EQ(fleet.drives.size(), reloaded.rescore().drives_rescored);
  expect_same_scores(reloaded.scores(), engine.scores());
}

TEST(Engine, NewPredictorDirtiesEverythingAndStillMatches) {
  const auto fleet = mc1_fleet(37, 30, 80);
  const auto cfg = light_cfg(0);
  const auto pred1 = routed_predictor(fleet, 49, cfg);
  Engine engine = make_engine(fleet, pred1);
  append_fleet(engine, fleet, 0, fleet.num_days - 1, Order::kDayMajor);
  engine.rescore();

  // Retrain on a different feature set: every drive is dirty again and
  // the full history is re-scored under the new predictor.
  core::WefrPredictor pred2;
  const std::vector<std::size_t> cols = {1, 4, 5, 8};
  pred2.all = core::train_bundle(fleet, cols, 0, 59, cfg);
  engine.set_predictor(pred2);
  EXPECT_EQ(fleet.drives.size(), engine.dirty_count());
  const auto stats = engine.rescore();
  EXPECT_EQ(fleet.drives.size(), stats.drives_rescored);
  expect_same_scores(engine.scores(),
                     core::score_fleet(fleet, pred2, 0, fleet.num_days - 1, cfg));
}

TEST(Engine, SnapshotRestoreRescoresToSameBits) {
  const auto fleet = mc1_fleet(41, 20, 60);
  const auto cfg = light_cfg(0);
  const auto pred = routed_predictor(fleet, 39, cfg);

  Engine a = make_engine(fleet, pred);
  append_fleet(a, fleet, 0, fleet.num_days - 1, Order::kDayMajor);
  a.rescore();

  // The restore target must start empty (schema travels in the
  // snapshot); the predictor is not persisted and is re-installed.
  EngineOptions eopt;
  eopt.experiment = cfg;
  eopt.auto_check = false;
  Engine b(eopt, eopt.experiment.windows);
  std::string why;
  ASSERT_TRUE(b.load_snapshot(a.save_snapshot(), &why)) << why;
  b.set_predictor(pred);
  b.rescore();
  expect_same_scores(b.scores(), a.scores());
}

// ------------------------------------------- scheduled checks and drift

TEST(Engine, ScheduledChecksRunAtTheWatermark) {
  const auto fleet = mc1_fleet(43, 120, 100, 40.0);
  EngineOptions eopt;
  eopt.experiment = light_cfg(0);
  eopt.experiment.negative_keep_prob = 0.10;
  eopt.auto_check = true;
  eopt.warmup_days = 60;
  eopt.check_interval_days = 14;
  Engine engine(eopt, eopt.experiment.windows);
  engine.resident().set_schema(fleet.model_name, fleet.feature_names);
  append_fleet(engine, fleet, 0, fleet.num_days - 1, Order::kDayMajor);

  // Days 60, 74, 88 are past the warmup: three scheduled checks.
  ASSERT_EQ(3u, engine.checks().size());
  EXPECT_EQ(60, engine.checks()[0].day);
  EXPECT_EQ(74, engine.checks()[1].day);
  EXPECT_EQ(88, engine.checks()[2].day);
  EXPECT_TRUE(engine.has_predictor());
  EXPECT_TRUE(engine.checks()[0].trained);
  EXPECT_EQ(102, engine.next_check_day());

  // With a predictor installed by the in-process check, rescore agrees
  // with the batch oracle under that same predictor.
  engine.rescore();
  expect_same_scores(engine.scores(), core::score_fleet(fleet, *engine.predictor(), 0,
                                                        fleet.num_days - 1,
                                                        eopt.experiment));
}

TEST(Engine, DriftDetectionPullsTheCheckForward) {
  // Hand-built fleet: mean MWI_N declines gently, then falls off a
  // cliff at day 70. The online watch sees the delta distribution jump
  // and must pull the next check in front of the slow cadence.
  data::FleetData fleet;
  fleet.model_name = "SYN";
  fleet.feature_names = {"X_R", "MWI_N"};
  fleet.num_days = 100;
  for (int i = 0; i < 10; ++i) {
    data::DriveSeries d;
    d.drive_id = "syn_" + std::to_string(i);
    d.first_day = 0;
    for (int day = 0; day < fleet.num_days; ++day) {
      const double base = day < 70 ? 100.0 - 0.05 * day : 96.5 - 2.0 * (day - 70);
      const double row[2] = {std::sin(0.1 * day + i), base + 0.01 * std::sin(0.7 * day)};
      d.values.push_row(row);
    }
    fleet.drives.push_back(std::move(d));
  }

  EngineOptions eopt;
  eopt.experiment = light_cfg(0);
  eopt.auto_check = true;
  eopt.warmup_days = 40;
  eopt.check_interval_days = 365;  // the drift watch must beat this
  eopt.online_drift_check = true;
  eopt.drift_probability_threshold = 0.5;
  Engine engine(eopt, eopt.experiment.windows);
  engine.resident().set_schema(fleet.model_name, fleet.feature_names);
  append_fleet(engine, fleet, 0, fleet.num_days - 1, Order::kDayMajor);

  ASSERT_FALSE(engine.drift_detections().empty());
  const auto& det = engine.drift_detections().front();
  EXPECT_GE(det.day, 68);
  EXPECT_LE(det.day, 85);
  // A drift-triggered check ran right after the detection (untrained —
  // the synthetic fleet has no failures to learn from — but recorded).
  bool drift_check = false;
  for (const auto& ev : engine.checks()) drift_check = drift_check || ev.drift_triggered;
  EXPECT_TRUE(drift_check);
}

TEST(Engine, RestoredDaysAreNeverJudged) {
  const auto fleet = mc1_fleet(71, 30, 80);
  const auto cfg = light_cfg(0);
  const auto pred = routed_predictor(fleet, 49, cfg);
  EngineOptions eopt;
  eopt.experiment = cfg;
  eopt.auto_check = false;
  eopt.alarm_threshold = 1e-9;  // any non-zero score alarms

  Engine a(eopt, eopt.experiment.windows);
  a.resident().set_schema(fleet.model_name, fleet.feature_names);
  a.set_predictor(pred);
  append_fleet(a, fleet, 0, 59, Order::kDayMajor);
  a.rescore();
  ASSERT_FALSE(a.alarms().empty());  // the restored days did alarm once

  Engine b(eopt, eopt.experiment.windows);
  std::string why;
  ASSERT_TRUE(b.load_snapshot(a.save_snapshot(), &why)) << why;
  b.set_predictor(pred);
  b.rescore();
  EXPECT_TRUE(b.alarms().empty());

  // Same with the predictor installed before the restore.
  Engine c(eopt, eopt.experiment.windows);
  c.set_predictor(pred);
  ASSERT_TRUE(c.load_snapshot(a.save_snapshot(), &why)) << why;
  c.rescore();
  EXPECT_TRUE(c.alarms().empty());

  // Judgement resumes with the first day appended after the restore.
  append_fleet(b, fleet, 60, fleet.num_days - 1, Order::kDayMajor);
  b.rescore();
  EXPECT_FALSE(b.alarms().empty());
  for (const auto& alarm : b.alarms()) EXPECT_GE(alarm.day, 60);
}

// --------------------------------------------------- transport: loopback

/// Streams the fleet through the client day-major; asserts every append
/// is accepted.
void client_append_fleet(Client& client, const data::FleetData& fleet, int day_lo,
                         int day_hi) {
  Msg reply;
  std::string err;
  for (int day = day_lo; day <= day_hi; ++day) {
    for (const auto& d : fleet.drives) {
      if (day < d.first_day || day > d.last_day()) continue;
      const auto row = d.values.row(static_cast<std::size_t>(day - d.first_day));
      ASSERT_TRUE(client.append_day(d.drive_id, day,
                                    std::vector<double>(row.begin(), row.end()),
                                    d.fail_day, reply, &err))
          << err;
      ASSERT_EQ(MsgType::kAppendOk, reply.type) << reply.text;
    }
  }
}

TEST(DaemonLoopback, EndToEndScoringMatchesOracle) {
  const auto fleet = mc1_fleet(47, 20, 60);
  const auto cfg = light_cfg(0);
  const auto pred = routed_predictor(fleet, 39, cfg);

  EngineOptions eopt;
  eopt.experiment = cfg;
  eopt.auto_check = false;
  Engine engine(eopt, eopt.experiment.windows);
  engine.set_predictor(pred);

  Server server(engine, ServerOptions{});
  const int fd = server.connect_loopback();
  ASSERT_GE(fd, 0);
  std::thread loop([&server] { server.run(); });

  Client::Options copt;
  copt.client_name = "test";
  copt.model_name = fleet.model_name;
  copt.feature_names = fleet.feature_names;
  Client client(copt);
  std::string err;
  ASSERT_TRUE(client.adopt_fd(fd, &err)) << err;
  EXPECT_EQ("wefrd", client.hello_reply().server_name);
  EXPECT_EQ(0u, client.hello_reply().num_drives);

  client_append_fleet(client, fleet, 0, fleet.num_days - 1);

  const auto oracle = core::score_fleet(fleet, pred, 0, fleet.num_days - 1, cfg);
  Msg reply;
  for (const auto& want : oracle) {
    const auto& d = fleet.drives[want.drive_index];
    ASSERT_TRUE(client.score_drive(d.drive_id, reply, &err)) << err;
    ASSERT_EQ(MsgType::kScoreOk, reply.type) << reply.text;
    EXPECT_TRUE(reply.found);
    EXPECT_EQ(d.last_day(), reply.score_day);
    const double want_score = want.scores.back();
    EXPECT_EQ(0, std::memcmp(&want_score, &reply.score, sizeof(double)))
        << "drive " << d.drive_id;
  }

  ASSERT_TRUE(client.report(reply, &err)) << err;
  ASSERT_EQ(MsgType::kReportOk, reply.type);
  EXPECT_NE(std::string::npos, reply.text.find("\"drives\":20"));

  ASSERT_TRUE(client.shutdown_server(reply, &err)) << err;
  EXPECT_EQ(MsgType::kShutdownOk, reply.type);
  loop.join();
  EXPECT_GE(server.frames_ok(), fleet.total_drive_days());
}

TEST(DaemonLoopback, ScoreWithoutPredictorIsRefusedNotFatal) {
  const auto fleet = mc1_fleet(53, 5, 60);
  EngineOptions eopt;
  eopt.experiment = light_cfg(0);
  eopt.auto_check = false;
  Engine engine(eopt, eopt.experiment.windows);
  Server server(engine, ServerOptions{});
  const int fd = server.connect_loopback();
  ASSERT_GE(fd, 0);
  std::thread loop([&server] { server.run(); });

  Client::Options copt;
  copt.model_name = fleet.model_name;
  copt.feature_names = fleet.feature_names;
  Client client(copt);
  std::string err;
  ASSERT_TRUE(client.adopt_fd(fd, &err)) << err;
  client_append_fleet(client, fleet, 0, 9);

  Msg reply;
  ASSERT_TRUE(client.score_drive(fleet.drives[0].drive_id, reply, &err)) << err;
  EXPECT_EQ(MsgType::kError, reply.type);
  // The refusal did not kill the connection: the next request works.
  ASSERT_TRUE(client.report(reply, &err)) << err;
  EXPECT_EQ(MsgType::kReportOk, reply.type);

  client.shutdown_server(reply, &err);
  loop.join();
}

TEST(DaemonLoopback, SchemaMismatchIsRefusedAtHello) {
  const auto fleet = mc1_fleet(59, 5, 60);
  EngineOptions eopt;
  eopt.experiment = light_cfg(0);
  eopt.auto_check = false;
  Engine engine(eopt, eopt.experiment.windows);
  engine.resident().set_schema(fleet.model_name, fleet.feature_names);

  Server server(engine, ServerOptions{});
  const int fd = server.connect_loopback();
  ASSERT_GE(fd, 0);
  std::thread loop([&server] { server.run(); });

  Client::Options copt;
  copt.model_name = fleet.model_name;
  copt.feature_names = {"not", "the", "schema"};
  Client client(copt);
  std::string err;
  EXPECT_FALSE(client.adopt_fd(fd, &err));
  EXPECT_NE(std::string::npos, err.find("refused"));

  server.request_stop();
  loop.join();
}

TEST(DaemonLoopback, TamperedFrameGetsErrorReplyThenDisconnect) {
  EngineOptions eopt;
  eopt.experiment = light_cfg(0);
  eopt.auto_check = false;
  Engine engine(eopt, eopt.experiment.windows);
  Server server(engine, ServerOptions{});
  const int fd = server.connect_loopback();
  ASSERT_GE(fd, 0);
  std::thread loop([&server] { server.run(); });

  Msg hello;
  hello.type = MsgType::kHello;
  hello.model_name = "T";
  hello.feature_names = {"x"};
  std::string frame =
      data::encode_daemon_frame(data::DaemonFrameKind::kRequest, 3, encode_message(hello));
  frame[data::kDaemonFrameHeaderSize] ^= 0x20;  // corrupt the payload
  ASSERT_EQ(static_cast<ssize_t>(frame.size()),
            ::send(fd, frame.data(), frame.size(), 0));

  // One error reply, then EOF: the server refuses to resync a damaged
  // stream.
  std::string buf;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  std::size_t total = 0;
  ASSERT_EQ(data::DaemonFramePeek::kFrame, data::peek_daemon_frame(buf, total, nullptr));
  ASSERT_EQ(buf.size(), total);
  std::uint32_t seq = 99;
  std::string payload, why;
  ASSERT_TRUE(
      data::decode_daemon_frame(buf, data::DaemonFrameKind::kResponse, seq, payload, &why))
      << why;
  Msg reply;
  ASSERT_TRUE(decode_message(payload, reply, &why)) << why;
  EXPECT_EQ(MsgType::kError, reply.type);
  ::close(fd);

  server.request_stop();
  loop.join();
  EXPECT_EQ(1u, server.frames_rejected());
}

double thread_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

Client::Options tiny_schema_client() {
  Client::Options copt;
  copt.model_name = "T";
  copt.feature_names = {"x"};
  return copt;
}

TEST(DaemonLoopback, IdleLoopBlocksAfterABoundedSpin) {
  EngineOptions eopt;
  eopt.experiment = light_cfg(0);
  eopt.auto_check = false;
  Engine engine(eopt, eopt.experiment.windows);
  Server server(engine, ServerOptions{});
  const int fd = server.connect_loopback();
  ASSERT_GE(fd, 0);

  // Serve the hello on this thread, so the measured pass follows one
  // that handled an event and starts by spinning.
  Client client(tiny_schema_client());
  std::string err;
  bool hello_ok = false;
  std::thread hello([&] { hello_ok = client.adopt_fd(fd, &err); });
  for (int i = 0; i < 500 && server.frames_ok() == 0; ++i) server.run_once(10);
  hello.join();
  ASSERT_TRUE(hello_ok) << err;

  // The client is connected and silent: the spin must give up and the
  // loop sleep out its timeout.
  const auto t0 = std::chrono::steady_clock::now();
  const double cpu0 = thread_cpu_ms();
  EXPECT_TRUE(server.run_once(100));
  const double cpu_ms = thread_cpu_ms() - cpu0;
  const std::chrono::duration<double, std::milli> wall = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(wall.count(), 100.0);
  EXPECT_LT(cpu_ms, 20.0);
}

TEST(DaemonLoopback, ClientBlocksWhileTheReplyIsHeldBack) {
  EngineOptions eopt;
  eopt.experiment = light_cfg(0);
  eopt.auto_check = false;
  Engine engine(eopt, eopt.experiment.windows);
  Server server(engine, ServerOptions{});
  const int fd = server.connect_loopback();
  ASSERT_GE(fd, 0);
  std::thread loop([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.run();
  });

  // The hello's reply comes ~50 ms after the send: far past the spin
  // window, so the client must block rather than burn the wait.
  Client client(tiny_schema_client());
  std::string err;
  const double cpu0 = thread_cpu_ms();
  const bool ok = client.adopt_fd(fd, &err);
  const double cpu_ms = thread_cpu_ms() - cpu0;
  EXPECT_TRUE(ok) << err;
  EXPECT_EQ(MsgType::kHelloOk, client.hello_reply().type);
  EXPECT_EQ("wefrd", client.hello_reply().server_name);
  EXPECT_LT(cpu_ms, 20.0);

  Msg reply;
  client.shutdown_server(reply, &err);
  server.request_stop();
  loop.join();
}

// ------------------------------------------------- one deployment loop

/// A mixed fleet whose half-fleet replacement at day 120 trips the
/// drift watch.
data::FleetData churned_mixed_fleet() {
  smartsim::MixedFleetSpec spec;
  spec.shares = smartsim::parse_mix_spec("MC1:0.6,MA2:0.4");
  spec.sim.num_drives = 200;
  spec.sim.num_days = 180;
  spec.sim.seed = 11;
  spec.sim.afr_scale = 11.0;
  spec.churn = smartsim::parse_churn_spec("replace@120:0.5:MC1:3.0", 200);
  auto res = smartsim::generate_mixed_fleet(spec);
  data::forward_fill(res.fleet, 0.0);
  return std::move(res.fleet);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void expect_same_checks(const std::vector<CheckEvent>& got,
                        const std::vector<CheckEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].day, want[i].day) << "check " << i;
    EXPECT_EQ(got[i].trained, want[i].trained) << "check " << i;
    EXPECT_EQ(got[i].features_changed, want[i].features_changed) << "check " << i;
    EXPECT_EQ(got[i].drift_triggered, want[i].drift_triggered) << "check " << i;
    EXPECT_TRUE(same_bits(got[i].change_probability, want[i].change_probability));
    EXPECT_EQ(got[i].wear_threshold, want[i].wear_threshold) << "check " << i;
    EXPECT_EQ(got[i].selected_all, want[i].selected_all) << "check " << i;
    EXPECT_EQ(got[i].selected_low, want[i].selected_low) << "check " << i;
    EXPECT_EQ(got[i].selected_high, want[i].selected_high) << "check " << i;
  }
}

TEST(Engine, ReplayAndClientStreamRunTheSameLoop) {
  const auto fleet = churned_mixed_fleet();
  EngineOptions eopt;
  eopt.experiment = light_cfg(0);
  eopt.experiment.negative_keep_prob = 0.08;
  eopt.warmup_days = 90;
  eopt.check_interval_days = 28;
  eopt.retrain_every_check = false;
  eopt.online_drift_check = true;
  eopt.target_recall = 0.3;

  // In process: replay in weekly steps, so every step ends on the
  // weekly rescore.
  Engine replayed(eopt, eopt.experiment.windows);
  std::vector<double> replayed_thresholds;  // alarm_threshold() after each check
  for (int end = 7; end < fleet.num_days + 7; end += 7) {
    const std::size_t before = replayed.checks().size();
    replay(replayed, fleet, end);
    ASSERT_LE(replayed.checks().size(), before + 1) << "two checks before day " << end;
    if (replayed.checks().size() > before)
      replayed_thresholds.push_back(replayed.alarm_threshold());
  }

  // Over the protocol: every active drive reads its score every day.
  Engine served(eopt, eopt.experiment.windows);
  Server server(served, ServerOptions{});
  const int fd = server.connect_loopback();
  ASSERT_GE(fd, 0);
  std::thread loop([&server] { server.run(); });
  Client::Options copt;
  copt.model_name = fleet.model_name;
  copt.feature_names = fleet.feature_names;
  Client client(copt);
  std::string err;
  ASSERT_TRUE(client.adopt_fd(fd, &err)) << err;
  std::vector<double> served_thresholds;
  Msg reply;
  for (int day = 0; day < fleet.num_days; ++day) {
    // Read between replies, while the server loop waits for a request.
    const std::size_t before = served.checks().size();
    client_append_fleet(client, fleet, day, day);
    for (const auto& d : fleet.drives) {
      if (day < d.first_day || day > d.last_day()) continue;
      ASSERT_TRUE(client.score_drive(d.drive_id, reply, &err)) << err;
    }
    if (served.checks().size() > before) served_thresholds.push_back(served.alarm_threshold());
  }
  client.shutdown_server(reply, &err);
  loop.join();

  expect_same_checks(served.checks(), replayed.checks());
  ASSERT_EQ(served_thresholds.size(), replayed_thresholds.size());
  for (std::size_t i = 0; i < served_thresholds.size(); ++i)
    EXPECT_TRUE(same_bits(served_thresholds[i], replayed_thresholds[i])) << "check " << i;
  ASSERT_EQ(served.drift_detections().size(), replayed.drift_detections().size());
  for (std::size_t i = 0; i < served.drift_detections().size(); ++i) {
    EXPECT_EQ(served.drift_detections()[i].day, replayed.drift_detections()[i].day);
    EXPECT_TRUE(same_bits(served.drift_detections()[i].probability,
                          replayed.drift_detections()[i].probability));
  }
  ASSERT_EQ(served.alarms().size(), replayed.alarms().size());
  for (std::size_t i = 0; i < served.alarms().size(); ++i) {
    const Alarm& got = served.alarms()[i];
    const Alarm& want = replayed.alarms()[i];
    EXPECT_EQ(served.fleet().drives[got.drive_index].drive_id,
              replayed.fleet().drives[want.drive_index].drive_id)
        << "alarm " << i;
    EXPECT_EQ(got.day, want.day) << "alarm " << i;
    EXPECT_TRUE(same_bits(got.score, want.score)) << "alarm " << i;
  }

  // The fleet exercises every part of the loop being compared.
  EXPECT_GE(replayed.checks().size(), 3u);
  EXPECT_EQ(replayed_thresholds.size(), replayed.checks().size());
  EXPECT_FALSE(replayed.drift_detections().empty());
  EXPECT_FALSE(replayed.alarms().empty());
}

// ------------------------------------------------ transport: unix socket

std::string test_socket_path(const char* tag) {
  return testing::TempDir() + "wefrd_" + tag + "_" + std::to_string(::getpid()) + ".sock";
}

TEST(DaemonSocket, ClientReconnectsAfterMidStreamDrop) {
#ifdef WEFR_FORCE_LOOPBACK_DAEMON
  GTEST_SKIP() << "sanitizer build: daemon tests run on the loopback transport";
#else
  const auto fleet = mc1_fleet(61, 15, 60);
  const auto cfg = light_cfg(0);
  const auto pred = routed_predictor(fleet, 29, cfg);
  EngineOptions eopt;
  eopt.experiment = cfg;
  eopt.auto_check = false;
  Engine engine(eopt, eopt.experiment.windows);
  engine.set_predictor(pred);

  ServerOptions sopt;
  sopt.socket_path = test_socket_path("drop");
  Server server(engine, sopt);
  std::string err;
  ASSERT_TRUE(server.listen_unix(&err)) << err;
  std::thread loop([&server] { server.run(); });

  Client::Options copt;
  copt.socket_path = sopt.socket_path;
  copt.model_name = fleet.model_name;
  copt.feature_names = fleet.feature_names;
  Client client(copt);
  ASSERT_TRUE(client.connect(&err)) << err;

  client_append_fleet(client, fleet, 0, 24);
  client.drop_connection_for_test();  // mid-stream crash, no goodbye
  client_append_fleet(client, fleet, 25, fleet.num_days - 1);
  EXPECT_EQ(1u, client.reconnects());

  Msg reply;
  ASSERT_TRUE(client.score_drive(fleet.drives[0].drive_id, reply, &err)) << err;
  ASSERT_EQ(MsgType::kScoreOk, reply.type) << reply.text;

  // The cut is invisible to the scoring contract.
  const auto oracle = core::score_fleet(fleet, pred, 0, fleet.num_days - 1, cfg);
  const auto& d0 = fleet.drives[0];
  bool checked = false;
  for (const auto& ds : oracle) {
    if (ds.drive_index != 0) continue;
    const double want = ds.scores.back();
    EXPECT_EQ(0, std::memcmp(&want, &reply.score, sizeof(double)));
    EXPECT_EQ(d0.last_day(), reply.score_day);
    checked = true;
  }
  EXPECT_TRUE(checked);

  client.shutdown_server(reply, &err);
  loop.join();
#endif
}

TEST(DaemonSocket, ClientSurvivesServerRestartOnResidentState) {
#ifdef WEFR_FORCE_LOOPBACK_DAEMON
  GTEST_SKIP() << "sanitizer build: daemon tests run on the loopback transport";
#else
  const auto fleet = mc1_fleet(67, 12, 60);
  const auto cfg = light_cfg(0);
  const auto pred = routed_predictor(fleet, 24, cfg);
  EngineOptions eopt;
  eopt.experiment = cfg;
  eopt.auto_check = false;
  Engine engine(eopt, eopt.experiment.windows);
  engine.set_predictor(pred);

  ServerOptions sopt;
  sopt.socket_path = test_socket_path("restart");

  Client::Options copt;
  copt.socket_path = sopt.socket_path;
  copt.model_name = fleet.model_name;
  copt.feature_names = fleet.feature_names;
  Client client(copt);
  std::string err;

  {
    Server first(engine, sopt);
    ASSERT_TRUE(first.listen_unix(&err)) << err;
    std::thread loop([&first] { first.run(); });
    ASSERT_TRUE(client.connect(&err)) << err;
    client_append_fleet(client, fleet, 0, 19);
    first.request_stop();
    loop.join();
  }  // the first server is gone; the engine (resident state) survives

  Server second(engine, sopt);
  ASSERT_TRUE(second.listen_unix(&err)) << err;
  std::thread loop([&second] { second.run(); });

  // The client's next request rides the transparent redial + re-hello;
  // the re-hello sees the resident fleet, not an empty one.
  client_append_fleet(client, fleet, 20, fleet.num_days - 1);
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_EQ(fleet.drives.size(), client.hello_reply().num_drives);

  Msg reply;
  ASSERT_TRUE(client.score_drive(fleet.drives[1].drive_id, reply, &err)) << err;
  ASSERT_EQ(MsgType::kScoreOk, reply.type) << reply.text;
  const auto oracle = core::score_fleet(fleet, pred, 0, fleet.num_days - 1, cfg);
  const double want = oracle[1].scores.back();
  EXPECT_EQ(0, std::memcmp(&want, &reply.score, sizeof(double)));

  client.shutdown_server(reply, &err);
  loop.join();
#endif
}

}  // namespace
}  // namespace wefr::daemon
