#include "data/cache.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <vector>

#include "data/mmap_file.h"
#include "data/serialize.h"
#include "obs/context.h"

namespace wefr::data {

namespace {

constexpr char kMagic[8] = {'W', 'E', 'F', 'R', 'F', 'C', '0', '1'};
// v2: report carries the mixed-schema padding tallies
// (rows_padded/cells_padded); v3: the trailing digest mixes every word
// (data::snapshot_digest). Older snapshots invalidate cleanly through
// the version check and reparse once.
constexpr std::uint32_t kFormatVersion = 3;
constexpr std::uint32_t kEndianSentinel = 0x01020304u;

/// Hash of everything that changes the *meaning* of a parse without
/// changing the source bytes. Thread count and chunk size are excluded
/// on purpose: they never change the result (the parallel parse is
/// byte-identical at any setting), so they must not invalidate.
std::uint64_t schema_hash(const ReadOptions& opt, const std::string& model_name) {
  std::uint64_t h = 14695981039346656037ull;
  const std::uint32_t version = kFormatVersion;
  const std::uint32_t policy = static_cast<std::uint32_t>(opt.policy);
  const std::int64_t max_gap = opt.max_gap_days;
  const std::uint64_t max_ids = opt.max_quarantined_ids;
  const std::uint32_t pad = opt.pad_missing_columns ? 1u : 0u;
  h = fnv1a(h, &version, sizeof(version));
  h = fnv1a(h, &policy, sizeof(policy));
  h = fnv1a(h, &max_gap, sizeof(max_gap));
  h = fnv1a(h, &max_ids, sizeof(max_ids));
  h = fnv1a(h, &pad, sizeof(pad));
  h = fnv1a(h, model_name.data(), model_name.size());
  return h;
}

/// Source-file identity: size + mtime, the cheap stat-level signal that
/// the CSV changed under the snapshot. Returns false when the source
/// cannot be stat'ed at all.
bool source_identity(const std::string& csv_path, std::uint64_t& size,
                     std::int64_t& mtime) {
  std::error_code ec;
  const auto s = std::filesystem::file_size(csv_path, ec);
  if (ec) return false;
  const auto t = std::filesystem::last_write_time(csv_path, ec);
  if (ec) return false;
  size = static_cast<std::uint64_t>(s);
  mtime = static_cast<std::int64_t>(t.time_since_epoch().count());
  return true;
}

// Serialization runs through the shared data/serialize.h
// ByteWriter/ByteReader pair: the endian sentinel in the fixed header
// rejects foreign snapshots, and the trailing digest rejects
// any byte-level damage the field validation missed.
using BufWriter = ByteWriter;
using BufReader = ByteReader;

void serialize_report(BufWriter& w, const IngestReport& rep) {
  w.scalar<std::uint64_t>(rep.rows_total);
  w.scalar<std::uint64_t>(rep.rows_ok);
  w.scalar<std::uint64_t>(rep.rows_quarantined);
  w.scalar<std::uint64_t>(rep.cells_recovered);
  w.scalar<std::uint64_t>(rep.gap_days_bridged);
  w.scalar<std::uint64_t>(rep.drives_quarantined);
  w.scalar<std::uint64_t>(rep.io_retries);
  w.scalar<std::uint64_t>(rep.rows_padded);
  w.scalar<std::uint64_t>(rep.cells_padded);
  for (std::size_t c : rep.error_counts) w.scalar<std::uint64_t>(c);
  w.scalar<std::uint64_t>(rep.quarantined_drive_ids.size());
  for (const auto& id : rep.quarantined_drive_ids) w.str(id);
  w.scalar<std::uint64_t>(rep.fill.cells_filled);
  w.scalar<std::uint64_t>(rep.fill.leading_backfilled);
  w.scalar<std::uint64_t>(rep.fill.all_nan_columns);
  w.scalar<std::uint64_t>(rep.fill.cells_left_missing);
}

bool deserialize_report(BufReader& r, IngestReport& rep) {
  rep = IngestReport{};
  std::uint64_t v = 0;
  auto u64 = [&](std::size_t& out) {
    if (!r.scalar(v)) return false;
    out = static_cast<std::size_t>(v);
    return true;
  };
  if (!u64(rep.rows_total) || !u64(rep.rows_ok) || !u64(rep.rows_quarantined) ||
      !u64(rep.cells_recovered) || !u64(rep.gap_days_bridged) ||
      !u64(rep.drives_quarantined) || !u64(rep.io_retries) ||
      !u64(rep.rows_padded) || !u64(rep.cells_padded))
    return false;
  for (auto& c : rep.error_counts)
    if (!u64(c)) return false;
  std::uint64_t n_ids = 0;
  if (!r.scalar(n_ids) || n_ids > (1u << 20)) return false;
  rep.quarantined_drive_ids.resize(static_cast<std::size_t>(n_ids));
  for (auto& id : rep.quarantined_drive_ids)
    if (!r.str(id)) return false;
  return u64(rep.fill.cells_filled) && u64(rep.fill.leading_backfilled) &&
         u64(rep.fill.all_nan_columns) && u64(rep.fill.cells_left_missing);
}

}  // namespace

const char* to_string(CacheOutcome o) {
  switch (o) {
    case CacheOutcome::kDisabled: return "disabled";
    case CacheOutcome::kHit: return "hit";
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kInvalidated: return "invalidated";
  }
  return "unknown";
}

std::string fleet_cache_path(const std::string& dir, const std::string& csv_path,
                             const std::string& model_name) {
  std::error_code ec;
  std::filesystem::path src(csv_path);
  const auto abs = std::filesystem::absolute(src, ec);
  const std::string key = (ec ? src : abs).string() + "\x1f" + model_name;
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a(key)));
  std::string stem = src.stem().string();
  if (stem.empty()) stem = "fleet";
  return (std::filesystem::path(dir) / (stem + "-" + hex + ".wefrfc")).string();
}

bool write_fleet_cache(const std::string& cache_path, const std::string& csv_path,
                       const std::string& model_name, const ReadOptions& opt,
                       const FleetData& fleet, const IngestReport& rep,
                       std::string* error) {
  std::uint64_t src_size = 0;
  std::int64_t src_mtime = 0;
  if (!source_identity(csv_path, src_size, src_mtime)) {
    if (error != nullptr) *error = "cannot stat source " + csv_path;
    return false;
  }

  BufWriter w;
  w.bytes(kMagic, sizeof(kMagic));
  w.scalar(kFormatVersion);
  w.scalar(kEndianSentinel);
  w.scalar(static_cast<std::uint32_t>(opt.policy));
  w.scalar(std::uint32_t{0});  // reserved
  w.scalar(schema_hash(opt, model_name));
  w.scalar(src_size);
  w.scalar(src_mtime);

  w.str(fleet.model_name);
  w.scalar(static_cast<std::int64_t>(fleet.num_days));
  const std::size_t nf = fleet.num_features();
  w.scalar(static_cast<std::uint64_t>(nf));
  for (const auto& name : fleet.feature_names) w.str(name);
  w.scalar(static_cast<std::uint64_t>(fleet.drives.size()));
  for (const auto& d : fleet.drives) {
    w.str(d.drive_id);
    w.scalar(static_cast<std::int64_t>(d.first_day));
    w.scalar(static_cast<std::int64_t>(d.fail_day));
    w.scalar(static_cast<std::uint64_t>(d.num_days()));
  }
  serialize_report(w, rep);
  // Values, column-major per drive: all of feature 0's days, then
  // feature 1's, ... Column access dominates downstream consumers
  // (per-feature ranking), and the transpose back is one linear pass.
  for (const auto& d : fleet.drives) {
    const std::size_t rows = d.num_days();
    std::vector<double> col(rows);
    for (std::size_t c = 0; c < nf; ++c) {
      for (std::size_t r = 0; r < rows; ++r) col[r] = d.values(r, c);
      w.bytes(col.data(), rows * sizeof(double));
    }
  }
  w.scalar(snapshot_digest(w.buf().data(), w.buf().size()));

  std::error_code ec;
  const std::filesystem::path target(cache_path);
  if (target.has_parent_path())
    std::filesystem::create_directories(target.parent_path(), ec);
  const std::string tmp = cache_path + ".tmp";
  {
    std::ofstream ofs(tmp, std::ios::binary | std::ios::trunc);
    if (!ofs) {
      if (error != nullptr) *error = "cannot open " + tmp;
      return false;
    }
    ofs.write(w.buf().data(), static_cast<std::streamsize>(w.buf().size()));
    if (!ofs) {
      if (error != nullptr) *error = "write failed for " + tmp;
      return false;
    }
  }
  std::filesystem::rename(tmp, cache_path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    if (error != nullptr) *error = "cannot rename into " + cache_path;
    return false;
  }
  return true;
}

bool read_fleet_cache(const std::string& cache_path, const std::string& csv_path,
                      const std::string& model_name, const ReadOptions& opt,
                      FleetData& fleet, IngestReport& rep, std::string* why,
                      bool* existed) {
  if (existed != nullptr) *existed = false;
  const auto invalid = [&](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };

  MappedFile file;
  if (!file.open(cache_path) || file.size() == 0)
    return invalid("no snapshot");
  if (existed != nullptr) *existed = true;
  const std::string_view buf = file.view();

  BufReader r(buf);
  char magic[sizeof(kMagic)];
  std::uint32_t version = 0, endian = 0, policy = 0, reserved = 0;
  std::uint64_t schema = 0, src_size = 0;
  std::int64_t src_mtime = 0;
  if (r.raw(sizeof(kMagic)) == nullptr) return invalid("truncated header");
  std::memcpy(magic, buf.data(), sizeof(kMagic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return invalid("bad magic");
  if (!r.scalar(version) || !r.scalar(endian) || !r.scalar(policy) ||
      !r.scalar(reserved) || !r.scalar(schema) || !r.scalar(src_size) ||
      !r.scalar(src_mtime))
    return invalid("truncated header");
  if (version != kFormatVersion) return invalid("format version mismatch");
  if (endian != kEndianSentinel) return invalid("endianness mismatch");
  if (policy != static_cast<std::uint32_t>(opt.policy))
    return invalid("parse policy mismatch");

  std::uint64_t cur_size = 0;
  std::int64_t cur_mtime = 0;
  if (!source_identity(csv_path, cur_size, cur_mtime) || cur_size != src_size ||
      cur_mtime != src_mtime)
    return invalid("source file changed");
  if (schema != schema_hash(opt, model_name)) return invalid("schema changed");

  if (buf.size() < sizeof(std::uint64_t)) return invalid("truncated");
  const std::size_t body = buf.size() - sizeof(std::uint64_t);
  std::uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, buf.data() + body, sizeof(stored_sum));
  if (snapshot_digest(buf.data(), body) != stored_sum)
    return invalid("checksum mismatch");

  // Past every validation layer: deserialize. The bounds checks below
  // should never fire on a checksum-clean file; they are the backstop.
  FleetData out;
  IngestReport out_rep;
  std::int64_t num_days = 0;
  std::uint64_t nf64 = 0, n_drives = 0;
  if (!r.str(out.model_name) || !r.scalar(num_days) || !r.scalar(nf64))
    return invalid("corrupt payload");
  out.num_days = static_cast<int>(num_days);
  const std::size_t nf = static_cast<std::size_t>(nf64);
  if (nf > (1u << 20)) return invalid("corrupt payload");
  out.feature_names.resize(nf);
  for (auto& name : out.feature_names)
    if (!r.str(name)) return invalid("corrupt payload");
  // Mix-change guard: a caller who states the feature layout it needs
  // (mixed-fleet loaders do) must never be served a snapshot written
  // under a different one — a stale single-model layout would
  // misalign every column downstream.
  if (!opt.expected_features.empty() && opt.expected_features != out.feature_names)
    return invalid("feature schema mismatch");
  if (!r.scalar(n_drives) || n_drives > (1u << 26)) return invalid("corrupt payload");
  out.drives.resize(static_cast<std::size_t>(n_drives));
  std::vector<std::uint64_t> drive_rows(out.drives.size());
  for (std::size_t i = 0; i < out.drives.size(); ++i) {
    auto& d = out.drives[i];
    std::int64_t first_day = 0, fail_day = 0;
    if (!r.str(d.drive_id) || !r.scalar(first_day) || !r.scalar(fail_day) ||
        !r.scalar(drive_rows[i]))
      return invalid("corrupt payload");
    d.first_day = static_cast<int>(first_day);
    d.fail_day = static_cast<int>(fail_day);
  }
  if (!deserialize_report(r, out_rep)) return invalid("corrupt payload");
  for (std::size_t i = 0; i < out.drives.size(); ++i) {
    const std::size_t rows = static_cast<std::size_t>(drive_rows[i]);
    if (rows > (body - r.pos()) / sizeof(double) / (nf == 0 ? 1 : nf))
      return invalid("corrupt payload");
    Matrix m = Matrix::uninitialized(rows, nf);
    for (std::size_t c = 0; c < nf; ++c) {
      const char* p = r.raw(rows * sizeof(double));
      if (p == nullptr) return invalid("corrupt payload");
      for (std::size_t row = 0; row < rows; ++row) {
        double v;
        std::memcpy(&v, p + row * sizeof(double), sizeof(double));
        m(row, c) = v;
      }
    }
    out.drives[i].values = std::move(m);
  }

  fleet = std::move(out);
  rep = std::move(out_rep);
  return true;
}

FleetData load_fleet_csv_cached(const std::string& path, const std::string& model_name,
                                const ReadOptions& opt, const CacheOptions& cache,
                                IngestReport* report, const obs::Context* obs,
                                CacheOutcome* outcome) {
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  if (cache.dir.empty()) {
    if (outcome != nullptr) *outcome = CacheOutcome::kDisabled;
    return load_fleet_csv(path, model_name, opt, &rep, obs);
  }

  const std::string cache_path = fleet_cache_path(cache.dir, path, model_name);
  bool invalidated = false;
  if (!cache.refresh) {
    obs::Span probe(obs, "ingest:cache_load");
    FleetData fleet;
    IngestReport cached;
    bool existed = false;
    if (read_fleet_cache(cache_path, path, model_name, opt, fleet, cached, nullptr,
                         &existed)) {
      rep = std::move(cached);
      rep.cache_hits = 1;
      probe.finish();
      if (obs != nullptr && obs->metrics != nullptr) rep.export_counters(*obs->metrics);
      if (outcome != nullptr) *outcome = CacheOutcome::kHit;
      return fleet;
    }
    invalidated = existed;
  }

  FleetData fleet = load_fleet_csv(path, model_name, opt, &rep, obs);
  rep.cache_misses = 1;
  rep.cache_invalidations = invalidated ? 1 : 0;
  if (!rep.fatal) {
    obs::Span store(obs, "ingest:cache_store");
    write_fleet_cache(cache_path, path, model_name, opt, fleet, rep);
  }
  // load_fleet_csv already exported the parse tallies; only the cache
  // outcome is new here.
  obs::add_counter(obs, "wefr_ingest_cache_miss_total", 1);
  if (invalidated) obs::add_counter(obs, "wefr_ingest_cache_invalidate_total", 1);
  if (outcome != nullptr)
    *outcome = invalidated ? CacheOutcome::kInvalidated : CacheOutcome::kMiss;
  return fleet;
}

// --- Framed records (WEFRDM01 daemon frames, WEFRDS01 snapshots) ---

namespace {

constexpr char kDaemonMagic[8] = {'W', 'E', 'F', 'R', 'D', 'M', '0', '1'};
constexpr char kDaemonSnapshotMagic[8] = {'W', 'E', 'F', 'R', 'D', 'S', '0', '1'};
// v2 of both: the trailing digest mixes every word. The version is
// checked before the digest, so a v1 record is refused as a version
// mismatch, not as damage.
constexpr std::uint32_t kDaemonFormatVersion = 2;
constexpr std::uint32_t kDaemonSnapshotFormatVersion = 2;

std::string encode_framed_record(const char (&magic)[8], std::uint32_t version,
                                 std::uint32_t kind, std::uint32_t index,
                                 std::uint32_t count, std::string_view payload) {
  ByteWriter w;
  w.bytes(magic, sizeof(magic));
  w.scalar(version);
  w.scalar(kEndianSentinel);
  w.scalar(kind);
  w.scalar(index);
  w.scalar(count);
  w.scalar(std::uint32_t{0});  // reserved
  w.scalar(static_cast<std::uint64_t>(payload.size()));
  w.bytes(payload.data(), payload.size());
  w.scalar(snapshot_digest(w.buf().data(), w.buf().size()));
  return std::move(w.buf());
}

/// Validates one framed record and extracts its payload and index slot.
/// Magic, version, endianness, kind, count, payload size and digest must
/// all match exactly; `count_mismatch_reason` names what the count slot
/// means to the caller.
bool decode_framed_record(const char (&expect_magic)[8], std::uint32_t expect_version,
                          std::string_view bytes, std::uint32_t kind,
                          std::uint32_t expect_count, const char* count_mismatch_reason,
                          std::uint32_t& index, std::string& payload, std::string* why) {
  const auto invalid = [&](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  ByteReader r(bytes);
  const char* magic = r.raw(sizeof(expect_magic));
  if (magic == nullptr) return invalid("truncated header");
  if (std::memcmp(magic, expect_magic, sizeof(expect_magic)) != 0)
    return invalid("bad magic");
  std::uint32_t version = 0, endian = 0, rkind = 0, idx = 0, count = 0, reserved = 0;
  std::uint64_t payload_size = 0;
  if (!r.scalar(version) || !r.scalar(endian) || !r.scalar(rkind) ||
      !r.scalar(idx) || !r.scalar(count) || !r.scalar(reserved) ||
      !r.scalar(payload_size))
    return invalid("truncated header");
  if (version != expect_version) return invalid("format version mismatch");
  if (endian != kEndianSentinel) return invalid("endianness mismatch");
  if (rkind != kind) return invalid("record kind mismatch");
  if (count != expect_count) return invalid(count_mismatch_reason);
  if (r.remaining() < sizeof(std::uint64_t) ||
      payload_size != r.remaining() - sizeof(std::uint64_t))
    return invalid("payload size mismatch");
  const std::size_t body = bytes.size() - sizeof(std::uint64_t);
  std::uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, bytes.data() + body, sizeof(stored_sum));
  if (snapshot_digest(bytes.data(), body) != stored_sum)
    return invalid("checksum mismatch");
  const char* p = r.raw(static_cast<std::size_t>(payload_size));
  if (p == nullptr) return invalid("truncated payload");
  index = idx;
  payload.assign(p, static_cast<std::size_t>(payload_size));
  return true;
}

bool write_record_file(const std::string& path, std::string_view record,
                       std::string* error) {
  std::error_code ec;
  const std::filesystem::path target(path);
  if (target.has_parent_path())
    std::filesystem::create_directories(target.parent_path(), ec);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream ofs(tmp, std::ios::binary | std::ios::trunc);
    if (!ofs) {
      if (error != nullptr) *error = "cannot open " + tmp;
      return false;
    }
    ofs.write(record.data(), static_cast<std::streamsize>(record.size()));
    if (!ofs) {
      if (error != nullptr) *error = "write failed for " + tmp;
      return false;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    if (error != nullptr) *error = "cannot rename into " + path;
    return false;
  }
  return true;
}

}  // namespace

std::string encode_daemon_frame(DaemonFrameKind kind, std::uint32_t seq,
                                std::string_view payload) {
  return encode_framed_record(kDaemonMagic, kDaemonFormatVersion,
                              static_cast<std::uint32_t>(kind), seq,
                              kDaemonProtocolVersion, payload);
}

bool decode_daemon_frame(std::string_view bytes, DaemonFrameKind expect_kind,
                         std::uint32_t& seq, std::string& payload, std::string* why) {
  return decode_framed_record(kDaemonMagic, kDaemonFormatVersion, bytes,
                              static_cast<std::uint32_t>(expect_kind), kDaemonProtocolVersion,
                              "protocol version mismatch", seq, payload, why);
}

DaemonFramePeek peek_daemon_frame(std::string_view buf, std::size_t& total_size,
                                  std::string* why) {
  static_assert(kDaemonFrameHeaderSize ==
                sizeof(kDaemonMagic) + 6 * sizeof(std::uint32_t) + sizeof(std::uint64_t));
  if (buf.size() < kDaemonFrameHeaderSize) return DaemonFramePeek::kNeedMore;
  const auto bad = [&](const char* reason) {
    if (why != nullptr) *why = reason;
    return DaemonFramePeek::kBad;
  };
  ByteReader r(buf);
  const char* magic = r.raw(sizeof(kDaemonMagic));
  if (std::memcmp(magic, kDaemonMagic, sizeof(kDaemonMagic)) != 0)
    return bad("bad magic");
  std::uint32_t version = 0, endian = 0, rkind = 0, idx = 0, count = 0, reserved = 0;
  std::uint64_t payload_size = 0;
  r.scalar(version);
  r.scalar(endian);
  r.scalar(rkind);
  r.scalar(idx);
  r.scalar(count);
  r.scalar(reserved);
  r.scalar(payload_size);
  if (version != kDaemonFormatVersion) return bad("format version mismatch");
  if (endian != kEndianSentinel) return bad("endianness mismatch");
  if (payload_size > kDaemonMaxFramePayload) return bad("frame too large");
  total_size = kDaemonFrameHeaderSize + static_cast<std::size_t>(payload_size) +
               sizeof(std::uint64_t);
  return DaemonFramePeek::kFrame;
}

std::string encode_daemon_snapshot(std::string_view payload) {
  return encode_framed_record(
      kDaemonSnapshotMagic, kDaemonSnapshotFormatVersion,
      static_cast<std::uint32_t>(DaemonSnapshotKind::kResidentFleet), 0, 1, payload);
}

bool decode_daemon_snapshot(std::string_view bytes, std::string& payload,
                            std::string* why) {
  std::uint32_t index = 0;
  if (!decode_framed_record(kDaemonSnapshotMagic, kDaemonSnapshotFormatVersion, bytes,
                            static_cast<std::uint32_t>(DaemonSnapshotKind::kResidentFleet),
                            1, "record count mismatch", index, payload, why))
    return false;
  if (index != 0) {
    if (why != nullptr) *why = "record index mismatch";
    return false;
  }
  return true;
}

bool write_daemon_snapshot(const std::string& path, std::string_view payload,
                           std::string* error) {
  return write_record_file(path, encode_daemon_snapshot(payload), error);
}

bool read_daemon_snapshot(const std::string& path, std::string& payload,
                          std::string* why) {
  MappedFile file;
  if (!file.open(path) || file.size() == 0) {
    if (why != nullptr) *why = "cannot read " + path;
    return false;
  }
  return decode_daemon_snapshot(file.view(), payload, why);
}

}  // namespace wefr::data
