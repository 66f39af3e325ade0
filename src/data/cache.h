#pragma once

#include <string>

#include "data/csv.h"
#include "data/fleet.h"
#include "data/ingest.h"

namespace wefr::obs {
struct Context;
}

namespace wefr::data {

/// Binary columnar fleet cache.
///
/// Parsing a large fleet CSV is the most expensive step of every tool
/// run, and the result is deterministic given (file bytes, parse
/// policy). The cache persists the parsed-and-forward-filled FleetData
/// plus its IngestReport as a versioned, checksummed binary snapshot
/// next to the data, so every run after the first replaces the parse
/// with a single mapped read.
///
/// On-disk layout (native endianness, guarded by a sentinel):
///
///   magic "WEFRFC01" | u32 format version | u32 endian sentinel
///   | u32 parse policy | u32 reserved | u64 schema hash
///   | u64 source size | i64 source mtime
///   | payload | u64 digest (data::snapshot_digest) of everything before it
///
/// The payload holds the model name, feature names, a per-drive index
/// (id, first_day, fail_day, row count), the IngestReport snapshot,
/// and each drive's values as column-major doubles (transposed back to
/// the row-major Matrix on load).
///
/// A snapshot is bypassed — and the CSV reparsed — whenever any
/// validation layer fails, each tracked as a distinct invalidation
/// reason: wrong magic/version, foreign endianness, parse-policy
/// mismatch, source file size/mtime change, schema-hash change
/// (max_gap_days, quarantine-sample cap, pad_missing_columns, model
/// name), feature-schema mismatch (the stored feature names differ
/// from ReadOptions::expected_features — the guard against a stale
/// single-model layout after the fleet mix changed), or checksum
/// mismatch (truncation, bit rot). Snapshots are only written for
/// non-fatal parses, and are written atomically (temp file + rename).
struct CacheOptions {
  /// Directory for snapshots; empty disables caching entirely.
  std::string dir;
  /// Ignore any existing snapshot and rewrite it from a fresh parse.
  bool refresh = false;
};

/// How load_fleet_csv_cached satisfied the request.
enum class CacheOutcome {
  kDisabled,     ///< no cache dir configured; plain load_fleet_csv
  kHit,          ///< snapshot validated; parse skipped
  kMiss,         ///< no snapshot yet; parsed and wrote one
  kInvalidated,  ///< snapshot existed but failed validation; reparsed
};

const char* to_string(CacheOutcome o);

/// Snapshot path for (csv_path, model) under `dir`: the CSV stem plus
/// a hash of the absolute source path and model name, so distinct
/// sources never collide in a shared cache directory.
std::string fleet_cache_path(const std::string& dir, const std::string& csv_path,
                             const std::string& model_name);

/// Serializes `fleet` + `rep` to `cache_path` (atomically). Returns
/// false (and fills `error` when non-null) on I/O failure — callers
/// treat that as "no cache", never as a load failure.
bool write_fleet_cache(const std::string& cache_path, const std::string& csv_path,
                       const std::string& model_name, const ReadOptions& opt,
                       const FleetData& fleet, const IngestReport& rep,
                       std::string* error = nullptr);

/// Loads and validates a snapshot. Returns true on a hit, with `fleet`
/// and `rep` restored exactly as written. On false, `*existed` tells a
/// plain miss (no readable file) from an invalidated snapshot, and
/// `why` (when non-null) carries the first failed validation layer.
/// Never throws on arbitrary file corruption.
bool read_fleet_cache(const std::string& cache_path, const std::string& csv_path,
                      const std::string& model_name, const ReadOptions& opt,
                      FleetData& fleet, IngestReport& rep,
                      std::string* why = nullptr, bool* existed = nullptr);

/// Cache-aware drop-in for load_fleet_csv: a validated snapshot skips
/// the parse and forward_fill entirely; otherwise the CSV is parsed
/// through the parallel fast path and a fresh snapshot is written
/// (unless the parse was fatal). The report's cache_hits /
/// cache_misses / cache_invalidations record what happened, `outcome`
/// (when non-null) gets the same as an enum, and `obs` traces the
/// cache probe/store as "ingest:cache_load" / "ingest:cache_store"
/// spans with wefr_ingest_cache_* counters.
FleetData load_fleet_csv_cached(const std::string& path, const std::string& model_name,
                                const ReadOptions& opt, const CacheOptions& cache,
                                IngestReport* report = nullptr,
                                const obs::Context* obs = nullptr,
                                CacheOutcome* outcome = nullptr);

/// Framed records. The daemon's wire frames and snapshots share one
/// framing discipline with the WEFRFC01 fleet cache — versioned magic,
/// endian sentinel, bounds-checked reads, trailing word-mixed digest —
/// laid out as a fixed 40-byte header and the payload:
///
///   magic[8] | u32 format version | u32 endian sentinel | u32 kind
///   | u32 index | u32 count | u32 reserved | u64 payload size
///   | payload | u64 digest (data::snapshot_digest) of everything before it
///
/// Any damage fails with a reason instead of faulting.
///
/// WEFRDM01 daemon wire frame: the unit of exchange on the wefrd
/// client socket. The index slot carries the client's request sequence
/// number (extracted by the reader rather than matched against an
/// expectation, so responses can be paired with the request that caused
/// them), and the count slot carries the protocol version (matched
/// exactly, so a client and server from different protocol generations
/// refuse each other's frames instead of misreading them). The
/// fixed-size header lets a stream reader learn the full frame length
/// before the payload arrives.
enum class DaemonFrameKind : std::uint32_t {
  kRequest = 1,   ///< client -> server
  kResponse = 2,  ///< server -> client
};

/// Bumped when the daemon message vocabulary changes incompatibly.
inline constexpr std::uint32_t kDaemonProtocolVersion = 1;
/// Fixed frame header size: magic[8] + 6 u32 fields + u64 payload size.
inline constexpr std::size_t kDaemonFrameHeaderSize = 40;
/// Upper bound a reader accepts for one frame's payload; anything
/// larger is treated as a corrupt length field, not an allocation.
inline constexpr std::uint64_t kDaemonMaxFramePayload = 64ull << 20;

std::string encode_daemon_frame(DaemonFrameKind kind, std::uint32_t seq,
                                std::string_view payload);

/// Validates one complete frame and extracts its payload and sequence
/// number. Returns false (first failed layer in `why`) on any damage:
/// magic/version/endianness/kind/protocol-version mismatch, payload
/// size lie, digest mismatch, or truncation.
bool decode_daemon_frame(std::string_view bytes, DaemonFrameKind expect_kind,
                         std::uint32_t& seq, std::string& payload,
                         std::string* why = nullptr);

/// Incremental stream framing: inspects the start of a receive buffer.
enum class DaemonFramePeek {
  kNeedMore,  ///< not enough bytes for a verdict yet — keep reading
  kFrame,     ///< header is plausible; `total_size` = full frame length
  kBad,       ///< stream is not a valid frame — refuse and disconnect
};
DaemonFramePeek peek_daemon_frame(std::string_view buf, std::size_t& total_size,
                                  std::string* why = nullptr);

/// WEFRDS01 resident-fleet snapshot record: the daemon's warm-restart
/// blob (ResidentFleet::save_snapshot payload framed with the shared
/// record discipline; index 0, count 1). One record per file, written
/// atomically.
enum class DaemonSnapshotKind : std::uint32_t {
  kResidentFleet = 1,  ///< serialized ResidentFleet state
};

std::string encode_daemon_snapshot(std::string_view payload);
bool decode_daemon_snapshot(std::string_view bytes, std::string& payload,
                            std::string* why = nullptr);
bool write_daemon_snapshot(const std::string& path, std::string_view payload,
                           std::string* error = nullptr);
bool read_daemon_snapshot(const std::string& path, std::string& payload,
                          std::string* why = nullptr);

}  // namespace wefr::data
