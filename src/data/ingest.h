#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wefr::obs {
class Registry;
struct RunReport;
}

namespace wefr::data {

/// How read_fleet_csv reacts to malformed input.
///
///  - kStrict: throw std::runtime_error on the first anomaly (the
///    historical behavior; the right mode for data we produced
///    ourselves, where any anomaly is a bug).
///  - kRecover: never throw on malformed rows. Bad feature values
///    become NaN (later repaired by forward_fill), structurally broken
///    rows are quarantined, and everything dropped or repaired is
///    tallied in the IngestReport.
///  - kSkipDrive: like kRecover, but a structural error poisons the
///    whole drive: every row of that drive (already parsed or still to
///    come) is quarantined. The mode for fleets where a corrupt row
///    means the drive's telemetry stream cannot be trusted at all.
enum class ParsePolicy { kStrict, kRecover, kSkipDrive };

/// Classes of ingestion anomaly, tallied per class in IngestReport.
enum class RowError : std::size_t {
  kEmptyInput = 0,     ///< no header line at all
  kBadHeader,          ///< header too short or wrong meta columns
  kWrongFieldCount,    ///< row with too few / too many fields
  kBadMetaField,       ///< unparseable drive day / failed / fail_day
  kBadValue,           ///< unparseable feature value (recovered as NaN)
  kMissingValue,       ///< empty or "nan" feature field (recovered as NaN)
  kNonContiguousDay,   ///< duplicate, out-of-order, or gapped day
  kReappearingDrive,   ///< drive id seen again after other drives
  kIoFailure,          ///< stream went bad mid-read
  kCount
};

/// Human-readable name of a RowError class ("wrong_field_count", ...).
const char* to_string(RowError e);

/// Knobs for the tolerant parse modes.
struct ReadOptions {
  ParsePolicy policy = ParsePolicy::kStrict;
  /// Attempts for opening/reading a file path before giving up
  /// (transient I/O faults: NFS hiccups, rotating log writers).
  std::size_t max_io_attempts = 3;
  /// Cap on quarantined-drive-id samples kept in the report (tallies
  /// are always exact; the id list is bounded to keep reports small).
  std::size_t max_quarantined_ids = 64;
  /// Tolerant modes bridge observation gaps up to this many days with
  /// all-NaN rows (repaired later by forward_fill); larger jumps
  /// quarantine the row instead.
  int max_gap_days = 30;
  /// Worker threads for the mmap/buffer parse fast path (path- and
  /// buffer-based overloads only; istream parsing is always serial)
  /// and for load_fleet_csv's per-drive forward fill.
  /// 0 = one per hardware thread. Results are byte-identical to the
  /// serial parser at every thread count — chunk partials merge in
  /// file order through the same row-assembly state machine.
  std::size_t num_threads = 0;
  /// Target bytes per parse chunk. Chunks are newline-aligned, so the
  /// real sizes vary by a row; tests shrink this to force chunk
  /// boundaries inside tiny inputs.
  std::size_t parallel_chunk_bytes = std::size_t{1} << 20;
  /// Mixed-schema tolerance: accept data rows with complete meta fields
  /// but FEWER feature fields than the header and pad the missing tail
  /// with NaN (tallied as rows_padded / cells_padded). This is how a
  /// pooled CSV whose header is the union schema ingests rows written
  /// by a model that lacks the trailing columns — under EVERY policy,
  /// strict included (the knob is an explicit schema statement, not a
  /// corruption pardon; rows with too MANY fields stay structurally
  /// invalid). Off by default: without it a short row is
  /// kWrongFieldCount, exactly as before.
  bool pad_missing_columns = false;
  /// When non-empty, a columnar-cache snapshot whose stored feature
  /// names differ from this list is invalidated ("feature schema
  /// mismatch") and the CSV reparsed — the guard that keeps a stale
  /// single-model snapshot from silently serving an old layout after
  /// the fleet mix changed. Ignored by the parser itself.
  std::vector<std::string> expected_features;
};

/// Missing-data repair counters (forward_fill). Split out so ingestion
/// and preprocessing report through the same structure.
struct FillStats {
  std::size_t cells_filled = 0;        ///< NaN cells given a value
  std::size_t leading_backfilled = 0;  ///< subset of cells_filled before
                                       ///< the first observation
  std::size_t all_nan_columns = 0;     ///< (drive, feature) pairs with no
                                       ///< observation at all
  std::size_t cells_left_missing = 0;  ///< NaNs left in place (NaN fallback)

  void merge(const FillStats& other) {
    cells_filled += other.cells_filled;
    leading_backfilled += other.leading_backfilled;
    all_nan_columns += other.all_nan_columns;
    cells_left_missing += other.cells_left_missing;
  }
};

/// Structured outcome of one tolerant ingestion pass: what was read,
/// what was repaired, what was dropped and why. Returned instead of an
/// exception by the kRecover / kSkipDrive policies.
struct IngestReport {
  std::size_t rows_total = 0;        ///< data rows seen (header excluded)
  std::size_t rows_ok = 0;           ///< rows that became observations
  std::size_t rows_quarantined = 0;  ///< rows dropped
  std::size_t cells_recovered = 0;   ///< feature cells replaced by NaN
  std::size_t gap_days_bridged = 0;  ///< synthetic all-NaN days inserted
  std::size_t drives_quarantined = 0;
  std::size_t io_retries = 0;        ///< transient I/O failures retried
  /// Mixed-schema padding (ReadOptions::pad_missing_columns): rows
  /// accepted with a NaN-padded feature tail, and the cells padded.
  std::size_t rows_padded = 0;
  std::size_t cells_padded = 0;
  bool fatal = false;                ///< unusable input (empty/bad header)
  std::string fatal_detail;

  /// Columnar-cache outcome for this ingestion (load_fleet_csv_cached
  /// only; all zero for direct parses). A hit means the parse was
  /// skipped entirely and the row/cell tallies above were restored
  /// from the snapshot taken when the cache was written.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Subset of cache_misses where an entry existed but failed
  /// validation (stale schema, truncation, checksum, policy mismatch).
  std::size_t cache_invalidations = 0;

  /// Per-error-class tallies, indexed by RowError.
  std::array<std::size_t, static_cast<std::size_t>(RowError::kCount)> error_counts{};

  /// Drive ids with at least one quarantined row (bounded sample; see
  /// ReadOptions::max_quarantined_ids).
  std::vector<std::string> quarantined_drive_ids;

  /// Missing-data repair counters when the caller ran forward_fill
  /// through load_fleet_csv (zero otherwise).
  FillStats fill;

  std::size_t errors(RowError e) const {
    return error_counts[static_cast<std::size_t>(e)];
  }
  std::size_t total_errors() const {
    std::size_t n = 0;
    for (std::size_t c : error_counts) n += c;
    return n;
  }
  bool clean() const { return total_errors() == 0 && !fatal; }

  /// One-line "rows 980/1000 ok, 20 quarantined (wrong_field_count x12,
  /// ...)" summary for CLI output and logs.
  std::string summary() const;

  /// Adds the report tallies to `registry` as wefr_ingest_* counters
  /// (rows/cells totals plus one wefr_ingest_errors_<class>_total per
  /// non-zero error class). Call once per ingestion pass — counters
  /// accumulate, so re-exporting the same report double-counts.
  void export_counters(obs::Registry& registry) const;

  /// Copies the tallies into `report.ingest` for the run report.
  void fill_run_report(obs::RunReport& report) const;
};

}  // namespace wefr::data
