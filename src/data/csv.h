#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "data/fleet.h"
#include "data/ingest.h"

namespace wefr::obs {
struct Context;
}

namespace wefr::data {

/// CSV serialization of fleets in the long format used by the released
/// Alibaba dataset: one row per (drive, day) with columns
///   drive_id, day, failed_within_dataset, fail_day, <feature...>
///
/// The format round-trips exactly through write/read (modulo double
/// formatting at 17 significant digits). NaN cells serialize as "nan"
/// ("-nan" for a sign-bit NaN); reading either back requires
/// ParsePolicy::kRecover, which counts it as a missing value (strict
/// mode only accepts finite values).
void write_fleet_csv(const FleetData& fleet, std::ostream& os);
void write_fleet_csv(const FleetData& fleet, const std::string& path);

/// Parses a fleet from the long CSV format. Rows for one drive must be
/// contiguous and day-ordered (as produced by write_fleet_csv); throws
/// std::runtime_error on malformed input.
FleetData read_fleet_csv(std::istream& is, const std::string& model_name);
FleetData read_fleet_csv(const std::string& path, const std::string& model_name);

/// Policy-aware parse. Under ParsePolicy::kStrict this behaves exactly
/// like the two-argument overloads. Under kRecover / kSkipDrive it is
/// total on arbitrary row-level corruption: malformed rows (or, for
/// kSkipDrive, their whole drives) are quarantined and tallied into
/// `report`, unparseable feature cells become NaN, and unusable input
/// (no header) yields an empty fleet with `report->fatal` set instead
/// of a throw. `report` may be null when the caller only wants the
/// tolerant behavior.
///
/// `obs` (nullable) traces the parse as an "ingest:read_csv" span and
/// exports the report tallies as wefr_ingest_* counters.
FleetData read_fleet_csv(std::istream& is, const std::string& model_name,
                         const ReadOptions& opt, IngestReport* report = nullptr,
                         const obs::Context* obs = nullptr);

/// In-memory variant: parses a whole CSV buffer with the parallel
/// chunked fast path (newline-aligned chunks tokenized on a thread
/// pool, merged in file order). Results — fleet, report tallies, and
/// strict-mode exception messages — are byte-identical to the istream
/// overloads on the same bytes, at any `opt.num_threads` and any
/// `opt.parallel_chunk_bytes`.
FleetData read_fleet_csv_buffer(std::string_view text, const std::string& model_name,
                                const ReadOptions& opt, IngestReport* report = nullptr,
                                const obs::Context* obs = nullptr);

/// Path variant with bounded-retry I/O: opening the file is attempted
/// up to `opt.max_io_attempts` times before the failure is reported
/// (thrown in strict mode; `report->fatal` otherwise). Retries
/// performed are counted in `report->io_retries`. The file is
/// memory-mapped (with a portable read-whole-file fallback) and parsed
/// through the same parallel chunked fast path as
/// read_fleet_csv_buffer.
FleetData read_fleet_csv(const std::string& path, const std::string& model_name,
                         const ReadOptions& opt, IngestReport* report = nullptr,
                         const obs::Context* obs = nullptr);

/// Convenience one-call ingestion: policy-aware read (with retry I/O)
/// followed by forward_fill of the surviving fleet; the fill counters
/// land in `report->fill`. This is the entry point production loaders
/// should use on real, noisy SMART dumps. With `obs`, the read and the
/// repair each get a span under an "ingest" parent.
FleetData load_fleet_csv(const std::string& path, const std::string& model_name,
                         const ReadOptions& opt, IngestReport* report = nullptr,
                         const obs::Context* obs = nullptr);

}  // namespace wefr::data
