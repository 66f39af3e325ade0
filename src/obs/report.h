#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace wefr::obs {

class Registry;
class Tracer;

/// One schema-versioned, machine-readable document describing a whole
/// pipeline run: what ran (span tree), how much flowed through each
/// stage (metrics snapshot), what degraded (diagnostics events, ingest
/// tallies), and what was decided (selection groups, change point,
/// scoring outcome).
///
/// The struct is deliberately generic — the layers that own the source
/// types fill it in (`data::fill_run_report` for IngestReport,
/// `core` for PipelineDiagnostics / WefrResult) so the obs library
/// stays at the bottom of the dependency stack.
struct RunReport {
  /// Bumped whenever the JSON layout changes incompatibly. Emitted as
  /// the top-level "schema_version" field. v2 and v3 carried a
  /// "sharding" block for multi-process runs; v4 removed it.
  static constexpr int kSchemaVersion = 4;

  std::string tool;   ///< producing binary ("wefr_select", ...)
  std::string model;  ///< drive model the run operated on

  /// Fleet / run shape: "drives", "days", "features", ... (free-form).
  std::map<std::string, double> run_info;
  /// Flags and options worth recording, as strings.
  std::map<std::string, std::string> params;

  /// Degraded-mode ledger (mirrors core::DiagnosticEvent).
  struct Event {
    std::string stage, code, detail;
  };
  std::vector<Event> diagnostics;
  /// Structured diagnostics counters (rankers_failed, ...).
  std::map<std::string, double> diagnostic_counters;

  /// Ingestion tallies (rows ok / quarantined, per-error-class counts).
  std::map<std::string, double> ingest;

  /// One selected feature set (whole model or a wear group).
  struct Group {
    std::string label;
    std::vector<std::string> features;
    std::uint64_t num_samples = 0;
    std::uint64_t num_positives = 0;
    bool fallback = false;
    bool degraded = false;
  };
  std::vector<Group> selection;
  std::optional<double> change_point_mwi;
  std::optional<double> change_point_z;

  /// Fleet-scoring outcome over [day_lo, day_hi].
  struct Scoring {
    std::uint64_t drives = 0;
    std::uint64_t drive_days = 0;
    int day_lo = 0;
    int day_hi = 0;
    /// True when the scored window overlaps the training days (a
    /// monitoring-style report rather than a held-out evaluation).
    bool in_sample = false;
    std::optional<double> auc;  ///< day-level AUC when labels exist
    std::optional<double> precision, recall, f05, threshold;
  };
  std::optional<Scoring> scoring;

  /// Optional sources merged in at write time. Both must outlive
  /// write_json.
  const Tracer* tracer = nullptr;     ///< "spans": tree built from parent ids
  const Registry* metrics = nullptr;  ///< "metrics": registry snapshot

  void write_json(std::ostream& os) const;
  /// Writes to `path`; throws std::runtime_error on I/O failure.
  void write_json_file(const std::string& path) const;
};

}  // namespace wefr::obs
