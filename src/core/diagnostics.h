#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace wefr::obs {
class Registry;
struct RunReport;
}

namespace wefr::core {

/// One degraded-mode event recorded while the pipeline ran: a stage hit
/// a degenerate input (constant feature, single-class labels, starved
/// population, ...) and substituted a tagged fallback instead of
/// throwing.
struct DiagnosticEvent {
  std::string stage;   ///< "selection", "ensemble", "survival", "cpd",
                       ///< "group:low", "group:high", "scoring"
  std::string code;    ///< stable machine-readable tag ("single_class", ...)
  std::string detail;  ///< human-readable context
};

/// Degraded-mode ledger threaded through run_wefr / score_fleet (and
/// every stage they call). A clean run leaves it empty; every fallback
/// the pipeline takes on degenerate or corrupted input is enumerated
/// here, so callers can complete on noisy fleets and still account for
/// exactly what was dropped or skipped.
struct PipelineDiagnostics {
  std::vector<DiagnosticEvent> events;

  // Structured counters mirroring the most common events, for cheap
  // programmatic checks (chaos tests, monitoring).
  std::size_t rankers_failed = 0;        ///< rankers that threw; neutral-ranked
  std::size_t scores_sanitized = 0;      ///< non-finite ranker scores zeroed
  std::size_t constant_features = 0;     ///< constant columns at selection time
  std::size_t survival_drives_skipped = 0;  ///< drives without usable MWI_N
  std::size_t score_days_rerouted = 0;   ///< NaN-MWI days routed to the
                                         ///< whole-model bundle
  std::size_t score_drives_missing_features = 0;  ///< scored drives whose
                                                  ///< model lacks >=1
                                                  ///< selected feature
  bool selection_degraded = false;       ///< a selection fell back wholesale
  bool wearout_skipped = false;          ///< Lines 9-15 skipped entirely

  void note(std::string stage, std::string code, std::string detail = {}) {
    if (registry_ != nullptr) bump(code);
    events.push_back({std::move(stage), std::move(code), std::move(detail)});
  }
  bool empty() const { return events.empty(); }

  /// Bridges future note() calls into `registry` as live counters:
  /// every event increments wefr_diag_events_total plus a per-code
  /// wefr_diag_<code>_total. Pass nullptr to detach. Events recorded
  /// before attaching are not replayed.
  void attach(obs::Registry* registry) { registry_ = registry; }

  /// Copies the events and structured counters into `report`
  /// (report.diagnostics / report.diagnostic_counters).
  void fill_run_report(obs::RunReport& report) const;

  /// Events recorded for one stage (prefix match, so "group" covers
  /// "group:low" and "group:high").
  std::size_t count_stage(std::string_view stage) const {
    std::size_t n = 0;
    for (const auto& e : events) n += e.stage.rfind(stage, 0) == 0 ? 1 : 0;
    return n;
  }

  /// True when any event carries the given code.
  bool has(std::string_view code) const {
    for (const auto& e : events) {
      if (e.code == code) return true;
    }
    return false;
  }

  /// "stage/code: detail; ..." one-liner for CLI output and logs.
  std::string summary() const;

 private:
  void bump(const std::string& code) const;

  obs::Registry* registry_ = nullptr;
};

}  // namespace wefr::core
