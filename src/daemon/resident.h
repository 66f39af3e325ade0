#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/fleet.h"
#include "data/window_features.h"

namespace wefr::daemon {

/// Result of one ResidentFleet::append_day call.
struct AppendResult {
  std::size_t drive_index = 0;
  /// First observation for this drive id.
  bool new_drive = false;
  /// This append carried a non-finite value, flipping the drive out of
  /// streaming mode (see ResidentFleet). Already-false when the drive
  /// was knocked out of streaming mode earlier.
  bool went_nonfinite = false;
};

/// The daemon's per-drive resident state: raw history plus each drive's
/// data::WindowFold state, the same fold data::expand_series runs.
///
/// An append is O(columns) bookkeeping: it checks the row and stores it
/// in the raw history, nothing more (a drive's first append also
/// allocates its fold state). Each drive keeps a count of its folded
/// days; fold() later runs the shared per-day fold over the days
/// appended since, oldest first, and can emit each day's fully
/// window-expanded row, in O(columns * windows) per day with no
/// re-expansion of history. daemon::Engine folds every dirty drive at
/// once, on its rescore pool.
///
/// Bit-identity contract: for a drive whose history is entirely finite,
/// the rows fold() emits are bit-identical to the rows
/// data::expand_series produces from the full history, at every history
/// length and however the days are cut into fold() calls: both run
/// data::WindowFold::fold_day over the same days in the same order, and
/// the fold's expressions for day d read only days <= d.
///
/// Non-finite values: the batch kernel classifies finiteness over the
/// whole column, so the first NaN/inf appended to a drive retroactively
/// changes the semantics of that column's earlier rows (they become the
/// naive-rescan outputs). Patching that incrementally is not possible,
/// so the drive permanently leaves streaming mode (`streaming(di)`
/// false): its unfolded days are never folded, its state is freed, and
/// the engine scores it through the batch oracle instead. Rare in
/// practice (recover-mode ingestion holes), and exactness is preserved
/// either way.
class ResidentFleet {
 public:
  explicit ResidentFleet(data::WindowFeatureConfig windows = {});
  ~ResidentFleet();
  ResidentFleet(ResidentFleet&&) noexcept;
  ResidentFleet& operator=(ResidentFleet&&) noexcept;

  /// Declares the fleet schema. Must be called before the first append;
  /// re-calling with a different schema throws.
  void set_schema(std::string model_name, std::vector<std::string> feature_names);
  bool has_schema() const { return !fleet_.feature_names.empty(); }

  /// Appends one observed day for `drive_id` to its raw history. A new
  /// id may start at any day; an existing drive's `day` must be exactly
  /// last_day() + 1 (contiguous series, matching ingest's forward-filled
  /// output). `fail_day` >= 0 records the drive's trouble ticket;
  /// conflicting re-declarations throw. `values` must match the schema
  /// width.
  AppendResult append_day(const std::string& drive_id, int day,
                          std::span<const double> values, int fail_day = -1);

  /// Raw resident fleet (the batch oracle's input). `num_days` tracks
  /// the highest appended day + 1.
  const data::FleetData& fleet() const { return fleet_; }

  std::size_t num_drives() const { return fleet_.drives.size(); }
  /// Highest appended day, or -1 before any append.
  int max_day() const { return fleet_.num_days - 1; }
  /// Drive index for an id, or npos.
  std::size_t find_drive(const std::string& drive_id) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// False once the drive has seen a non-finite value (batch-oracle
  /// scoring only from then on).
  bool streaming(std::size_t drive_index) const;

  /// Days appended to a streaming drive and not folded yet (0 for a
  /// non-streaming drive).
  std::size_t unfolded_days(std::size_t drive_index) const;
  /// Fleet-global day of the drive's first unfolded day (one past its
  /// last day when everything is folded).
  int first_unfolded_day(std::size_t drive_index) const;

  /// Folds the drive's unfolded days into its window state, oldest
  /// first. With `rows` non-empty it also writes each folded day's
  /// window-expanded row there: unfolded_days() rows of row_width()
  /// doubles, row 0 being first_unfolded_day() (any other size throws
  /// std::invalid_argument). Column layout matches data::expand_series
  /// over ALL base columns: col b expands to [b*factor, (b+1)*factor).
  /// With `rows` empty it only advances the state. Never allocates, and
  /// calls for distinct drives may run concurrently.
  void fold(std::size_t drive_index, std::span<double> rows);

  const data::WindowFeatureConfig& windows() const { return windows_; }
  std::size_t expansion_factor() const { return fold_.factor(); }
  /// Doubles in one expanded row: schema width * expansion_factor().
  std::size_t row_width() const { return fleet_.feature_names.size() * fold_.factor(); }

  /// Serializes schema, window config and every drive's raw history
  /// (the window state is rebuilt by folding the same days again).
  /// The payload is meant to travel inside a WEFRDS01 record
  /// (data::write_daemon_snapshot).
  std::string save_snapshot() const;

  /// Restores a save_snapshot() payload into this (empty) instance by
  /// replaying its appends, so every restored day starts unfolded.
  /// Returns false with `why` on damage or a window-config mismatch.
  bool load_snapshot(std::string_view payload, std::string* why = nullptr);

 private:
  struct DriveState;

  data::WindowFeatureConfig windows_;
  data::WindowFold fold_;
  data::FleetData fleet_;
  std::vector<DriveState> states_;
  std::unordered_map<std::string, std::size_t> id_index_;
};

}  // namespace wefr::daemon
