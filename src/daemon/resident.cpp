#include "daemon/resident.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "data/serialize.h"

namespace wefr::daemon {

namespace {
constexpr std::uint32_t kSnapshotPayloadVersion = 1;
}  // namespace

/// Per-drive state: the drive's window fold state (see data::WindowFold)
/// and `folded`, the count of its days already folded into it.
struct ResidentFleet::DriveState {
  bool streaming = true;
  std::size_t folded = 0;
  data::WindowFold::State window;
};

ResidentFleet::~ResidentFleet() = default;
ResidentFleet::ResidentFleet(ResidentFleet&&) noexcept = default;
ResidentFleet& ResidentFleet::operator=(ResidentFleet&&) noexcept = default;

ResidentFleet::ResidentFleet(data::WindowFeatureConfig windows)
    : windows_(std::move(windows)), fold_(windows_) {}

void ResidentFleet::set_schema(std::string model_name,
                               std::vector<std::string> feature_names) {
  if (feature_names.empty())
    throw std::invalid_argument("ResidentFleet::set_schema: no features");
  if (has_schema()) {
    if (fleet_.model_name != model_name || fleet_.feature_names != feature_names)
      throw std::invalid_argument("ResidentFleet::set_schema: schema already set");
    return;
  }
  fleet_.model_name = std::move(model_name);
  fleet_.feature_names = std::move(feature_names);
}

std::size_t ResidentFleet::find_drive(const std::string& drive_id) const {
  const auto it = id_index_.find(drive_id);
  return it == id_index_.end() ? npos : it->second;
}

bool ResidentFleet::streaming(std::size_t drive_index) const {
  return states_.at(drive_index).streaming;
}

std::size_t ResidentFleet::unfolded_days(std::size_t drive_index) const {
  const DriveState& st = states_.at(drive_index);
  return st.streaming ? fleet_.drives[drive_index].num_days() - st.folded : 0;
}

int ResidentFleet::first_unfolded_day(std::size_t drive_index) const {
  return fleet_.drives.at(drive_index).first_day +
         static_cast<int>(states_[drive_index].folded);
}

AppendResult ResidentFleet::append_day(const std::string& drive_id, int day,
                                       std::span<const double> values, int fail_day) {
  if (!has_schema()) throw std::logic_error("ResidentFleet::append_day: schema unset");
  if (values.size() != fleet_.feature_names.size())
    throw std::invalid_argument("ResidentFleet::append_day: row width mismatch");
  if (day < 0) throw std::invalid_argument("ResidentFleet::append_day: negative day");

  AppendResult res;
  auto it = id_index_.find(drive_id);
  if (it == id_index_.end()) {
    res.drive_index = fleet_.drives.size();
    res.new_drive = true;
    id_index_.emplace(drive_id, res.drive_index);
    data::DriveSeries drive;
    drive.drive_id = drive_id;
    drive.first_day = day;
    fleet_.drives.push_back(std::move(drive));
    DriveState st;
    st.window = fold_.start(fleet_.feature_names.size());
    states_.push_back(std::move(st));
  } else {
    res.drive_index = it->second;
    const auto& drive = fleet_.drives[res.drive_index];
    if (day != drive.last_day() + 1)
      throw std::invalid_argument("ResidentFleet::append_day: non-contiguous day for " +
                                  drive_id);
  }

  data::DriveSeries& drive = fleet_.drives[res.drive_index];
  DriveState& st = states_[res.drive_index];
  if (fail_day >= 0) {
    if (drive.fail_day >= 0 && drive.fail_day != fail_day)
      throw std::invalid_argument("ResidentFleet::append_day: conflicting fail_day for " +
                                  drive_id);
    drive.fail_day = fail_day;
  }
  drive.values.push_row(values);
  fleet_.num_days = std::max(fleet_.num_days, day + 1);

  if (st.streaming) {
    bool finite = true;
    for (double v : values) finite = finite && std::isfinite(v);
    if (!finite) {
      // The batch kernel decides streaming-vs-naive per column over the
      // WHOLE column, so this value retroactively rewrites the drive's
      // earlier feature rows. Permanently hand the drive to the batch
      // oracle; its unfolded days are never folded, and the streaming
      // state is dead weight from here on.
      st.streaming = false;
      res.went_nonfinite = true;
      st.window = {};
    }
  }
  return res;
}

void ResidentFleet::fold(std::size_t drive_index, std::span<double> rows) {
  DriveState& st = states_.at(drive_index);
  const data::DriveSeries& drive = fleet_.drives[drive_index];
  const std::size_t pending = unfolded_days(drive_index);
  const std::size_t width = row_width();
  if (!rows.empty() && rows.size() != pending * width)
    throw std::invalid_argument("ResidentFleet::fold: row buffer size");
  for (std::size_t i = 0; i < pending; ++i) {
    const std::size_t j = st.folded + i;
    fold_.fold_day(st.window, drive.values.row(j).data(), j,
                   rows.empty() ? nullptr : &rows[i * width]);
  }
  st.folded += pending;
}

std::string ResidentFleet::save_snapshot() const {
  data::ByteWriter w;
  w.scalar(kSnapshotPayloadVersion);
  w.str(fleet_.model_name);
  w.scalar(static_cast<std::uint32_t>(windows_.windows.size()));
  for (int win : windows_.windows) w.scalar(static_cast<std::int32_t>(win));
  w.scalar(static_cast<std::uint32_t>(fleet_.feature_names.size()));
  for (const auto& name : fleet_.feature_names) w.str(name);
  w.scalar(static_cast<std::int32_t>(fleet_.num_days));
  w.scalar(static_cast<std::uint64_t>(fleet_.drives.size()));
  for (const auto& drive : fleet_.drives) {
    w.str(drive.drive_id);
    w.scalar(static_cast<std::int32_t>(drive.first_day));
    w.scalar(static_cast<std::int32_t>(drive.fail_day));
    w.scalar(static_cast<std::uint64_t>(drive.num_days()));
    const auto raw = drive.values.raw();
    w.bytes(raw.data(), raw.size() * sizeof(double));
  }
  return std::move(w.buf());
}

bool ResidentFleet::load_snapshot(std::string_view payload, std::string* why) {
  const auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (has_schema() || !fleet_.drives.empty())
    return fail("load into a non-empty ResidentFleet");

  data::ByteReader r(payload);
  std::uint32_t version = 0;
  if (!r.scalar(version)) return fail("truncated snapshot payload");
  if (version != kSnapshotPayloadVersion) return fail("snapshot payload version mismatch");
  std::string model_name;
  if (!r.str(model_name)) return fail("truncated snapshot payload");
  std::uint32_t nwin = 0;
  if (!r.scalar(nwin) || nwin > 64) return fail("truncated snapshot payload");
  std::vector<int> wins(nwin);
  for (auto& win : wins) {
    std::int32_t v = 0;
    if (!r.scalar(v)) return fail("truncated snapshot payload");
    win = v;
  }
  if (wins != windows_.windows) return fail("window config mismatch");
  std::uint32_t nfeat = 0;
  if (!r.scalar(nfeat) || nfeat > (1u << 16)) return fail("truncated snapshot payload");
  std::vector<std::string> names(nfeat);
  for (auto& name : names) {
    if (!r.str(name)) return fail("truncated snapshot payload");
  }
  std::int32_t num_days = 0;
  std::uint64_t ndrives = 0;
  if (!r.scalar(num_days) || !r.scalar(ndrives)) return fail("truncated snapshot payload");

  // nfeat == 0 is the pre-schema empty state (a daemon that stopped
  // before its first hello saves one); drives cannot exist without a
  // schema, so any drive payload after it is damage, not data.
  if (nfeat == 0 && ndrives != 0) return fail("snapshot has drives but no schema");
  if (nfeat > 0) set_schema(std::move(model_name), std::move(names));
  for (std::uint64_t i = 0; i < ndrives; ++i) {
    std::string id;
    std::int32_t first_day = 0, fail_day = -1;
    std::uint64_t ndays = 0;
    if (!r.str(id) || !r.scalar(first_day) || !r.scalar(fail_day) || !r.scalar(ndays))
      return fail("truncated snapshot payload");
    const std::size_t n = static_cast<std::size_t>(ndays) * nfeat;
    const char* block = r.raw(n * sizeof(double));
    if (block == nullptr) return fail("truncated snapshot payload");
    // Replay the appends: the raw history and any non-streaming
    // downgrade are exactly what the original process held, and folding
    // the restored days rebuilds its window state.
    std::vector<double> row(nfeat);
    for (std::uint64_t d = 0; d < ndays; ++d) {
      std::memcpy(row.data(), block + d * nfeat * sizeof(double), nfeat * sizeof(double));
      append_day(id, first_day + static_cast<int>(d), row, fail_day);
    }
  }
  if (r.remaining() != 0) return fail("trailing bytes in snapshot payload");
  fleet_.num_days = std::max(fleet_.num_days, static_cast<int>(num_days));
  return true;
}

}  // namespace wefr::daemon
