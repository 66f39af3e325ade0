#include "daemon/resident.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "data/serialize.h"

namespace wefr::daemon {

namespace {
constexpr std::size_t kStatsPerWindow = 6;  // max, min, mean, std, range, wma
// Per-column scalar accumulators, one [col] run each: the prefix folds
// s, s2, sw and the growing-phase running extrema rmx, rmn.
constexpr std::size_t kScalarFields = 5;
constexpr std::uint32_t kSnapshotPayloadVersion = 1;

}  // namespace

/// Per-drive streaming state. `scalars` is [field][col]; `rings` is one
/// flat buffer indexed [day & mask][field][col]: field 0 = raw x, 1..3 =
/// prefix sums after the day (prefix[d+1] at slot d), then lvmax_k /
/// lvmin_k pairs for k = 1..kmax. Ring capacity covers the deepest
/// lookback any fold or steady-state read performs (max window + 2), so
/// state for the current day is always fully resident. `folded` counts
/// the drive's days already folded into this state.
struct ResidentFleet::DriveState {
  bool streaming = true;
  std::size_t folded = 0;
  std::vector<double> scalars;
  std::vector<double> rings;
};

ResidentFleet::~ResidentFleet() = default;
ResidentFleet::ResidentFleet(ResidentFleet&&) noexcept = default;
ResidentFleet& ResidentFleet::operator=(ResidentFleet&&) noexcept = default;

ResidentFleet::ResidentFleet(data::WindowFeatureConfig windows)
    : windows_(std::move(windows)) {
  std::size_t wmax = 1;
  for (int w : windows_.windows) {
    if (w < 1) throw std::invalid_argument("ResidentFleet: window must be >= 1");
    wmax = std::max(wmax, static_cast<std::size_t>(w));
    const auto wu = static_cast<std::size_t>(w);
    // Level plan from the config alone: the batch kernel additionally
    // requires w < days, but a level it thereby omits is never read by
    // a window that has not reached steady state, so the plans agree on
    // every element consumed (see the class comment).
    WindowPlan plan;
    plan.w = wu;
    if (wu >= 2) {
      const auto k = static_cast<std::size_t>(std::bit_width(wu)) - 1;
      kmax_ = std::max(kmax_, k);
      need_level1_ = need_level1_ || k == 1;
      const double wd = static_cast<double>(wu);
      plan.level = k;
      plan.shift = wu - (std::size_t{1} << k);
      plan.inv_w = 1.0 / wd;
      plan.inv_den = 2.0 / (wd * (wd + 1.0));
    }
    plans_.push_back(plan);
  }
  factor_ = 1 + kStatsPerWindow * windows_.windows.size();
  ring_ = std::bit_ceil(std::max<std::size_t>(8, wmax + 2));
}

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
    const std::size_t ncols = fleet_.feature_names.size();
    DriveState st;
    st.scalars.assign(kScalarFields * ncols, 0.0);
    std::fill_n(st.scalars.begin() + 3 * ncols, ncols, -INFINITY);  // rmx
    std::fill_n(st.scalars.begin() + 4 * ncols, ncols, INFINITY);   // rmn
    st.rings.assign(ring_ * (4 + 2 * kmax_) * ncols, 0.0);
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
      st.scalars.clear();
      st.scalars.shrink_to_fit();
      st.rings.clear();
      st.rings.shrink_to_fit();
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
    fold_day(st, drive.values.row(j).data(), j, rows.empty() ? nullptr : &rows[i * width]);
  }
  st.folded += pending;
}

/// Folds local day `j` (row `x`) into the state and, when `out` is set,
/// writes the day's expanded row. Each loop runs over the columns of one
/// contiguous field run, and every column evaluates the batch kernel's
/// expressions in the batch kernel's order.
void ResidentFleet::fold_day(DriveState& st, const double* __restrict x, std::size_t j,
                             double* __restrict out) const {
  const std::size_t nc = fleet_.feature_names.size();
  const std::size_t stride = (4 + 2 * kmax_) * nc;  // one ring slot
  const std::size_t mask = ring_ - 1;
  const auto slot = [&](std::size_t day) { return st.rings.data() + (day & mask) * stride; };
  // Field runs of one slot: raw, prefix sums, then the level pairs.
  const auto lvmax = [&](double* at, std::size_t k) { return at + (2 + 2 * k) * nc; };
  const auto lvmin = [&](double* at, std::size_t k) { return at + (3 + 2 * k) * nc; };

  double* __restrict s = st.scalars.data();
  double* __restrict s2 = s + nc;
  double* __restrict sw = s + 2 * nc;
  double* __restrict rmx = s + 3 * nc;
  double* __restrict rmn = s + 4 * nc;
  double* const cur = slot(j);
  double* __restrict raw = cur;
  double* __restrict pr = cur + nc;       // prefix[j+1]
  double* __restrict pr2 = cur + 2 * nc;  // prefix2[j+1]
  double* __restrict prw = cur + 3 * nc;  // wprefix[j+1]

  // Prefix folds, verbatim the batch kernel's left-to-right order, and
  // the growing-phase running extrema over [0, j].
  const double dj = static_cast<double>(j + 1);
  for (std::size_t c = 0; c < nc; ++c) {
    const double v = x[c];
    s[c] += v;
    s2[c] += v * v;
    sw[c] += dj * v;
    raw[c] = v;
    pr[c] = s[c];
    pr2[c] = s2[c];
    prw[c] = sw[c];
    rmx[c] = std::max(rmx[c], v);
    rmn[c] = std::min(rmn[c], v);
  }

  // Sparse-table levels for this day's element, same build plan as
  // build_sparse_levels: either level 1 upward, or (when no window
  // needs level 1) level 2 straight from the input with the fused
  // 4-way extremum, then upward.
  std::size_t k_first = 1;
  if (!need_level1_ && kmax_ >= 2) {
    double* __restrict mx2 = lvmax(cur, 2);
    double* __restrict mn2 = lvmin(cur, 2);
    if (j < 3) {
      // Truncated head: the extremum over [0, j] is the running one.
      std::copy_n(rmx, nc, mx2);
      std::copy_n(rmn, nc, mn2);
    } else {
      const double* __restrict r1 = slot(j - 1);
      const double* __restrict r2 = slot(j - 2);
      const double* __restrict r3 = slot(j - 3);
      for (std::size_t c = 0; c < nc; ++c) {
        mx2[c] = std::max(std::max(raw[c], r1[c]), std::max(r2[c], r3[c]));
        mn2[c] = std::min(std::min(raw[c], r1[c]), std::min(r2[c], r3[c]));
      }
    }
    k_first = 3;
  }
  for (std::size_t k = k_first; k <= kmax_; ++k) {
    const std::size_t h = std::size_t{1} << (k - 1);
    const double* __restrict smx = k == 1 ? raw : lvmax(cur, k - 1);
    const double* __restrict smn = k == 1 ? raw : lvmin(cur, k - 1);
    double* __restrict dmx = lvmax(cur, k);
    double* __restrict dmn = lvmin(cur, k);
    if (j < h) {
      std::copy_n(smx, nc, dmx);
      std::copy_n(smn, nc, dmn);
      continue;
    }
    double* const back = slot(j - h);
    const double* __restrict pmx = k == 1 ? back : lvmax(back, k - 1);
    const double* __restrict pmn = k == 1 ? back : lvmin(back, k - 1);
    for (std::size_t c = 0; c < nc; ++c) {
      dmx[c] = std::max(smx[c], pmx[c]);
      dmn[c] = std::min(smn[c], pmn[c]);
    }
  }
  if (out == nullptr) return;

  // Assemble the expanded row: identity, then per window the batch
  // kernel's growing / steady expressions, operation for operation.
  const std::size_t f = factor_;
  for (std::size_t c = 0; c < nc; ++c) out[c * f] = x[c];
  std::size_t o = 1;
  for (const WindowPlan& plan : plans_) {
    double* __restrict row = out + o;
    o += kStatsPerWindow;
    if (plan.w == 1) {
      for (std::size_t c = 0; c < nc; ++c) {
        double* cell = row + c * f;
        cell[0] = cell[1] = cell[2] = cell[5] = x[c];  // max, min, mean, wma
        cell[3] = cell[4] = 0.0;                       // std, range
      }
      continue;
    }
    if (j < plan.w) {
      const double n = dj;
      const double den = n * (n + 1) * 0.5;
      for (std::size_t c = 0; c < nc; ++c) {
        const double mean = s[c] / n;
        const double var = std::max(0.0, s2[c] / n - mean * mean);
        double* cell = row + c * f;
        cell[0] = rmx[c];
        cell[1] = rmn[c];
        cell[2] = mean;
        cell[3] = std::sqrt(var);
        cell[4] = rmx[c] - rmn[c];
        cell[5] = sw[c] / den;
      }
      continue;
    }
    double* const lagged = slot(j - plan.shift);
    const double* __restrict hi = lvmax(cur, plan.level);
    const double* __restrict hi_lag = lvmax(lagged, plan.level);
    const double* __restrict lo = lvmin(cur, plan.level);
    const double* __restrict lo_lag = lvmin(lagged, plan.level);
    const std::size_t first = j - plan.w + 1;  // window is [first, j]; first >= 1 here
    const double* const before = slot(first - 1);
    const double* __restrict ps = before + nc;       // prefix[first]
    const double* __restrict ps2 = before + 2 * nc;  // prefix2[first]
    const double* __restrict psw = before + 3 * nc;  // wprefix[first]
    const double first_d = static_cast<double>(first);
    for (std::size_t c = 0; c < nc; ++c) {
      const double mx = std::max(hi[c], hi_lag[c]);
      const double mn = std::min(lo[c], lo_lag[c]);
      const double sum = s[c] - ps[c];
      const double mean = sum * plan.inv_w;
      const double var = (s2[c] - ps2[c]) * plan.inv_w - mean * mean;
      double* cell = row + c * f;
      cell[0] = mx;
      cell[1] = mn;
      cell[2] = mean;
      cell[3] = std::sqrt(std::max(0.0, var));
      cell[4] = mx - mn;
      cell[5] = ((sw[c] - psw[c]) - first_d * sum) * plan.inv_den;
    }
  }
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
