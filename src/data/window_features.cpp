#include "data/window_features.h"

#include "obs/context.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace wefr::data {

namespace {
constexpr std::size_t kStatsPerWindow = 6;  // max, min, mean, std, range, wma
// Per-column scalar accumulators, one [col] run each: the prefix folds
// s, s2, sw and the growing-phase running extrema rmx, rmn.
constexpr std::size_t kScalarFields = 5;

void check_windows(const WindowFeatureConfig& cfg) {
  for (int w : cfg.windows) {
    if (w < 1) throw std::invalid_argument("WindowFeatureConfig: window must be >= 1");
  }
}

void check_columns(const Matrix& series, std::span<const std::size_t> base_cols) {
  for (std::size_t col : base_cols) {
    if (col >= series.cols()) throw std::out_of_range("expand_series: base column");
  }
}

/// The naive rescan of base column `col`: for output row i, day days[i],
/// every window's stats from a fresh pass over its trailing days. Row i's
/// cells go to out[i * row_stride + 0 .. factor).
void rescan_column(const Matrix& series, std::size_t col, std::span<const std::size_t> days,
                   const WindowFeatureConfig& cfg, double* out, std::size_t row_stride) {
  for (std::size_t i = 0; i < days.size(); ++i) {
    const std::size_t d = days[i];
    double* cell = out + i * row_stride;
    *cell++ = series(d, col);
    for (int w : cfg.windows) {
      // Trailing window [start, d], truncated at the series start.
      const std::size_t start = d + 1 >= static_cast<std::size_t>(w) ? d + 1 - w : 0;
      const std::size_t n = d - start + 1;
      double mx = -INFINITY, mn = INFINITY, sum = 0.0, sum2 = 0.0;
      double wma_num = 0.0, wma_den = 0.0;
      for (std::size_t t = start; t <= d; ++t) {
        const double x = series(t, col);
        mx = std::max(mx, x);
        mn = std::min(mn, x);
        sum += x;
        sum2 += x * x;
        // Linear weights: most recent day gets the largest weight.
        const double weight = static_cast<double>(t - start + 1);
        wma_num += weight * x;
        wma_den += weight;
      }
      const double mean = sum / static_cast<double>(n);
      const double var = std::max(0.0, sum2 / static_cast<double>(n) - mean * mean);
      *cell++ = mx;
      *cell++ = mn;
      *cell++ = mean;
      *cell++ = std::sqrt(var);
      *cell++ = mx - mn;
      *cell++ = wma_num / wma_den;
    }
  }
}

}  // namespace

std::size_t expansion_factor(const WindowFeatureConfig& cfg) {
  return 1 + kStatsPerWindow * cfg.windows.size();
}

std::vector<std::string> expanded_feature_names(std::span<const std::string> base_names,
                                                const WindowFeatureConfig& cfg) {
  static const char* kStatNames[kStatsPerWindow] = {"max", "min", "mean", "std", "range", "wma"};
  std::vector<std::string> out;
  out.reserve(base_names.size() * expansion_factor(cfg));
  for (const auto& base : base_names) {
    out.push_back(base);
    for (int w : cfg.windows) {
      for (const char* stat : kStatNames) {
        out.push_back(base + "__" + stat + std::to_string(w));
      }
    }
  }
  return out;
}

WindowFold::WindowFold(const WindowFeatureConfig& cfg) {
  check_windows(cfg);
  std::size_t wmax = 1;
  for (int w : cfg.windows) {
    const auto wu = static_cast<std::size_t>(w);
    wmax = std::max(wmax, wu);
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
  factor_ = expansion_factor(cfg);
  // Covers the deepest lookback any fold or steady-state read performs
  // (max window + 2), so the current day's state is always resident.
  ring_ = std::bit_ceil(std::max<std::size_t>(8, wmax + 2));
}

WindowFold::State WindowFold::start(std::size_t cols) const {
  State st;
  st.cols = cols;
  st.scalars.assign(kScalarFields * cols, 0.0);
  std::fill_n(st.scalars.begin() + 3 * cols, cols, -INFINITY);  // rmx
  std::fill_n(st.scalars.begin() + 4 * cols, cols, INFINITY);   // rmn
  st.rings.assign(ring_ * (4 + 2 * kmax_) * cols, 0.0);
  return st;
}

/// Each loop runs over the columns of one contiguous field run. Ring
/// fields: 0 = raw x, 1..3 = prefix sums after the day (prefix[d+1] at
/// slot d), then lvmax_k / lvmin_k pairs for k = 1..kmax.
void WindowFold::fold_day(State& st, const double* __restrict x, std::size_t j,
                          double* __restrict out) const {
  const std::size_t nc = st.cols;
  const std::size_t stride = (4 + 2 * kmax_) * nc;  // one ring slot
  const std::size_t mask = ring_ - 1;
  const auto slot = [&](std::size_t day) { return st.rings.data() + (day & mask) * stride; };
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

  // Left-to-right prefix folds, which are the naive rescan's growing-
  // window folds, and the growing-phase running extrema over [0, j].
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

  // Sparse-table levels for this day's element: level k holds the
  // extremum over the trailing 2^k days, truncated at the series start.
  // Either level 1 upward, or (when no window needs level 1) level 2
  // straight from the input with a fused 4-way extremum, then upward.
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
      // For j < 2^(k-1) the previous level is already the truncated
      // extremum over [0, j].
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

  // Assemble the expanded row: identity, then per window the growing or
  // the steady expressions.
  const std::size_t f = factor_;
  for (std::size_t c = 0; c < nc; ++c) out[c * f] = x[c];
  std::size_t o = 1;
  for (const WindowPlan& plan : plans_) {
    double* __restrict row = out + o;
    o += kStatsPerWindow;
    if (plan.w == 1) {
      // Degenerate window: every stat collapses to the day's value (the
      // naive rescan produces exactly these, including std = sqrt(max(0,
      // x*x/1 - x*x)) = 0).
      for (std::size_t c = 0; c < nc; ++c) {
        double* cell = row + c * f;
        cell[0] = cell[1] = cell[2] = cell[5] = x[c];  // max, min, mean, wma
        cell[3] = cell[4] = 0.0;                       // std, range
      }
      continue;
    }
    if (j < plan.w) {
      // Growing window [0, j]: the naive rescan's folds, bit-for-bit.
      // Denominator 1 + 2 + ... + n = n(n+1)/2 is an exact integer.
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
    // Sliding window [first, j]: max/min from two overlapping level
    // spans (max is idempotent, so the overlap is harmless), the rest
    // as prefix differences; Sum_{t=first..j} (t-first+1) x_t =
    // Sum (t+1) x_t - first * Sum x_t.
    double* const lagged = slot(j - plan.shift);
    const double* __restrict hi = lvmax(cur, plan.level);
    const double* __restrict hi_lag = lvmax(lagged, plan.level);
    const double* __restrict lo = lvmin(cur, plan.level);
    const double* __restrict lo_lag = lvmin(lagged, plan.level);
    const std::size_t first = j - plan.w + 1;  // first >= 1 here
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

void expand_series_into(const Matrix& series, std::span<const std::size_t> base_cols,
                        std::span<const std::size_t> days, const WindowFeatureConfig& cfg,
                        std::span<double> out, const obs::Context* obs) {
  const WindowFold fold(cfg);
  check_columns(series, base_cols);
  const std::size_t history = series.rows();
  const std::size_t nb = base_cols.size();
  const std::size_t factor = fold.factor();
  const std::size_t width = nb * factor;
  if (out.size() != days.size() * width)
    throw std::invalid_argument("expand_series: output size");
  std::size_t last = 0;
  for (std::size_t d : days) {
    if (d >= history) throw std::out_of_range("expand_series: day");
    last = std::max(last, d);
  }
  if (obs != nullptr) {
    obs::add_counter(obs, "wefr_featuregen_rows_total", days.size());
    obs::add_counter(obs, "wefr_featuregen_cells_total", days.size() * width);
  }
  if (days.empty() || base_cols.empty()) return;

  // The output row of each listed day's first listing; a repeat copies it.
  constexpr std::size_t kUnlisted = static_cast<std::size_t>(-1);
  std::vector<std::size_t> row_of(last + 1, kUnlisted);
  for (std::size_t i = 0; i < days.size(); ++i)
    if (row_of[days[i]] == kUnlisted) row_of[days[i]] = i;

  // Fold the base columns over days 0 .. last; days past the last listed
  // one feed no output, but every day counts toward a column's
  // finiteness, which is decided over the whole history.
  WindowFold::State st = fold.start(nb);
  std::vector<double> x(nb);
  std::vector<char> finite(nb, 1);
  for (std::size_t d = 0; d < history; ++d) {
    const auto src = series.row(d);
    for (std::size_t b = 0; b < nb; ++b) {
      x[b] = src[base_cols[b]];
      finite[b] = finite[b] && std::isfinite(x[b]);
    }
    if (d <= last)
      fold.fold_day(st, x.data(), d,
                    row_of[d] == kUnlisted ? nullptr : out.data() + row_of[d] * width);
  }
  for (std::size_t i = 0; i < days.size(); ++i) {
    const std::size_t first = row_of[days[i]];
    if (first != i) std::copy_n(out.data() + first * width, width, out.data() + i * width);
  }

  // NaN holes (recover-mode ingestion) poison running sums and break
  // max/min comparisons; the naive rescan's semantics are the contract
  // for such a column, so its cells are rescanned.
  for (std::size_t b = 0; b < nb; ++b)
    if (!finite[b]) rescan_column(series, base_cols[b], days, cfg, out.data() + b * factor, width);
}

Matrix expand_series(const Matrix& series, std::span<const std::size_t> base_cols,
                     std::span<const std::size_t> days, const WindowFeatureConfig& cfg,
                     const obs::Context* obs) {
  // Every cell is written by the kernel, so skip the zero fill — it is
  // ~1 MB of pure write traffic per drive.
  Matrix out = Matrix::uninitialized(days.size(), base_cols.size() * expansion_factor(cfg));
  expand_series_into(series, base_cols, days, cfg, out.raw(), obs);
  return out;
}

Matrix expand_series(const Matrix& series, std::span<const std::size_t> base_cols,
                     const WindowFeatureConfig& cfg, const obs::Context* obs) {
  std::vector<std::size_t> days(series.rows());
  std::iota(days.begin(), days.end(), std::size_t{0});
  return expand_series(series, base_cols, days, cfg, obs);
}

Matrix expand_series_naive(const Matrix& series, std::span<const std::size_t> base_cols,
                           const WindowFeatureConfig& cfg) {
  check_windows(cfg);
  check_columns(series, base_cols);
  const std::size_t factor = expansion_factor(cfg);
  Matrix out = Matrix::uninitialized(series.rows(), base_cols.size() * factor);
  std::vector<std::size_t> days(series.rows());
  std::iota(days.begin(), days.end(), std::size_t{0});
  for (std::size_t b = 0; b < base_cols.size(); ++b)
    rescan_column(series, base_cols[b], days, cfg, out.raw().data() + b * factor, out.cols());
  return out;
}

}  // namespace wefr::data
