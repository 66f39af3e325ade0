#include "data/window_features.h"

#include "obs/context.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

// The steady-state kernels below are straight-line element-wise loops
// over restrict-qualified arrays — exactly what the auto-vectorizer
// wants. On x86-64 Linux, compile them twice (AVX2 + baseline) with a
// runtime dispatcher so a portable binary still uses 256-bit vectors
// where available. Only avx2 is enabled (no FMA target), so every op is
// IEEE-exact at any vector width and results are bit-identical across
// the clones.
// Under TSan the clones are disabled: target_clones dispatches through
// an IFUNC whose resolver runs before the TSan runtime initializes,
// which segfaults at process start (forest_infer.cpp avoids this by
// dispatching through an atomic instead).
#ifndef __has_attribute
#define __has_attribute(x) 0
#endif
#if defined(__x86_64__) && defined(__gnu_linux__) && __has_attribute(target_clones) && \
    !defined(__SANITIZE_THREAD__)
#define WEFR_SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define WEFR_SIMD_CLONES
#endif

namespace wefr::data {

namespace {
constexpr std::size_t kStatsPerWindow = 6;  // max, min, mean, std, range, wma

/// Validates the window config and the base columns (shared by the
/// streaming and naive entry points).
void check_inputs(const Matrix& series, std::span<const std::size_t> base_cols,
                  const WindowFeatureConfig& cfg) {
  for (int w : cfg.windows) {
    if (w < 1) throw std::invalid_argument("expand_series: window must be >= 1");
  }
  for (std::size_t col : base_cols) {
    if (col >= series.cols()) throw std::out_of_range("expand_series: base column");
  }
}

/// Naive rolling stats for one contiguous column: rescans the window for
/// every day in [first, colbuf.size()). `stage` is column-major scratch,
/// stage[o * days + d].
void expand_column_naive(std::span<const double> colbuf, std::size_t first,
                         const WindowFeatureConfig& cfg, std::span<double> stage) {
  const std::size_t days = colbuf.size();
  for (std::size_t d = first; d < days; ++d) {
    std::size_t o = 0;
    stage[o++ * days + d] = colbuf[d];
    for (int w : cfg.windows) {
      // Trailing window [start, d], truncated at the series start.
      const std::size_t start = d + 1 >= static_cast<std::size_t>(w) ? d + 1 - w : 0;
      const std::size_t n = d - start + 1;
      double mx = -INFINITY, mn = INFINITY, sum = 0.0, sum2 = 0.0;
      double wma_num = 0.0, wma_den = 0.0;
      for (std::size_t t = start; t <= d; ++t) {
        const double x = colbuf[t];
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
      stage[o++ * days + d] = mx;
      stage[o++ * days + d] = mn;
      stage[o++ * days + d] = mean;
      stage[o++ * days + d] = std::sqrt(var);
      stage[o++ * days + d] = mx - mn;
      stage[o++ * days + d] = wma_num / wma_den;
    }
  }
}

/// Sparse-table levels for windowed max/min: level k (stored at
/// lv + (k-1) * days) holds the running max/min over the trailing 2^k
/// days, truncated at the series start (so lv_k[j] = extremum over
/// [max(0, j - 2^k + 1), j]). Each level is one branchless element-wise
/// pass over the previous one, and the levels are shared by every
/// window of the column. When no window needs level 1 (`need_level1`
/// false), level 2 is built straight from the input with a fused
/// 4-way max, saving a full store+reload pass.
WEFR_SIMD_CLONES
void build_sparse_levels(const double* __restrict x, double* __restrict lvmax,
                         double* __restrict lvmin, bool need_level1, std::size_t kmax,
                         std::size_t days) {
  std::size_t k_first = 1;
  if (!need_level1 && kmax >= 2) {
    double* __restrict dmx = lvmax + days;  // level-2 slot
    double* __restrict dmn = lvmin + days;
    double rmx = -INFINITY, rmn = INFINITY;
    const std::size_t head = std::min<std::size_t>(3, days);
    for (std::size_t j = 0; j < head; ++j) {  // truncated: extremum over [0, j]
      rmx = std::max(rmx, x[j]);
      rmn = std::min(rmn, x[j]);
      dmx[j] = rmx;
      dmn[j] = rmn;
    }
    for (std::size_t j = 3; j < days; ++j) {
      dmx[j] = std::max(std::max(x[j], x[j - 1]), std::max(x[j - 2], x[j - 3]));
      dmn[j] = std::min(std::min(x[j], x[j - 1]), std::min(x[j - 2], x[j - 3]));
    }
    k_first = 3;
  }
  for (std::size_t k = k_first; k <= kmax; ++k) {
    const std::size_t h = std::size_t{1} << (k - 1);
    const double* __restrict smx = k == 1 ? x : lvmax + (k - 2) * days;
    const double* __restrict smn = k == 1 ? x : lvmin + (k - 2) * days;
    double* __restrict dmx = lvmax + (k - 1) * days;
    double* __restrict dmn = lvmin + (k - 1) * days;
    const std::size_t head = std::min(h, days);
    // For j < 2^(k-1) the previous level is already the truncated
    // extremum over [0, j].
    for (std::size_t j = 0; j < head; ++j) {
      dmx[j] = smx[j];
      dmn[j] = smn[j];
    }
    for (std::size_t j = h; j < days; ++j) {
      dmx[j] = std::max(smx[j], smx[j - h]);
      dmn[j] = std::min(smn[j], smn[j - h]);
    }
  }
}

/// Steady-state (d >= w) rolling stats for one window over the days
/// [begin, end): branchless element-wise passes over the shared
/// per-column tables. Requires begin >= w.
///
///  - max/min: the window [d-w+1, d] is covered by two overlapping
///    spans of length 2^k = bit_floor(w), ending at d and at d - shift
///    (shift = w - 2^k); max is idempotent, so overlap is harmless.
///  - mean/std/wma: prefix differences in one fused loop. `dayf[i]` is
///    just double(i) — a table load instead of a size_t->double convert,
///    which x86 cannot vectorize without AVX-512.
WEFR_SIMD_CLONES
void steady_pass(std::size_t w, std::size_t begin, std::size_t end, std::size_t shift,
                 const double* __restrict hi, const double* __restrict lo,
                 const double* __restrict prefix, const double* __restrict prefix2,
                 const double* __restrict wprefix, const double* __restrict dayf,
                 double* __restrict mx_out, double* __restrict mn_out,
                 double* __restrict mean_out, double* __restrict std_out,
                 double* __restrict range_out, double* __restrict wma_out) {
  for (std::size_t d = begin; d < end; ++d) {
    const double mx = std::max(hi[d], hi[d - shift]);
    const double mn = std::min(lo[d], lo[d - shift]);
    mx_out[d] = mx;
    mn_out[d] = mn;
    range_out[d] = mx - mn;
  }
  const double wd = static_cast<double>(w);
  const double inv_w = 1.0 / wd;
  const double inv_den = 2.0 / (wd * (wd + 1.0));
  for (std::size_t d = begin; d < end; ++d) {
    const std::size_t s = d - w + 1;  // window is [s, d]
    const double sum = prefix[d + 1] - prefix[s];
    const double mean = sum * inv_w;
    const double var = (prefix2[d + 1] - prefix2[s]) * inv_w - mean * mean;
    mean_out[d] = mean;
    std_out[d] = std::sqrt(std::max(0.0, var));
    // Sum_{t=s..d} (t-s+1) x_t = Sum (t+1) x_t - s * Sum x_t.
    wma_out[d] = ((wprefix[d + 1] - wprefix[s]) - dayf[s] * sum) * inv_den;
  }
}

/// Gathers the listed days of the column-major staging block
/// (stage[o * stage_stride + d]) into row-major output: output row i,
/// at dst0 + i * row_stride, receives day days[i]; dst0 points at this
/// base column's first cell of row 0. The compile-time-factor variants
/// exist so the inner loop fully unrolls — with a runtime trip count
/// the 19-wide gather/scatter stays scalar and costs ~2x.
template <std::size_t kFactor>
WEFR_SIMD_CLONES void interleave_stage_fixed(const double* __restrict stage,
                                             std::size_t stage_stride,
                                             const std::size_t* __restrict days,
                                             std::size_t n, double* __restrict dst0,
                                             std::size_t row_stride) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* __restrict src = stage + days[i];
    double* __restrict dst = dst0 + i * row_stride;
    for (std::size_t o = 0; o < kFactor; ++o) dst[o] = src[o * stage_stride];
  }
}

WEFR_SIMD_CLONES
void interleave_stage_generic(const double* __restrict stage, std::size_t stage_stride,
                              const std::size_t* __restrict days, std::size_t n,
                              double* __restrict dst0, std::size_t factor,
                              std::size_t row_stride) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* __restrict src = stage + days[i];
    double* __restrict dst = dst0 + i * row_stride;
    for (std::size_t o = 0; o < factor; ++o) dst[o] = src[o * stage_stride];
  }
}

void interleave_stage(const double* stage, std::size_t stage_stride,
                      std::span<const std::size_t> days, double* dst0, std::size_t factor,
                      std::size_t row_stride) {
  const std::size_t n = days.size();
  switch (factor) {
    case 7:  // one window
      return interleave_stage_fixed<7>(stage, stage_stride, days.data(), n, dst0, row_stride);
    case 13:  // two windows (the paper's default {3, 7})
      return interleave_stage_fixed<13>(stage, stage_stride, days.data(), n, dst0,
                                        row_stride);
    case 19:  // three windows (the bench's {7, 14, 30})
      return interleave_stage_fixed<19>(stage, stage_stride, days.data(), n, dst0,
                                        row_stride);
    default:
      return interleave_stage_generic(stage, stage_stride, days.data(), n, dst0, factor,
                                      row_stride);
  }
}

/// Streaming rolling stats for one window over one contiguous column,
/// O(1) per day, for the days [first, colbuf.size()). Requires every
/// value in `colbuf` to be finite.
///
/// Inputs shared across windows, computed once per column by the caller:
/// prefix/prefix2/wprefix are the inclusive prefix sums of x, x*x and
/// (t+1)*x_t (size days + 1, [0] = 0, accumulated left-to-right — the
/// wprefix fold is verbatim the naive kernel's growing-window WMA
/// numerator), lvmax/lvmin the sparse-table levels, dayf[i] = double(i).
///
/// While a window is still growing (d < w), every stat replays the naive
/// kernel's left-fold arithmetic operation for operation — running
/// max/min fold in the same order, prefix[d+1]/wprefix[d+1] ARE the
/// folds — so the growing phase is bit-identical to the rescan. Once
/// the window slides, max/min/range stay value-identical (the result is
/// an element of the window; the only bit-level caveat is which
/// representative of a mixed +/-0.0 tie survives), while mean/std/wma
/// round differently (~1e-15 relative on the prefix magnitudes; std
/// additionally carries the sum2/n - mean^2 cancellation both kernels
/// share, and the wma numerator (wprefix[d+1]-wprefix[s]) -
/// s*(prefix[d+1]-prefix[s]) cancels terms of magnitude ~days^2 * scale,
/// so its absolute error is ~eps * days^2 * scale).
void expand_column_streaming(std::span<const double> colbuf, std::size_t first,
                             int w_signed, std::span<const double> prefix,
                             std::span<const double> prefix2,
                             std::span<const double> wprefix,
                             std::span<const double> dayf, const double* lvmax,
                             const double* lvmin, std::span<double> mx_out,
                             std::span<double> mn_out, std::span<double> mean_out,
                             std::span<double> std_out, std::span<double> range_out,
                             std::span<double> wma_out) {
  const std::size_t days = colbuf.size();
  const std::size_t w = static_cast<std::size_t>(w_signed);
  if (w == 1) {
    // Degenerate window: every stat collapses to the day's value (the
    // naive kernel produces exactly these, including std = sqrt(max(0,
    // x*x/1 - x*x)) = 0).
    for (std::size_t d = first; d < days; ++d) {
      const double x = colbuf[d];
      mx_out[d] = mn_out[d] = mean_out[d] = wma_out[d] = x;
      std_out[d] = range_out[d] = 0.0;
    }
    return;
  }

  // Growing phase: replay the naive folds exactly (bit-identical). The
  // running extrema fold from day 0 even when `first` is later.
  const std::size_t grow_end = std::min(days, w);  // days [0, grow_end) still grow
  double rmx = -INFINITY, rmn = INFINITY;
  for (std::size_t d = 0; d < grow_end; ++d) {
    const double x = colbuf[d];
    rmx = std::max(rmx, x);
    rmn = std::min(rmn, x);
    const double n = static_cast<double>(d + 1);
    const double mean = prefix[d + 1] / n;
    const double var = std::max(0.0, prefix2[d + 1] / n - mean * mean);
    mx_out[d] = rmx;
    mn_out[d] = rmn;
    range_out[d] = rmx - rmn;
    mean_out[d] = mean;
    std_out[d] = std::sqrt(var);
    // Denominator 1 + 2 + ... + n = n(n+1)/2 is an exact integer either way.
    wma_out[d] = wprefix[d + 1] / (n * (n + 1) * 0.5);
  }
  if (days <= w) return;

  const std::size_t k = static_cast<std::size_t>(std::bit_width(w)) - 1;  // 2^k = bit_floor(w)
  const std::size_t shift = w - (std::size_t{1} << k);
  steady_pass(w, std::max(w, first), days, shift, lvmax + (k - 1) * days,
              lvmin + (k - 1) * days, prefix.data(), prefix2.data(), wprefix.data(),
              dayf.data(), mx_out.data(), mn_out.data(), mean_out.data(), std_out.data(),
              range_out.data(), wma_out.data());
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

void expand_series_into(const Matrix& series, std::span<const std::size_t> base_cols,
                        std::span<const std::size_t> days, const WindowFeatureConfig& cfg,
                        std::span<double> out, const obs::Context* obs) {
  check_inputs(series, base_cols, cfg);
  const std::size_t history = series.rows();
  const std::size_t factor = expansion_factor(cfg);
  const std::size_t width = base_cols.size() * factor;
  if (out.size() != days.size() * width)
    throw std::invalid_argument("expand_series: output size");
  std::size_t first = history, last = 0;
  for (std::size_t d : days) {
    if (d >= history) throw std::out_of_range("expand_series: day");
    first = std::min(first, d);
    last = std::max(last, d);
  }
  if (obs != nullptr) {
    obs::add_counter(obs, "wefr_featuregen_rows_total", days.size());
    obs::add_counter(obs, "wefr_featuregen_cells_total", days.size() * width);
  }
  if (days.empty() || base_cols.empty()) return;

  // Sparse-table depth: level k is needed by any window w with
  // bit_floor(w) = 2^k that actually reaches steady state (w < history).
  // Decided on the whole history, so a listed day's extrema come from
  // the same level construction as in the all-days call.
  std::size_t kmax = 0;
  bool need_level1 = false;
  for (int w : cfg.windows) {
    const std::size_t wu = static_cast<std::size_t>(w);
    if (wu >= 2 && wu < history) {
      const auto k = static_cast<std::size_t>(std::bit_width(wu)) - 1;
      kmax = std::max(kmax, k);
      need_level1 = need_level1 || k == 1;
    }
  }

  // Days past the last listed one feed no output: the per-column
  // passes run over [0, len), and the stats only over [first, len).
  const std::size_t len = last + 1;

  // Contiguous scratch, reused across base columns: the input column,
  // its prefix sums and sparse-table levels (shared by every window),
  // and one column-major staging block (stage[o * len + d]) from which
  // the final pass gathers the listed days into the row-major output.
  std::vector<double> colbuf(len);
  std::vector<double> prefix(len + 1), prefix2(len + 1), wprefix(len + 1);
  std::vector<double> dayf(len + 1);
  for (std::size_t i = 0; i <= len; ++i) dayf[i] = static_cast<double>(i);
  std::vector<double> lvmax(kmax * len), lvmin(kmax * len);
  std::vector<double> stage(len * factor);

  for (std::size_t b = 0; b < base_cols.size(); ++b) {
    const std::size_t col = base_cols[b];
    bool finite = true;
    for (std::size_t d = 0; d < len; ++d) {
      colbuf[d] = series(d, col);
      finite = finite && std::isfinite(colbuf[d]);
    }
    // The kernel is chosen per column over the whole history.
    for (std::size_t d = len; finite && d < history; ++d) finite = std::isfinite(series(d, col));

    if (!finite) {
      // NaN holes (recover-mode ingestion) poison running sums and
      // break max/min comparisons; the naive kernel's semantics are the
      // contract, so keep them exactly.
      expand_column_naive(colbuf, first, cfg, stage);
    } else {
      // Left-to-right prefix sums: prefix[d+1] / wprefix[d+1] are
      // bit-identical to the naive kernel's growing-window folds.
      double s = 0.0, s2 = 0.0, sw = 0.0;
      prefix[0] = prefix2[0] = wprefix[0] = 0.0;
      for (std::size_t d = 0; d < len; ++d) {
        const double x = colbuf[d];
        s += x;
        s2 += x * x;
        sw += static_cast<double>(d + 1) * x;
        prefix[d + 1] = s;
        prefix2[d + 1] = s2;
        wprefix[d + 1] = sw;
      }
      if (kmax > 0) {
        build_sparse_levels(colbuf.data(), lvmax.data(), lvmin.data(), need_level1, kmax,
                            len);
      }
      std::copy(colbuf.begin(), colbuf.end(), stage.begin());  // identity column
      std::size_t o = 1;
      for (int w : cfg.windows) {
        auto stat = [&](std::size_t i) {
          return std::span<double>(stage.data() + (o + i) * len, len);
        };
        expand_column_streaming(colbuf, first, w, prefix, prefix2, wprefix, dayf,
                                lvmax.data(), lvmin.data(), stat(0), stat(1), stat(2),
                                stat(3), stat(4), stat(5));
        o += kStatsPerWindow;
      }
    }

    interleave_stage(stage.data(), len, days, out.data() + b * factor, factor, width);
  }
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
  check_inputs(series, base_cols, cfg);
  const std::size_t days = series.rows();
  const std::size_t factor = expansion_factor(cfg);
  Matrix out(days, base_cols.size() * factor);

  for (std::size_t b = 0; b < base_cols.size(); ++b) {
    const std::size_t col = base_cols[b];
    for (std::size_t d = 0; d < days; ++d) {
      std::size_t o = b * factor;
      const double v = series(d, col);
      out(d, o++) = v;
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
        out(d, o++) = mx;
        out(d, o++) = mn;
        out(d, o++) = mean;
        out(d, o++) = std::sqrt(var);
        out(d, o++) = mx - mn;
        out(d, o++) = wma_num / wma_den;
      }
    }
  }
  return out;
}

}  // namespace wefr::data
