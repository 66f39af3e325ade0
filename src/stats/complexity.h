#pragma once

#include <span>
#include <vector>

namespace wefr::stats {

/// Single-feature data-complexity measures (Ho & Basu 2002), computed
/// for a binary classification target. These drive WEFR's automated
/// feature-count selection (Section IV-C).
struct ComplexityMeasures {
  /// F1 — Fisher's discriminant ratio (mu0 - mu1)^2 / (var0 + var1).
  /// Larger = easier (classes further apart relative to spread).
  double fisher_ratio = 0.0;
  /// F2 — volume of the per-class range overlap, normalized by the
  /// total range, in [0, 1]. Smaller = easier.
  double overlap_volume = 0.0;
  /// F3 — maximum (individual) feature efficiency: fraction of samples
  /// lying outside the class-overlap region, in [0, 1]. Larger = easier.
  double feature_efficiency = 0.0;
};

/// Computes F1/F2/F3 for one feature column `x` against labels `y`
/// (0/1). Throws on length mismatch; returns the "maximally complex"
/// values (F1=0, F2=1, F3=0) when either class is absent.
ComplexityMeasures feature_complexity(std::span<const double> x, std::span<const int> y);

/// Ensemble complexity per feature, following Seijo-Pardo et al.:
/// combine 1/F1, F2 and 1/F3 (all oriented so that larger = harder) and
/// reduce to a single score. The reciprocal terms are unbounded, so each
/// of the three components is min-max normalized to [0, 1] across the
/// given features before averaging; the result is a per-feature
/// complexity in [0, 1] directly comparable to the scan fraction `xi`
/// used in the automated threshold.
///
/// `columns[i]` is the i-th feature's values (all the same length as `y`).
///
/// `num_threads > 1` fans the per-feature F1/F2/F3 computation over a
/// util::ThreadPool; each feature writes its own slot, so the result is
/// identical for any thread count.
std::vector<double> ensemble_complexity(std::span<const std::vector<double>> columns,
                                        std::span<const int> y,
                                        std::size_t num_threads = 0);

}  // namespace wefr::stats
