#pragma once

#include <span>
#include <vector>

namespace wefr::ml {

/// Binary confusion counts.
struct Confusion {
  std::size_t tp = 0;
  std::size_t fp = 0;
  std::size_t tn = 0;
  std::size_t fn = 0;

  std::size_t total() const { return tp + fp + tn + fn; }
};

/// Precision = tp / (tp + fp); 0 when no positive predictions.
double precision(const Confusion& c);
/// Recall = tp / (tp + fn); 0 when no actual positives.
double recall(const Confusion& c);
/// F-beta score; the paper reports F0.5 (beta = 0.5, precision weighted
/// twice as heavily as recall). 0 when precision and recall are both 0.
double fbeta(const Confusion& c, double beta);
/// Convenience F0.5.
double f05(const Confusion& c);
/// Accuracy = (tp + tn) / total; 0 on empty confusion.
double accuracy(const Confusion& c);

/// Confusion at a probability threshold: predict positive when
/// score >= threshold.
Confusion confusion_at_threshold(std::span<const double> scores, std::span<const int> labels,
                                 double threshold);

/// Largest threshold whose recall is still >= `target_recall` — the
/// precision-maximizing operating point at a fixed recall, matching the
/// paper's "subject to a fixed recall" comparisons. Returns 0 when even
/// threshold 0 misses the target (predict-everything fallback), and NaN
/// when the labels hold no positives at all — recall is undefined there,
/// and a silent 0 would mean "alarm on every drive".
double threshold_for_recall(std::span<const double> scores, std::span<const int> labels,
                            double target_recall);

/// One point of a precision-recall sweep.
struct PrPoint {
  double threshold = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double f05 = 0.0;
};

/// Precision/recall/F0.5 at every distinct score cut (descending
/// thresholds, so recall is non-decreasing along the result).
std::vector<PrPoint> pr_sweep(std::span<const double> scores, std::span<const int> labels);

/// Area under the ROC curve via the rank-sum (Mann-Whitney) identity,
/// ties handled by average ranks. Returns NaN when either class is
/// empty (including empty input): the ROC curve is undefined without
/// both classes, and a silent 0.5 reads as "coin-flip classifier"
/// rather than "unanswerable question".
double auc(std::span<const double> scores, std::span<const int> labels);

}  // namespace wefr::ml
