#include "ml/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/ranking.h"

namespace wefr::ml {

double precision(const Confusion& c) {
  const std::size_t denom = c.tp + c.fp;
  return denom == 0 ? 0.0 : static_cast<double>(c.tp) / static_cast<double>(denom);
}

double recall(const Confusion& c) {
  const std::size_t denom = c.tp + c.fn;
  return denom == 0 ? 0.0 : static_cast<double>(c.tp) / static_cast<double>(denom);
}

double fbeta(const Confusion& c, double beta) {
  const double p = precision(c);
  const double r = recall(c);
  const double b2 = beta * beta;
  const double denom = b2 * p + r;
  return denom <= 0.0 ? 0.0 : (1.0 + b2) * p * r / denom;
}

double f05(const Confusion& c) { return fbeta(c, 0.5); }

double accuracy(const Confusion& c) {
  const std::size_t n = c.total();
  return n == 0 ? 0.0 : static_cast<double>(c.tp + c.tn) / static_cast<double>(n);
}

Confusion confusion_at_threshold(std::span<const double> scores, std::span<const int> labels,
                                 double threshold) {
  if (scores.size() != labels.size())
    throw std::invalid_argument("confusion_at_threshold: length mismatch");
  Confusion c;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const bool pred = scores[i] >= threshold;
    const bool actual = labels[i] != 0;
    if (pred && actual)
      ++c.tp;
    else if (pred && !actual)
      ++c.fp;
    else if (!pred && actual)
      ++c.fn;
    else
      ++c.tn;
  }
  return c;
}

double threshold_for_recall(std::span<const double> scores, std::span<const int> labels,
                            double target_recall) {
  if (scores.size() != labels.size())
    throw std::invalid_argument("threshold_for_recall: length mismatch");
  if (target_recall < 0.0 || target_recall > 1.0)
    throw std::invalid_argument("threshold_for_recall: target outside [0,1]");
  std::size_t n_pos = 0;
  for (int v : labels) n_pos += v != 0 ? 1 : 0;
  if (n_pos == 0) return std::numeric_limits<double>::quiet_NaN();

  if (target_recall == 0.0) {
    // Any threshold above the max score yields recall 0.
    return scores.empty() ? 0.0 : *std::max_element(scores.begin(), scores.end()) + 1.0;
  }

  // Walk thresholds from the highest score downward; recall grows as the
  // threshold drops. The first threshold reaching the target is the
  // largest such threshold.
  const auto order = stats::argsort_descending(scores);
  std::size_t tp = 0;
  const std::size_t tp_needed = std::min(
      n_pos, static_cast<std::size_t>(
                 std::ceil(target_recall * static_cast<double>(n_pos) - 1e-9)));
  for (std::size_t k = 0; k < order.size(); ++k) {
    tp += labels[order[k]] != 0 ? 1 : 0;
    // Include everything tied with this score.
    if (k + 1 < order.size() && scores[order[k + 1]] == scores[order[k]]) continue;
    if (tp >= tp_needed) return scores[order[k]];
  }
  return 0.0;
}

std::vector<PrPoint> pr_sweep(std::span<const double> scores, std::span<const int> labels) {
  if (scores.size() != labels.size()) throw std::invalid_argument("pr_sweep: length mismatch");
  std::size_t n_pos = 0;
  for (int v : labels) n_pos += v != 0 ? 1 : 0;

  const auto order = stats::argsort_descending(scores);
  std::vector<PrPoint> out;
  std::size_t tp = 0, fp = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    (labels[order[k]] != 0 ? tp : fp) += 1;
    if (k + 1 < order.size() && scores[order[k + 1]] == scores[order[k]]) continue;
    Confusion c;
    c.tp = tp;
    c.fp = fp;
    c.fn = n_pos - tp;
    c.tn = (order.size() - n_pos) - fp;
    PrPoint pt;
    pt.threshold = scores[order[k]];
    pt.precision = precision(c);
    pt.recall = recall(c);
    pt.f05 = f05(c);
    out.push_back(pt);
  }
  return out;
}

double auc(std::span<const double> scores, std::span<const int> labels) {
  if (scores.size() != labels.size()) throw std::invalid_argument("auc: length mismatch");
  std::size_t n_pos = 0;
  for (int v : labels) n_pos += v != 0 ? 1 : 0;
  const std::size_t n_neg = labels.size() - n_pos;
  if (n_pos == 0 || n_neg == 0) return std::numeric_limits<double>::quiet_NaN();

  const auto ranks = stats::fractional_ranks(scores);  // ascending, ties averaged
  double rank_sum = 0.0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] != 0) rank_sum += ranks[i];
  }
  const double np = static_cast<double>(n_pos);
  return (rank_sum - np * (np + 1.0) / 2.0) / (np * static_cast<double>(n_neg));
}

}  // namespace wefr::ml
