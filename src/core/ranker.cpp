#include "core/ranker.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "ml/quantize.h"
#include "stats/correlation.h"
#include "stats/jindex.h"
#include "stats/ranking.h"
#include "util/thread_pool.h"

namespace wefr::core {

namespace {

std::vector<double> labels_as_double(std::span<const int> y) {
  std::vector<double> out(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) out[i] = static_cast<double>(y[i]);
  return out;
}

/// Per-feature fan-out shared by the statistical rankers: runs
/// `score_col(c)` for every column, over a ThreadPool when asked. Each
/// column writes its own slot, so output is thread-count invariant.
std::vector<double> score_per_column(const data::Matrix& x, std::size_t num_threads,
                                     const std::function<double(std::size_t)>& score_col) {
  std::vector<double> out(x.cols());
  auto run_one = [&](std::size_t c) { out[c] = score_col(c); };
  if (num_threads > 1 && x.cols() > 1) {
    util::ThreadPool pool(std::min(num_threads, x.cols()));
    pool.parallel_for_chunked(x.cols(), 4, run_one);
  } else {
    for (std::size_t c = 0; c < x.cols(); ++c) run_one(c);
  }
  return out;
}

/// Throws unless `coded` is empty or has x's shape.
void check_coding(const data::Matrix& x, const ml::QuantizedDataset& coded) {
  if (!coded.empty() && (coded.rows() != x.rows() || coded.cols() != x.cols()))
    throw std::invalid_argument("ranker: coding shape differs from the matrix");
}

/// True when `coded` is the coding a learner with bin budget `max_bins`
/// would build for itself.
bool coding_fits(const ml::QuantizedDataset& coded, std::size_t max_bins) {
  return !coded.empty() && coded.max_bins() == std::clamp<std::size_t>(max_bins, 2, 256);
}

/// True when column `c`'s ranks in `coded` order its values as a
/// stable sort by `<` does: the column was coded and holds no NaN. A
/// NaN is unordered against every value, so the sort leaves it where
/// the algorithm happens to; coding gives every NaN a rank of its own
/// below -inf or above +inf, which is where they show: at the ends.
bool ranks_order_column(const ml::QuantizedDataset& coded, std::size_t c) {
  return !coded.empty() && !std::isnan(coded.value(c, 0)) &&
         !std::isnan(coded.value(c, static_cast<std::uint32_t>(coded.num_values(c) - 1)));
}

/// stats::fractional_ranks of column `c`, read off the coding in
/// O(rows + distinct values). A tie group of the sort is one rank of the
/// coding (values equal under ==, -0.0 with +0.0), and sorted positions
/// i..j give it the same (i + j) / 2 + 1 the sort-based scan computes.
std::vector<double> coded_fractional_ranks(const ml::QuantizedDataset& coded, std::size_t c) {
  const auto ranks = coded.ranks(c);
  const std::size_t m = coded.num_values(c);
  // first[r] = sorted position of rank r's first row.
  std::vector<std::size_t> first(m + 1, 0);
  for (const std::uint32_t r : ranks) ++first[r + 1];
  for (std::size_t r = 1; r <= m; ++r) first[r] += first[r - 1];
  std::vector<double> avg(m);
  for (std::size_t r = 0; r < m; ++r)
    avg[r] = (static_cast<double>(first[r]) + static_cast<double>(first[r + 1] - 1)) / 2.0 + 1.0;
  std::vector<double> out(ranks.size());
  for (std::size_t k = 0; k < ranks.size(); ++k) out[k] = avg[ranks[k]];
  return out;
}

/// stats::youden_j_index of column `c`, with its cut points read off
/// the coding: per-rank label counts, summed in rank order, give the
/// counts at or below each distinct value the sorted sweep visits.
double coded_j_index(const ml::QuantizedDataset& coded, std::size_t c, std::span<const int> y) {
  if (coded.rows() != y.size()) throw std::invalid_argument("youden_j_index: length mismatch");
  std::size_t n_pos = 0, n_neg = 0;
  for (int label : y) (label != 0 ? n_pos : n_neg) += 1;
  if (n_pos == 0 || n_neg == 0) return 0.0;
  const auto ranks = coded.ranks(c);
  std::vector<std::size_t> pos(coded.num_values(c), 0), all(coded.num_values(c), 0);
  for (std::size_t k = 0; k < ranks.size(); ++k) {
    ++all[ranks[k]];
    pos[ranks[k]] += y[k] != 0 ? 1 : 0;
  }
  double best = 0.0;
  std::size_t pos_le = 0, neg_le = 0;
  for (std::size_t r = 0; r < all.size(); ++r) {
    pos_le += pos[r];
    neg_le += all[r] - pos[r];
    const double j = static_cast<double>(neg_le) / static_cast<double>(n_neg) -
                     static_cast<double>(pos_le) / static_cast<double>(n_pos);
    best = std::max(best, std::abs(j));
  }
  return best;
}

}  // namespace

std::vector<double> FeatureRanker::score(const data::Matrix& x, std::span<const int> y) const {
  ml::QuantizedDataset coded;
  if (reads_coding() && x.rows() > 0 && x.cols() > 0) coded.build(x, kRankerBins);
  return score(x, y, coded);
}

std::vector<double> FeatureRanker::ranking(const data::Matrix& x,
                                           std::span<const int> y) const {
  return stats::ranking_from_scores(score(x, y));
}

std::vector<double> PearsonRanker::score(const data::Matrix& x, std::span<const int> y,
                                         const ml::QuantizedDataset&) const {
  const auto yd = labels_as_double(y);
  return score_per_column(x, num_threads_, [&](std::size_t c) {
    return std::abs(stats::pearson(x.column(c), yd));
  });
}

std::vector<double> SpearmanRanker::score(const data::Matrix& x, std::span<const int> y,
                                          const ml::QuantizedDataset& coded) const {
  check_coding(x, coded);
  // Rank cache: the label vector is rank-transformed once, not once per
  // feature column.
  const auto yr = stats::fractional_ranks(labels_as_double(y));
  return score_per_column(x, num_threads_, [&](std::size_t c) {
    if (!ranks_order_column(coded, c))
      return std::abs(stats::spearman_with_ranks(x.column(c), yr));
    if (x.rows() != yr.size())
      throw std::invalid_argument("spearman_with_ranks: length mismatch");
    return std::abs(stats::pearson(coded_fractional_ranks(coded, c), yr));
  });
}

std::vector<double> JIndexRanker::score(const data::Matrix& x, std::span<const int> y,
                                        const ml::QuantizedDataset& coded) const {
  check_coding(x, coded);
  return score_per_column(x, num_threads_, [&](std::size_t c) {
    if (!ranks_order_column(coded, c)) return stats::youden_j_index(x.column(c), y);
    return coded_j_index(coded, c, y);
  });
}

ml::ForestOptions RandomForestRanker::default_options() {
  ml::ForestOptions opt;
  opt.num_trees = 32;
  opt.tree.max_depth = 10;
  opt.tree.min_samples_leaf = 5;
  return opt;
}

std::vector<double> RandomForestRanker::score(const data::Matrix& x, std::span<const int> y,
                                              const ml::QuantizedDataset& coded) const {
  util::Rng rng(seed_);
  ml::ForestOptions opt = opt_;
  if (opt.num_threads == 0) opt.num_threads = num_threads_;
  ml::RandomForest forest;
  if (coding_fits(coded, opt.tree.max_bins)) {
    forest.fit(x, y, coded, opt, rng);
  } else {
    forest.fit(x, y, opt, rng);
  }
  return forest.impurity_importance();
}

ml::GbdtOptions XgboostRanker::default_options() {
  ml::GbdtOptions opt;
  opt.num_rounds = 30;
  opt.max_depth = 4;
  opt.learning_rate = 0.25;
  opt.colsample = 0.7;
  return opt;
}

std::vector<double> XgboostRanker::score(const data::Matrix& x, std::span<const int> y,
                                         const ml::QuantizedDataset& coded) const {
  util::Rng rng(seed_);
  ml::Gbdt booster;
  if (coding_fits(coded, opt_.max_bins)) {
    booster.fit(x, y, coded, opt_, rng);
  } else {
    booster.fit(x, y, opt_, rng);
  }
  return booster.combined_importance();
}

std::vector<std::unique_ptr<FeatureRanker>> make_standard_rankers(std::uint64_t seed,
                                                                  std::size_t num_threads) {
  std::vector<std::unique_ptr<FeatureRanker>> out;
  out.push_back(std::make_unique<PearsonRanker>());
  out.push_back(std::make_unique<SpearmanRanker>());
  out.push_back(std::make_unique<JIndexRanker>());
  out.push_back(std::make_unique<RandomForestRanker>(RandomForestRanker::default_options(), seed));
  out.push_back(std::make_unique<XgboostRanker>(XgboostRanker::default_options(), seed + 4));
  for (auto& r : out) r->set_num_threads(num_threads);
  return out;
}

}  // namespace wefr::core
