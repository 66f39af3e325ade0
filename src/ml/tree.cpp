#include "ml/tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>

#include "ml/quantize.h"
#include "ml/radix_sort.h"

namespace wefr::ml {

namespace {

double gini(std::size_t pos, std::size_t n) {
  if (n == 0) return 0.0;
  const double p = static_cast<double>(pos) / static_cast<double>(n);
  return 2.0 * p * (1.0 - p);
}

/// Best split of one feature over the node's samples.
struct SplitCandidate {
  bool valid = false;
  double threshold = 0.0;
  double impurity_decrease = -1.0;  // weighted by node fraction later
  /// Node rows whose rank is <= split_rank are exactly the rows with
  /// `x <= threshold`; partitioning on the rank reads one contiguous
  /// code column instead of strided matrix rows.
  std::uint32_t split_rank = 0;
};

/// A boundary of the exact scan: the samples (and positives among them)
/// whose rank is at most keys[at]'s, which differs from keys[at + 1]'s.
struct Boundary {
  std::size_t n_left;
  std::size_t pos_left;
  std::size_t at;
};

}  // namespace

/// Everything one fit's recursion shares: the labels, the resolved
/// options, the rank/bin coding of the training matrix, and scratch
/// buffers that would otherwise be reallocated at every node (candidate
/// features, the exact splitter's sort keys, the per-bin counters).
struct DecisionTree::BuildContext {
  std::span<const int> y;
  const TreeOptions& opt;
  util::Rng& rng;
  const QuantizedDataset& q;
  std::size_t n_total = 0;
  /// Histogram split finding on nodes of at least exact_node_cutoff rows
  /// (for coarsely coded features; see build()).
  bool histogram = false;

  std::vector<std::size_t> features;
  std::vector<std::uint64_t> keys;          ///< exact: rank << 32 | weight << 1 | label
  std::vector<std::uint64_t> sort_scratch;  ///< exact: radix sort buffer
  std::vector<Boundary> boundaries;         ///< exact: the node's rank changes
  std::vector<std::uint8_t> labels;  ///< the current node's labels (0/1), in row order
  /// Histogram: rows per (bin, label), in four interleaved copies.
  std::vector<std::uint32_t> bin_label_count;
};

namespace {

using WeightedRow = DecisionTree::WeightedRow;

/// Scans candidate boundaries in value order and keeps the best Gini
/// decrease, over a node of `n` samples (`node_pos` positive). Call
/// add(count, positives) for each group of samples sharing one code, in
/// code order, then boundary(prev, next) between two such groups.
class BoundaryScan {
 public:
  BoundaryScan(const TreeOptions& opt, std::size_t n, std::size_t node_pos)
      : min_leaf_(opt.min_samples_leaf), n_(n), node_pos_(node_pos),
        parent_(gini(node_pos, n)) {}

  void add(std::size_t count, std::size_t positives) {
    n_left_ += count;
    pos_left_ += positives;
  }

  /// Evaluates splitting after everything added so far; `split_at` fills
  /// the threshold and split rank when the candidate is the best yet.
  template <typename SplitAt>
  void boundary(SplitAt split_at) {
    if (better(n_left_, pos_left_)) split_at(best);
  }

  /// Evaluates splitting with `n_left` samples (`pos_left` positive) on
  /// the left; true, with `best` updated, when it is the best yet (the
  /// first of equal decreases wins).
  bool better(std::size_t n_left, std::size_t pos_left) {
    const std::size_t n_right = n_ - n_left;
    if (n_left < min_leaf_ || n_right < min_leaf_) return false;
    const std::size_t pos_right = node_pos_ - pos_left;
    const double child =
        (static_cast<double>(n_left) * gini(pos_left, n_left) +
         static_cast<double>(n_right) * gini(pos_right, n_right)) /
        static_cast<double>(n_);
    const double decrease = parent_ - child;
    if (decrease <= best.impurity_decrease) return false;
    best.valid = true;
    best.impurity_decrease = decrease;
    return true;
  }

  SplitCandidate best;

 private:
  std::size_t min_leaf_, n_, node_pos_;
  double parent_;
  std::size_t n_left_ = 0, pos_left_ = 0;
};

/// Nodes of at most this many distinct rows sort their keys with 6-bit
/// radix digits. A pass clears and prefix-sums one counter per digit
/// value, and at 8 bits those 256 counters cost more than a few dozen
/// keys do; most exact searches run on nodes that small.
constexpr std::size_t kSmallNodeKeys = 128;

/// A feature coded one bin per distinct value is searched by counting
/// while its bins number at most this many times the node's distinct
/// rows; past that, clearing and scanning the counters costs more than
/// sorting the rows.
constexpr std::size_t kCountBinsPerRow = 2;

/// Exact split search over the node's distinct values of one feature.
/// Rank order is value order, so radix-sorting the node's rows by rank —
/// read from one contiguous column — visits the same boundaries as
/// sorting the raw values.
SplitCandidate best_split_exact(DecisionTree::BuildContext& ctx,
                                std::span<const WeightedRow> rows, std::size_t feature,
                                std::size_t n, std::size_t node_pos) {
  const QuantizedDataset& q = ctx.q;
  const std::uint32_t* ranks = q.ranks(feature).data();
  const std::size_t values = q.num_values(feature);
  if (values < 2) return {};  // constant feature

  auto& keys = ctx.keys;
  keys.resize(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k)
    keys[k] = std::uint64_t{ranks[rows[k].row]} << 32 | std::uint64_t{rows[k].weight} << 1 |
              ctx.labels[k];
  const auto rank_of = [](std::uint64_t k) { return k >> 32; };
  const auto rank_bits = static_cast<unsigned>(std::bit_width(values - 1));
  if (keys.size() <= kSmallNodeKeys) {
    radix_sort<6>(keys, ctx.sort_scratch, rank_of, rank_bits);
  } else {
    radix_sort(keys, ctx.sort_scratch, rank_of, rank_bits);
  }
  if (keys.front() >> 32 == keys.back() >> 32) return {};  // constant in this node

  // Pass 1 records the left side's counts at every rank change without a
  // branch: each key writes a slot, and the slot is kept (the cursor
  // moves on) only when the next key's rank differs.
  auto& bounds = ctx.boundaries;
  bounds.resize(keys.size());
  std::size_t num_bounds = 0, n_left = 0, pos_left = 0;
  for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
    const std::size_t weight = (keys[i] & 0xffffffffu) >> 1;
    n_left += weight;
    pos_left += (keys[i] & 1u) * weight;
    bounds[num_bounds] = {n_left, pos_left, i};
    num_bounds += (keys[i] >> 32) != (keys[i + 1] >> 32) ? 1 : 0;
  }
  // Pass 2 scores the boundaries in rank order; the threshold is derived
  // once, for the winner.
  BoundaryScan scan(ctx.opt, n, node_pos);
  std::size_t best_at = 0;
  for (std::size_t b = 0; b < num_bounds; ++b) {
    if (scan.better(bounds[b].n_left, bounds[b].pos_left)) best_at = bounds[b].at;
  }
  if (scan.best.valid) {
    const auto rank = static_cast<std::uint32_t>(keys[best_at] >> 32);
    const auto next = static_cast<std::uint32_t>(keys[best_at + 1] >> 32);
    scan.best.threshold = q.threshold_between_ranks(feature, rank, next);
    scan.best.split_rank = rank;
  }
  return scan.best;
}

/// Histogram split search: tallies the node's samples and positives per
/// bin, then scans the boundaries between consecutive node-occupied bins
/// in bin order. The threshold is the midpoint of the node's adjacent raw
/// values — the exact splitter's choice whenever bins hold single
/// distinct values.
SplitCandidate best_split_histogram(DecisionTree::BuildContext& ctx,
                                    std::span<const WeightedRow> rows, std::size_t feature,
                                    std::size_t n, std::size_t node_pos) {
  const QuantizedDataset& q = ctx.q;
  const std::size_t bins = q.num_bins(feature);
  if (bins < 2) return {};  // constant feature
  const std::uint8_t* codes = q.codes(feature).data();
  // One counter per (bin, label): a single add per distinct row. Rows go
  // to four interleaved copies of the counters, summed at the end, so
  // neighbouring rows that hit one bin do not wait on each other's
  // read-modify-write; integer sums are exact in any order.
  auto& cnt = ctx.bin_label_count;
  const std::size_t stride = 2 * bins;
  cnt.assign(4 * stride, 0);
  const std::uint8_t* labels = ctx.labels.data();
  const auto slot = [&](std::size_t i) {
    return std::size_t{codes[rows[i].row]} << 1 | labels[i];
  };
  std::size_t k = 0;
  for (; k + 4 <= rows.size(); k += 4) {
    cnt[slot(k)] += rows[k].weight;
    cnt[stride + slot(k + 1)] += rows[k + 1].weight;
    cnt[2 * stride + slot(k + 2)] += rows[k + 2].weight;
    cnt[3 * stride + slot(k + 3)] += rows[k + 3].weight;
  }
  for (; k < rows.size(); ++k) cnt[slot(k)] += rows[k].weight;
  for (std::size_t s = 0; s < stride; ++s)
    cnt[s] += cnt[stride + s] + cnt[2 * stride + s] + cnt[3 * stride + s];

  BoundaryScan scan(ctx.opt, n, node_pos);
  std::size_t prev = bins;  // sentinel: no occupied bin seen yet
  for (std::size_t b = 0; b < bins; ++b) {
    const std::size_t c_neg = cnt[2 * b], c_pos = cnt[2 * b + 1];
    if (c_neg + c_pos == 0) continue;
    if (prev != bins)
      scan.boundary([&](SplitCandidate& c) {
        c.threshold = q.threshold_between(feature, prev, b);
        c.split_rank = q.bin_last_rank(feature, prev);
      });
    scan.add(c_neg + c_pos, c_pos);
    prev = b;
  }
  return scan.best;
}

}  // namespace

void DecisionTree::fit(const data::Matrix& x, std::span<const int> y,
                       std::span<const std::size_t> sample_idx, const TreeOptions& opt,
                       util::Rng& rng, const QuantizedDataset* quantized) {
  if (x.rows() != y.size()) throw std::invalid_argument("DecisionTree::fit: shape mismatch");
  if (sample_idx.empty()) throw std::invalid_argument("DecisionTree::fit: no samples");

  bool histogram = false;
  switch (opt.split_method) {
    case SplitMethod::kExact:
      histogram = false;
      break;
    case SplitMethod::kHistogram:
      histogram = true;
      break;
    case SplitMethod::kAuto:
      histogram = sample_idx.size() >= opt.histogram_cutoff;
      break;
  }

  QuantizedDataset local;
  const QuantizedDataset* q = quantized;
  if (q != nullptr) {
    if (q->rows() != x.rows() || q->cols() != x.cols())
      throw std::invalid_argument("DecisionTree::fit: quantized shape mismatch");
  } else {
    local.build(x, opt.max_bins);
    q = &local;
  }

  // Collapse repeated indices into (row, multiplicity), in row order.
  std::vector<std::uint32_t> multiplicity(x.rows(), 0);
  for (std::size_t i : sample_idx) {
    if (i >= x.rows()) throw std::invalid_argument("DecisionTree::fit: sample index out of range");
    ++multiplicity[i];
  }
  std::vector<WeightedRow> rows;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    if (multiplicity[r] != 0)
      rows.push_back({static_cast<std::uint32_t>(r), multiplicity[r]});
  }

  nodes_.clear();
  importance_.assign(x.cols(), 0.0);
  // Worst case: every leaf holds min_samples_leaf samples, so there are
  // at most n/leaf leaves and 2*(n/leaf) - 1 nodes; the depth limit
  // bounds the count independently at 2^(depth+1) - 1.
  const std::size_t by_leaf =
      2 * (sample_idx.size() / std::max<std::size_t>(1, opt.min_samples_leaf)) + 1;
  const std::size_t by_depth =
      opt.max_depth < 30 ? (std::size_t{2} << opt.max_depth) - 1 : by_leaf;
  nodes_.reserve(std::min(by_leaf, by_depth));

  BuildContext ctx{y, opt, rng, *q, sample_idx.size(), histogram, {}, {}, {}, {}, {}, {}};
  build(ctx, rows, 0, rows.size(), 0);
}

void DecisionTree::fit(const data::Matrix& x, std::span<const int> y, const TreeOptions& opt,
                       util::Rng& rng) {
  std::vector<std::size_t> idx(x.rows());
  std::iota(idx.begin(), idx.end(), 0);
  fit(x, y, idx, opt, rng);
}

std::int32_t DecisionTree::build(BuildContext& ctx, std::vector<WeightedRow>& rows,
                                 std::size_t begin, std::size_t end, int depth) {
  std::span<const int> y = ctx.y;
  const TreeOptions& opt = ctx.opt;

  // The node's labels are gathered once here and read by every candidate
  // feature's scan; the recursion below only starts after those scans.
  // `n` counts samples, repeats included.
  const std::span<const WeightedRow> node_rows(rows.data() + begin, end - begin);
  ctx.labels.resize(node_rows.size());
  std::size_t n = 0, node_pos = 0;
  for (std::size_t k = 0; k < node_rows.size(); ++k) {
    ctx.labels[k] = y[node_rows[k].row] != 0 ? 1 : 0;
    n += node_rows[k].weight;
    node_pos += ctx.labels[k] * std::size_t{node_rows[k].weight};
  }

  const std::int32_t me = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[me].prob = static_cast<double>(node_pos) / static_cast<double>(n);
  nodes_[me].depth = depth;

  const bool pure = node_pos == 0 || node_pos == n;
  if (pure || depth >= opt.max_depth || n < opt.min_samples_split) return me;

  // Candidate features: all, or a per-node random subset (forest mode).
  // `ctx.features` is only consumed before the recursive calls below, so
  // one buffer serves the whole fit.
  const std::size_t nf = ctx.q.cols();
  std::vector<std::size_t>& features = ctx.features;
  if (opt.max_features == 0 || opt.max_features >= nf) {
    features.resize(nf);
    std::iota(features.begin(), features.end(), 0);
  } else {
    ctx.rng.sample_without_replacement(nf, opt.max_features, features);
  }

  // A feature coded one bin per distinct value (bin == rank) gets the
  // same split from counting as from sorting, so it is counted whenever
  // its bins are few next to the node's rows, at any node size and under
  // every SplitMethod. A coarsely coded feature is counted on large
  // histogram nodes only; small nodes sort (cheap there, and global bin
  // edges are too coarse for them).
  const bool use_histogram =
      ctx.histogram && (opt.exact_node_cutoff == 0 || n >= opt.exact_node_cutoff);
  const std::size_t count_bins = kCountBinsPerRow * node_rows.size();
  SplitCandidate best;
  std::size_t best_feature = 0;
  for (std::size_t f : features) {
    const std::size_t bins = ctx.q.num_bins(f);
    const bool count = bins == ctx.q.num_values(f) ? bins <= count_bins : use_histogram;
    const SplitCandidate cand = count ? best_split_histogram(ctx, node_rows, f, n, node_pos)
                                      : best_split_exact(ctx, node_rows, f, n, node_pos);
    if (cand.valid && (!best.valid || cand.impurity_decrease > best.impurity_decrease)) {
      best = cand;
      best_feature = f;
    }
  }
  if (!best.valid || best.impurity_decrease <= 0.0) return me;
  // A -inf lower value makes the midpoint NaN, and `x <= NaN` routes no
  // row left: the split degenerates and the node stays a leaf.
  if (std::isnan(best.threshold)) return me;

  // Partition [begin, end) by the chosen split: the rows of rank <=
  // split_rank are the rows with `x <= threshold`.
  const std::uint32_t* ranks = ctx.q.ranks(best_feature).data();
  const auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end),
      [&](const WeightedRow& r) { return ranks[r.row] <= best.split_rank; });
  const std::size_t mid = static_cast<std::size_t>(mid_it - rows.begin());

  importance_[best_feature] +=
      best.impurity_decrease * static_cast<double>(n) / static_cast<double>(ctx.n_total);

  nodes_[me].feature = static_cast<std::int32_t>(best_feature);
  nodes_[me].threshold = best.threshold;
  const std::int32_t left = build(ctx, rows, begin, mid, depth + 1);
  nodes_[me].left = left;
  const std::int32_t right = build(ctx, rows, mid, end, depth + 1);
  nodes_[me].right = right;
  return me;
}

double DecisionTree::predict_proba(std::span<const double> row) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree::predict_proba: not trained");
  std::int32_t node = 0;
  for (;;) {
    const Node& nd = nodes_[node];
    if (nd.feature < 0) return nd.prob;
    node = row[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left : nd.right;
  }
}

int DecisionTree::depth() const {
  int d = 0;
  for (const auto& nd : nodes_) d = std::max(d, nd.depth);
  return d;
}

void DecisionTree::save(std::ostream& os) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree::save: not trained");
  os << "tree " << nodes_.size() << ' ' << importance_.size() << '\n';
  os.precision(17);
  for (const auto& nd : nodes_) {
    os << nd.feature << ' ' << nd.threshold << ' ' << nd.left << ' ' << nd.right << ' '
       << nd.prob << ' ' << nd.depth << '\n';
  }
  for (std::size_t f = 0; f < importance_.size(); ++f) {
    os << importance_[f] << (f + 1 == importance_.size() ? '\n' : ' ');
  }
}

void DecisionTree::load(std::istream& is) {
  std::string tag;
  std::size_t n_nodes = 0, n_features = 0;
  if (!(is >> tag >> n_nodes >> n_features) || tag != "tree" || n_nodes == 0 ||
      n_nodes > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
    throw std::runtime_error("DecisionTree::load: bad header");
  // The header counts size nothing: records are appended as they parse,
  // so a count the input cannot back fails at its first missing record.
  const auto max_node = static_cast<std::int32_t>(n_nodes);
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    Node& nd = nodes.emplace_back();
    if (!(is >> nd.feature >> nd.threshold >> nd.left >> nd.right >> nd.prob >> nd.depth))
      throw std::runtime_error("DecisionTree::load: truncated node list");
    if (nd.feature < 0) continue;
    if (static_cast<std::size_t>(nd.feature) >= n_features)
      throw std::runtime_error("DecisionTree::load: split feature out of range");
    if (nd.left < 0 || nd.left >= max_node || nd.right < 0 || nd.right >= max_node)
      throw std::runtime_error("DecisionTree::load: child index out of range");
  }
  // The nodes must form one tree rooted at node 0: each reached exactly
  // once. A cycle or a shared child would send the walk, and the
  // flattening pass, around without end.
  std::vector<bool> reached(nodes.size(), false);
  std::vector<std::int32_t> queue{0};
  reached[0] = true;
  for (std::size_t q = 0; q < queue.size(); ++q) {
    const Node& nd = nodes[static_cast<std::size_t>(queue[q])];
    if (nd.feature < 0) continue;
    for (const std::int32_t child : {nd.left, nd.right}) {
      if (reached[static_cast<std::size_t>(child)])
        throw std::runtime_error("DecisionTree::load: nodes do not form a tree");
      reached[static_cast<std::size_t>(child)] = true;
      queue.push_back(child);
    }
  }
  if (queue.size() != nodes.size())
    throw std::runtime_error("DecisionTree::load: nodes do not form a tree");
  std::vector<double> importance;
  for (std::size_t f = 0; f < n_features; ++f) {
    if (!(is >> importance.emplace_back()))
      throw std::runtime_error("DecisionTree::load: truncated importance");
  }
  nodes_ = std::move(nodes);
  importance_ = std::move(importance);
}

}  // namespace wefr::ml
