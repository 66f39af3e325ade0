#include "ml/gbdt.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "ml/quantize.h"
#include "ml/radix_sort.h"

namespace wefr::ml {

namespace {

double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

double structure_score(double g, double h, double lambda) {
  return g * g / (h + lambda);
}

}  // namespace

/// Gradient statistics of one histogram bin. Every row's hessian is at
/// least 1e-12, so a bin holds node rows exactly when its hess sum is
/// positive; no row count is needed.
struct BinSums {
  double grad = 0.0;
  double hess = 0.0;
};

/// The best split found so far; rows of rank <= `rank` route left.
struct SplitChoice {
  double gain = 0.0;
  std::size_t feature = 0;
  double threshold = 0.0;
  std::uint32_t rank = 0;
};

/// Per-fit state shared by every round's tree build: gradients, the
/// rank/bin codes of the training matrix, and scratch buffers hoisted
/// out of the per-node hot path.
struct Gbdt::BuildContext {
  const GbdtOptions& opt;
  std::span<const double> grad;
  std::span<const double> hess;
  const QuantizedDataset& q;
  /// Histogram split finding on nodes of at least exact_node_cutoff rows.
  bool histogram = false;

  std::vector<double> node_grad;  ///< the current node's gradients, in idx order
  std::vector<double> node_hess;  ///< the current node's hessians, in idx order
  std::vector<std::size_t> rows;    ///< exact: the node's rows, ascending
  std::vector<std::uint64_t> keys;  ///< exact: rank << 32 | row
  std::vector<std::uint64_t> key_scratch;  ///< exact: radix sort buffer
  /// Histogram: per-bin sums of every candidate feature, back to back;
  /// feature i's bins start at bin_base[i] and its codes at codes[i].
  std::vector<BinSums> bins;
  std::vector<std::size_t> hist_features;
  std::vector<std::size_t> bin_base;
  std::vector<const std::uint8_t*> codes;
};

double Gbdt::Tree::predict(std::span<const double> row) const {
  std::int32_t node = 0;
  for (;;) {
    const Node& nd = nodes[node];
    if (nd.feature < 0) return nd.weight;
    node = row[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left : nd.right;
  }
}

namespace {

void check_fit_args(const data::Matrix& x, std::span<const int> y, const GbdtOptions& opt) {
  if (x.rows() == 0 || x.rows() != y.size())
    throw std::invalid_argument("Gbdt::fit: shape mismatch or empty data");
  if (opt.num_rounds == 0) throw std::invalid_argument("Gbdt::fit: num_rounds == 0");
  if (opt.subsample <= 0.0 || opt.subsample > 1.0 || opt.colsample <= 0.0 ||
      opt.colsample > 1.0)
    throw std::invalid_argument("Gbdt::fit: subsample/colsample outside (0,1]");
}

}  // namespace

void Gbdt::fit(const data::Matrix& x, std::span<const int> y, const GbdtOptions& opt,
               util::Rng& rng) {
  check_fit_args(x, y, opt);
  // Code the matrix once per fit; all rounds share the codes (gradients
  // change per round, ranks and bin memberships do not).
  QuantizedDataset coded;
  coded.build(x, opt.max_bins);
  fit(x, y, coded, opt, rng);
}

void Gbdt::fit(const data::Matrix& x, std::span<const int> y, const QuantizedDataset& coded,
               const GbdtOptions& opt, util::Rng& rng) {
  check_fit_args(x, y, opt);
  if (coded.rows() != x.rows() || coded.cols() != x.cols())
    throw std::invalid_argument("Gbdt::fit: coding shape differs from the matrix");
  if (coded.max_bins() != std::clamp<std::size_t>(opt.max_bins, 2, 256))
    throw std::invalid_argument("Gbdt::fit: coding bin budget differs from max_bins");

  const std::size_t n = x.rows();
  num_features_ = x.cols();
  trees_.clear();
  split_count_.assign(num_features_, 0.0);
  split_gain_.assign(num_features_, 0.0);

  // Log-odds prior, clamped away from degenerate all-one-class inputs.
  std::size_t pos = 0;
  for (int v : y) pos += v != 0 ? 1 : 0;
  const double p = std::clamp(static_cast<double>(pos) / static_cast<double>(n), 1e-6,
                              1.0 - 1e-6);
  base_score_ = std::log(p / (1.0 - p));

  std::vector<double> score(n, base_score_);
  std::vector<double> grad(n), hess(n);

  const std::size_t cols_per_tree = std::max<std::size_t>(
      1, static_cast<std::size_t>(opt.colsample * static_cast<double>(num_features_)));

  const bool histogram =
      opt.split_method == SplitMethod::kHistogram ||
      (opt.split_method == SplitMethod::kAuto && n >= opt.histogram_cutoff);
  BuildContext ctx{opt, grad, hess, coded, histogram, {}, {}, {}, {}, {}, {}, {}, {}, {}};

  for (std::size_t round = 0; round < opt.num_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const double pr = sigmoid(score[i]);
      grad[i] = pr - static_cast<double>(y[i]);
      hess[i] = std::max(pr * (1.0 - pr), 1e-12);
    }

    std::vector<std::size_t> idx;
    if (opt.subsample < 1.0) {
      idx.reserve(static_cast<std::size_t>(opt.subsample * static_cast<double>(n)) + 1);
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.bernoulli(opt.subsample)) idx.push_back(i);
      }
      if (idx.empty()) idx.push_back(rng.uniform_index(n));
    } else {
      idx.resize(n);
      std::iota(idx.begin(), idx.end(), 0);
    }

    std::vector<std::size_t> features;
    if (cols_per_tree < num_features_) {
      features = rng.sample_without_replacement(num_features_, cols_per_tree);
    } else {
      features.resize(num_features_);
      std::iota(features.begin(), features.end(), 0);
    }

    Tree tree;
    build_node(ctx, idx, 0, idx.size(), 0, features, tree);
    // Apply shrinkage by scaling leaf weights once.
    for (auto& nd : tree.nodes) {
      if (nd.feature < 0) nd.weight *= opt.learning_rate;
    }
    for (std::size_t i = 0; i < n; ++i) score[i] += tree.predict(x.row(i));
    trees_.push_back(std::move(tree));
  }
}

std::int32_t Gbdt::build_node(BuildContext& ctx, std::vector<std::size_t>& idx,
                              std::size_t begin, std::size_t end, int depth,
                              std::span<const std::size_t> features, Tree& tree) {
  const GbdtOptions& opt = ctx.opt;
  const QuantizedDataset& q = ctx.q;
  std::span<const double> grad = ctx.grad;
  std::span<const double> hess = ctx.hess;

  // The node's gradients are gathered once here, in idx order, and read
  // by every histogram pass; the recursion below only starts after them.
  const std::size_t n = end - begin;
  ctx.node_grad.resize(n);
  ctx.node_hess.resize(n);
  double g_sum = 0.0, h_sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    ctx.node_grad[k] = grad[idx[begin + k]];
    ctx.node_hess[k] = hess[idx[begin + k]];
    g_sum += ctx.node_grad[k];
    h_sum += ctx.node_hess[k];
  }

  const std::int32_t me = static_cast<std::int32_t>(tree.nodes.size());
  tree.nodes.emplace_back();
  tree.nodes[me].weight = -g_sum / (h_sum + opt.reg_lambda);

  if (depth >= opt.max_depth || n < 2) return me;

  const double parent_score = structure_score(g_sum, h_sum, opt.reg_lambda);

  SplitChoice best;

  // Histogram search on large nodes; small nodes fall back to the exact
  // sort (cheap there, and global bin edges are too coarse for them).
  const bool use_histogram =
      ctx.histogram && (opt.exact_node_cutoff == 0 || n >= opt.exact_node_cutoff);
  if (use_histogram) {
    // Every candidate feature's histogram fills in one walk over the
    // node's rows, each row adding into every feature's bins. A (feature,
    // bin) sum still adds its rows in idx order, so the sums are the
    // bits a feature-at-a-time pass gives, while the adds of different
    // features no longer wait on one another: a pass over one feature
    // alone is a chain of dependent floating-point adds wherever rows
    // repeat a bin.
    auto& active = ctx.hist_features;
    auto& base = ctx.bin_base;
    auto& codes = ctx.codes;
    active.clear();
    base.clear();
    codes.clear();
    std::size_t total_bins = 0;
    for (std::size_t f : features) {
      if (q.num_bins(f) < 2) continue;  // constant feature
      active.push_back(f);
      base.push_back(total_bins);
      codes.push_back(q.codes(f).data());
      total_bins += q.num_bins(f);
    }
    auto& sums = ctx.bins;
    sums.assign(total_bins, BinSums{});
    const std::size_t num_active = active.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t row = idx[begin + k];
      const double g = ctx.node_grad[k], h = ctx.node_hess[k];
      for (std::size_t i = 0; i < num_active; ++i) {
        BinSums& b = sums[base[i] + codes[i][row]];
        b.grad += g;
        b.hess += h;
      }
    }
    for (std::size_t i = 0; i < num_active; ++i) {
      const std::size_t f = active[i];
      const std::size_t bins = q.num_bins(f);
      const BinSums* feature_sums = sums.data() + base[i];
      // Boundaries between consecutive node-occupied bins, mirroring the
      // CART histogram scan.
      double gl = 0.0, hl = 0.0;
      std::size_t prev = bins;
      for (std::size_t b = 0; b < bins; ++b) {
        const BinSums& bin = feature_sums[b];
        if (bin.hess == 0.0) continue;
        if (prev != bins) {
          const double gr = g_sum - gl, hr = h_sum - hl;
          if (hl >= opt.min_child_weight && hr >= opt.min_child_weight) {
            const double gain = 0.5 * (structure_score(gl, hl, opt.reg_lambda) +
                                       structure_score(gr, hr, opt.reg_lambda) - parent_score) -
                                opt.gamma;
            if (gain > best.gain) {
              best.gain = gain;
              best.feature = f;
              best.threshold = q.threshold_between(f, prev, b);
              best.rank = q.bin_last_rank(f, prev);
            }
          }
        }
        gl += bin.grad;
        hl += bin.hess;
        prev = b;
      }
    }
  } else {
    // Order the node's rows by (rank, row): rank order is value order and
    // ties keep row order, so gradients accumulate in the same sequence
    // as a sort of (value, row) pairs. The rows are put in row order once
    // per node; a stable radix sort of each feature's ranks then finishes
    // the job (rows are distinct, so the keys are too).
    auto& rows = ctx.rows;
    rows.assign(idx.begin() + static_cast<std::ptrdiff_t>(begin),
                idx.begin() + static_cast<std::ptrdiff_t>(end));
    std::sort(rows.begin(), rows.end());
    auto& keys = ctx.keys;
    keys.resize(n);
    for (std::size_t f : features) {
      const std::size_t values = q.num_values(f);
      if (values < 2) continue;
      const std::uint32_t* ranks = q.ranks(f).data();
      for (std::size_t k = 0; k < n; ++k)
        keys[k] = std::uint64_t{ranks[rows[k]]} << 32 | rows[k];
      radix_sort(keys, ctx.key_scratch, [](std::uint64_t key) { return key >> 32; },
                 static_cast<unsigned>(std::bit_width(values - 1)));
      if (keys.front() >> 32 == keys.back() >> 32) continue;

      double gl = 0.0, hl = 0.0;
      for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
        const std::size_t row = keys[i] & 0xffffffffu;
        gl += grad[row];
        hl += hess[row];
        const auto rank = static_cast<std::uint32_t>(keys[i] >> 32);
        const auto next = static_cast<std::uint32_t>(keys[i + 1] >> 32);
        if (rank == next) continue;
        const double gr = g_sum - gl, hr = h_sum - hl;
        if (hl < opt.min_child_weight || hr < opt.min_child_weight) continue;
        const double gain = 0.5 * (structure_score(gl, hl, opt.reg_lambda) +
                                   structure_score(gr, hr, opt.reg_lambda) - parent_score) -
                            opt.gamma;
        if (gain > best.gain) {
          best.gain = gain;
          best.feature = f;
          best.threshold = q.threshold_between_ranks(f, rank, next);
          best.rank = rank;
        }
      }
    }
  }

  if (best.gain <= 0.0) return me;
  // A -inf lower value makes the midpoint NaN, and `x <= NaN` routes no
  // row left: the split degenerates and the node stays a leaf.
  if (std::isnan(best.threshold)) return me;

  // The rows of rank <= best.rank are the rows with `x <= best.threshold`.
  const std::uint32_t* ranks = q.ranks(best.feature).data();
  const auto mid_it =
      std::partition(idx.begin() + static_cast<std::ptrdiff_t>(begin),
                     idx.begin() + static_cast<std::ptrdiff_t>(end),
                     [&](std::size_t i) { return ranks[i] <= best.rank; });
  const std::size_t mid = static_cast<std::size_t>(mid_it - idx.begin());

  split_count_[best.feature] += 1.0;
  split_gain_[best.feature] += best.gain;

  tree.nodes[me].feature = static_cast<std::int32_t>(best.feature);
  tree.nodes[me].threshold = best.threshold;
  const std::int32_t left = build_node(ctx, idx, begin, mid, depth + 1, features, tree);
  tree.nodes[me].left = left;
  const std::int32_t right = build_node(ctx, idx, mid, end, depth + 1, features, tree);
  tree.nodes[me].right = right;
  return me;
}

double Gbdt::raw_score(std::span<const double> row) const {
  double s = base_score_;
  for (const auto& tree : trees_) s += tree.predict(row);
  return s;
}

double Gbdt::predict_proba(std::span<const double> row) const {
  if (trees_.empty()) throw std::logic_error("Gbdt::predict_proba: not trained");
  return sigmoid(raw_score(row));
}

namespace {
std::vector<double> normalized(std::vector<double> v) {
  double total = 0.0;
  for (double x : v) total += x;
  if (total > 0.0) {
    for (double& x : v) x /= total;
  }
  return v;
}
}  // namespace

std::vector<double> Gbdt::weight_importance() const {
  if (trees_.empty()) throw std::logic_error("Gbdt::weight_importance: not trained");
  return normalized(split_count_);
}

std::vector<double> Gbdt::gain_importance() const {
  if (trees_.empty()) throw std::logic_error("Gbdt::gain_importance: not trained");
  return normalized(split_gain_);
}

std::vector<double> Gbdt::combined_importance() const {
  const auto w = weight_importance();
  const auto g = gain_importance();
  std::vector<double> out(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) out[i] = (w[i] + g[i]) / 2.0;
  return out;
}

}  // namespace wefr::ml
