// Differential tests for the tree learners' split search. DecisionTree
// and Gbdt search splits over the rank/bin codes of ml::QuantizedDataset
// (integer ranks radix-sorted per column, bootstrap repeats folded
// into row weights). The reference learners below do it the plain way:
// they sort each node's raw (value, label) or (value, row) pairs,
// accumulate per-bin sums over the node's rows with repeats, and
// partition on `x <= threshold`. Both must produce the same trees, bit
// for bit: same nodes, thresholds, leaf values and importances.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "data/matrix.h"
#include "ml/gbdt.h"
#include "ml/quantize.h"
#include "ml/radix_sort.h"
#include "ml/random_forest.h"
#include "ml/tree.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wefr::ml {
namespace {

using data::Matrix;

// --- reference quantization: per-bin [lower, upper] value ranges --------

struct RefBins {
  std::vector<std::uint8_t> codes;        ///< codes[f * rows + r]
  std::vector<std::vector<double>> lower;  ///< per feature, per bin
  std::vector<std::vector<double>> upper;
  std::size_t rows = 0;

  std::uint8_t code(std::size_t r, std::size_t f) const { return codes[f * rows + r]; }
};

RefBins ref_quantize(const Matrix& x, std::size_t max_bins) {
  max_bins = std::clamp<std::size_t>(max_bins, 2, 256);
  RefBins q;
  q.rows = x.rows();
  q.codes.assign(x.rows() * x.cols(), 0);
  q.lower.assign(x.cols(), {});
  q.upper.assign(x.cols(), {});
  std::vector<double> sorted(x.rows());
  for (std::size_t f = 0; f < x.cols(); ++f) {
    for (std::size_t r = 0; r < x.rows(); ++r) sorted[r] = x(r, f);
    std::sort(sorted.begin(), sorted.end());
    std::size_t uniques = 1;
    for (std::size_t r = 1; r < sorted.size(); ++r) uniques += sorted[r] != sorted[r - 1] ? 1 : 0;
    auto& lo = q.lower[f];
    auto& hi = q.upper[f];
    const std::size_t target = (sorted.size() + max_bins - 1) / max_bins;
    std::size_t bin_start = 0;
    for (std::size_t r = 0; r < sorted.size(); ++r) {
      const bool last = r + 1 == sorted.size();
      const bool boundary = !last && sorted[r] != sorted[r + 1];
      const bool full = r + 1 - bin_start >= target && lo.size() + 1 < max_bins;
      if (last || (boundary && (uniques <= max_bins || full))) {
        lo.push_back(sorted[bin_start]);
        hi.push_back(sorted[r]);
        bin_start = r + 1;
      }
    }
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const auto it = std::lower_bound(hi.begin(), hi.end(), x(r, f));
      q.codes[f * q.rows + r] = static_cast<std::uint8_t>(it - hi.begin());
    }
  }
  return q;
}

/// Midpoint of two adjacent values, kept strictly below the upper one.
double midpoint(double lo, double hi) {
  double thr = lo + (hi - lo) / 2.0;
  if (thr >= hi) thr = lo;
  return thr;
}

// --- reference CART tree ---------------------------------------------------

double gini(std::size_t pos, std::size_t n) {
  if (n == 0) return 0.0;
  const double p = static_cast<double>(pos) / static_cast<double>(n);
  return 2.0 * p * (1.0 - p);
}

struct RefTree {
  struct Node {
    std::int32_t feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double prob = 0.0;
    std::int32_t depth = 0;
  };
  struct Split {
    bool valid = false;
    double threshold = 0.0;
    double decrease = -1.0;
  };

  const Matrix& x;
  std::span<const int> y;
  const TreeOptions& opt;
  util::Rng& rng;
  const RefBins* bins = nullptr;  ///< non-null: histogram on large nodes
  std::size_t n_total = 0;
  std::vector<Node> nodes;
  std::vector<double> importance;

  /// Boundary scan shared by both searches: `groups` holds (count,
  /// positives, lower value, upper value) per distinct code in order.
  Split scan(const std::vector<std::array<double, 4>>& groups, std::size_t n,
             std::size_t node_pos) const {
    Split best;
    const double parent = gini(node_pos, n);
    std::size_t n_left = 0, pos_left = 0;
    for (std::size_t g = 0; g + 1 < groups.size(); ++g) {
      n_left += static_cast<std::size_t>(groups[g][0]);
      pos_left += static_cast<std::size_t>(groups[g][1]);
      const std::size_t n_right = n - n_left;
      if (n_left < opt.min_samples_leaf || n_right < opt.min_samples_leaf) continue;
      const std::size_t pos_right = node_pos - pos_left;
      const double child = (static_cast<double>(n_left) * gini(pos_left, n_left) +
                            static_cast<double>(n_right) * gini(pos_right, n_right)) /
                           static_cast<double>(n);
      if (parent - child > best.decrease) {
        best = {true, midpoint(groups[g][3], groups[g + 1][2]), parent - child};
      }
    }
    return best;
  }

  Split exact(std::span<const std::size_t> idx, std::size_t f, std::size_t node_pos) const {
    std::vector<std::pair<double, int>> v;
    for (std::size_t i : idx) v.emplace_back(x(i, f), y[i]);
    std::sort(v.begin(), v.end());
    std::vector<std::array<double, 4>> groups;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i == 0 || v[i].first != v[i - 1].first) groups.push_back({0, 0, v[i].first, v[i].first});
      groups.back()[0] += 1;
      groups.back()[1] += v[i].second != 0 ? 1 : 0;
      groups.back()[3] = v[i].first;
    }
    return scan(groups, idx.size(), node_pos);
  }

  Split histogram(std::span<const std::size_t> idx, std::size_t f, std::size_t node_pos) const {
    const std::size_t nb = bins->lower[f].size();
    std::vector<std::size_t> cnt(nb, 0), pos(nb, 0);
    for (std::size_t i : idx) {
      ++cnt[bins->code(i, f)];
      pos[bins->code(i, f)] += y[i] != 0 ? 1 : 0;
    }
    std::vector<std::array<double, 4>> groups;
    for (std::size_t b = 0; b < nb; ++b) {
      if (cnt[b] == 0) continue;
      groups.push_back({static_cast<double>(cnt[b]), static_cast<double>(pos[b]),
                        bins->lower[f][b], bins->upper[f][b]});
    }
    return scan(groups, idx.size(), node_pos);
  }

  std::int32_t build(std::vector<std::size_t>& idx, std::size_t begin, std::size_t end,
                     int depth) {
    const std::size_t n = end - begin;
    std::size_t node_pos = 0;
    for (std::size_t i = begin; i < end; ++i) node_pos += y[idx[i]] != 0 ? 1 : 0;
    const auto me = static_cast<std::int32_t>(nodes.size());
    nodes.emplace_back();
    nodes[me].prob = static_cast<double>(node_pos) / static_cast<double>(n);
    nodes[me].depth = depth;
    if (node_pos == 0 || node_pos == n || depth >= opt.max_depth || n < opt.min_samples_split)
      return me;

    std::vector<std::size_t> features;
    if (opt.max_features == 0 || opt.max_features >= x.cols()) {
      features.resize(x.cols());
      std::iota(features.begin(), features.end(), 0);
    } else {
      rng.sample_without_replacement(x.cols(), opt.max_features, features);
    }
    const std::span<const std::size_t> node_idx(idx.data() + begin, n);
    const bool use_histogram =
        bins != nullptr && (opt.exact_node_cutoff == 0 || n >= opt.exact_node_cutoff);
    Split best;
    std::size_t best_f = 0;
    for (std::size_t f : features) {
      const Split c = use_histogram ? histogram(node_idx, f, node_pos) : exact(node_idx, f, node_pos);
      if (c.valid && (!best.valid || c.decrease > best.decrease)) {
        best = c;
        best_f = f;
      }
    }
    if (!best.valid || best.decrease <= 0.0) return me;
    const auto mid_it = std::partition(
        idx.begin() + static_cast<std::ptrdiff_t>(begin),
        idx.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t i) { return x(i, best_f) <= best.threshold; });
    const auto mid = static_cast<std::size_t>(mid_it - idx.begin());
    if (mid == begin || mid == end) return me;
    importance[best_f] += best.decrease * static_cast<double>(n) / static_cast<double>(n_total);
    nodes[me].feature = static_cast<std::int32_t>(best_f);
    nodes[me].threshold = best.threshold;
    const std::int32_t left = build(idx, begin, mid, depth + 1);
    nodes[me].left = left;
    const std::int32_t right = build(idx, mid, end, depth + 1);
    nodes[me].right = right;
    return me;
  }

  /// Serialized like DecisionTree::save.
  std::string dump() const {
    std::ostringstream os;
    os << "tree " << nodes.size() << ' ' << importance.size() << '\n';
    os.precision(17);
    for (const auto& nd : nodes)
      os << nd.feature << ' ' << nd.threshold << ' ' << nd.left << ' ' << nd.right << ' '
         << nd.prob << ' ' << nd.depth << '\n';
    for (std::size_t f = 0; f < importance.size(); ++f)
      os << importance[f] << (f + 1 == importance.size() ? '\n' : ' ');
    return os.str();
  }
};

std::string ref_tree_dump(const Matrix& x, std::span<const int> y,
                          std::span<const std::size_t> sample_idx, const TreeOptions& opt,
                          util::Rng& rng) {
  const bool histogram = opt.split_method == SplitMethod::kHistogram ||
                         (opt.split_method == SplitMethod::kAuto &&
                          sample_idx.size() >= opt.histogram_cutoff);
  RefBins bins;
  if (histogram) bins = ref_quantize(x, opt.max_bins);
  RefTree t{x, y, opt, rng, histogram ? &bins : nullptr, sample_idx.size(), {}, {}};
  t.importance.assign(x.cols(), 0.0);
  std::vector<std::size_t> idx(sample_idx.begin(), sample_idx.end());
  t.build(idx, 0, idx.size(), 0);
  return t.dump();
}

std::string tree_dump(const DecisionTree& t) {
  std::ostringstream os;
  t.save(os);
  return os.str();
}

// --- reference GBDT ----------------------------------------------------------

struct RefGbdt {
  struct Node {
    std::int32_t feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double weight = 0.0;
  };
  using Tree = std::vector<Node>;

  const Matrix& x;
  const GbdtOptions& opt;
  const RefBins* bins = nullptr;
  std::vector<double> grad, hess;
  std::vector<Tree> trees;
  double base = 0.0;
  std::vector<double> split_count, split_gain;

  static double score(double g, double h, double lambda) { return g * g / (h + lambda); }

  static double predict(const Tree& t, std::span<const double> row) {
    std::int32_t i = 0;
    while (t[i].feature >= 0)
      i = row[static_cast<std::size_t>(t[i].feature)] <= t[i].threshold ? t[i].left : t[i].right;
    return t[i].weight;
  }

  std::int32_t build(std::vector<std::size_t>& idx, std::size_t begin, std::size_t end,
                     int depth, const std::vector<std::size_t>& features, Tree& tree) {
    double g_sum = 0.0, h_sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      g_sum += grad[idx[i]];
      h_sum += hess[idx[i]];
    }
    const auto me = static_cast<std::int32_t>(tree.size());
    tree.emplace_back();
    tree[me].weight = -g_sum / (h_sum + opt.reg_lambda);
    if (depth >= opt.max_depth || end - begin < 2) return me;
    const double parent = score(g_sum, h_sum, opt.reg_lambda);
    double best_gain = 0.0, best_thr = 0.0;
    std::size_t best_f = 0;
    const auto consider = [&](double gl, double hl, std::size_t f, double thr) {
      const double gr = g_sum - gl, hr = h_sum - hl;
      if (hl < opt.min_child_weight || hr < opt.min_child_weight) return;
      const double gain = 0.5 * (score(gl, hl, opt.reg_lambda) + score(gr, hr, opt.reg_lambda) -
                                 parent) -
                          opt.gamma;
      if (gain > best_gain) {
        best_gain = gain;
        best_f = f;
        best_thr = thr;
      }
    };
    const bool use_histogram =
        bins != nullptr && (opt.exact_node_cutoff == 0 || end - begin >= opt.exact_node_cutoff);
    for (std::size_t f : features) {
      if (use_histogram) {
        const std::size_t nb = bins->lower[f].size();
        std::vector<double> bg(nb, 0.0), bh(nb, 0.0);
        std::vector<std::size_t> bc(nb, 0);
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint8_t b = bins->code(idx[i], f);
          bg[b] += grad[idx[i]];
          bh[b] += hess[idx[i]];
          ++bc[b];
        }
        double gl = 0.0, hl = 0.0;
        std::size_t prev = nb;
        for (std::size_t b = 0; b < nb; ++b) {
          if (bc[b] == 0) continue;
          if (prev != nb) consider(gl, hl, f, midpoint(bins->upper[f][prev], bins->lower[f][b]));
          gl += bg[b];
          hl += bh[b];
          prev = b;
        }
      } else {
        std::vector<std::pair<double, std::size_t>> v;
        for (std::size_t i = begin; i < end; ++i) v.emplace_back(x(idx[i], f), idx[i]);
        std::sort(v.begin(), v.end());
        double gl = 0.0, hl = 0.0;
        for (std::size_t i = 0; i + 1 < v.size(); ++i) {
          gl += grad[v[i].second];
          hl += hess[v[i].second];
          if (v[i].first == v[i + 1].first) continue;
          consider(gl, hl, f, midpoint(v[i].first, v[i + 1].first));
        }
      }
    }
    if (best_gain <= 0.0) return me;
    const auto mid_it = std::partition(idx.begin() + static_cast<std::ptrdiff_t>(begin),
                                       idx.begin() + static_cast<std::ptrdiff_t>(end),
                                       [&](std::size_t i) { return x(i, best_f) <= best_thr; });
    const auto mid = static_cast<std::size_t>(mid_it - idx.begin());
    if (mid == begin || mid == end) return me;
    split_count[best_f] += 1.0;
    split_gain[best_f] += best_gain;
    tree[me].feature = static_cast<std::int32_t>(best_f);
    tree[me].threshold = best_thr;
    const std::int32_t left = build(idx, begin, mid, depth + 1, features, tree);
    tree[me].left = left;
    const std::int32_t right = build(idx, mid, end, depth + 1, features, tree);
    tree[me].right = right;
    return me;
  }

  void fit(std::span<const int> y, util::Rng& rng) {
    const std::size_t n = x.rows(), nf = x.cols();
    split_count.assign(nf, 0.0);
    split_gain.assign(nf, 0.0);
    std::size_t pos = 0;
    for (int v : y) pos += v != 0 ? 1 : 0;
    const double p =
        std::clamp(static_cast<double>(pos) / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
    base = std::log(p / (1.0 - p));
    std::vector<double> s(n, base);
    grad.assign(n, 0.0);
    hess.assign(n, 0.0);
    const std::size_t cols = std::max<std::size_t>(
        1, static_cast<std::size_t>(opt.colsample * static_cast<double>(nf)));
    for (std::size_t round = 0; round < opt.num_rounds; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        const double pr = 1.0 / (1.0 + std::exp(-s[i]));
        grad[i] = pr - static_cast<double>(y[i]);
        hess[i] = std::max(pr * (1.0 - pr), 1e-12);
      }
      std::vector<std::size_t> idx;
      if (opt.subsample < 1.0) {
        for (std::size_t i = 0; i < n; ++i)
          if (rng.bernoulli(opt.subsample)) idx.push_back(i);
        if (idx.empty()) idx.push_back(rng.uniform_index(n));
      } else {
        idx.resize(n);
        std::iota(idx.begin(), idx.end(), 0);
      }
      std::vector<std::size_t> features;
      if (cols < nf) {
        features = rng.sample_without_replacement(nf, cols);
      } else {
        features.resize(nf);
        std::iota(features.begin(), features.end(), 0);
      }
      Tree tree;
      build(idx, 0, idx.size(), 0, features, tree);
      for (auto& nd : tree)
        if (nd.feature < 0) nd.weight *= opt.learning_rate;
      for (std::size_t i = 0; i < n; ++i) s[i] += predict(tree, x.row(i));
      trees.push_back(std::move(tree));
    }
  }

  double predict_proba(std::span<const double> row) const {
    double s = base;
    for (const auto& t : trees) s += predict(t, row);
    return 1.0 / (1.0 + std::exp(-s));
  }
};

std::vector<double> normalized(std::vector<double> v) {
  double total = 0.0;
  for (double e : v) total += e;
  if (total > 0.0)
    for (double& e : v) e /= total;
  return v;
}

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// --- data ----------------------------------------------------------------

/// SMART-like columns: heavy ties (small counters), wide-range counters,
/// signed continuous values with mixed zero signs, near-adjacent doubles,
/// a constant column, (when `with_inf`) infinite values, and `extra`
/// noise columns alternating between tied and continuous values.
void make_data(std::size_t n, util::Rng& rng, Matrix& x, std::vector<int>& y,
               bool with_inf = false, std::size_t extra = 0) {
  x = Matrix(n, 7 + extra);
  y.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const double signal = rng.normal();
    y[i] = signal + rng.normal(0.0, 0.8) > 0.9 ? 1 : 0;
    x(i, 0) = static_cast<double>(rng.uniform_index(6));                      // few ties
    x(i, 1) = std::floor(std::exp(2.0 * signal + rng.normal()) * 10.0);       // wide counter
    x(i, 2) = signal + rng.normal(0.0, 0.5);                                  // continuous
    x(i, 3) = rng.bernoulli(0.5) ? 0.0 : -0.0;                                // signed zeros
    if (rng.bernoulli(0.3)) x(i, 3) = signal > 0 ? 1.0 : -1.0;
    x(i, 4) = std::nextafter(1.0, 2.0 * static_cast<double>(rng.uniform_index(3)));  // adjacent
    x(i, 5) = 42.0;                                                           // constant
    x(i, 6) = static_cast<double>(rng.uniform_index(400)) - 200.0 + (y[i] != 0 ? 60.0 : 0.0);
    if (with_inf && rng.bernoulli(0.05))
      x(i, 6) = rng.bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                                   : -std::numeric_limits<double>::infinity();
    for (std::size_t e = 0; e < extra; ++e)
      x(i, 7 + e) = e % 2 == 0 ? static_cast<double>(rng.uniform_index(50)) : rng.normal();
  }
}

/// Bootstrap sample (repeats), as the forest draws it.
std::vector<std::size_t> bootstrap(std::size_t n, util::Rng& rng) {
  std::vector<std::size_t> idx(n);
  for (auto& i : idx) i = rng.uniform_index(n);
  return idx;
}

/// Integer columns taking exactly 2, 17, 256 and 257 distinct values
/// (rows below each count hold every value once, later rows follow the
/// label's signal), then a continuous column.
void make_integer_data(std::size_t n, util::Rng& rng, Matrix& x, std::vector<int>& y) {
  constexpr std::size_t kValues[] = {2, 17, 256, 257};
  x = Matrix(n, std::size(kValues) + 1);
  y.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const double signal = rng.normal();
    y[i] = signal + rng.normal(0.0, 0.8) > 0.9 ? 1 : 0;
    for (std::size_t c = 0; c < std::size(kValues); ++c) {
      const auto k = static_cast<double>(kValues[c]);
      const double v = std::floor(k / 2.0 + (signal + rng.normal()) * k / 6.0);
      x(i, c) = i < kValues[c] ? static_cast<double>(i) : std::clamp(v, 0.0, k - 1.0);
    }
    x(i, std::size(kValues)) = signal + rng.normal(0.0, 0.5);
  }
}

// --- tests -----------------------------------------------------------------

struct TreeCase {
  SplitMethod method;
  std::size_t max_bins;
  std::size_t max_features;
  std::size_t min_samples_leaf;
  std::size_t exact_node_cutoff;
};

void expect_tree_matches_reference(const Matrix& x, const std::vector<int>& y,
                                   const std::vector<std::size_t>& idx, const TreeCase& c,
                                   std::uint64_t seed) {
  TreeOptions opt;
  opt.split_method = c.method;
  opt.max_bins = c.max_bins;
  opt.max_features = c.max_features;
  opt.min_samples_leaf = c.min_samples_leaf;
  opt.exact_node_cutoff = c.exact_node_cutoff;
  opt.histogram_cutoff = 300;
  util::Rng r1(seed), r2(seed);
  DecisionTree t;
  t.fit(x, y, idx, opt, r1);
  EXPECT_EQ(tree_dump(t), ref_tree_dump(x, y, idx, opt, r2))
      << "method " << static_cast<int>(c.method) << " bins " << c.max_bins << " mtry "
      << c.max_features << " leaf " << c.min_samples_leaf << " cutoff " << c.exact_node_cutoff;
  // Both consumed the same random draws.
  EXPECT_EQ(r1.uniform_index(1u << 30), r2.uniform_index(1u << 30));
}

TEST(SplitSearch, TreeMatchesValueSortingReference) {
  const TreeCase cases[] = {
      {SplitMethod::kExact, 256, 0, 1, 512},     {SplitMethod::kExact, 256, 3, 5, 512},
      {SplitMethod::kHistogram, 256, 0, 1, 0},   {SplitMethod::kHistogram, 16, 0, 1, 0},
      {SplitMethod::kHistogram, 16, 3, 2, 64},   {SplitMethod::kAuto, 32, 2, 1, 100},
  };
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng data_rng(seed);
    Matrix x;
    std::vector<int> y;
    make_data(600, data_rng, x, y);
    std::vector<std::size_t> all(x.rows());
    std::iota(all.begin(), all.end(), 0);
    const auto boot = bootstrap(x.rows(), data_rng);
    for (const TreeCase& c : cases) {
      expect_tree_matches_reference(x, y, all, c, seed + 10);
      expect_tree_matches_reference(x, y, boot, c, seed + 20);
    }
  }
  // Exact search on nodes on both sides of the small-node sort's
  // 128-key cutover, over rank ranges wider than 12 bits (two 6-bit
  // digits): the continuous columns of 6000 rows hold ~6000 distinct
  // values, and deep nodes keep ranks spread over that whole range.
  util::Rng wide_rng(4);
  Matrix x;
  std::vector<int> y;
  make_data(6000, wide_rng, x, y, /*with_inf=*/false, /*extra=*/2);
  std::vector<std::size_t> all(x.rows());
  std::iota(all.begin(), all.end(), 0);
  const auto boot = bootstrap(x.rows(), wide_rng);
  expect_tree_matches_reference(x, y, all, {SplitMethod::kExact, 256, 0, 1, 512}, 31);
  expect_tree_matches_reference(x, y, boot, {SplitMethod::kExact, 256, 3, 2, 512}, 32);

  // Integer columns coded one bin per value up to the bin budget, which
  // count or sort each node by its bins against its distinct rows: the
  // 256-value column counts from 128 distinct rows up and sorts below,
  // the 17-value one from 9, under every method and cutoff. The
  // 257-value column (and the 17-value one at 16 bins) is coded coarsely
  // and keeps the node-size rule. The 250-row sample stays under kAuto's
  // histogram cutoff.
  util::Rng int_rng(5);
  make_integer_data(2000, int_rng, x, y);
  all.resize(x.rows());
  std::iota(all.begin(), all.end(), 0);
  const auto int_boot = bootstrap(x.rows(), int_rng);
  std::vector<std::size_t> small_boot(250);
  for (auto& i : small_boot) i = int_rng.uniform_index(x.rows());
  const TreeCase int_cases[] = {
      {SplitMethod::kExact, 256, 0, 1, 512},    {SplitMethod::kExact, 256, 3, 2, 512},
      {SplitMethod::kHistogram, 256, 0, 1, 0},  {SplitMethod::kHistogram, 256, 2, 1, 512},
      {SplitMethod::kHistogram, 16, 0, 1, 64},  {SplitMethod::kAuto, 256, 0, 1, 512},
      {SplitMethod::kAuto, 256, 3, 5, 100},     {SplitMethod::kAuto, 16, 2, 1, 512},
  };
  for (const TreeCase& c : int_cases) {
    expect_tree_matches_reference(x, y, all, c, 41);
    expect_tree_matches_reference(x, y, int_boot, c, 42);
    expect_tree_matches_reference(x, y, small_boot, c, 43);
  }
}

TEST(SplitSearch, TreeMatchesReferenceWithInfiniteValues) {
  util::Rng data_rng(4);
  Matrix x;
  std::vector<int> y;
  make_data(500, data_rng, x, y, /*with_inf=*/true);
  std::vector<std::size_t> all(x.rows());
  std::iota(all.begin(), all.end(), 0);
  expect_tree_matches_reference(x, y, all, {SplitMethod::kExact, 256, 0, 1, 512}, 5);
  expect_tree_matches_reference(x, y, all, {SplitMethod::kHistogram, 16, 0, 1, 0}, 5);
}

TEST(SplitSearch, ForestIsThreadInvariant) {
  util::Rng data_rng(6);
  Matrix x;
  std::vector<int> y;
  make_data(2500, data_rng, x, y);
  ForestOptions seq;
  seq.num_trees = 6;
  seq.tree.max_depth = 8;
  seq.tree.max_features = 3;
  ForestOptions par = seq;
  par.num_threads = 4;
  util::Rng r1(9), r2(9);
  RandomForest a, b;
  a.fit(x, y, seq, r1);
  b.fit(x, y, par, r2);
  std::ostringstream sa, sb;
  a.save(sa);
  b.save(sb);
  EXPECT_EQ(sa.str(), sb.str());
}

void expect_gbdt_matches_reference(const Matrix& x, const std::vector<int>& y,
                                   GbdtOptions opt, std::uint64_t seed) {
  const bool histogram =
      opt.split_method == SplitMethod::kHistogram ||
      (opt.split_method == SplitMethod::kAuto && x.rows() >= opt.histogram_cutoff);
  RefBins bins;
  if (histogram) bins = ref_quantize(x, opt.max_bins);
  RefGbdt ref{x, opt, histogram ? &bins : nullptr, {}, {}, {}, 0.0, {}, {}};
  util::Rng r_ref(seed);
  ref.fit(y, r_ref);
  const auto ref_weight = normalized(ref.split_count);
  const auto ref_gain = normalized(ref.split_gain);

  util::Rng r(seed);
  Gbdt model;
  model.fit(x, y, opt, r);
  ASSERT_EQ(model.num_trees(), ref.trees.size());
  const auto weight = model.weight_importance();
  const auto gain = model.gain_importance();
  for (std::size_t f = 0; f < x.cols(); ++f) {
    EXPECT_TRUE(bit_equal(weight[f], ref_weight[f])) << "feature " << f;
    EXPECT_TRUE(bit_equal(gain[f], ref_gain[f])) << "feature " << f;
  }
  for (std::size_t i = 0; i < x.rows(); ++i) {
    ASSERT_TRUE(bit_equal(model.predict_proba(x.row(i)), ref.predict_proba(x.row(i))))
        << "row " << i;
  }
}

TEST(SplitSearch, GbdtMatchesValueSortingReference) {
  util::Rng data_rng(7);
  Matrix x;
  std::vector<int> y;
  make_data(4000, data_rng, x, y, /*with_inf=*/false, /*extra=*/13);
  GbdtOptions opt;
  opt.num_rounds = 8;
  opt.max_depth = 4;
  opt.learning_rate = 0.3;
  opt.colsample = 0.7;

  GbdtOptions exact = opt;
  exact.split_method = SplitMethod::kExact;
  expect_gbdt_matches_reference(x, y, exact, 11);

  // Histogram at the root levels, exact below 512 rows; a small bin
  // budget forces equal-frequency bins on the wide columns.
  GbdtOptions hist = opt;
  hist.split_method = SplitMethod::kHistogram;
  hist.max_bins = 32;
  hist.subsample = 0.8;
  expect_gbdt_matches_reference(x, y, hist, 12);

  // Every column at every node, histogram search down to the leaves.
  GbdtOptions wide = opt;
  wide.colsample = 1.0;
  wide.exact_node_cutoff = 0;
  expect_gbdt_matches_reference(x, y, wide, 13);
}

TEST(SplitSearch, QuantizedDatasetIsPoolInvariant) {
  util::Rng data_rng(8);
  Matrix x;
  std::vector<int> y;
  make_data(1000, data_rng, x, y);
  QuantizedDataset serial, pooled;
  serial.build(x, 32);
  // Features coded as pool jobs, in whatever order the workers claim
  // them, as the ranker and forest job lists do.
  util::ThreadPool pool(4);
  pooled.prepare(x, 32);
  pool.parallel_for(x.cols(), [&](std::size_t f) { pooled.build_feature(x, f); });
  for (std::size_t f = 0; f < x.cols(); ++f) {
    ASSERT_EQ(serial.num_values(f), pooled.num_values(f));
    ASSERT_EQ(serial.num_bins(f), pooled.num_bins(f));
    EXPECT_TRUE(std::ranges::equal(serial.ranks(f), pooled.ranks(f)));
    EXPECT_TRUE(std::ranges::equal(serial.codes(f), pooled.codes(f)));
  }
}

/// -1 for a NaN with its sign bit set, +1 for any other NaN, 0 for a
/// number: the coding ranks a NaN below -inf or above +inf by its sign.
int nan_side(double v) {
  if (!std::isnan(v)) return 0;
  return std::signbit(v) ? -1 : 1;
}

/// Value order with NaNs placed by nan_side; two NaNs are unordered.
bool value_less(double a, double b) {
  if (nan_side(a) != nan_side(b)) return nan_side(a) < nan_side(b);
  return a < b;
}

/// Every row's rank is its value's place among the feature's distinct
/// values: walking the rows in value order (ties in row order, as the
/// coding breaks them), the rank steps by one at each larger value and
/// at every NaN (NaN != NaN, so each NaN row holds a rank of its own),
/// and stays put otherwise (-0.0 == 0.0 share one). Bins are contiguous
/// rank ranges covering every rank.
void expect_ranks_follow_value_order(const Matrix& x, const QuantizedDataset& q) {
  for (std::size_t f = 0; f < x.cols(); ++f) {
    const auto ranks = q.ranks(f);
    std::vector<std::size_t> order(x.rows());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return value_less(x(a, f), x(b, f)); });
    for (std::size_t i = 0; i < order.size(); ++i) {
      const double v = x(order[i], f);
      const std::uint32_t rank = ranks[order[i]];
      const double coded = q.value(f, rank);
      if (std::isnan(v)) {
        EXPECT_TRUE(std::isnan(coded) && std::signbit(coded) == std::signbit(v))
            << "feature " << f << " row " << order[i];
      } else {
        EXPECT_EQ(coded, v) << "feature " << f << " row " << order[i];
      }
      if (i == 0) {
        EXPECT_EQ(rank, 0u) << "feature " << f;
        continue;
      }
      const double prev = x(order[i - 1], f);
      const bool steps = std::isnan(v) || value_less(prev, v);
      EXPECT_EQ(rank, ranks[order[i - 1]] + (steps ? 1u : 0u))
          << "feature " << f << " row " << order[i];
    }
    EXPECT_EQ(ranks[order.back()], q.num_values(f) - 1) << "feature " << f;
    for (std::size_t b = 0; b < q.num_bins(f); ++b)
      EXPECT_LE(q.bin_first_rank(f, b), q.bin_last_rank(f, b));
    EXPECT_EQ(q.bin_last_rank(f, q.num_bins(f) - 1), q.num_values(f) - 1);
  }
}

TEST(SplitSearch, RanksFollowValueOrder) {
  util::Rng data_rng(9);
  Matrix x;
  std::vector<int> y;
  make_data(800, data_rng, x, y, /*with_inf=*/true);
  QuantizedDataset q;
  q.build(x, 16);
  expect_ranks_follow_value_order(x, q);

  // Keys whose 64-bit order images vary in only some bytes, so the
  // coding's radix sort skips the uniform digits: small integers (low
  // mantissa bytes all zero), signed zeros, infinities, subnormals (high
  // bytes all zero) and NaNs of both signs, each column mixed with a few
  // ordinary values.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const double kNegNaN = std::copysign(kNaN, -1.0);
  const std::vector<std::vector<double>> pools = {
      {0.0, 1.0, 2.0, 3.0, 4.0, 5.0},
      {0.0, -0.0, 1.0, -1.0},
      {-0.0, 0.0},
      {-kInf, kInf, 0.0, -2.5, 7.0},
      {kTiny, 2 * kTiny, 255 * kTiny, -kTiny, 0.0, -0.0},
      {kNaN, kNegNaN, 1.0, -1.0, kInf, -kInf},
      {kNaN, kNegNaN},
      {1.0, 1.0 + 0x1p-52, 1.0 + 0x1p-44, 1.0 + 0x1p-36},
  };
  util::Rng pick_rng(10);
  Matrix odd(600, pools.size());
  for (std::size_t r = 0; r < odd.rows(); ++r)
    for (std::size_t c = 0; c < pools.size(); ++c)
      odd(r, c) = pools[c][pick_rng.uniform_index(pools[c].size())];
  for (std::size_t bins : {std::size_t{4}, std::size_t{256}}) {
    QuantizedDataset coded;
    coded.build(odd, bins);
    expect_ranks_follow_value_order(odd, coded);
  }
}

/// One radix_sort run against std::stable_sort on the same items, at 6-
/// and 8-bit digits; items carry their input position, so a reordered
/// tie shows.
void expect_radix_sort_matches_stable_sort(const std::vector<std::uint64_t>& keys,
                                           unsigned key_bits) {
  struct Item {
    std::uint64_t key;
    std::uint32_t pos;
  };
  std::vector<Item> items(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) items[i] = {keys[i], static_cast<std::uint32_t>(i)};
  std::vector<Item> expected = items;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Item& a, const Item& b) { return a.key < b.key; });
  const auto key_of = [](const Item& it) { return it.key; };
  std::vector<Item> six = items, eight = items, scratch;
  radix_sort<6>(six, scratch, key_of, key_bits);
  radix_sort<8>(eight, scratch, key_of, key_bits);
  for (const std::vector<Item>* got : {&six, &eight}) {
    ASSERT_EQ(got->size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ((*got)[i].key, expected[i].key) << "key_bits " << key_bits << " at " << i;
      ASSERT_EQ((*got)[i].pos, expected[i].pos) << "key_bits " << key_bits << " at " << i;
    }
  }
}

TEST(SplitSearch, RadixSortMatchesStableSort) {
  util::Rng rng(11);
  // Key widths on and off both digit grids (6 and 8 bits).
  for (unsigned key_bits : {1u, 5u, 6u, 8u, 13u, 20u, 24u, 37u, 63u, 64u}) {
    const std::uint64_t mask = key_bits == 64 ? ~std::uint64_t{0}
                                              : (std::uint64_t{1} << key_bits) - 1;
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{100}, std::size_t{1500}}) {
      std::vector<std::uint64_t> uniform(n), ties(n), sparse(n);
      for (std::size_t i = 0; i < n; ++i) {
        uniform[i] = rng.next_u64() & mask;
        // A handful of distinct keys: heavy ties.
        ties[i] = (rng.uniform_index(5) * 0x9e3779b97f4a7c15ULL) & mask;
        // Only the two lowest and two highest bits vary; the digits
        // between are equal for every key and their passes are skipped.
        sparse[i] = key_bits < 4 ? uniform[i]
                                 : ((rng.next_u64() & 0x3) | rng.next_u64() << (key_bits - 2) |
                                    (std::uint64_t{0x5a5a5a5a5a5a5a5a} & ~std::uint64_t{3})) &
                                       mask;
      }
      expect_radix_sort_matches_stable_sort(uniform, key_bits);
      expect_radix_sort_matches_stable_sort(ties, key_bits);
      expect_radix_sort_matches_stable_sort(sparse, key_bits);
    }
  }
}

TEST(SplitSearch, TreeRejectsOutOfRangeSampleIndex) {
  Matrix x(10, 1, 1.0);
  std::vector<int> y(10, 0);
  std::vector<std::size_t> idx = {0, 3, 10};
  util::Rng rng(1);
  DecisionTree t;
  EXPECT_THROW(t.fit(x, y, idx, TreeOptions{}, rng), std::invalid_argument);
}

}  // namespace
}  // namespace wefr::ml
