#include "ml/forest_infer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "ml/random_forest.h"
#include "ml/tree.h"
#include "obs/context.h"
#include "obs/trace.h"

namespace wefr::ml {

namespace {

/// Rows per staged block. Every block streams the whole ensemble's
/// node records once, so the block must be wide enough to amortize
/// that traffic (a 25-tree depth-13 forest is multiple MB); 512 rows
/// keeps the double stage at 512 * (slots + 1) * 8 bytes — L2-resident
/// for dozens of features — while cutting per-row node traffic 8x over
/// a 64-row block. (256 and 1024 both measured slower: halving the
/// block doubles cold node reloads, doubling it starts evicting staged
/// columns between trees.)
constexpr std::size_t kBlockRows = 512;

/// Element stride between staged columns. Deliberately NOT kBlockRows:
/// a 2 KB power-of-two column stride maps a fixed row's reads across
/// all features into the same two L1 sets (set = (col*32 + r/8) mod 64),
/// so a 16-row group walking ~30 active features contends for ~4 sets'
/// worth of ways. One extra cache line of padding per column makes the
/// column->set mapping coprime with the set count and spreads the
/// group's working set across all 64 sets. Baked into the packed child
/// references at build time, so the kernel never sees the distinction.
constexpr std::size_t kSlotStride = kBlockRows + 8;

/// Everything one block traversal reads.
struct BlockArgs {
  const double* stage = nullptr;  ///< [slot][kSlotStride] raw values
  std::size_t rows = 0;           ///< occupied rows in the block
  const WideNode* wide = nullptr;  ///< nodes, BFS order, packed child refs
  const std::uint64_t* root_packed = nullptr;  ///< per-tree packed root ref
  const std::int32_t* tree_depth = nullptr;
  std::size_t trees = 0;
  double* acc = nullptr;  ///< [rows] per-row leaf-value accumulator
};

/// `v <= thr ? l : r`, with NaN `v` selecting `r` — the split rule of
/// the recursive walk. On x86-64 this is pinned to comisd + cmovae by
/// inline asm: the pure ternary is at GCC's mercy, and whether
/// if-conversion fires turned out to depend on surrounding inlining —
/// one build produced cmov, the next sank the child loads back into a
/// data-dependent branch that mispredicts ~every other level and made
/// the whole walk 2.5x slower. (comisd thr, v sets CF when thr < v and
/// on unordered, so cmovae — CF clear — takes `l` exactly when
/// v <= thr and never for NaN.)
[[gnu::always_inline]] inline std::uint64_t select_le(double v, double thr,
                                                      std::uint64_t l, std::uint64_t r) {
#if defined(__x86_64__) && defined(__GNUC__)
  asm("comisd %[v], %[t]\n\t"
      "cmovae %[l], %[r]"
      : [r] "+r"(r)
      : [t] "x"(thr), [v] "x"(v), [l] "r"(l)
      : "cc");
  return r;
#else
  return v <= thr ? l : r;
#endif
}

/// Lanes per walking group. Each step of a chain is a load dependency,
/// so one chain is latency-bound; independent chains in flight turn the
/// walk throughput-bound. 16 lanes beat 8/10/12/20/24: enough chains to
/// cover the ~18-cycle per-step chain and the L2 latency of stage/node
/// lines, while the lane state still fits registers without heavy
/// spilling.
constexpr std::size_t kGroup = 16;

/// Batched traversal over WideNode records (see forest_infer.h): a
/// group of kGroup rows advances through one tree in lockstep, one
/// level per pass, starting at `r` and advancing it past every full
/// group consumed. Leaves self-loop on the -inf stage column, so no
/// per-row termination test exists, and the end-of-tree accumulate
/// reads the payload off the leaf record the last level visit just
/// pulled into L1. The raw comparison is false for NaN, which routes
/// NaN right — exactly the recursive walk's behaviour.
///
/// The packed child word carries the destination's stage byte offset,
/// so a step's staged-value load depends only on the previous packed
/// word, never on this step's node-record load — the two cache accesses
/// issue in parallel and the per-level chain shrinks from
/// node -> slot -> stage -> compare to max(node, stage) -> compare.
/// Both child words load unconditionally and the compare selects with a
/// cmov, so there is no data-dependent branch. The lanes are an
/// explicit inner loop (state in registers, level loop outside the lane
/// loop) so the compiler cannot interchange the loops back into one
/// long serial chain per row, as GCC does to a plain
/// `for (level) for (row)` nest.
///
/// The group walks the full tree depth with no parked-lane bookkeeping:
/// with 16 chains in flight a group's deepest lane is usually near the
/// tree's own depth, so an early-exit check costs more in per-step
/// tracking (xor/or per lane per level, measured ~15% on this loop)
/// than the few spare levels it skips.
[[gnu::always_inline]] inline void walk_wide(const BlockArgs& a, std::uint64_t root_pk,
                                             std::int32_t depth, std::size_t& r) {
  const char* const nbase = reinterpret_cast<const char*>(a.wide);
  const std::size_t n = a.rows;
  for (; r + kGroup <= n; r += kGroup) {
    const char* const sbase = reinterpret_cast<const char*>(a.stage + r);
    std::uint64_t pk[kGroup];
    if (depth > 0) {
      // Level 0 specialised: every lane is at the root, so its record
      // loads once for the whole group.
      const WideNode& rn =
          *reinterpret_cast<const WideNode*>(nbase + static_cast<std::uint32_t>(root_pk));
      const std::size_t roff = static_cast<std::size_t>(root_pk >> 32);
      const double rthr = rn.thr;
      const std::uint64_t rl = rn.left, rr = rn.right;
#pragma GCC unroll 16
      for (std::size_t j = 0; j < kGroup; ++j) {
        double v;
        std::memcpy(&v, sbase + roff + 8 * j, sizeof v);
        pk[j] = select_le(v, rthr, rl, rr);
      }
      for (std::int32_t level = 1; level < depth; ++level) {
#pragma GCC unroll 16
        for (std::size_t j = 0; j < kGroup; ++j) {
          const std::uint64_t p = pk[j];
          const WideNode& nd =
              *reinterpret_cast<const WideNode*>(nbase + static_cast<std::uint32_t>(p));
          double v;
          std::memcpy(&v, sbase + (p >> 32) + 8 * j, sizeof v);
          pk[j] = select_le(v, nd.thr, nd.left, nd.right);
        }
      }
    } else {
      for (std::size_t j = 0; j < kGroup; ++j) pk[j] = root_pk;
    }
#pragma GCC unroll 16
    for (std::size_t j = 0; j < kGroup; ++j) {
      double payload;
      std::memcpy(&payload, nbase + static_cast<std::uint32_t>(pk[j]), sizeof payload);
      a.acc[r + j] += payload;
    }
  }
}

/// Walks every tree over one staged block. Kept out of line: one copy
/// of the unrolled walk, compiled apart from the staging loop.
[[gnu::noinline]] void run_trees(const BlockArgs& a) {
  const char* const nbase = reinterpret_cast<const char*>(a.wide);
  const std::size_t n = a.rows;
  for (std::size_t t = 0; t < a.trees; ++t) {
    const std::uint64_t root_pk = a.root_packed[t];
    const std::int32_t depth = a.tree_depth[t];
    std::size_t r = 0;
    walk_wide(a, root_pk, depth, r);
    for (; r < n; ++r) {  // last rows walk one chain at a time
      const char* const sb = reinterpret_cast<const char*>(a.stage + r);
      std::uint64_t p = root_pk;
      for (std::int32_t level = 0; level < depth; ++level) {
        const WideNode& nd =
            *reinterpret_cast<const WideNode*>(nbase + static_cast<std::uint32_t>(p));
        double v;
        std::memcpy(&v, sb + (p >> 32), sizeof v);
        const std::uint64_t next = select_le(v, nd.thr, nd.left, nd.right);
        if (next == p) break;  // parked on a leaf self-loop
        p = next;
      }
      double payload;
      std::memcpy(&payload, nbase + static_cast<std::uint32_t>(p), sizeof payload);
      a.acc[r] += payload;
    }
  }
}

/// Builder-side node form: one tree's nodes renumbered in BFS order,
/// which makes every interior node's children adjacent, so only the
/// left child's global id is stored (the right one is `child + 1`).
/// Leaves store `child == self` and slot_off 0. The WideNode array is
/// emitted from it once every node's staged column is known.
struct FlatNode {
  double threshold;       ///< split threshold; the leaf payload on leaves
  std::int32_t slot_off;  ///< staged column of the split feature,
                          ///< pre-scaled by kSlotStride; 0 on leaves
  std::int32_t child;     ///< global id of the left child; self on leaves
};

}  // namespace

FlatForest FlatForest::from(const RandomForest& forest, const obs::Context* obs,
                            std::uint64_t parent_span) {
  if (!forest.trained()) throw std::logic_error("FlatForest::from: forest not trained");
  obs::Span span = parent_span != 0 ? obs::Span(obs, "forest:flatten", parent_span)
                                    : obs::Span(obs, "forest:flatten");
  const std::size_t num_features = forest.num_features();
  FlatForest flat;
  flat.num_features_ = num_features;

  // Pass 1: which columns are split on. Only those get a stage column.
  std::vector<bool> split_on(num_features, false);
  std::size_t total_nodes = 0;
  for (const DecisionTree& tree : forest.trees_) {
    total_nodes += tree.nodes_.size();
    for (const auto& nd : tree.nodes_) {
      if (nd.feature < 0) continue;
      if (static_cast<std::size_t>(nd.feature) >= num_features)
        throw std::logic_error("FlatForest: split feature out of range");
      split_on[static_cast<std::size_t>(nd.feature)] = true;
    }
  }
  std::vector<std::int32_t> feature_slot(num_features, -1);  // column -> s
  for (std::size_t f = 0; f < num_features; ++f) {
    if (!split_on[f]) continue;
    feature_slot[f] = static_cast<std::int32_t>(flat.active_.size());
    flat.active_.push_back(static_cast<std::int32_t>(f));
  }

  // Pass 2: emit the nodes, one contiguous BFS run per tree.
  std::vector<FlatNode> node;
  node.reserve(total_nodes);
  std::vector<std::int32_t> tree_first;  // root node id per tree
  tree_first.reserve(forest.trees_.size());
  flat.tree_depth_.reserve(forest.trees_.size());

  std::vector<std::int32_t> order;  // original ids, BFS
  for (const DecisionTree& dt : forest.trees_) {
    const auto& tree = dt.nodes_;
    if (tree.empty()) throw std::logic_error("FlatForest: empty tree");
    const std::int32_t base = static_cast<std::int32_t>(node.size());
    tree_first.push_back(base);
    const auto n_local = static_cast<std::int32_t>(tree.size());

    order.assign(1, 0);
    std::vector<std::int32_t> newid(tree.size(), -1);
    newid[0] = 0;
    for (std::size_t q = 0; q < order.size(); ++q) {
      const auto& nd = tree[static_cast<std::size_t>(order[q])];
      if (nd.feature < 0) continue;
      if (nd.left < 0 || nd.left >= n_local || nd.right < 0 || nd.right >= n_local)
        throw std::logic_error("FlatForest: child index out of range");
      newid[static_cast<std::size_t>(nd.left)] = static_cast<std::int32_t>(order.size());
      order.push_back(nd.left);
      newid[static_cast<std::size_t>(nd.right)] = static_cast<std::int32_t>(order.size());
      order.push_back(nd.right);
    }
    if (order.size() != tree.size())
      throw std::logic_error("FlatForest: tree nodes unreachable from root");

    for (std::size_t q = 0; q < order.size(); ++q) {
      const auto& nd = tree[static_cast<std::size_t>(order[q])];
      const std::int32_t me = base + static_cast<std::int32_t>(q);
      if (nd.feature < 0) {
        // Leaf: payload overlays the threshold field, parked on the
        // -inf stage column (-inf <= any finite payload), so the walk
        // keeps selecting the leaf itself. A NaN payload would compare
        // false and walk the row off the leaf, so reject it here
        // (training never produces one).
        if (std::isnan(nd.prob))
          throw std::logic_error("FlatForest: NaN leaf payload");
        node.push_back(FlatNode{nd.prob, 0, me});
        continue;
      }
      const std::int32_t s = feature_slot[static_cast<std::size_t>(nd.feature)];
      const std::int32_t left = base + newid[static_cast<std::size_t>(nd.left)];
      node.push_back(FlatNode{
          nd.threshold, (s + 1) * static_cast<std::int32_t>(kSlotStride), left});
      // BFS pushes the two children back to back.
      if (base + newid[static_cast<std::size_t>(nd.right)] != left + 1)
        throw std::logic_error("FlatForest: BFS children not adjacent");
    }

    // Tree depth = deepest leaf, via an explicit (node, depth) stack.
    std::int32_t depth = 0;
    std::vector<std::pair<std::int32_t, std::int32_t>> stack{{0, 0}};
    while (!stack.empty()) {
      const auto [i, d] = stack.back();
      stack.pop_back();
      const auto& nd = tree[static_cast<std::size_t>(i)];
      if (nd.feature < 0) {
        depth = std::max(depth, d);
        continue;
      }
      stack.emplace_back(nd.left, d + 1);
      stack.emplace_back(nd.right, d + 1);
    }
    flat.tree_depth_.push_back(depth);
    flat.max_depth_ = std::max(flat.max_depth_, static_cast<int>(depth));
  }

  // Pass 3: the WideNode records (see forest_infer.h). Each child
  // reference packs the child's node byte offset with the byte offset
  // of the child's own staged column.
  const auto packed = [&node](std::int32_t k) {
    const auto i = static_cast<std::uint64_t>(static_cast<std::uint32_t>(k));
    const auto slot =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(node[i].slot_off));
    return i * sizeof(WideNode) | (slot * sizeof(double)) << 32;
  };
  flat.wide_.resize(node.size());
  for (std::size_t i = 0; i < node.size(); ++i) {
    const FlatNode& nd = node[i];
    WideNode& w = flat.wide_[i];
    w.thr = nd.threshold;
    const bool leaf = nd.child == static_cast<std::int32_t>(i);
    w.left = packed(leaf ? static_cast<std::int32_t>(i) : nd.child);
    w.right = packed(leaf ? static_cast<std::int32_t>(i) : nd.child + 1);
  }
  flat.root_packed_.reserve(tree_first.size());
  for (const std::int32_t rt : tree_first) flat.root_packed_.push_back(packed(rt));

  if (obs != nullptr) {
    obs::add_counter(obs, "wefr_forest_flattened_total", 1);
    obs::add_counter(obs, "wefr_forest_flattened_nodes_total", total_nodes);
  }
  return flat;
}

void FlatForest::accumulate(const data::Matrix& x, std::size_t row_begin,
                            std::size_t row_end, std::span<double> out) const {
  if (empty()) throw std::logic_error("FlatForest::accumulate: empty forest");
  if (x.cols() != num_features_)
    throw std::invalid_argument("FlatForest::accumulate: feature count mismatch");
  if (row_begin > row_end || row_end > x.rows())
    throw std::invalid_argument("FlatForest::accumulate: bad row range");
  if (out.size() != row_end - row_begin)
    throw std::invalid_argument("FlatForest::accumulate: out/range size mismatch");
  const std::size_t n = row_end - row_begin;

  // Column 0 of the stage is the reserved -inf column leaves park on
  // (see WideNode); active feature `s` stages at column `s + 1`, and
  // every block writes the rows it reads before walking them. So one
  // stage per thread, grown to the widest forest it has served, is
  // reused across calls, and only column 0 is refilled.
  thread_local std::vector<double> stage;
  const std::size_t stage_size = (active_.size() + 1) * kSlotStride;
  if (stage.size() < stage_size) stage.resize(stage_size);
  std::fill(stage.begin(), stage.begin() + kBlockRows,
            -std::numeric_limits<double>::infinity());

  BlockArgs args;
  args.stage = stage.data();
  args.wide = wide_.data();
  args.root_packed = root_packed_.data();
  args.tree_depth = tree_depth_.data();
  args.trees = num_trees();

  for (std::size_t begin = 0; begin < n; begin += kBlockRows) {
    const std::size_t count = std::min(kBlockRows, n - begin);
    // Stage the block column-major: one contiguous kBlockRows run per
    // active feature, so every tree's gathers hit the same hot scratch.
    // Feature-outer: sequential stores into each column run, short
    // strided reads across the block's rows. (The row-outer transpose —
    // sequential reads, strided stores — measured no faster even with
    // the padded stride, and 3x slower at a 2 KB power-of-two stride
    // where every store landed in the same few L1 sets.)
    for (std::size_t s = 0; s < active_.size(); ++s) {
      const std::size_t f = static_cast<std::size_t>(active_[s]);
      double* dst = stage.data() + (s + 1) * kSlotStride;
      for (std::size_t r = 0; r < count; ++r) dst[r] = x(row_begin + begin + r, f);
    }
    args.rows = count;
    args.acc = out.data() + begin;
    run_trees(args);
  }
}

}  // namespace wefr::ml
