#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>

#include "ml/forest_infer.h"
#include "ml/quantize.h"
#include "obs/context.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace wefr::ml {

void RandomForest::fit_all(std::span<const FitJob> jobs, const ForestOptions& opt,
                           const obs::Context* obs) {
  obs::Span span(obs, "forest:fit");
  util::Stopwatch timer;
  for (const FitJob& job : jobs) {
    if (job.x->rows() == 0 || job.x->rows() != job.y.size())
      throw std::invalid_argument("RandomForest::fit: shape mismatch or empty data");
    if (opt.num_trees == 0) throw std::invalid_argument("RandomForest::fit: num_trees == 0");
    if (job.coded != nullptr) {
      if (job.coded->rows() != job.x->rows() || job.coded->cols() != job.x->cols())
        throw std::invalid_argument("RandomForest::fit: coding shape differs from the matrix");
      if (job.coded->max_bins() != std::clamp<std::size_t>(opt.tree.max_bins, 2, 256))
        throw std::invalid_argument("RandomForest::fit: coding bin budget differs from max_bins");
    }
  }

  // Per forest: its tree options, bootstrap size, coding and streams.
  // Every forest forks its streams off its own rng before any tree is
  // fitted, so pool scheduling cannot change a draw.
  struct Forest {
    TreeOptions topt;
    std::size_t boot = 0;
    QuantizedDataset own;  ///< the coding, when the job brought none
    const QuantizedDataset* coded = nullptr;
    std::vector<util::Rng> streams;
  };
  std::vector<Forest> forests(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const FitJob& job = jobs[j];
    Forest& f = forests[j];
    const std::size_t cols = job.x->cols();
    f.topt = opt.tree;
    f.topt.max_features =
        opt.max_features == 0
            ? std::max<std::size_t>(
                  1, static_cast<std::size_t>(std::sqrt(static_cast<double>(cols))))
            : std::min(opt.max_features, cols);
    f.boot = std::max<std::size_t>(1, static_cast<std::size_t>(opt.bootstrap_fraction *
                                                               static_cast<double>(
                                                                   job.x->rows())));
    if (job.coded == nullptr) f.own.prepare(*job.x, opt.tree.max_bins);
    f.coded = job.coded != nullptr ? job.coded : &f.own;
    f.streams.reserve(opt.num_trees);
    for (std::size_t t = 0; t < opt.num_trees; ++t) f.streams.push_back(job.rng->fork());
    RandomForest& out = *job.forest;
    out.num_features_ = cols;
    out.trees_.assign(opt.num_trees, DecisionTree{});
    out.flat_.reset();
  }

  // Larger training sets first: their trees are the long poles, and the
  // smaller forests' trees fill the pool's tail.
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return jobs[a].x->rows() > jobs[b].x->rows();
  });

  // The job list's three phases, each over every forest: code the
  // uncoded columns, fit the trees, flatten the forests.
  std::vector<std::pair<std::size_t, std::size_t>> coding, trees;
  for (std::size_t j : order) {
    if (jobs[j].coded == nullptr)
      for (std::size_t c = 0; c < jobs[j].x->cols(); ++c) coding.emplace_back(j, c);
    for (std::size_t t = 0; t < opt.num_trees; ++t) trees.emplace_back(j, t);
  }
  const auto code_column = [&](std::size_t i) {
    const auto [j, c] = coding[i];
    forests[j].own.build_feature(*jobs[j].x, c);
  };
  const auto fit_tree = [&](std::size_t i) {
    const auto [j, t] = trees[i];
    const FitJob& job = jobs[j];
    Forest& f = forests[j];
    util::Rng& local = f.streams[t];
    const std::size_t n = job.x->rows();
    std::vector<std::size_t> idx(f.boot);
    for (auto& r : idx) r = local.uniform_index(n);
    RandomForest& out = *job.forest;
    out.trees_[t].fit(*job.x, job.y, idx, f.topt, local, f.coded);
  };
  // Compile each fitted forest into the flattened SoA inference engine;
  // every batch scorer routes through it.
  const auto flatten = [&](std::size_t i) {
    RandomForest& out = *jobs[order[i]].forest;
    out.flat_ = std::make_shared<const FlatForest>(FlatForest::from(out, obs, span.id()));
  };

  if (opt.num_threads > 1) {
    util::ThreadPool pool(opt.num_threads);
    pool.parallel_for(coding.size(), code_column);
    pool.parallel_for(trees.size(), fit_tree);
    pool.parallel_for(jobs.size(), flatten);
  } else {
    for (std::size_t i = 0; i < coding.size(); ++i) code_column(i);
    for (std::size_t i = 0; i < trees.size(); ++i) fit_tree(i);
    for (std::size_t i = 0; i < jobs.size(); ++i) flatten(i);
  }

  if (obs != nullptr) {
    obs::add_counter(obs, "wefr_forest_trees_fitted_total", trees.size());
    if (auto* hist = obs::histogram_or_null(
            obs, "wefr_forest_fit_seconds",
            {0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0})) {
      hist->observe(timer.seconds());
    }
  }
}

void RandomForest::fit(const data::Matrix& x, std::span<const int> y, const ForestOptions& opt,
                       util::Rng& rng, const obs::Context* obs) {
  const FitJob job{&x, y, nullptr, &rng, this};
  fit_all({&job, 1}, opt, obs);
}

void RandomForest::fit(const data::Matrix& x, std::span<const int> y,
                       const QuantizedDataset& coded, const ForestOptions& opt, util::Rng& rng,
                       const obs::Context* obs) {
  const FitJob job{&x, y, &coded, &rng, this};
  fit_all({&job, 1}, opt, obs);
}

const FlatForest& RandomForest::flat_ref() const {
  if (flat_ == nullptr)
    throw std::logic_error("RandomForest: no flattened engine (not trained?)");
  return *flat_;
}

double RandomForest::predict_proba(std::span<const double> row) const {
  if (trees_.empty()) throw std::logic_error("RandomForest::predict_proba: not trained");
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.predict_proba(row);
  return sum / static_cast<double>(trees_.size());
}

std::vector<double> RandomForest::predict_proba(const data::Matrix& x,
                                                std::size_t num_threads,
                                                const obs::Context* obs) const {
  if (trees_.empty()) throw std::logic_error("RandomForest::predict_proba: not trained");
  obs::Span span(obs, "forest:predict_batch");
  obs::add_counter(obs, "wefr_forest_rows_scored_total", x.rows());
  obs::add_counter(obs, "wefr_inference_rows_total", x.rows());
  const FlatForest& flat = flat_ref();
  const double count = static_cast<double>(trees_.size());
  std::vector<double> out(x.rows(), 0.0);
  // Each block accumulates leaf probabilities through the flattened
  // engine and divides by the tree count afterwards — the same sum
  // order and division the recursive per-row walk performs, so the
  // scores are bit-identical at any block boundary or thread count.
  auto score_rows = [&](std::size_t begin, std::size_t end) {
    std::span<double> chunk(out.data() + begin, end - begin);
    flat.accumulate(x, begin, end, chunk);
    for (double& v : chunk) v /= count;
  };
  if (num_threads > 1 && x.rows() > 1) {
    // Block per task so each iteration amortizes the pool's dispatch.
    const std::size_t block = 256;
    const std::size_t num_blocks = (x.rows() + block - 1) / block;
    util::ThreadPool pool(num_threads);
    pool.parallel_for(num_blocks, [&](std::size_t b) {
      score_rows(b * block, std::min(x.rows(), (b + 1) * block));
    });
  } else {
    score_rows(0, x.rows());
  }
  return out;
}

std::vector<double> RandomForest::impurity_importance() const {
  if (trees_.empty()) throw std::logic_error("RandomForest::impurity_importance: not trained");
  std::vector<double> imp(num_features_, 0.0);
  for (const auto& tree : trees_) {
    const auto& ti = tree.impurity_importance();
    for (std::size_t f = 0; f < num_features_; ++f) imp[f] += ti[f];
  }
  double total = 0.0;
  for (double v : imp) total += v;
  if (total > 0.0) {
    for (double& v : imp) v /= total;
  }
  return imp;
}

void RandomForest::save(std::ostream& os) const {
  if (trees_.empty()) throw std::logic_error("RandomForest::save: not trained");
  os << "wefr-random-forest v1 " << trees_.size() << ' ' << num_features_ << '\n';
  for (const auto& tree : trees_) tree.save(os);
  if (!os) throw std::runtime_error("RandomForest::save: write failed");
}

void RandomForest::load(std::istream& is) {
  std::string magic, version;
  std::size_t n_trees = 0, n_features = 0;
  if (!(is >> magic >> version >> n_trees >> n_features) || magic != "wefr-random-forest" ||
      version != "v1" || n_trees == 0)
    throw std::runtime_error("RandomForest::load: bad header");
  // Build the forest aside and commit only once all of it is valid, so
  // a failed load leaves this one as it was. The header's tree count
  // sizes nothing: trees are appended as their records parse.
  RandomForest loaded;
  loaded.num_features_ = n_features;
  for (std::size_t t = 0; t < n_trees; ++t) {
    DecisionTree& tree = loaded.trees_.emplace_back();
    tree.load(is);
    if (tree.impurity_importance().size() != n_features)
      throw std::runtime_error("RandomForest::load: tree feature count differs from header");
  }
  loaded.flat_ = std::make_shared<const FlatForest>(FlatForest::from(loaded));
  *this = std::move(loaded);
}

}  // namespace wefr::ml
