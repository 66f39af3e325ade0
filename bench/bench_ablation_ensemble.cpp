// Ablation: WEFR's robust ensemble. Measures, per drive model,
//   - full ensemble (Kendall-tau outlier pruning, paper default),
//   - ensemble without pruning (outlier_z = infinity),
//   - ensemble with an adversarial reversed ranker injected, with and
//     without pruning — showing what the pruning step actually buys.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "core/ensemble.h"
#include "core/pipeline.h"
#include "stats/ranking.h"
#include "util/table.h"

using namespace wefr;

namespace {

/// An adversarial ranker: scores are the negation of a Pearson ranker's,
/// i.e. exactly the wrong order — stands in for a badly biased method.
class ReversedRanker final : public core::FeatureRanker {
 public:
  std::string name() const override { return "Adversary"; }
  std::vector<double> score(const data::Matrix& x, std::span<const int> y,
                            const ml::QuantizedDataset& coded) const override {
    auto s = core::PearsonRanker{}.score(x, y, coded);
    for (double& v : s) v = -v;
    return s;
  }
};

/// Fraction of the planted signature channels (raw + normalized per
/// signature attribute) found within the ensemble's top
/// (#channels + 4) positions.
double top_hit(const core::EnsembleResult& res, const data::Dataset& ds,
               const smartsim::DriveModelProfile& profile) {
  std::vector<std::string> wanted;
  for (auto attr : profile.signature_attrs) {
    wanted.push_back(std::string(smartsim::attr_name(attr)) + "_R");
    wanted.push_back(std::string(smartsim::attr_name(attr)) + "_N");
  }
  const std::size_t window = wanted.size() + 4;
  std::size_t hits = 0;
  for (const auto& name : wanted) {
    for (std::size_t i = 0; i < window && i < res.order.size(); ++i) {
      if (ds.feature_names[res.order[i]] == name) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(wanted.size());
}

}  // namespace

int main() {
  const benchx::BenchScale scale = benchx::scale_from_env();
  std::printf("Ablation — ensemble outlier pruning (Kendall-tau rule)\n\n");

  core::ExperimentConfig cfg;
  cfg.negative_keep_prob = 0.1;

  util::AsciiTable table;
  table.set_header({"Model", "Rankers", "Pruning", "Discarded", "Signature hit rate"});

  for (const char* model : benchx::kAllModels) {
    const auto& profile = smartsim::profile_by_name(model);
    const auto fleet = benchx::make_fleet(model, scale);
    const auto samples =
        core::build_selection_samples(fleet, 0, fleet.num_days - 1, cfg);

    for (const bool adversary : {false, true}) {
      auto rankers = core::make_standard_rankers();
      if (adversary) rankers.push_back(std::make_unique<ReversedRanker>());
      for (const bool prune : {true, false}) {
        core::EnsembleOptions opt;
        if (!prune) opt.outlier_z = 1e9;
        const auto res = core::ensemble_rank(rankers, samples.x, samples.y, opt);
        std::size_t discarded = 0;
        std::string discarded_names;
        for (std::size_t i = 0; i < res.discarded.size(); ++i) {
          if (res.discarded[i]) {
            ++discarded;
            discarded_names += (discarded_names.empty() ? "" : ",") + res.ranker_names[i];
          }
        }
        table.add_row({model, adversary ? "5 + adversary" : "standard 5",
                       prune ? "on" : "off",
                       discarded == 0 ? "-" : discarded_names,
                       benchx::pct(top_hit(res, samples, profile))});
      }
    }
    table.add_separator();
    std::printf("[%s] done\n", model);
    std::fflush(stdout);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nReading: with well-behaved rankers pruning is a no-op; with a\n"
              "biased ranker injected, the Kendall-tau rule identifies and drops\n"
              "it, keeping the final ranking on the planted signature —\n"
              "the robustness the paper claims for heterogeneous drive models.\n");
  return 0;
}
