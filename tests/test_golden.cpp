// Golden digests of the weekly job's and the deployment loop's outputs
// on one fixed smartsim MC1 fleet, a fleet with a wear-out change point
// on which both wear-group bundles train:
//   - selection.txt: util::Rng's first draws of each distribution from
//     a fixed seed (a known-answer check), the fleet's bytes, run_wefr's
//     change point, and each population's selection;
//   - rankers.txt: every ranker's scores and ranking per population,
//     and each population's final ranking;
//   - forests.txt: the saved bytes of train_predictor's three forests,
//     and score_fleet's scores under that predictor on the days after
//     its training window;
//   - daemon.txt: daemon::replay of the fleet through an Engine that
//     runs its own checks, drift watch and fixed-recall threshold: each
//     check, the threshold after it, every alarm and the final scores.
// Each digest is the byte-wise FNV-1a (data::fnv1a) of the outputs'
// bytes. Every output is computed at num_threads 1 and at 4, and both
// must equal the checked-in value.
//
// A change that moves an output bit on purpose regenerates the files
//   build/tests/test_golden --write
// and names each digest that moved, and why, in CHANGES.md. The files
// record the toolchain that wrote them: libm can differ between
// toolchains, so a mismatch under another toolchain is not by itself a
// defect.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/wefr.h"
#include "daemon/engine.h"
#include "data/serialize.h"
#include "smartsim/generator.h"
#include "smartsim/profiles.h"
#include "util/rng.h"

namespace wefr::core {
namespace {

bool g_write = false;

constexpr int kDays = 220;
constexpr int kTrainEnd = 150;

/// One file of digests: key -> value.
using Digests = std::map<std::string, std::uint64_t>;

/// Bytes of one output, digested once complete.
class Bytes {
 public:
  template <typename T>
  Bytes& add(const T& v) {
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(v));
    return *this;
  }
  template <typename T>
  Bytes& add_all(const std::vector<T>& v) {
    add(v.size());
    for (const T& e : v) add(e);
    return *this;
  }
  Bytes& add_text(const std::string& s) {
    add(s.size());
    buf_.append(s);
    return *this;
  }
  std::uint64_t digest() const { return data::fnv1a(buf_); }

 private:
  std::string buf_;
};

/// MC1 over 220 days with the hazard inflated so about a fifth of the
/// drives fail in the window, as the end-to-end benchmark's fleets.
const data::FleetData& golden_fleet() {
  static const data::FleetData fleet = [] {
    const auto& profile = smartsim::profile_by_name("MC1");
    smartsim::SimOptions opt;
    opt.num_drives = 500;
    opt.num_days = kDays;
    opt.seed = 2101;
    opt.afr_scale = 0.22 * 100.0 * 365.0 / (profile.target_afr * kDays);
    return smartsim::generate_fleet(profile, opt);
  }();
  return fleet;
}

struct Outputs {
  Digests selection, rankers, forests;
};

/// Known-answer keys for util::Rng: the first draws of every
/// distribution from one fixed seed, each from a fresh generator.
void rng_digests(Digests& out) {
  constexpr std::uint64_t kSeed = 0x5eed2101ull;
  constexpr int kDraws = 16;
  const auto draws = [&](const std::string& key, auto draw) {
    util::Rng rng(kSeed);
    Bytes b;
    for (int i = 0; i < kDraws; ++i) b.add(draw(rng));
    out["rng." + key] = b.digest();
  };
  draws("next_u64", [](util::Rng& r) { return r.next_u64(); });
  draws("uniform", [](util::Rng& r) { return r.uniform(); });
  draws("uniform_range", [](util::Rng& r) { return r.uniform(-3.0, 5.0); });
  draws("uniform_index", [](util::Rng& r) { return r.uniform_index(1000003); });
  draws("uniform_int", [](util::Rng& r) { return r.uniform_int(-50, 50); });
  draws("normal", [](util::Rng& r) { return r.normal(); });
  draws("normal_scaled", [](util::Rng& r) { return r.normal(10.0, 2.5); });
  draws("bernoulli", [](util::Rng& r) { return r.bernoulli(0.3); });
  draws("poisson_small", [](util::Rng& r) { return r.poisson(3.5); });
  draws("poisson_large", [](util::Rng& r) { return r.poisson(200.0); });
  draws("exponential", [](util::Rng& r) { return r.exponential(0.5); });
  draws("gamma_small_shape", [](util::Rng& r) { return r.gamma(0.5, 2.0); });
  draws("gamma", [](util::Rng& r) { return r.gamma(3.0, 1.5); });

  util::Rng rng(kSeed);
  std::vector<int> items(40);
  for (int i = 0; i < 40; ++i) items[static_cast<std::size_t>(i)] = i;
  rng.shuffle(items);
  out["rng.shuffle"] = Bytes().add_all(items).digest();
  out["rng.sample_without_replacement"] =
      Bytes().add_all(util::Rng(kSeed).sample_without_replacement(100, 12)).digest();
  util::Rng parent(kSeed);
  util::Rng child = parent.fork();
  Bytes forked;
  for (int i = 0; i < kDraws; ++i) forked.add(child.next_u64()).add(parent.next_u64());
  out["rng.fork"] = forked.digest();
}

std::uint64_t scores_digest(const std::vector<DriveDayScores>& scores) {
  Bytes b;
  for (const auto& ds : scores) b.add(ds.drive_index).add(ds.first_day).add_all(ds.scores);
  return b.digest();
}

void digest_population(const GroupSelection& g, Outputs& out) {
  Bytes sel;
  sel.add_all(g.selected).add(g.num_samples).add(g.num_positives);
  sel.add(g.fallback).add(g.degraded);
  out.selection["selection." + g.label] = sel.digest();

  const EnsembleResult& e = g.ensemble;
  for (std::size_t i = 0; i < e.ranker_names.size(); ++i) {
    const std::string key = g.label + "." + e.ranker_names[i];
    out.rankers[key + ".scores"] = Bytes().add_all(e.scores[i]).digest();
    out.rankers[key + ".ranking"] = Bytes().add_all(e.rankings[i]).digest();
  }
  Bytes ens;
  ens.add_all(e.final_ranking).add_all(e.order).add_all(e.mean_distance);
  for (bool d : e.discarded) ens.add(d);
  out.rankers[g.label + ".ensemble"] = ens.digest();
}

std::uint64_t forest_digest(const ml::RandomForest& forest) {
  std::ostringstream os;
  forest.save(os);
  return Bytes().add_text(os.str()).digest();
}

Outputs weekly_job(std::size_t threads) {
  const data::FleetData& fleet = golden_fleet();
  Outputs out;
  rng_digests(out.selection);

  Bytes fleet_bytes;
  for (const auto& drive : fleet.drives) {
    fleet_bytes.add_text(drive.drive_id).add(drive.first_day).add(drive.fail_day);
    for (std::size_t r = 0; r < drive.values.rows(); ++r)
      for (double v : drive.values.row(r)) fleet_bytes.add(v);
  }
  out.selection["fleet"] = fleet_bytes.digest();

  ExperimentConfig cfg;
  cfg.num_threads = threads;
  WefrOptions wopt;
  wopt.num_threads = threads;
  const data::Dataset samples = build_selection_samples(fleet, 0, kTrainEnd, cfg);
  const WefrResult sel = run_wefr(fleet, samples, kTrainEnd, wopt);

  EXPECT_TRUE(sel.change_point.has_value()) << "the fixture must have a change point";
  EXPECT_TRUE(sel.low.has_value() && sel.high.has_value());
  if (!sel.change_point || !sel.low || !sel.high) return out;
  out.selection["change_point"] = Bytes()
                                      .add(sel.change_point->mwi_threshold)
                                      .add(sel.change_point->zscore)
                                      .add(sel.change_point->probability)
                                      .digest();
  for (const GroupSelection* g : {&sel.all, &*sel.low, &*sel.high}) digest_population(*g, out);

  const WefrPredictor pred = train_predictor(fleet, sel, 0, kTrainEnd, cfg);
  EXPECT_TRUE(pred.low.has_value() && pred.high.has_value())
      << "the fixture must train both wear-group bundles";
  if (!pred.low || !pred.high) return out;
  out.forests["forest.all"] = forest_digest(pred.all.forest);
  out.forests["forest.low"] = forest_digest(pred.low->forest);
  out.forests["forest.high"] = forest_digest(pred.high->forest);
  out.forests["score_fleet"] =
      scores_digest(score_fleet(fleet, pred, kTrainEnd + 1, kDays - 1, cfg));
  return out;
}

/// The deployment loop over the golden fleet: checks at days 150 and
/// 185 (plus any the drift watch pulls forward), each training 30-tree
/// forests and recalibrating the alarm threshold to 30% recall. The
/// replay advances one day per call, so the threshold a check leaves is
/// read before the next one.
Digests deployment_loop(std::size_t threads) {
  const data::FleetData& fleet = golden_fleet();
  daemon::EngineOptions opt;
  opt.experiment.forest.num_trees = 30;
  opt.experiment.num_threads = threads;
  opt.wefr.num_threads = threads;
  opt.warmup_days = kTrainEnd;
  opt.check_interval_days = 35;
  opt.online_drift_check = true;
  opt.target_recall = 0.3;
  daemon::Engine engine(opt, opt.experiment.windows);

  Digests out;
  std::size_t seen = 0;
  for (int day = 0; day < fleet.num_days; ++day) {
    daemon::replay(engine, fleet, day + 1);
    for (; seen < engine.checks().size(); ++seen) {
      const daemon::CheckEvent& ev = engine.checks()[seen];
      Bytes b;
      b.add(ev.day).add(ev.trained).add(ev.features_changed).add(ev.drift_triggered);
      b.add(ev.wear_threshold.has_value()).add(ev.wear_threshold.value_or(0.0));
      for (const auto* names : {&ev.selected_all, &ev.selected_low, &ev.selected_high}) {
        b.add(names->size());
        for (const auto& name : *names) b.add_text(name);
      }
      b.add(engine.alarm_threshold());
      char key[32];
      std::snprintf(key, sizeof(key), "check.%zu", seen);
      out[key] = b.digest();
    }
  }
  EXPECT_GE(seen, 2u) << "the fixture must run at least two checks";
  out["checks"] = Bytes().add(seen).digest();
  Bytes alarms;
  alarms.add(engine.alarms().size());
  for (const auto& a : engine.alarms()) alarms.add(a.drive_index).add(a.day).add(a.score);
  out["alarms"] = alarms.digest();
  out["scores"] = scores_digest(engine.scores());
  return out;
}

/// The toolchain this binary was built with, as the files record it.
std::string toolchain() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." + std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "GCC " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

std::string golden_path(const std::string& name) {
  return std::string(WEFR_GOLDEN_DIR) + "/" + name + ".txt";
}

void write_digests(const std::string& name, const Digests& d) {
  std::ofstream os(golden_path(name));
  os << "# Golden digests: " << name
     << " (tests/test_golden.cpp), equal at num_threads 1 and 4.\n"
     << "# toolchain: " << toolchain() << "\n";
  char line[32];
  for (const auto& [key, value] : d) {
    std::snprintf(line, sizeof(line), "%016llx", static_cast<unsigned long long>(value));
    os << key << ' ' << line << '\n';
  }
  ASSERT_TRUE(os.good()) << "cannot write " << golden_path(name);
}

/// Reads a digest file; `recorded` receives its toolchain line.
Digests read_digests(const std::string& name, std::string& recorded) {
  std::ifstream is(golden_path(name));
  EXPECT_TRUE(is.good()) << "missing " << golden_path(name);
  Digests d;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("# toolchain: ", 0) == 0) recorded = line.substr(13);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, hex;
    ls >> key >> hex;
    d[key] = std::stoull(hex, nullptr, 16);
  }
  return d;
}

void expect_matches_file(const std::string& name, const Digests& at1, const Digests& at4) {
  std::string recorded;
  const Digests golden = read_digests(name, recorded);
  const std::string note = "digest file " + golden_path(name) + " written by " + recorded +
                           ", this build: " + toolchain();
  EXPECT_EQ(golden.size(), at1.size()) << note;
  for (const auto& [key, value] : golden) {
    const auto one = at1.find(key), four = at4.find(key);
    ASSERT_NE(one, at1.end()) << key << " not computed; " << note;
    ASSERT_NE(four, at4.end()) << key << " not computed; " << note;
    EXPECT_EQ(one->second, value) << key << " at 1 thread; " << note;
    EXPECT_EQ(four->second, value) << key << " at 4 threads; " << note;
  }
}

TEST(Golden, WeeklyJobAtOneAndFourThreads) {
  const Outputs at1 = weekly_job(1);
  const Outputs at4 = weekly_job(4);
  if (g_write) {
    // Thread-count invariance holds before anything is written.
    ASSERT_EQ(at1.selection, at4.selection);
    ASSERT_EQ(at1.rankers, at4.rankers);
    ASSERT_EQ(at1.forests, at4.forests);
    write_digests("selection", at1.selection);
    write_digests("rankers", at1.rankers);
    write_digests("forests", at1.forests);
    return;
  }
  expect_matches_file("selection", at1.selection, at4.selection);
  expect_matches_file("rankers", at1.rankers, at4.rankers);
  expect_matches_file("forests", at1.forests, at4.forests);
}

TEST(Golden, DeploymentLoopAtOneAndFourThreads) {
  const Digests at1 = deployment_loop(1);
  const Digests at4 = deployment_loop(4);
  if (g_write) {
    ASSERT_EQ(at1, at4);
    write_digests("daemon", at1);
    return;
  }
  expect_matches_file("daemon", at1, at4);
}

}  // namespace
}  // namespace wefr::core

int main(int argc, char** argv) {
  // --write regenerates tests/golden/*.txt instead of checking them.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write") == 0) {
      wefr::core::g_write = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
