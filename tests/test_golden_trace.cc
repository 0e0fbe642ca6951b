// Golden-trace regression: pinned-seed session summaries for every preset,
// diffed against checked-in fixtures in tests/golden/*.json.
//
// The fixtures pin the observable behavior of the whole stack — scenario
// generation, world drawing, DCF contention, admission, precoding, rate
// selection, and abstracted delivery scoring — for a fixed seed. The
// living_cell fixture adds the dynamic path on top: an eager clustered cell
// whose world moves (mobility, Doppler evolution, channel
// rematerialization), churns and adapts rates (AARF) every round;
// lazy_living_cell runs the same cell on a lazy world, so pairs first read
// after motion must realize the drift the world advertised for them. Any
// intentional behavior change (new calibration table, protocol tweak,
// accounting fix) shifts them; regenerate deliberately with:
//
//   ./test_golden_trace --update-golden
//
// and review the diff like any other code change. Values are compared with
// a 1e-6 relative tolerance so the fixtures survive compiler/platform FP
// variation (FMA contraction, libm differences) without masking real
// changes, which move results by orders of magnitude more.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/scenario_gen.h"
#include "sim/session.h"
#include "util/rng.h"

#ifndef NPLUS_GOLDEN_DIR
#error "NPLUS_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace nplus {
namespace {

bool g_update_golden = false;

constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kRounds = 60;

struct GoldenTrace {
  std::size_t rounds = 0;
  double duration_s = 0.0;
  double total_mbps = 0.0;
  double jain = 0.0;
  double joins_per_round = 0.0;
  double streams_per_round = 0.0;
  std::vector<double> per_link_mbps;
};

GoldenTrace summarize(const sim::SessionResult& res) {
  GoldenTrace t;
  t.rounds = res.rounds;
  t.duration_s = res.duration_s;
  t.total_mbps = res.total_mbps;
  t.jain = res.jain;
  t.joins_per_round = res.mean_winners_per_round;
  t.streams_per_round = res.mean_streams_per_round;
  t.per_link_mbps = res.per_link_mbps;
  return t;
}

GoldenTrace run_trace(sim::Preset preset) {
  util::Rng rng(kSeed);
  util::Rng world_rng = rng.fork(11);
  util::Rng session_rng = rng.fork(12);
  const sim::GeneratedTopology topo = sim::make_preset(preset, rng);
  sim::World world = sim::make_world(topo, world_rng);
  sim::SessionConfig cfg;
  cfg.n_rounds = kRounds;
  cfg.round.fidelity = sim::Fidelity::kAbstracted;
  return summarize(sim::run_session(world, topo.scenario, session_rng, cfg));
}

// The living cell: a generated, eager, clustered 12-link cell with
// pedestrian random-waypoint mobility, a 5 Hz environmental Doppler floor,
// flow and node churn and AARF rate control, 20 ms between rounds — so
// every round advances the world and rematerializes the channels it
// reads. `lazy` builds the same topology as a lazy world (a different
// stream layout, so a different fixture).
GoldenTrace run_living_cell(bool lazy) {
  util::Rng rng(kSeed);
  util::Rng world_rng = rng.fork(11);
  util::Rng session_rng = rng.fork(12);
  sim::GenConfig gen;
  gen.n_links = 12;
  gen.placement = sim::PlacementMode::kClustered;
  gen.tx_mix.weights = {0.35, 0.30, 0.20, 0.15};
  gen.rx_mix.weights = {0.35, 0.30, 0.20, 0.15};
  const sim::GeneratedTopology topo = sim::generate_topology(gen, rng);
  sim::WorldConfig world_cfg;
  world_cfg.lazy_channels = lazy;
  sim::World world = sim::make_world(topo, world_rng, world_cfg);
  sim::SessionConfig cfg;
  cfg.n_rounds = kRounds;
  cfg.inter_round_gap_s = 0.02;
  cfg.round.fidelity = sim::Fidelity::kAbstracted;
  cfg.dynamics.mobility.model = sim::MobilityModel::kRandomWaypoint;
  cfg.dynamics.evolution.env_doppler_hz = 5.0;
  cfg.dynamics.churn.flow_arrival_hz = 1.5;
  cfg.dynamics.churn.flow_departure_hz = 1.0;
  cfg.dynamics.churn.node_leave_hz = 0.3;
  cfg.dynamics.churn.node_return_hz = 1.0;
  cfg.dynamics.use_rate_control = true;
  return summarize(sim::run_session(world, topo.scenario, session_rng, cfg));
}

std::string golden_path(const std::string& name) {
  return std::string(NPLUS_GOLDEN_DIR) + "/" + name + ".json";
}

void write_golden(const std::string& name, const GoldenTrace& t) {
  FILE* f = std::fopen(golden_path(name).c_str(), "w");
  ASSERT_NE(f, nullptr) << "cannot write " << golden_path(name);
  std::fprintf(f,
               "{\n"
               "  \"preset\": \"%s\",\n"
               "  \"seed\": %llu,\n"
               "  \"rounds\": %zu,\n"
               "  \"fidelity\": \"abstracted\",\n"
               "  \"duration_s\": %.17g,\n"
               "  \"total_mbps\": %.17g,\n"
               "  \"jain\": %.17g,\n"
               "  \"joins_per_round\": %.17g,\n"
               "  \"streams_per_round\": %.17g,\n"
               "  \"per_link_mbps\": [",
               name.c_str(), static_cast<unsigned long long>(kSeed), t.rounds,
               t.duration_s, t.total_mbps, t.jain, t.joins_per_round,
               t.streams_per_round);
  for (std::size_t i = 0; i < t.per_link_mbps.size(); ++i) {
    std::fprintf(f, "%s%.17g", i == 0 ? "" : ", ", t.per_link_mbps[i]);
  }
  std::fprintf(f, "]\n}\n");
  std::fclose(f);
}

// Minimal field scanner for the flat JSON this suite itself writes.
double scan_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

std::vector<double> scan_array(const std::string& text,
                               const std::string& key) {
  const std::string needle = "\"" + key + "\": [";
  const std::size_t pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  std::vector<double> out;
  if (pos == std::string::npos) return out;
  const char* p = text.c_str() + pos + needle.size();
  while (*p != '\0' && *p != ']') {
    char* end = nullptr;
    out.push_back(std::strtod(p, &end));
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  return out;
}

void expect_close(double actual, double golden, const char* what) {
  const double tol = 1e-6 * std::max(1.0, std::abs(golden));
  EXPECT_NEAR(actual, golden, tol) << what;
}

// Diffs `t` against tests/golden/<name>.json (or rewrites the fixture
// under --update-golden).
void check_golden(const std::string& name, const GoldenTrace& t) {
  if (g_update_golden) {
    write_golden(name, t);
    std::printf("regenerated %s\n", golden_path(name).c_str());
    return;
  }

  std::ifstream in(golden_path(name));
  ASSERT_TRUE(in.good())
      << golden_path(name)
      << " missing — run ./test_golden_trace --update-golden";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  EXPECT_EQ(static_cast<std::size_t>(scan_number(text, "seed")), kSeed);
  EXPECT_EQ(static_cast<std::size_t>(scan_number(text, "rounds")),
            t.rounds);
  expect_close(t.duration_s, scan_number(text, "duration_s"), "duration_s");
  expect_close(t.total_mbps, scan_number(text, "total_mbps"), "total_mbps");
  expect_close(t.jain, scan_number(text, "jain"), "jain");
  expect_close(t.joins_per_round, scan_number(text, "joins_per_round"),
               "joins_per_round");
  expect_close(t.streams_per_round, scan_number(text, "streams_per_round"),
               "streams_per_round");
  const std::vector<double> golden_links = scan_array(text, "per_link_mbps");
  ASSERT_EQ(golden_links.size(), t.per_link_mbps.size());
  for (std::size_t i = 0; i < golden_links.size(); ++i) {
    expect_close(t.per_link_mbps[i], golden_links[i], "per_link_mbps");
  }
}

class GoldenTraceSuite : public ::testing::TestWithParam<sim::Preset> {};

TEST_P(GoldenTraceSuite, MatchesCheckedInFixture) {
  const sim::Preset preset = GetParam();
  check_golden(sim::preset_name(preset), run_trace(preset));
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, GoldenTraceSuite,
    ::testing::Values(sim::Preset::kThreePair, sim::Preset::kHiddenTerminal,
                      sim::Preset::kExposedTerminal,
                      sim::Preset::kDenseCell),
    [](const ::testing::TestParamInfo<sim::Preset>& param_info) {
      return sim::preset_name(param_info.param);
    });

TEST(GoldenTrace, LivingCellMatchesCheckedInFixture) {
  check_golden("living_cell", run_living_cell(/*lazy=*/false));
}

TEST(GoldenTrace, LazyLivingCellMatchesCheckedInFixture) {
  check_golden("lazy_living_cell", run_living_cell(/*lazy=*/true));
}

}  // namespace
}  // namespace nplus

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-golden") == 0) {
      nplus::g_update_golden = true;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
