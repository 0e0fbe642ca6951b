// Tests for the packet-level simulation plane: the World (channels,
// reciprocity beliefs, estimation error), receiver math (advertised spaces,
// post-projection SINR), the n+ round builder, baselines and the runner.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/beamforming.h"
#include "baselines/dot11n.h"
#include "channel/testbed.h"
#include "linalg/subspace.h"
#include "sim/round.h"
#include "sim/runner.h"
#include "sim/rx_math.h"
#include "sim/scenarios.h"
#include "sim/world.h"
#include "util/stats.h"
#include "util/units.h"

namespace nplus::sim {
namespace {

using linalg::CMat;
using linalg::cdouble;

World make_world(util::Rng& rng, const WorldConfig& cfg = {}) {
  const channel::Testbed tb;
  const Scenario sc = three_pair_scenario();
  const auto locs = tb.random_placement(sc.nodes.size(), rng);
  return World(tb, sc.nodes, locs, rng, cfg);
}

TEST(World, DimensionsMatchNodes) {
  util::Rng rng(1);
  const World w = make_world(rng);
  EXPECT_EQ(w.n_nodes(), 6u);
  EXPECT_EQ(w.antennas(0), 1u);
  EXPECT_EQ(w.antennas(4), 3u);
  const CMat& h = w.channel(4, 5, 0);
  EXPECT_EQ(h.rows(), 3u);  // rx antennas
  EXPECT_EQ(h.cols(), 3u);  // tx antennas
  const CMat& h2 = w.channel(0, 3, 10);
  EXPECT_EQ(h2.rows(), 2u);
  EXPECT_EQ(h2.cols(), 1u);
}

TEST(World, ChannelsReciprocal) {
  util::Rng rng(2);
  const World w = make_world(rng);
  for (std::size_t sc = 0; sc < 48; sc += 13) {
    const CMat& fwd = w.channel(2, 3, sc);
    const CMat& rev = w.channel(3, 2, sc);
    EXPECT_LT(linalg::max_abs_diff(rev, fwd.transpose()), 1e-12);
  }
}

TEST(World, LinkSnrSymmetric) {
  util::Rng rng(3);
  const World w = make_world(rng);
  EXPECT_DOUBLE_EQ(w.link_snr_db(0, 3), w.link_snr_db(3, 0));
}

TEST(World, EstimateAddsBoundedNoise) {
  util::Rng rng(4);
  const World w = make_world(rng);
  const CMat& h = w.channel(2, 3, 5);
  const CMat est = w.estimate(h);
  // Error power per entry ~ noise/2.
  double err = 0.0;
  for (std::size_t r = 0; r < h.rows(); ++r) {
    for (std::size_t c = 0; c < h.cols(); ++c) {
      err += std::norm(est(r, c) - h(r, c));
    }
  }
  err /= static_cast<double>(h.rows() * h.cols());
  EXPECT_LT(err, 50.0 * w.noise_power());
}

TEST(World, EstimationCanBeDisabled) {
  util::Rng rng(5);
  WorldConfig cfg;
  cfg.estimation_noise_scale = 0.0;
  const World w = make_world(rng, cfg);
  const CMat& h = w.channel(2, 3, 5);
  EXPECT_LT(linalg::max_abs_diff(w.estimate(h), h), 1e-15);
}

TEST(World, ReciprocalBeliefCloseToTruth) {
  util::Rng rng(6);
  const World w = make_world(rng);
  util::RunningStats rel_err_db;
  for (std::size_t sc = 0; sc < 48; ++sc) {
    const CMat& truth = w.channel(4, 1, sc);
    const CMat& belief = w.reciprocal_channel(4, 1, sc);
    for (std::size_t r = 0; r < truth.rows(); ++r) {
      for (std::size_t c = 0; c < truth.cols(); ++c) {
        if (std::abs(truth(r, c)) < 1e-9) continue;
        rel_err_db.add(util::to_db(
            std::norm((belief(r, c) - truth(r, c)) / truth(r, c))));
      }
    }
  }
  // Bounded by calibration + estimation error; must sit in the -15..-35 dB
  // range that produces the paper's 25-27 dB cancellation.
  EXPECT_LT(rel_err_db.mean(), -12.0);
  EXPECT_GT(rel_err_db.mean(), -45.0);
}

TEST(RxMath, AdvertisedSpaceDimensions) {
  util::Rng rng(7);
  CMat g(3, 1), f(3, 1);
  for (int i = 0; i < 3; ++i) {
    g(static_cast<std::size_t>(i), 0) = rng.cgaussian();
    f(static_cast<std::size_t>(i), 0) = rng.cgaussian();
  }
  const CMat u = advertised_unwanted_space(g, f, 1);
  EXPECT_EQ(u.rows(), 3u);
  EXPECT_EQ(u.cols(), 2u);
  // Contains the interference direction.
  EXPECT_TRUE(linalg::contains_subspace(u, f, 1e-8));
}

TEST(RxMath, AdvertisedSpaceOrthogonalToWantedWhenFree) {
  util::Rng rng(8);
  CMat g(3, 1);
  for (int i = 0; i < 3; ++i) {
    g(static_cast<std::size_t>(i), 0) = rng.cgaussian();
  }
  const CMat u = advertised_unwanted_space(g, CMat(3, 0), 1);
  EXPECT_EQ(u.cols(), 2u);
  // With no interference, the extension avoids the wanted channel entirely.
  EXPECT_LT((u.hermitian() * g).max_abs(), 1e-9);
}

TEST(RxMath, SinrMatchesAnalyticSiso) {
  // 1x1, no interference: SINR == |h|^2 / noise.
  CMat h(1, 1);
  h(0, 0) = cdouble{2.0, 0.0};
  RxObservation obs;
  obs.g_true = h;
  obs.g_est = h;
  obs.interference_true = CMat(1, 0);
  obs.unwanted_basis = CMat(1, 0);
  obs.noise_power = 0.04;
  const auto sinr = zf_stream_sinr(obs);
  ASSERT_EQ(sinr.size(), 1u);
  EXPECT_NEAR(sinr[0], 4.0 / 0.04, 1.0);  // MMSE bias tiny at 20 dB
}

TEST(RxMath, ProjectionRemovesAdvertisedInterference) {
  util::Rng rng(9);
  CMat g(3, 1), f(3, 1);
  for (int i = 0; i < 3; ++i) {
    g(static_cast<std::size_t>(i), 0) = rng.cgaussian();
    f(static_cast<std::size_t>(i), 0) = rng.cgaussian();
  }
  RxObservation obs;
  obs.g_true = g;
  obs.g_est = g;
  obs.interference_true = f;
  obs.unwanted_basis = advertised_unwanted_space(g, f, 1);
  obs.noise_power = 1e-6;
  const auto sinr = zf_stream_sinr(obs);
  // Interference inside the unwanted space: SINR limited by noise only.
  EXPECT_GT(util::to_db(sinr[0]), 30.0);

  // Without the projection the interferer leaks through (a matched filter
  // only attenuates it by the random-vector angle): much worse than with
  // the advertised-space projection.
  obs.unwanted_basis = CMat(3, 0);
  const auto sinr_raw = zf_stream_sinr(obs);
  EXPECT_GT(util::to_db(sinr[0]), util::to_db(sinr_raw[0]) + 10.0);
}

TEST(RxMath, OverloadedReceiverGetsZeroSinr) {
  // 2 wanted streams but only 1 interference-free dimension.
  util::Rng rng(10);
  CMat g(2, 2), u(2, 1);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) g(r, c) = rng.cgaussian();
  }
  u(0, 0) = 1.0;
  RxObservation obs;
  obs.g_true = g;
  obs.g_est = g;
  obs.interference_true = CMat(2, 0);
  obs.unwanted_basis = u;
  obs.noise_power = 1e-3;
  const auto sinr = zf_stream_sinr(obs);
  EXPECT_DOUBLE_EQ(sinr[0], 0.0);
  EXPECT_DOUBLE_EQ(sinr[1], 0.0);
}

// zf_stream_sinr and zf_stream_rx_models share one combiner and sum the
// same terms in the same order: the SINRs must agree bit for bit.
TEST(RxMath, StreamSinrMatchesModelSinr) {
  const auto expect_same = [](const RxObservation& obs) {
    const std::vector<double> sinr = zf_stream_sinr(obs);
    const std::vector<StreamRxModel> models = zf_stream_rx_models(obs);
    ASSERT_EQ(sinr.size(), obs.g_true.cols());
    ASSERT_EQ(models.size(), sinr.size());
    for (std::size_t j = 0; j < sinr.size(); ++j) {
      EXPECT_EQ(sinr[j], models[j].sinr) << j;
    }
  };
  const auto gaussian_matrix = [](std::size_t rows, std::size_t cols,
                                  util::Rng& rng) {
    CMat m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.cgaussian();
    }
    return m;
  };

  util::Rng rng(2011);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n_ant = 1 + rng.uniform_int(4);
    const std::size_t n =
        1 + rng.uniform_int(static_cast<std::uint32_t>(n_ant));
    const std::size_t j = rng.uniform_int(4);
    RxObservation obs;
    obs.g_true = gaussian_matrix(n_ant, n, rng);
    obs.g_est = obs.g_true;
    for (std::size_t r = 0; r < n_ant; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        obs.g_est(r, c) += rng.cgaussian(0.01);
      }
    }
    obs.interference_true = gaussian_matrix(n_ant, j, rng);
    obs.unwanted_basis =
        advertised_unwanted_space(obs.g_est, obs.interference_true, n);
    obs.noise_power = util::from_db(-rng.uniform(0.0, 40.0));
    SCOPED_TRACE(trial);
    expect_same(obs);
  }

  // Fewer free dimensions than streams: both return their zeros.
  RxObservation crowded;
  crowded.g_true = gaussian_matrix(2, 2, rng);
  crowded.g_est = crowded.g_true;
  crowded.interference_true = CMat(2, 0);
  crowded.unwanted_basis = CMat(2, 1);
  crowded.unwanted_basis(0, 0) = 1.0;
  crowded.noise_power = 1e-3;
  expect_same(crowded);
  EXPECT_EQ(zf_stream_sinr(crowded), std::vector<double>(2, 0.0));

  // A singular regularized Gram: an all-zero estimate and no noise.
  RxObservation singular;
  singular.g_true = gaussian_matrix(3, 2, rng);
  singular.g_est = CMat(3, 2);
  singular.interference_true = gaussian_matrix(3, 1, rng);
  singular.unwanted_basis = CMat(3, 0);
  singular.noise_power = 0.0;
  expect_same(singular);
  EXPECT_EQ(zf_stream_sinr(singular), std::vector<double>(2, 0.0));
}

TEST(Scenarios, ThreePairShape) {
  const Scenario sc = three_pair_scenario();
  EXPECT_EQ(sc.nodes.size(), 6u);
  EXPECT_EQ(sc.links.size(), 3u);
  EXPECT_EQ(sc.transmitters(), (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(sc.links_of(4), (std::vector<std::size_t>{2}));
}

TEST(Scenarios, ApScenarioShape) {
  const Scenario sc = ap_scenario();
  EXPECT_EQ(sc.nodes.size(), 5u);
  EXPECT_EQ(sc.transmitters(), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(sc.links_of(2), (std::vector<std::size_t>{1, 2}));
}

class RoundSuite : public ::testing::Test {
 protected:
  channel::Testbed tb_;
  Scenario sc_ = three_pair_scenario();
  RoundConfig cfg_;

  World strong_world(util::Rng& rng) {
    // Re-draw until all pairs are strong so rounds are non-degenerate.
    for (int i = 0; i < 100; ++i) {
      const auto locs = tb_.random_placement(sc_.nodes.size(), rng);
      World w(tb_, sc_.nodes, locs, rng, {});
      if (w.link_snr_db(0, 1) > 15 && w.link_snr_db(2, 3) > 15 &&
          w.link_snr_db(4, 5) > 15) {
        return w;
      }
    }
    ADD_FAILURE() << "no strong placement found";
    const auto locs = tb_.random_placement(sc_.nodes.size(), rng);
    return World(tb_, sc_.nodes, locs, rng, {});
  }
};

TEST_F(RoundSuite, DofNeverExceedsMaxAntennas) {
  util::Rng rng(11);
  const World w = strong_world(rng);
  for (int i = 0; i < 30; ++i) {
    const RoundResult res = run_nplus_round(w, sc_, rng, cfg_);
    EXPECT_LE(res.total_streams, 3u);
    EXPECT_GE(res.total_streams, 1u);
  }
}

TEST_F(RoundSuite, WinnerOrderConsistentWithStreams) {
  util::Rng rng(12);
  const World w = strong_world(rng);
  for (int i = 0; i < 30; ++i) {
    const RoundResult res = run_nplus_round(w, sc_, rng, cfg_);
    ASSERT_FALSE(res.winner_order.empty());
    // Total streams = sum of per-link streams.
    std::size_t total = 0;
    for (const auto& l : res.links) total += l.streams;
    EXPECT_EQ(total, res.total_streams);
  }
}

TEST_F(RoundSuite, SingleAntennaNeverJoins) {
  util::Rng rng(13);
  const World w = strong_world(rng);
  for (int i = 0; i < 40; ++i) {
    const RoundResult res = run_nplus_round(w, sc_, rng, cfg_);
    // If tx1 (node 0) transmitted, it must have been the first winner.
    if (res.links[0].streams > 0) {
      EXPECT_EQ(res.winner_order[0], 0u);
      EXPECT_EQ(res.links[0].streams, 1u);
    }
  }
}

TEST_F(RoundSuite, DurationPositiveAndBounded) {
  util::Rng rng(14);
  const World w = strong_world(rng);
  for (int i = 0; i < 20; ++i) {
    const RoundResult res = run_nplus_round(w, sc_, rng, cfg_);
    EXPECT_GT(res.duration_s, 100e-6);
    EXPECT_LT(res.duration_s, 50e-3);
  }
}

TEST_F(RoundSuite, PaperAccountingShorterThanRealistic) {
  util::Rng rng(15);
  const World w = strong_world(rng);
  RoundConfig paper = cfg_;
  paper.include_overheads = false;
  util::Rng r1(99), r2(99);
  const RoundResult with = run_nplus_round(w, sc_, r1, cfg_);
  const RoundResult without = run_nplus_round(w, sc_, r2, paper);
  EXPECT_LT(without.duration_s, with.duration_s);
}

TEST_F(RoundSuite, ResidualDegradesLaterEsnr) {
  // Final ESNR of the first winner can only be <= its selection ESNR
  // (joiners add residual interference, never remove noise).
  util::Rng rng(16);
  const World w = strong_world(rng);
  int checked = 0;
  for (int i = 0; i < 60; ++i) {
    const RoundResult res = run_nplus_round(w, sc_, rng, cfg_);
    if (res.winner_order.size() < 2) continue;
    const std::size_t first_link =
        res.winner_order[0] == 0 ? 0 : (res.winner_order[0] == 2 ? 1 : 2);
    const auto& l = res.links[first_link];
    if (l.mcs_index < 0) continue;
    EXPECT_LE(l.final_esnr_db, l.esnr_db + 0.75) << i;
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

TEST(IsolatedTx, SisoDelivers) {
  util::Rng rng(17);
  const channel::Testbed tb;
  const Scenario sc = three_pair_scenario();
  for (int i = 0; i < 50; ++i) {
    const auto locs = tb.random_placement(sc.nodes.size(), rng);
    const World w(tb, sc.nodes, locs, rng, {});
    if (w.link_snr_db(0, 1) < 15) continue;
    IsolatedTxSpec spec;
    spec.tx_node = 0;
    spec.dests.push_back({0, 1, 1});
    const auto res = evaluate_isolated_tx(w, spec, rng, {});
    EXPECT_GT(res.outcomes[0].delivered_bits, 11000.0);
    EXPECT_GT(res.airtime_s, 0.0);
    return;
  }
  GTEST_SKIP() << "no strong placement";
}

TEST(IsolatedTx, MuBeamformingSeparatesClients) {
  util::Rng rng(18);
  const channel::Testbed tb;
  const Scenario sc = ap_scenario();
  for (int i = 0; i < 80; ++i) {
    const auto locs = tb.random_placement(sc.nodes.size(), rng);
    const World w(tb, sc.nodes, locs, rng, {});
    if (w.link_snr_db(2, 3) < 20 || w.link_snr_db(2, 4) < 20) continue;
    IsolatedTxSpec spec;
    spec.tx_node = 2;
    spec.dests.push_back({1, 3, 2});
    spec.dests.push_back({2, 4, 1});
    spec.mu_beamforming = true;
    const auto res = evaluate_isolated_tx(w, spec, rng, {});
    // Both clients should see a usable rate.
    EXPECT_GE(res.outcomes[0].mcs_index, 0);
    EXPECT_GE(res.outcomes[1].mcs_index, 0);
    return;
  }
  GTEST_SKIP() << "no strong placement";
}

// Byte pins for the baselines' scoring path: every golden fixture and
// benchmark digest runs the n+ scheme, so nothing else catches a changed
// bit in evaluate_isolated_tx. Values were printed with %.17g (exact
// round trip) from the implementation they pin.
TEST(IsolatedTx, PinnedOutcomes) {
  struct Case {
    const char* name;
    std::uint64_t seed;
    bool ap;  // ap_scenario(), else three_pair_scenario()
    IsolatedTxSpec spec;
    Fidelity fidelity;
    double airtime_s;
    std::vector<LinkOutcome> outcomes;  // streams, mcs, esnr, final, per,
                                        // delivered, offered
  };
  const IsolatedTxSpec siso{0, {{0, 1, 1}}, false};
  const IsolatedTxSpec mimo3{4, {{2, 5, 3}}, false};
  const IsolatedTxSpec mu{2, {{1, 3, 2}, {2, 4, 1}}, true};
  const std::vector<Case> cases = {
      {"siso", 5, false, siso, Fidelity::kAbstracted, 0.00059199999999999997,
       {{1, 7, 29.341347809226548, 29.341347809226548, 0, 12000, 12000}}},
      {"siso", 5, false, siso, Fidelity::kFullPhy, 0.00059199999999999997,
       {{1, 7, 29.341347809226548, 29.341347809226548, 0, 12000, 12000}}},
      {"3x3", 5, false, mimo3, Fidelity::kAbstracted, 0.00040000000000000002,
       {{3, 5, 16.833939287538865, 16.833939287538865,
         0.0011517541345289484, 11986.178950385653, 12000}}},
      {"3x3", 5, false, mimo3, Fidelity::kFullPhy, 0.00040000000000000002,
       {{3, 5, 16.833939287538865, 16.833939287538865, 0, 12000, 12000}}},
      {"mu", 2, true, mu, Fidelity::kAbstracted, 0.0011839999999999997,
       {{2, 2, 9.4847690526537995, 9.4847690526537995, 0, 12000, 12000},
        {1, 5, 17.621197655178008, 17.621197655178008, 0, 12000, 12000}}},
      {"mu", 2, true, mu, Fidelity::kFullPhy, 0.0011839999999999997,
       {{2, 2, 9.4847690526537995, 9.4847690526537995, 0, 12000, 12000},
        {1, 5, 17.621197655178008, 17.621197655178008, 0, 12000, 12000}}},
  };
  const channel::Testbed tb;
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.name) +
                 (c.fidelity == Fidelity::kFullPhy ? " full" : " abstracted"));
    util::Rng rng(c.seed);
    const Scenario sc = c.ap ? ap_scenario() : three_pair_scenario();
    const auto locs = tb.random_placement(sc.nodes.size(), rng);
    const World w(tb, sc.nodes, locs, rng, {});
    RoundConfig cfg;
    cfg.fidelity = c.fidelity;
    const IsolatedTxResult res = evaluate_isolated_tx(w, c.spec, rng, cfg);
    EXPECT_EQ(res.airtime_s, c.airtime_s);
    EXPECT_EQ(res.degenerate_esnr, 0u);
    ASSERT_EQ(res.outcomes.size(), c.outcomes.size());
    for (std::size_t d = 0; d < c.outcomes.size(); ++d) {
      const LinkOutcome& got = res.outcomes[d];
      const LinkOutcome& want = c.outcomes[d];
      EXPECT_EQ(got.streams, want.streams) << d;
      EXPECT_EQ(got.mcs_index, want.mcs_index) << d;
      EXPECT_EQ(got.esnr_db, want.esnr_db) << d;
      EXPECT_EQ(got.final_esnr_db, want.final_esnr_db) << d;
      EXPECT_EQ(got.per, want.per) << d;
      EXPECT_EQ(got.delivered_bits, want.delivered_bits) << d;
      EXPECT_EQ(got.offered_bits, want.offered_bits) << d;
    }
  }
}

TEST(Runner, SamplesHaveExpectedShape) {
  const channel::Testbed tb;
  const Scenario sc = three_pair_scenario();
  ExperimentConfig cfg;
  cfg.n_placements = 5;
  cfg.rounds_per_placement = 2;
  const auto results = run_experiment(
      tb, sc, cfg,
      {make_nplus_round_fn(sc, cfg.round),
       baselines::make_dot11n_round_fn(sc, cfg.round)});
  ASSERT_EQ(results.size(), 2u);
  for (const auto& m : results) {
    ASSERT_EQ(m.samples.size(), 5u);
    for (const auto& s : m.samples) {
      EXPECT_EQ(s.per_link_mbps.size(), 3u);
      double total = 0.0;
      for (double v : s.per_link_mbps) total += v;
      EXPECT_NEAR(total, s.total_mbps, 1e-9);
    }
  }
}

TEST(Runner, DeterministicAcrossRuns) {
  const channel::Testbed tb;
  const Scenario sc = three_pair_scenario();
  ExperimentConfig cfg;
  cfg.n_placements = 3;
  cfg.rounds_per_placement = 2;
  cfg.seed = 77;
  const auto a = run_experiment(tb, sc, cfg,
                                {make_nplus_round_fn(sc, cfg.round)});
  const auto b = run_experiment(tb, sc, cfg,
                                {make_nplus_round_fn(sc, cfg.round)});
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_DOUBLE_EQ(a[0].samples[p].total_mbps, b[0].samples[p].total_mbps);
  }
}

TEST(Baselines, Dot11nSingleLinkPerRound) {
  util::Rng rng(19);
  const channel::Testbed tb;
  const Scenario sc = three_pair_scenario();
  const auto locs = tb.random_placement(sc.nodes.size(), rng);
  const World w(tb, sc.nodes, locs, rng, {});
  const auto fn = baselines::make_dot11n_round_fn(sc, {});
  for (int i = 0; i < 20; ++i) {
    const auto round = fn(w, rng);
    int active = 0;
    for (double bits : round.delivered_bits) {
      if (bits > 0) ++active;
    }
    EXPECT_LE(active, 1);
    EXPECT_GT(round.duration_s, 0.0);
  }
}

TEST(Baselines, BeamformingServesBothClientsWhenApWins) {
  util::Rng rng(20);
  const channel::Testbed tb;
  const Scenario sc = ap_scenario();
  const auto fn = baselines::make_beamforming_round_fn(sc, {});
  int both = 0;
  for (int i = 0; i < 200; ++i) {
    const auto locs = tb.random_placement(sc.nodes.size(), rng);
    const World w(tb, sc.nodes, locs, rng, {});
    const auto round = fn(w, rng);
    if (round.delivered_bits[1] > 0 && round.delivered_bits[2] > 0) ++both;
  }
  EXPECT_GT(both, 12);  // AP wins ~half the rounds, channels often good
}

// --- Claim 3.2 at the round level ----------------------------------------

namespace {

// Two pairs in a tight square (strong links, strong mutual interference);
// `joiner_antennas` sets the second pair's antenna count on both ends.
struct TwoPairSetup {
  channel::Testbed tb;
  Scenario sc;
  std::vector<std::size_t> locs;
};

TwoPairSetup two_pair_setup(std::size_t joiner_antennas) {
  TwoPairSetup s{channel::Testbed({{0.0, 0.0},
                                   {3.0, 0.0},
                                   {0.0, 3.0},
                                   {3.0, 3.0}}),
                 {}, {0, 1, 2, 3}};
  s.sc.nodes = {{2}, {2}, {joiner_antennas}, {joiner_antennas}};
  s.sc.links = {{0, 1}, {2, 3}};
  return s;
}

}  // namespace

TEST(Round, EqualAntennaJoinerBarredClaim32) {
  // Claim 3.2: a joiner can add m = M - K streams. When every node has two
  // antennas and the first winner fills both degrees of freedom, the other
  // pair is barred in that round — no matter how strong its link is.
  const TwoPairSetup s = two_pair_setup(2);
  util::Rng rng(51);
  const World w(s.tb, s.sc.nodes, s.locs, rng);
  RoundConfig cfg;
  std::size_t full_dof_rounds = 0;
  for (int r = 0; r < 40; ++r) {
    const RoundResult res = run_nplus_round(w, s.sc, rng, cfg);
    ASSERT_GE(res.winner_order.size(), 1u);
    if (res.winner_order.size() == 1 && res.total_streams == 2) {
      ++full_dof_rounds;
    }
    // The bar itself: once 2 streams are on the air, a 2-antenna joiner
    // can never be the second winner.
    if (res.winner_order.size() == 2) {
      EXPECT_LT(res.total_streams, 3u);
      // And the first winner must have left a degree of freedom unused.
      EXPECT_EQ(res.links[res.winner_order[0] == 0 ? 0 : 1].streams, 1u);
    }
  }
  // The strong 2x2 links fill both DoF in (nearly) every round.
  EXPECT_GT(full_dof_rounds, 20u);
}

TEST(Round, ExtraAntennaLiftsTheBar) {
  // Same geometry, but the second pair has three antennas: M - K = 1 once
  // the first winner holds two streams, so joins reappear.
  const TwoPairSetup s = two_pair_setup(3);
  util::Rng rng(52);
  const World w(s.tb, s.sc.nodes, s.locs, rng);
  RoundConfig cfg;
  std::size_t joined = 0;
  for (int r = 0; r < 40; ++r) {
    const RoundResult res = run_nplus_round(w, s.sc, rng, cfg);
    if (res.winner_order.size() == 2) ++joined;
  }
  EXPECT_GT(joined, 10u);
}

}  // namespace
}  // namespace nplus::sim
