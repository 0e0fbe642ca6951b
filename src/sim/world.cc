#include "sim/world.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "phy/ofdm_params.h"
#include "util/units.h"

namespace nplus::sim {

namespace {

// Sparse-mode pair filter: with roles present, only tx<->rx pairs are
// materialized (the round builder only ever reads channels, beliefs, and
// SNRs from a transmitter to a receiver). Empty roles = dense world.
bool pair_active(const std::vector<std::uint8_t>& roles, std::size_t a,
                 std::size_t b) {
  if (roles.empty()) return true;
  return ((roles[a] & kRoleTx) && (roles[b] & kRoleRx)) ||
         ((roles[b] & kRoleTx) && (roles[a] & kRoleRx));
}

// A belief is only ever read from a transmitter about a receiver.
bool belief_active(const std::vector<std::uint8_t>& roles, std::size_t a,
                   std::size_t b) {
  return roles.empty() || ((roles[a] & kRoleTx) && (roles[b] & kRoleRx));
}

}  // namespace

World::World(const channel::Testbed& testbed,
             const std::vector<NodeSpec>& nodes,
             const std::vector<std::size_t>& locations, util::Rng& rng,
             const WorldConfig& config,
             const std::vector<std::uint8_t>& roles)
    : nodes_(nodes),
      config_(config),
      noise_power_(testbed.noise_power_linear()),
      rng_(rng.fork(0x77)),
      testbed_(testbed),
      locations_(locations),
      roles_(roles) {
  // Config sanity: a NaN calibration error or a zero FFT would not crash
  // here — it would silently poison every eSNR downstream. Reject loudly.
  if (nodes.empty()) {
    throw std::invalid_argument("World: zero-node world (empty NodeSpec"
                                " list); nothing to simulate");
  }
  if (!std::isfinite(config.calibration_std) ||
      config.calibration_std < 0.0) {
    throw std::invalid_argument(
        "World: calibration_std must be finite and >= 0, got " +
        std::to_string(config.calibration_std));
  }
  if (!std::isfinite(config.estimation_noise_scale) ||
      config.estimation_noise_scale < 0.0) {
    throw std::invalid_argument(
        "World: estimation_noise_scale must be finite and >= 0, got " +
        std::to_string(config.estimation_noise_scale));
  }
  if (config.fft_size == 0 ||
      (config.fft_size & (config.fft_size - 1)) != 0) {
    throw std::invalid_argument(
        "World: fft_size must be a nonzero power of two, got " +
        std::to_string(config.fft_size));
  }
  assert(nodes.size() == locations.size());
  assert(roles.empty() || roles.size() == nodes.size());
  const std::size_t n = nodes.size();
  // Testbed::make_channel draws every channel with the default profile.
  twiddles_ = channel::SubcarrierTwiddles(phy::data_subcarriers(),
                                          config.fft_size,
                                          channel::ChannelProfile{}.n_taps);
  assert(twiddles_.n_subcarriers() == kSubcarriers);

  if (config_.lazy_channels) {
    // Nothing is drawn up front: reserve a fork base whose children are
    // keyed purely by pair labels.
    lazy_base_ = rng.fork(0x177);
    return;
  }

  // Draw one physical channel per unordered pair; the reverse direction is
  // its exact transpose (electromagnetic reciprocity). The tap-domain
  // channel is retained so advance() can evolve it later. Its
  // per-subcarrier matrices and link SNR draw nothing and depend only on
  // the taps: the pair's first read computes them (the record starts
  // stale).
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (!pair_active(roles, a, b)) continue;
      Pair p;
      // Peek a COPY of the stream: the real one is untouched.
      util::Rng peek = rng.duplicate();
      p.dyn = new_dyn(a, b, peek);
      p.taps = testbed.make_channel(locations[a], locations[b],
                                    nodes[a].n_antennas, nodes[b].n_antennas,
                                    rng);
      p.stale = true;
      pairs_.emplace_hint(pairs_.end(), pair_key(a, b), std::move(p));
    }
  }

  // Reciprocity-derived knowledge: node a's belief about channel a -> b is
  // the (noisy estimate of) the overheard b -> a channel, transposed, with
  // a fixed per-antenna-pair calibration error. Each belief keeps a copy of
  // rng_ where its draws begin, and rng_ skips exactly those draws: a
  // belief measured on its first read gets the bytes this pass would have
  // drawn, and every later draw on rng_ (estimate()) is unchanged.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b || !belief_active(roles, a, b)) continue;
      Belief& bel = pairs_.find(pair_key(a, b))->second.belief[a > b];
      bel.pending = rng_.duplicate();
      rng_.discard_gaussians(belief_gaussians(a, b));
    }
  }
}

std::uint64_t World::pair_key(std::size_t a, std::size_t b) const {
  return static_cast<std::uint64_t>(std::min(a, b)) * nodes_.size() +
         std::max(a, b);
}

util::Rng World::lazy_stream(std::uint64_t label) const {
  util::Rng base = lazy_base_.duplicate();
  return base.fork(label);
}

World::PairDyn World::new_dyn(std::size_t lo, std::size_t hi,
                              util::Rng& stream) const {
  // link_gain is the first draw of the pair's channel stream, so the
  // realized shadowing is the drawn loss minus the median.
  PairDyn dyn;
  dyn.prev_dist_m = testbed_.distance_m(locations_[lo], locations_[hi]);
  const double loss_db = -util::to_db(std::max(
      testbed_.link_gain(locations_[lo], locations_[hi], stream), 1e-300));
  dyn.shadow_s0_db =
      loss_db - testbed_.path_loss().median_loss_db(dyn.prev_dist_m);
  return dyn;
}

World::Pair& World::pair(std::size_t a, std::size_t b) const {
  // Fires if a sparse world is asked for a masked-out (rx-rx / tx-tx) pair.
  assert(a != b && pair_active(roles_, a, b));
  const std::uint64_t key = pair_key(a, b);
  auto it = pairs_.find(key);
  if (it == pairs_.end()) {
    assert(config_.lazy_channels);  // an eager world holds every pair
    util::Rng stream = lazy_stream(key);
    it = pairs_.try_emplace(key).first;
    it->second.dyn = new_dyn(std::min(a, b), std::max(a, b), stream);
  }
  return it->second;
}

World::Pair& World::pair_with_channel(std::size_t a, std::size_t b) const {
  Pair& p = pair(a, b);
  if (p.stale) {
    materialize(p);
  } else if (p.fwd.empty()) {
    const std::size_t lo = std::min(a, b);
    const std::size_t hi = std::max(a, b);
    util::Rng stream = lazy_stream(pair_key(a, b));
    p.taps = testbed_.make_channel(locations_[lo], locations_[hi],
                                   nodes_[lo].n_antennas,
                                   nodes_[hi].n_antennas, stream);
    // Dynamics catch-up: a pair whose SNR was read (and then drifted) in
    // earlier epochs materializes at the CURRENT geometry — make_channel
    // already used the moved positions and re-realizes the pair stream's
    // shadowing draw — but must additionally realize the shadowing drift
    // the advances accumulated, so the channel delivers exactly the link
    // SNR the world has been advertising.
    // lint:allow float-equal: offset is exactly 0.0 until the first advance
    if (p.dyn.shadow_offset_db() != 0.0) {
      p.taps.scale_gain(util::from_db(-p.dyn.shadow_offset_db()));
    }
    materialize(p);
  }
  return p;
}

void World::add_estimation_noise(CMat& m, util::Rng& rng) const {
  if (config_.estimation_noise_scale <= 0.0) return;
  // LS estimate over the two LTF repetitions: error variance noise/2.
  const double var = config_.estimation_noise_scale * noise_power_ / 2.0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m(r, c) += rng.cgaussian(var);
    }
  }
}

void World::measure_belief(Belief& bel, std::size_t a, std::size_t b,
                           const std::vector<CMat>& rev_chan,
                           util::Rng& rng) const {
  // Constant across subcarriers: hardware chains are flat over 10 MHz.
  bel.cal.resize(nodes_[b].n_antennas, nodes_[a].n_antennas);
  for (std::size_t r = 0; r < bel.cal.rows(); ++r) {
    for (std::size_t c = 0; c < bel.cal.cols(); ++c) {
      bel.cal(r, c) =
          cdouble{1.0, 0.0} + rng.cgaussian(config_.calibration_std *
                                            config_.calibration_std);
    }
  }
  derive_beliefs(rev_chan, bel, rng);
}

std::size_t World::belief_gaussians(std::size_t a, std::size_t b) const {
  // Two per complex entry: the calibration matrix and, unless estimation
  // noise is off, one noise matrix per subcarrier.
  const std::size_t entries = nodes_[a].n_antennas * nodes_[b].n_antennas;
  const std::size_t matrices =
      1 + (config_.estimation_noise_scale > 0.0 ? kSubcarriers : 0);
  return 2 * entries * matrices;
}

void World::flush_belief(Pair& p, std::size_t a, std::size_t b) const {
  Belief& bel = p.belief[a > b];
  // The channel b -> a at construction: the pair's own matrices unless
  // advance() has changed its taps since.
  std::vector<CMat> fwd;
  std::vector<CMat> rev;
  if (p.built_taps) {
    fwd.resize(kSubcarriers);
    rev.resize(a < b ? kSubcarriers : 0);
    p.built_taps->freq_responses_into(twiddles_, fwd.data(),
                                      a < b ? rev.data() : nullptr);
  } else if (p.stale) {
    materialize(p);
  }
  const std::vector<CMat>& built = p.built_taps ? (a < b ? rev : fwd)
                                                : (a < b ? p.rev : p.fwd);
  measure_belief(bel, a, b, built, *bel.pending);
  bel.pending.reset();
  if (!p.belief[0].pending && !p.belief[1].pending) p.built_taps.reset();
}

void World::derive_beliefs(const std::vector<CMat>& rev_chan, Belief& bel,
                           util::Rng& rng) const {
  bel.sc.resize(kSubcarriers);
  for (std::size_t s = 0; s < kSubcarriers; ++s) {
    CMat est = rev_chan[s];  // M_a x N_b
    add_estimation_noise(est, rng);
    CMat& belief = bel.sc[s];  // N_b x M_a: transposed, times calibration
    belief.resize(est.cols(), est.rows());
    for (std::size_t r = 0; r < est.rows(); ++r) {
      for (std::size_t c = 0; c < est.cols(); ++c) {
        belief(c, r) = est(r, c) * bel.cal(c, r);
      }
    }
  }
}

const CMat& World::channel(std::size_t a, std::size_t b,
                           std::size_t sc) const {
  assert(sc < kSubcarriers);
  const Pair& p = pair_with_channel(a, b);
  return (a < b ? p.fwd : p.rev)[sc];
}

double World::link_snr_db(std::size_t a, std::size_t b) const {
  if (a == b || !pair_active(roles_, a, b)) return -300.0;
  Pair& p = pair(a, b);
  // An eager SNR is the realized channel power: flush a stale channel.
  if (p.stale && !config_.lazy_channels) materialize(p);
  if (!p.snr_db) {
    // The link budget (pathloss + shadowing) is the FIRST draw of the
    // pair's stream — the same draw make_channel consumes first — so the
    // channel materialized later realizes exactly this shadowing. Like a
    // late channel, the budget re-realizes that draw at the current
    // geometry and carries the shadowing drift accumulated by advances
    // before this first read, so the advertised SNR never depends on
    // whether the channel or the SNR was touched first.
    util::Rng stream = lazy_stream(pair_key(a, b));
    const double gain = testbed_.link_gain(
        locations_[std::min(a, b)], locations_[std::max(a, b)], stream);
    p.snr_db = util::to_db(std::max(gain, 1e-30) / noise_power_) -
               p.dyn.shadow_offset_db();
  }
  return *p.snr_db;
}

CMat World::estimate(const CMat& true_channel) const {
  CMat est = true_channel;
  add_estimation_noise(est, rng_);
  return est;
}

const CMat& World::reciprocal_channel(std::size_t a, std::size_t b,
                                      std::size_t sc) const {
  assert(sc < kSubcarriers);
  // Fires if a sparse world is asked for a belief it never materializes.
  assert(belief_active(roles_, a, b));
  Pair& p = pair_with_channel(a, b);
  Belief& bel = p.belief[a > b];
  if (bel.pending) {
    flush_belief(p, a, b);
  } else if (bel.sc.empty()) {
    // Lazy: drawn from the directed pair's own stream.
    const std::uint64_t n = nodes_.size();
    util::Rng stream = lazy_stream(n * n + a * n + b);
    measure_belief(bel, a, b, a < b ? p.rev : p.fwd, stream);
  }
  return bel.sc[sc];
}

// --- Dynamics -----------------------------------------------------------

const channel::Location& World::node_position(std::size_t node) const {
  assert(node < locations_.size());
  return testbed_.location(locations_[node]);
}

void World::materialize(Pair& p) const {
  p.fwd.resize(kSubcarriers);
  p.rev.resize(kSubcarriers);
  p.taps.freq_responses_into(twiddles_, p.fwd.data(), p.rev.data());
  p.stale = false;
  if (config_.lazy_channels) return;
  // Eager pre-cancellation link SNR (mean channel entry power / noise). It
  // averages the realized fading, so under advance() it tracks the evolved
  // channel, not just the budget.
  double power = 0.0;
  std::size_t cnt = 0;
  for (const CMat& h : p.fwd) {
    for (std::size_t r = 0; r < h.rows(); ++r) {
      for (std::size_t c = 0; c < h.cols(); ++c) {
        power += std::norm(h(r, c));
        ++cnt;
      }
    }
  }
  p.snr_db = util::to_db(
      std::max(power / static_cast<double>(cnt), 1e-30) / noise_power_);
}

void World::advance(const std::vector<channel::Location>& positions,
                    const std::vector<double>& node_speed_mps, double dt_s,
                    const channel::EvolutionConfig& evolution,
                    util::Rng& rng) {
  const std::size_t n = nodes_.size();
  assert(positions.size() == n);
  assert(node_speed_mps.size() == n);
  if (dt_s <= 0.0) return;

  // Per-node displacement drives shadowing decorrelation; capture it before
  // committing the move.
  std::vector<double> disp(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const channel::Location& old = testbed_.location(locations_[i]);
    disp[i] = std::hypot(positions[i].x_m - old.x_m,
                         positions[i].y_m - old.y_m);
  }

  for (std::size_t i = 0; i < n; ++i) {
    testbed_.move_location(locations_[i], positions[i]);
  }

  const channel::PathLossModel& pl = testbed_.path_loss();
  // Fixed key order (std::map), so the draw sequence never depends on the
  // order in which rounds happened to touch pairs.
  for (auto& [key, p] : pairs_) {
    const std::size_t lo = static_cast<std::size_t>(key / n);
    const std::size_t hi = static_cast<std::size_t>(key % n);
    PairDyn& dyn = p.dyn;

    // Large scale: deterministic median-path-loss change plus anchored
    // Gudmundson shadowing (draws only if something moved). The pair's
    // total shadowing is anchor * s0 + delta; one AR(1) step at rho_s
    // decays the anchor and refreshes delta so total variance stays at
    // the path-loss model's sigma^2 exactly (see PairDyn).
    double gain_delta_db = 0.0;
    const double moved = disp[lo] + disp[hi];
    if (moved > 0.0) {
      const double d_new = testbed_.distance_m(locations_[lo],
                                               locations_[hi]);
      const double rho_s =
          channel::shadow_rho(moved, evolution.shadow_decorr_m);
      const double anchor_new = rho_s * dyn.shadow_anchor;
      const double delta_new =
          rho_s * dyn.shadow_delta_db +
          std::sqrt(std::max(0.0, 1.0 - rho_s * rho_s)) *
              rng.gaussian(0.0, pl.shadowing_sigma_db);
      gain_delta_db =
          pl.median_loss_db(dyn.prev_dist_m) - pl.median_loss_db(d_new) +
          (dyn.shadow_anchor - anchor_new) * dyn.shadow_s0_db +
          (dyn.shadow_delta_db - delta_new);
      dyn.shadow_anchor = anchor_new;
      dyn.shadow_delta_db = delta_new;
      dyn.prev_dist_m = d_new;
    }

    // Small scale: one Gauss-Markov step at the Jakes-matched rho.
    const double fd =
        evolution.env_doppler_hz +
        channel::doppler_hz(node_speed_mps[lo] + node_speed_mps[hi],
                            evolution.carrier_hz);
    const double rho_d = channel::doppler_rho(fd, dt_s);

    // A lazy pair read only through its SNR has no taps yet: its channel
    // materializes later with the accumulated drift folded in. A pair whose
    // taps change is only marked stale: the DFT draws nothing and depends
    // only on the final taps, so the pair's next read runs it. A pending
    // belief measures the construction channel, so the first change of the
    // taps while one is pending keeps a copy of them.
    const bool has_taps = p.taps.n_rx() > 0;
    const auto keep_built_taps = [&p] {
      if (!p.built_taps && (p.belief[0].pending || p.belief[1].pending)) {
        p.built_taps = p.taps;
      }
    };
    if (has_taps && rho_d < 1.0) {
      keep_built_taps();
      p.taps.evolve(rho_d, rng);
      p.stale = true;
    }
    // lint:allow float-equal: exact-zero delta is the draw-free no-op guard
    if (gain_delta_db != 0.0) {
      if (has_taps) {
        keep_built_taps();
        p.taps.scale_gain(util::from_db(gain_delta_db));
        p.stale = true;
      }
      // A lazy link SNR is a budget number: it shifts by the large-scale
      // delta (fading evolution leaves the budget untouched). An eager one
      // is recomputed when the stale channel is next rematerialized.
      if (p.snr_db) *p.snr_db += gain_delta_db;
    }
  }
}

void World::refresh_csi(std::size_t a, std::size_t b, util::Rng& rng) {
  assert(a != b);
  // A belief never measured (masked out, or lazy and not yet read) stays
  // unmeasured and draws nothing. A pending one is measured first, which
  // draws its calibration error from its own saved stream.
  const auto it = pairs_.find(pair_key(a, b));
  if (it == pairs_.end()) return;
  Pair& p = it->second;
  Belief& bel = p.belief[a > b];
  if (bel.pending) {
    flush_belief(p, a, b);
  } else if (bel.sc.empty()) {
    return;
  }
  if (p.stale) materialize(p);
  derive_beliefs(a < b ? p.rev : p.fwd, bel, rng);
}

}  // namespace nplus::sim
