// The packet-level "world": nodes placed on the testbed with fully drawn
// per-subcarrier MIMO channels between every node pair, plus the two error
// processes that bound real-world nulling depth:
//   * estimation error — every channel estimate from a preamble carries
//     CN(0, noise/2) noise per entry (LS estimation over the two LTF
//     repetitions);
//   * reciprocity calibration error — channels inferred from overheard
//     transmissions in the opposite direction additionally carry a small
//     multiplicative error left over after hardware calibration (§2
//     footnote 2; this is what caps cancellation at the paper's ~25-27 dB).
//
// The signal-level plane (channel::Scene + phy::transceiver) reproduces
// these effects physically; this class reproduces them statistically so the
// MAC/throughput experiments can run thousands of rounds cheaply.
//
// Worlds may also be DYNAMIC: advance() moves nodes and evolves every
// materialized channel with a Doppler-matched Gauss-Markov step (beliefs
// deliberately go stale; refresh_csi() re-measures one pair) — see the
// "Dynamic networks" section in src/README.md. A world that is never
// advanced behaves exactly as before.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "channel/evolution.h"
#include "channel/mimo_channel.h"
#include "channel/testbed.h"
#include "linalg/mat.h"
#include "util/rng.h"

namespace nplus::sim {

using linalg::CMat;
using linalg::cdouble;

struct NodeSpec {
  std::size_t n_antennas = 1;
};

// Per-node role bits for the sparse world mode (see World constructor).
enum NodeRole : std::uint8_t {
  kRoleTx = 1,  // node transmits on some link
  kRoleRx = 2,  // node receives on some link
};

struct WorldConfig {
  // Residual multiplicative reciprocity-calibration error (std of the
  // complex relative error). 0.045 yields ~27 dB max cancellation.
  double calibration_std = 0.045;
  // Scale on the additive estimation noise (1 = physical LS noise; 0
  // disables estimation error for idealized studies).
  double estimation_noise_scale = 1.0;
  std::size_t fft_size = 64;
  // Lazy mode: draw nothing up front; materialize each pair's channels,
  // reciprocity beliefs, and link SNR on first access. Every pair draws
  // from its own label-forked RNG stream, so results are deterministic and
  // independent of access order — but NOT bit-identical to the eager modes
  // (a different, per-pair stream layout). The eager modes draw the full
  // tx-rx cross product up front (O(N^2) pairs' taps, and skip every
  // belief's 48-subcarrier draws in order); lazy worlds only pay for pairs
  // a round actually touches (winners x receivers, plus scalar SNRs for
  // admission), which is what makes 250/500-pair topologies fit in CI
  // memory and time.
  // Lazy link SNR is the pathloss+shadowing link budget (the same draw that
  // seeds the pair's channel, so the later-materialized channel realizes
  // exactly that shadowing); eager SNR additionally averages the fading
  // realization. Every World mutates on read, lazy or eager (an eager one
  // computes its channels and beliefs on their first reads): do not share
  // one instance across threads (the parallel harness gives each item its
  // own world).
  bool lazy_channels = false;
};

class World {
 public:
  // Places `nodes` at `locations` (testbed location indices) and draws all
  // pairwise channels. The per-subcarrier matrices, link SNRs and
  // reciprocity beliefs are computed on first read, byte-identical to
  // computing them here (see "Deferred eager construction" in
  // src/README.md).
  //
  // `roles` (optional) enables the sparse mode the scenario engine uses for
  // generated large topologies: when non-empty (one NodeRole bitmask per
  // node), only pairs where one endpoint transmits and the other receives
  // get channels, reciprocity beliefs, and link SNRs — everything the round
  // builder ever touches — while rx-rx and tx-tx pairs stay unmaterialized.
  // A full N-node world holds O(N^2) pair records (48 matrices each once
  // read); with N_t transmitters and N_r receivers the sparse world holds
  // O(N_t * N_r), which is what makes 100-pair (200-node) worlds fit in
  // memory. An empty `roles` reproduces the dense behavior (and its RNG
  // stream) exactly. Accessing a channel, belief, or SNR for a masked-out
  // pair is a contract violation (asserted; SNR reads return -300 dB).
  World(const channel::Testbed& testbed, const std::vector<NodeSpec>& nodes,
        const std::vector<std::size_t>& locations, util::Rng& rng,
        const WorldConfig& config = {},
        const std::vector<std::uint8_t>& roles = {});

  std::size_t n_nodes() const { return nodes_.size(); }
  std::size_t antennas(std::size_t node) const {
    return nodes_[node].n_antennas;
  }
  double noise_power() const { return noise_power_; }
  const WorldConfig& config() const { return config_; }

  // True channel from node a to node b on data subcarrier index `sc`
  // (0..47): an (antennas(b) x antennas(a)) matrix.
  const CMat& channel(std::size_t a, std::size_t b, std::size_t sc) const;

  // Mean per-antenna received power at b for a unit-power transmission from
  // one antenna of a (averaged over subcarriers) divided by noise: the
  // pre-cancellation "interference SNR" of Fig. 11's x axis, in dB.
  double link_snr_db(std::size_t a, std::size_t b) const;

  // Draws a fresh receiver-side estimate of an effective channel matrix
  // (adds LS estimation noise; deterministic in the world's RNG stream).
  CMat estimate(const CMat& true_channel) const;

  // The channel from a to b as *node a* can know it: reciprocity from b's
  // overheard transmission, i.e. estimate noise + calibration error.
  // Cached per (a, b): the calibration error is a fixed hardware property.
  // An eager world's belief is the one measured at construction, however
  // many advances pass before its first read.
  //
  // Under dynamics this cache is exactly what goes STALE: advance() evolves
  // the true channels but deliberately leaves beliefs at their
  // last-measured values; refresh_csi() re-measures one directed pair.
  const CMat& reciprocal_channel(std::size_t a, std::size_t b,
                                 std::size_t sc) const;

  // --- Dynamic networks --------------------------------------------------
  // The dynamics engine (sim/mobility.h + channel/evolution.h) drives a
  // world through two mutators. Neither is thread-safe, and neither are
  // the const reads: the first read of a pair after construction or after
  // an advance materializes it, so a world belongs to one session.

  // Current position of a node (meters on the scenario floor).
  const channel::Location& node_position(std::size_t node) const;

  // Advances the physical world by dt_s: moves every node to positions[i],
  // then walks the pair table in key order and applies to each record
  //  * the large-scale update — median path loss at the new distance plus
  //    anchored Gudmundson shadowing: an AR(1) step in dB per traveled
  //    distance that geometrically decays the materialization draw while
  //    injecting matched innovation, keeping total shadowing variance at
  //    exactly the path-loss model's sigma^2 for all time (see PairDyn),
  //    and, if the pair's channel has been read,
  //  * the small-scale update — one Gauss-Markov tap-evolution step at
  //    rho = J0(2*pi*f_d*dt), f_d from the endpoints' realized speeds plus
  //    the config's environmental Doppler floor
  // and, if either step changed the taps, marks the pair stale. Its
  // per-subcarrier matrices (and, eager, its link SNR) are rematerialized
  // from the final taps by the pair's first read: channel(),
  // reciprocal_channel(), an eager link_snr_db() or refresh_csi(). The DFT
  // draws nothing, so deferring it changes no byte. Reciprocity beliefs
  // are NOT refreshed (CSI measured in round t stays pinned until
  // refresh_csi, so it is stale by round t+k). Lazy channels first read
  // later materialize at the then-current geometry, with the pair's
  // accumulated shadowing offset applied, preserving the SNR/channel
  // seeding invariant at materialization time. With zero motion and zero
  // Doppler the call is an exact no-op and consumes no RNG draws.
  // Randomness comes from `rng` only (fork one dynamics stream per
  // session); draw order is the fixed pair-key order, never access order.
  void advance(const std::vector<channel::Location>& positions,
               const std::vector<double>& node_speed_mps, double dt_s,
               const channel::EvolutionConfig& evolution, util::Rng& rng);

  // Re-measures node a's reciprocal belief about the channel a -> b from
  // the channel as it is NOW (fresh estimation noise from `rng`, the pair's
  // fixed calibration error). Sessions call this for pairs that exchanged
  // a handshake/ACK this round; every other belief keeps aging. No-op, and
  // draw-free, for beliefs never measured (masked out, or lazy and unread).
  void refresh_csi(std::size_t a, std::size_t b, util::Rng& rng);

  static constexpr std::size_t kSubcarriers = 48;

 private:
  // Per-pair dynamics state, created with the pair's record. The pair's
  // total shadowing at any time is anchor * s0 + delta: s0 is the realized
  // materialization draw (recovered draw-free by peeking the stream),
  // anchor decays geometrically with traveled distance (Gudmundson rho),
  // and delta is the AR(1) innovation accumulator with variance
  // (1 - anchor^2) * sigma^2 — so total shadowing variance is EXACTLY the
  // path-loss model's sigma^2 at every time, and the correlation with the
  // materialization draw decays to zero (not to a floor).
  struct PairDyn {
    double prev_dist_m = 0.0;
    double shadow_s0_db = 0.0;    // realized shadowing at materialization
    double shadow_anchor = 1.0;   // current weight of s0
    double shadow_delta_db = 0.0; // accumulated innovation
    // Shadowing (dB) currently in effect relative to the materialization
    // draw: what late materializations must fold in.
    double shadow_offset_db() const {
      return (shadow_anchor - 1.0) * shadow_s0_db + shadow_delta_db;
    }
  };

  // Node a's reciprocity belief about the channel a -> b.
  struct Belief {
    // One calibration error per antenna pair (N_b x M_a), fixed for the
    // world's lifetime: hardware doesn't recalibrate because furniture
    // moved, so refresh_csi reuses it.
    CMat cal;
    std::vector<CMat> sc;  // per subcarrier; empty until first measured
    // Eager worlds: the world stream as it stood where the constructor's
    // belief pass reached this belief. The constructor skips the belief's
    // draws on rng_ exactly (belief_gaussians); the first read measures it
    // from this copy, against the channel as it was at construction.
    std::optional<util::Rng> pending;
  };

  // The pair table: one record per unordered node pair lo < hi, keyed
  // lo * n_nodes + hi. An eager world creates every active pair at
  // construction with its taps drawn, its channel stale and its beliefs
  // pending; a lazy world creates a record on the pair's first read. Either
  // way each part (channel, link SNR, each belief) is computed on its own
  // first read. std::map is node-based, so the matrices handed out by
  // channel() and reciprocal_channel() stay put across later lazy inserts,
  // and key-ordered, so advance() draws in a fixed order.
  struct Pair {
    PairDyn dyn;
    // Tap-domain channel lo -> hi: the state Gauss-Markov evolution
    // operates on. Empty for a lazy pair whose channel was never read.
    channel::MimoChannel taps{std::vector<std::vector<channel::Samples>>{}};
    // The taps as they were at construction, kept by advance() when it
    // first changes them while a belief is still pending (a pending belief
    // measures the construction channel); dropped once none is.
    std::optional<channel::MimoChannel> built_taps;
    std::vector<CMat> fwd;  // lo -> hi per subcarrier; empty until read
    std::vector<CMat> rev;  // hi -> lo: the exact transpose (reciprocity)
    // Eager: mean realized channel power. Lazy: the link budget, shifted by
    // advance(); unset until read.
    std::optional<double> snr_db;
    // Set by the eager constructor, and by advance() when it changed the
    // taps: fwd, rev and an eager snr_db are empty or hold the previous
    // taps' values until materialize() runs, which every read of them does
    // first.
    bool stale = false;
    Belief belief[2];  // [0]: lo's about lo -> hi; [1]: hi's about hi -> lo
  };

  std::uint64_t pair_key(std::size_t a, std::size_t b) const;
  // A lazy child stream: lazy_base_ itself never advances, so the stream
  // depends only on the label, never on access order.
  util::Rng lazy_stream(std::uint64_t label) const;
  // The record of pair {a, b}; a lazy world creates it on first touch.
  Pair& pair(std::size_t a, std::size_t b) const;
  // pair(a, b) with its channel materialized.
  Pair& pair_with_channel(std::size_t a, std::size_t b) const;
  // Dynamics ledger entry of a new pair, peeked from `stream`: the pair's
  // channel stream, whose first draw is the link budget.
  PairDyn new_dyn(std::size_t lo, std::size_t hi, util::Rng& stream) const;

  // Adds LS estimation noise to every entry of m, in row-major order, from
  // `rng`: estimate() passes the world's own stream, belief derivation an
  // explicit one.
  void add_estimation_noise(CMat& m, util::Rng& rng) const;
  // Draws a's calibration error about a -> b, then measures its beliefs
  // from rev_chan, the channel b -> a.
  void measure_belief(Belief& bel, std::size_t a, std::size_t b,
                      const std::vector<CMat>& rev_chan,
                      util::Rng& rng) const;
  // The number of gaussian() draws measure_belief makes for a's belief
  // about a -> b.
  std::size_t belief_gaussians(std::size_t a, std::size_t b) const;
  // Measures a's pending belief about a -> b from its saved stream and the
  // construction channel, then drops the pair's construction taps if no
  // belief of it is pending any more.
  void flush_belief(Pair& p, std::size_t a, std::size_t b) const;
  // Belief from the current reverse channel + the fixed calibration matrix,
  // written into bel.sc (reusing its matrices): shared by measure_belief
  // and refresh_csi.
  void derive_beliefs(const std::vector<CMat>& rev_chan, Belief& bel,
                      util::Rng& rng) const;
  // The one channel-materialization path: writes p's kSubcarriers forward
  // matrices and their exact transposes in place from its taps, and in an
  // eager world its link SNR; clears p.stale.
  void materialize(Pair& p) const;

  std::vector<NodeSpec> nodes_;
  WorldConfig config_;
  double noise_power_;
  mutable util::Rng rng_;
  // DFT twiddles of the data subcarriers on config_.fft_size's grid.
  channel::SubcarrierTwiddles twiddles_;

  // Geometry (all modes; the dynamics engine moves testbed_ locations).
  channel::Testbed testbed_{std::vector<channel::Location>{}};
  std::vector<std::size_t> locations_;
  std::vector<std::uint8_t> roles_;

  mutable std::map<std::uint64_t, Pair> pairs_;
  util::Rng lazy_base_{0, 0};  // lazy mode: copied, never advanced, per fork
};

}  // namespace nplus::sim
