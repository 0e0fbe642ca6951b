// One n+ transmission round at packet level (§3.1).
//
// A round = primary contention -> first winner's light-weight handshake ->
// secondary contentions/handshakes of each joiner (staggered, as in §6.3's
// experiment) -> concurrent data bodies that all end with the first winner's
// packet -> SIFS -> concurrent ACKs.
//
// The builder walks the winner order, applies the DoF bookkeeping
// (Claim 3.2), the L-threshold admission/power-control rule (§4), computes
// per-subcarrier nulling/alignment precoders from reciprocity-derived
// channel estimates (§3.3), selects each joiner's bitrate from its
// post-projection effective SNR at join time (§3.4), and finally scores
// every link's delivery against the SINR that *actually* materialized once
// all joiners were on the air (residual nulling/alignment error included).
#pragma once

#include <optional>
#include <vector>

#include "mac/airtime.h"
#include "mac/contention.h"
#include "nulling/admission.h"
#include "phy/link_abstraction.h"
#include "phy/rate_control.h"
#include "sim/rx_math.h"
#include "sim/world.h"

namespace nplus::sim {

class FaultInjector;  // sim/faults.h (which includes this header)

// Simulation fidelity of delivery scoring (see phy/link_abstraction.h).
// Both levels share the identical protocol path — contention, admission,
// precoding, rate selection — and consume the caller's RNG stream
// identically, so a (world, scenario, seed) triple produces the same winner
// orders, bitrates, and airtimes in either mode; only how each stream's
// delivery is scored differs:
//   kAbstracted — calibrated eSNR -> PER table, expected delivered bits.
//   kFullPhy    — each stream's payload actually transmitted through the
//                 codec chain at the measured per-subcarrier SINRs; the
//                 CRC verdict of that one realization decides delivery.
enum class Fidelity {
  kAbstracted,
  kFullPhy,
};

// A traffic demand: tx_node wants to send to rx_node. Several links may
// share a transmitter (the Fig. 4 AP scenario).
struct Link {
  std::size_t tx_node = 0;
  std::size_t rx_node = 0;
};

struct Scenario {
  std::vector<NodeSpec> nodes;
  std::vector<Link> links;

  // Distinct transmitter nodes, in first-appearance order.
  std::vector<std::size_t> transmitters() const;
  // Link indices whose transmitter is `tx`.
  std::vector<std::size_t> links_of(std::size_t tx) const;
};

struct RoundConfig {
  // One packet (as in the paper: winners transmit a 1500-byte packet over
  // however many streams they use; joiners fragment/aggregate to fill the
  // winner's airtime).
  std::size_t packet_bytes = 1500;
  mac::AirtimeConfig airtime{};
  nulling::AdmissionConfig admission{};
  // Rate-selection headroom (dB) absorbing residual error added by joiners
  // that arrive after the rate is locked (§3.4).
  double rate_margin_db = 1.0;
  // true: charge contention, light-weight handshakes and ACKs to the round
  // and delay joiners' bodies accordingly (realistic MAC accounting).
  // false: body-phase throughput as in the paper's §6.3 experiments, where
  // the GNURadio prototype staggers all RTS/CTS *before* the concurrent
  // bodies and measures delivered bits over the data phase (it implements
  // neither ACKs nor inline contention), quoting the handshake overhead
  // (~4%) separately.
  bool include_overheads = true;
  // true: run real DCF backoff for each contention round; false: pick the
  // winner order uniformly at random (the paper's §6.3 methodology) and
  // charge average contention time.
  bool dcf_contention = false;
  // Delivery-scoring fidelity (see the enum above). The fast abstracted
  // path is the default; kFullPhy is the reference mode the abstraction is
  // validated against (tests/test_fidelity.cc) at ~10-100x the cost.
  Fidelity fidelity = Fidelity::kAbstracted;
  // PER table for kAbstracted; nullptr = LinkAbstraction::calibrated()
  // (the checked-in offline calibration). Tests inject custom tables here.
  const phy::LinkAbstraction* link_abstraction = nullptr;
  // History-driven MCS adaptation (AARF): when set, links transmit at the
  // controller's per-link rate instead of the oracle eSNR pick — the
  // realistic policy for dynamic networks, where no transmitter knows its
  // current post-projection SNR. The caller (a session) owns the
  // controller, feeds it delivery outcomes after each round, and keeps it
  // alive across rounds; nullptr = oracle selection (the paper's §3.4).
  phy::RateController* rate_control = nullptr;
  // Fault-injection hooks (sim/faults.h): lost overheard headers gate who
  // may join, degenerate-channel verdicts poison rate selection, and retry
  // chains escalate the contention windows. The owning session wires this;
  // nullptr (the default) is the fault-free path, draw-for-draw identical
  // to the pre-fault engine.
  FaultInjector* faults = nullptr;
};

struct LinkOutcome {
  std::size_t streams = 0;
  int mcs_index = -1;            // -1: link did not transmit (or no rate)
  double esnr_db = -100.0;       // ESNR at rate-selection time
  double final_esnr_db = -100.0; // ESNR with every joiner on the air
  // kAbstracted: mean per-stream PER from the calibrated table.
  // kFullPhy: realized fraction of this link's streams that failed CRC.
  double per = 1.0;
  double delivered_bits = 0.0;
  // Bits put on the air by this link (delivered or not): what one whole
  // frame is worth. The failure-aware session scores throughput/goodput
  // frame by frame from this instead of the expected-value delivered_bits.
  double offered_bits = 0.0;
};

struct RoundResult {
  double duration_s = 0.0;
  std::size_t total_streams = 0;
  std::vector<std::size_t> winner_order;  // tx nodes, join order
  std::vector<LinkOutcome> links;         // indexed like Scenario::links
  // Non-finite post-equalization SINR observations clamped to zero this
  // round (near-singular evolved channels, injected degenerate CSI).
  std::size_t degenerate_esnr = 0;
};

// Runs one full n+ round. `active_links` (optional; indexed like
// Scenario::links) restricts the round to links whose entry is non-zero —
// the session-churn hook: flows that departed and nodes that left simply
// stop appearing in contention. nullptr (or all-non-zero) reproduces the
// unrestricted round exactly, RNG draw for RNG draw.
RoundResult run_nplus_round(const World& world, const Scenario& scenario,
                            util::Rng& rng, const RoundConfig& config,
                            const std::vector<std::uint8_t>* active_links =
                                nullptr);

// Splits up to `budget` streams over destinations round-robin, one stream
// per destination per pass, destination d taking at most caps[d]: the
// stream counts, parallel to caps. Shared by n+ joins and the beamforming
// baseline.
std::vector<std::size_t> round_robin_streams(
    std::size_t budget, const std::vector<std::size_t>& caps);

// --- Shared helper for the baselines -----------------------------------
//
// Evaluates a transmission that owns the whole medium (no concurrency):
// used by the 802.11n baseline (single link, direct mapping) and the
// multi-user beamforming baseline (one AP zero-forcing to several clients,
// Aryafar et al. [7]).
struct IsolatedDest {
  std::size_t link_idx = 0;
  std::size_t rx_node = 0;
  std::size_t n_streams = 1;
};

struct IsolatedTxSpec {
  std::size_t tx_node = 0;
  std::vector<IsolatedDest> dests;
  // true: transmit-side zero-forcing across dests (beamforming baseline);
  // false: direct antenna mapping (single dest only).
  bool mu_beamforming = false;
};

struct IsolatedTxResult {
  double airtime_s = 0.0;
  std::vector<LinkOutcome> outcomes;  // parallel to spec.dests
  std::size_t degenerate_esnr = 0;    // as RoundResult::degenerate_esnr
};

IsolatedTxResult evaluate_isolated_tx(const World& world,
                                      const IsolatedTxSpec& spec,
                                      util::Rng& rng,
                                      const RoundConfig& config);

}  // namespace nplus::sim
