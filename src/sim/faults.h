// Deterministic fault injection + the failure-aware MAC state it drives.
//
// The paper's §4 covers PHY impairments only, but n+'s control plane is the
// fragile part: joiners learn the occupied subspace by *overhearing* data
// and ACK headers (§3.3–3.5), senders learn about delivery from ACKs, and
// precoders are built from CSI measurements — all of which can be lost in a
// real deployment. This module injects those failures deterministically and
// carries the recovery machinery 802.11 actually has:
//
//  * lost/corrupted overheard headers — a joiner that missed the winner's
//    data/ACK header cannot estimate the occupied subspace. With
//    header_fallback_defer (the graceful-degradation default) it defers for
//    the whole transmission, exactly like stock 802.11 — which is why
//    degraded n+ never does worse than the 802.11n baseline. With the
//    fallback off it joins "blind" (no nulling constraints toward ongoing
//    receivers), modelling the collide-risk alternative.
//  * lost ACKs — the frame arrived but the sender cannot know; it waits the
//    ACK timeout (mac::ack_timeout_s) and retransmits a frame the receiver
//    already has (the classic double-delivery: throughput counts it,
//    goodput does not).
//  * per-frame retry chains — every un-ACKed frame is retried with binary
//    exponential CW escalation (the retrying transmitter contends with its
//    doubled window) up to retry_limit, then dropped.
//  * CSI-measurement failures — refresh_csi silently fails; the belief
//    keeps aging instead of being re-measured.
//  * transient node outages — nodes crash and restart as a Poisson up/down
//    process; their links vanish from contention, and the time from
//    restart to the link's next ACKed frame is the recovery time.
//  * degenerate channels — a link's CSI measurement comes back as garbage
//    (NaN); the round's eSNR sanitizer clamps it, rate selection fails,
//    and the link defers instead of transmitting nonsense.
//
// Determinism contract: every draw comes from the injector's own RNG
// stream, forked from the session stream at session start, and every hook
// is called in a fixed order (links/nodes by index, transmitters in
// contention-population order) — so faulty sessions are bit-identical
// across thread counts just like healthy ones. With FaultConfig::enabled()
// == false no injector is ever constructed and no extra draw is made: the
// faults-off path is bit-identical to the pre-fault engine (golden-trace
// fixtures pin this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mac/dcf.h"
#include "sim/round.h"
#include "util/rng.h"
#include "util/stats.h"

namespace nplus::sim {

struct FaultConfig {
  // Master switch for the failure-aware MAC (retry chains, ACK timeouts,
  // goodput accounting) even when every injection rate below is zero —
  // i.e. "real 802.11 recovery over the natural channel losses only".
  // Any non-zero rate below also enables it (see enabled()).
  bool mac_recovery = false;

  // P(a joiner fails to decode the overheard data/ACK headers of the
  // ongoing transmission), drawn once per candidate joiner per round.
  double header_loss_rate = 0.0;
  // true: a joiner that missed the headers defers (graceful degradation —
  // it behaves like stock 802.11 for this transmission). false: it joins
  // blind, with no nulling constraints toward ongoing receivers.
  bool header_fallback_defer = true;

  // P(the concurrent ACK is lost on the return path | frame delivered).
  double ack_loss_rate = 0.0;
  // P(a physically delivered frame is corrupted anyway) — payload-level
  // loss on top of the channel model; the knob that makes retry-chain
  // statistics analytically checkable (geometric with this rate).
  double frame_loss_rate = 0.0;
  // P(one refresh_csi measurement fails; the stale belief is kept).
  double csi_failure_rate = 0.0;
  // P(a link's CSI comes back degenerate (NaN) this round), memoized per
  // (round, link): rate selection sees clamped garbage and the link
  // defers. Exercises the eSNR NaN guards end to end.
  double degenerate_channel_rate = 0.0;

  // Node crash/restart as a Poisson up->down / down->up process (Hz).
  double node_outage_hz = 0.0;
  double node_recovery_hz = 2.0;  // mean restart time 0.5 s

  // Frames are attempted 1 + retry_limit times, then dropped.
  int retry_limit = 7;

  bool enabled() const {
    return mac_recovery || header_loss_rate > 0.0 || ack_loss_rate > 0.0 ||
           frame_loss_rate > 0.0 || csi_failure_rate > 0.0 ||
           degenerate_channel_rate > 0.0 || node_outage_hz > 0.0;
  }

  // Throws std::invalid_argument on NaN, out-of-range probabilities,
  // negative rates, or a negative retry limit.
  void validate() const;
};

// Session-level failure/recovery counters (SessionResult::faults).
struct FaultStats {
  std::size_t frames_completed = 0;  // frames ACKed (after any retries)
  std::size_t frames_dropped = 0;    // retry limit exceeded
  std::size_t retransmissions = 0;   // transmissions that were retries
  std::size_t ack_losses = 0;        // delivered frames whose ACK was lost
  std::size_t header_deferrals = 0;  // joiners that missed headers + deferred
  std::size_t blind_joins = 0;       // joiners that missed headers + joined
  std::size_t csi_failures = 0;      // refresh_csi measurements that failed
  std::size_t degenerate_esnr = 0;   // non-finite eSNR observations clamped
  std::size_t outages = 0;           // node crash events
  // retry_histogram[k]: frames that completed after exactly k retries
  // (size retry_limit + 1; dropped frames are counted separately).
  std::vector<std::size_t> retry_histogram;
  util::RunningStats outage_s;    // crash-to-restart durations
  util::RunningStats recovery_s;  // link restart -> next ACKed frame
};

// Per-session fault plan + recovery state. One instance per session, fed by
// one forked RNG stream; the session calls the session-scope hooks, the
// round builder the round-scope ones (via RoundConfig::faults).
class FaultInjector {
 public:
  // `rng` is consumed by value: the injector owns its stream outright so
  // nothing else can interleave draws with it.
  FaultInjector(const FaultConfig& cfg, const Scenario& scenario,
                util::Rng rng, const mac::DcfConfig& dcf = {});

  const FaultConfig& config() const { return cfg_; }

  // --- Session-scope hooks ----------------------------------------------

  // Clears per-round memos (degenerate-channel verdicts). Call before
  // every round.
  void begin_round();

  // Advances the node up/down Poisson process by dt_s (nodes in index
  // order). now_s stamps outage starts for duration accounting.
  void advance_outages(double dt_s, double now_s);

  bool node_up(std::size_t node) const { return up_[node] != 0; }

  // Zeroes mask entries of links with a crashed endpoint and arms the
  // recovery clock of links that just came back (blocked -> unblocked).
  void apply_outage_mask(std::vector<std::uint8_t>& mask, double now_s);

  // Realizes one transmitted frame's physical fate. Abstracted fidelity
  // passes realized_fidelity = false and `per` is the expected PER (one
  // Bernoulli draw); full-PHY passes true and `per` is the realized
  // per-stream failure fraction (majority verdict, no draw). The
  // frame_loss_rate corruption draw applies on top in both modes.
  bool realize_delivery(double per, bool realized_fidelity);

  struct FrameVerdict {
    bool delivered = false;  // reached the receiver this transmission
    bool acked = false;      // sender saw the ACK (frame completes)
    bool duplicate = false;  // receiver already had it (earlier ACK loss)
    bool dropped = false;    // retry limit exceeded; frame abandoned
  };

  // Updates the link's retry chain for one transmission and returns what
  // happened. Draws the ACK-loss Bernoulli when the frame was delivered.
  FrameVerdict on_frame(std::size_t link_idx, bool phys_delivered,
                        double now_s);

  // One refresh_csi measurement: false = measurement failed, keep the
  // stale belief (counted). Draw-free when csi_failure_rate == 0.
  bool csi_measurement_ok();

  // --- Round-scope hooks (RoundBuilder / the 802.11n baseline round) ----

  // One draw per candidate joiner per round: can `tx_node` decode the
  // ongoing transmission's headers? Misses are counted as deferrals or
  // blind joins depending on header_fallback_defer.
  bool joiner_overhears(std::size_t tx_node);
  bool defer_on_header_loss() const { return cfg_.header_fallback_defer; }

  // Memoized per (round, link): is this link's CSI degenerate this round?
  bool channel_degenerate(std::size_t link_idx);

  // Contention window the transmitter contends with: cw_min, or the
  // largest escalated window among its links' pending retries.
  int cw_for_tx(std::size_t tx_node) const;
  // Fast path: no link is currently retrying, every CW is cw_min.
  bool cw_escalated() const { return n_retrying_ > 0; }

  const FaultStats& stats() const { return stats_; }
  // Degenerate-eSNR observations are counted by the round builder
  // (sanitize_sinrs); the session folds them in here.
  void add_degenerate_esnr(std::size_t n) { stats_.degenerate_esnr += n; }

 private:
  struct LinkState {
    int retries = 0;           // failed attempts of the current frame
    int cw = 15;               // window the next attempt contends with
    bool delivered_once = false;  // frame reached rx but was never ACKed
    double recovery_since = -1.0;  // outage ended, no ACKed frame yet
    bool blocked = false;      // an endpoint is currently down
  };

  void complete_frame(LinkState& st, bool dropped, double now_s);

  FaultConfig cfg_;
  mac::DcfConfig dcf_;
  util::Rng rng_;
  std::vector<Link> links_;                        // endpoint lookup
  std::vector<std::vector<std::size_t>> tx_links_;  // node -> link indices
  std::vector<LinkState> link_state_;
  std::size_t n_retrying_ = 0;
  std::vector<std::uint8_t> up_;       // node up/down
  std::vector<double> down_since_;     // outage start per node
  std::vector<signed char> degen_memo_;  // -1 undrawn / 0 / 1, per link
  FaultStats stats_;
};

}  // namespace nplus::sim
