#include "baselines/beamforming.h"

namespace nplus::baselines {

sim::RoundFn make_beamforming_round_fn(const sim::Scenario& scenario,
                                       const sim::RoundConfig& config) {
  return [&scenario, config](const sim::World& world,
                             util::Rng& rng) -> sim::GenericRound {
    sim::GenericRound out;
    out.delivered_bits.assign(scenario.links.size(), 0.0);

    const std::vector<std::size_t> txs = scenario.transmitters();
    const std::size_t tx =
        txs[rng.uniform_int(static_cast<std::uint32_t>(txs.size()))];
    const std::vector<std::size_t> links = scenario.links_of(tx);

    // Stream split: round-robin up to the transmitter's antennas, capped by
    // each receiver's antennas.
    std::vector<std::size_t> caps;
    for (std::size_t li : links) {
      caps.push_back(world.antennas(scenario.links[li].rx_node));
    }
    const std::vector<std::size_t> streams =
        sim::round_robin_streams(world.antennas(tx), caps);

    sim::IsolatedTxSpec spec;
    spec.tx_node = tx;
    for (std::size_t d = 0; d < links.size(); ++d) {
      if (streams[d] == 0) continue;
      spec.dests.push_back(sim::IsolatedDest{
          links[d], scenario.links[links[d]].rx_node, streams[d]});
    }
    spec.mu_beamforming = spec.dests.size() > 1;

    const sim::IsolatedTxResult res =
        sim::evaluate_isolated_tx(world, spec, rng, config);

    out.duration_s = res.airtime_s;
    if (config.include_overheads) {
      out.duration_s +=
          config.airtime.timing.difs_s +
          rng.uniform_int(0, 15) * config.airtime.timing.slot_s;
    }
    for (std::size_t d = 0; d < spec.dests.size(); ++d) {
      out.delivered_bits[spec.dests[d].link_idx] =
          res.outcomes[d].delivered_bits;
    }
    return out;
  };
}

}  // namespace nplus::baselines
