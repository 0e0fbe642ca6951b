// perfbench-probe: the benchmark's single-threaded layer probe.
//
// perfbench/run.py times whole sweeps with `nplus-bench`; this program
// explains them. It reads the same workload config (nplus-bench's
// `key = value` format), rebuilds the sweep items exactly as nplus-bench
// does, and replays the runner's stream layout — item i uses
// Rng(seed).fork(i + 1), then fork(1) for the topology, fork(2) for the
// world and fork(3) for the session — so its per-item SessionResults must
// equal the timed sweep's (run.py checks that).
//
//   perfbench-probe host
//   perfbench-probe setup CONFIG --seed N --budget-ms B
//   perfbench-probe trace CONFIG --seed N [--spans FILE]
//
// `setup` times generate_topology + make_world for every item, pass after
// pass until B milliseconds have gone and at least kMinSetupPasses passes
// are done. `trace` runs each item's session, then times the public entry
// points of every layer on inputs taken from that item's own world (its
// antenna mix, channels and round config). Every probe runs a fixed number
// of calls, so its call count repeats exactly for a given config and seed.
// A layer the item's session never calls — the codec on an abstracted
// item, World::advance on a static one — is not timed on that item: it gets
// an empty zero-call span instead, so on a workload that never calls it
// the layer reads near zero (the timer's own cost) and stays flat when that
// layer gets faster. Spans are recorded from this file only, around the
// calls into the library; nothing inside src/ is instrumented. Results are
// one JSON object on stdout.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "linalg/decomp.h"
#include "linalg/simd/dispatch.h"
#include "linalg/subspace.h"
#include "mac/dcf.h"
#include "nulling/admission.h"
#include "nulling/precoder.h"
#include "phy/constellation.h"
#include "phy/conv_code.h"
#include "phy/esnr.h"
#include "phy/link_abstraction.h"
#include "phy/mcs.h"
#include "phy/rate_control.h"
#include "sim/mobility.h"
#include "sim/rx_math.h"
#include "sim/scenario_gen.h"
#include "sim/session.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using namespace nplus;
using Clock = std::chrono::steady_clock;
using linalg::CMat;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "perfbench-probe: %s\n", why.c_str());
  std::exit(2);
}

// --- Workload config -------------------------------------------------------
// The subset of nplus-bench's config keys the benchmark workloads use, mapped
// onto sim::SweepItem exactly as bench/nplus_bench.cc maps them. A key this
// probe does not know is an error, so a workload cannot silently diverge
// from the sweep nplus-bench runs.

struct Workload {
  std::size_t rounds = 40;
  std::size_t worlds_per_point = 1;
  std::vector<std::size_t> n_links = {3};
  std::vector<std::string> placement = {"uniform"};
  std::vector<std::string> fidelity = {"abstracted"};
  std::string mobility = "static";
  bool lazy_channels = false;
  bool rate_control = false;
  double inter_round_gap_s = 0.0;
  double env_doppler_hz = 0.0;
  double flow_arrival_hz = 0.0;
  double flow_departure_hz = 0.0;
  double node_leave_hz = 0.0;
  double node_return_hz = 0.0;
};

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  return s.substr(b, s.find_last_not_of(" \t\r\n") - b + 1);
}

std::vector<std::string> split(const std::string& v) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = v.find(',', start);
    out.push_back(trim(v.substr(start, comma - start)));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

Workload load_workload(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) fail("cannot open " + path);
  Workload w;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    std::string line = buf;
    line = trim(line.substr(0, line.find('#')));
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) fail(path + ": expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    if (key == "name" || key == "seed") {
      // The name is cosmetic; the seed comes from the command line.
    } else if (key == "rounds") {
      w.rounds = std::stoul(val);
    } else if (key == "worlds_per_point") {
      w.worlds_per_point = std::stoul(val);
    } else if (key == "n_links") {
      w.n_links.clear();
      for (const auto& s : split(val)) w.n_links.push_back(std::stoul(s));
    } else if (key == "placement") {
      w.placement = split(val);
    } else if (key == "fidelity") {
      w.fidelity = split(val);
    } else if (key == "mobility") {
      w.mobility = val;
    } else if (key == "lazy_channels") {
      w.lazy_channels = val == "true";
    } else if (key == "rate_control") {
      w.rate_control = val == "true";
    } else if (key == "inter_round_gap_s") {
      w.inter_round_gap_s = std::stod(val);
    } else if (key == "env_doppler_hz") {
      w.env_doppler_hz = std::stod(val);
    } else if (key == "flow_arrival_hz") {
      w.flow_arrival_hz = std::stod(val);
    } else if (key == "flow_departure_hz") {
      w.flow_departure_hz = std::stod(val);
    } else if (key == "node_leave_hz") {
      w.node_leave_hz = std::stod(val);
    } else if (key == "node_return_hz") {
      w.node_return_hz = std::stod(val);
    } else {
      fail(path + ": key '" + key + "' is not supported by the probe");
    }
  }
  std::fclose(f);
  return w;
}

// Same item construction and flat order as nplus-bench: n_links (outer) x
// placement x fidelity, worlds_per_point items each.
std::vector<sim::SweepItem> make_items(const Workload& w) {
  std::vector<sim::SweepItem> items;
  for (const std::size_t n : w.n_links) {
    for (const std::string& pl : w.placement) {
      for (const std::string& fd : w.fidelity) {
        for (std::size_t k = 0; k < w.worlds_per_point; ++k) {
          sim::SweepItem item;
          item.gen.n_links = n;
          item.gen.placement = pl == "clustered"
                                   ? sim::PlacementMode::kClustered
                                   : sim::PlacementMode::kUniform;
          item.gen.pattern = sim::LinkPattern::kPeerPairs;
          item.gen.tx_mix.weights = {0.35, 0.30, 0.20, 0.15};
          item.gen.rx_mix.weights = {0.35, 0.30, 0.20, 0.15};
          item.world.lazy_channels = w.lazy_channels;
          item.session.n_rounds = w.rounds;
          item.session.snapshot_every = 0;
          item.session.inter_round_gap_s = w.inter_round_gap_s;
          item.session.round.fidelity = fd == "full"
                                            ? sim::Fidelity::kFullPhy
                                            : sim::Fidelity::kAbstracted;
          auto& dyn = item.session.dynamics;
          if (w.mobility == "pedestrian") {
            dyn.mobility.model = sim::MobilityModel::kRandomWaypoint;
          } else if (w.mobility != "static") {
            fail("mobility '" + w.mobility + "' is not supported by the probe");
          }
          dyn.evolution.env_doppler_hz = w.env_doppler_hz;
          dyn.churn.flow_arrival_hz = w.flow_arrival_hz;
          dyn.churn.flow_departure_hz = w.flow_departure_hz;
          dyn.churn.node_leave_hz = w.node_leave_hz;
          dyn.churn.node_return_hz = w.node_return_hz;
          dyn.use_rate_control = w.rate_control;
          items.push_back(std::move(item));
        }
      }
    }
  }
  return items;
}

// The runner's pre-forked per-item stream table.
std::vector<util::Rng::State> stream_table(std::uint64_t seed,
                                           std::size_t n) {
  std::vector<util::Rng::State> table(n);
  util::Rng master(seed);
  for (std::size_t i = 0; i < n; ++i) table[i] = master.fork(i + 1).save();
  return table;
}

// Probe-only RNG stream label, unused by the library's own fork labels.
constexpr std::uint64_t kProbeLabel = 0xBE7C4;

// One item's streams, forked off a fresh copy of its table entry in the
// runner's order (members initialize in declaration order), plus the
// probe's own stream forked after them.
struct ItemStreams {
  explicit ItemStreams(const util::Rng::State& item)
      : ItemStreams(util::Rng::restore(item)) {}
  util::Rng gen, world, session, probe;

 private:
  explicit ItemStreams(util::Rng item)
      : gen(item.fork(1)),
        world(item.fork(2)),
        session(item.fork(3)),
        probe(item.fork(kProbeLabel)) {}
};

// One session in nplus-bench's JSON form (bench/nplus_bench.cc
// json_session), so run.py compares the two byte for byte.
std::string session_json(const sim::SessionResult& s) {
  using util::json_double;
  const auto& q = s.round_duration_q;
  std::string out = "{\"rounds\": " + std::to_string(s.rounds);
  out += ", \"duration_s\": " + json_double(s.duration_s);
  out += ", \"total_mbps\": " + json_double(s.total_mbps);
  out += ", \"goodput_mbps\": " + json_double(s.goodput_mbps);
  out += ", \"jain\": " + json_double(s.jain);
  out += ", \"joins_per_round\": " + json_double(s.mean_winners_per_round);
  out += ", \"streams_per_round\": " + json_double(s.mean_streams_per_round);
  out += ", \"idle_rounds\": " + std::to_string(s.idle_rounds);
  out += ", \"round_s\": {\"mean\": " + json_double(s.round_duration.mean());
  out += ", \"p50\": " + json_double(q.quantile(50.0));
  out += ", \"p95\": " + json_double(q.quantile(95.0));
  out += ", \"p99\": " + json_double(q.quantile(99.0));
  out += ", \"max\": " + json_double(q.max()) + "}}";
  return out;
}

// --- Spans and probe accumulators -------------------------------------------

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  long parent = -1;  // index into the span list; -1 = root
  std::uint64_t calls = 0;
};

// Busy time, call count and span count of one probed public function.
struct Acc {
  double s = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t spans = 0;
  // Per call; per (empty) span when the layer was never called.
  double per_call() const {
    const std::uint64_t n = calls != 0 ? calls : spans;
    return n == 0 ? 0.0 : s / static_cast<double>(n);
  }
};

class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  // Opens a span under `parent`; returns its index.
  long open(const std::string& name, long parent) {
    spans_.push_back({name, now(), 0.0, parent, 0});
    return static_cast<long>(spans_.size()) - 1;
  }
  void close(long span, std::uint64_t calls = 0) {
    spans_[static_cast<std::size_t>(span)].end_s = now();
    spans_[static_cast<std::size_t>(span)].calls = calls;
  }

  // Times `calls` invocations made by `body` as one span, adds the span to
  // the named accumulator, and returns the elapsed seconds.
  template <class Body>
  double time(const std::string& name, long parent, std::uint64_t calls,
              Body&& body) {
    const long span = open(name, parent);
    const auto t = Clock::now();
    body();
    const double dt = since(t);
    Acc& a = acc_[name];
    a.s += dt;
    a.calls += calls;
    ++a.spans;
    close(span, calls);
    return dt;
  }

  // The zero-call span of a layer the item's session never calls.
  void skip(const std::string& name, long parent) {
    time(name, parent, 0, [] {});
  }

  Acc& acc(const std::string& name) { return acc_[name]; }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) fail("cannot write " + path);
    std::fputs("{\"spans\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %ld, "
                   "\"start_s\": %s, \"end_s\": %s, \"calls\": %llu}%s\n",
                   i, s.name.c_str(), s.parent,
                   util::json_double(s.start_s).c_str(),
                   util::json_double(s.end_s).c_str(),
                   static_cast<unsigned long long>(s.calls),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    std::fclose(f);
  }

 private:
  double now() const { return since(t0_); }
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::map<std::string, Acc> acc_;
};

// Sink for probe results, so no timed call is dead code.
double g_sink = 0.0;

// --- Modes -------------------------------------------------------------------

int run_host() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf("{\"simd_target\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\"}\n",
              linalg::simd::target_name(linalg::simd::active_target()),
              util::json_escape(compiler).c_str(), PERFBENCH_BUILD_TYPE);
  return 0;
}

constexpr std::size_t kMinSetupPasses = 4;

int run_setup(const std::vector<sim::SweepItem>& items, std::uint64_t seed,
              double budget_s) {
  const auto table = stream_table(seed, items.size());
  std::string out = "{\"setup_s\": [";
  const auto start = Clock::now();
  for (std::size_t r = 0; r < kMinSetupPasses || since(start) < budget_s;
       ++r) {
    double total = 0.0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      ItemStreams rng(table[i]);
      const auto t = Clock::now();
      const sim::GeneratedTopology topo =
          sim::generate_topology(items[i].gen, rng.gen);
      const sim::World world = sim::make_world(topo, rng.world, items[i].world);
      total += since(t);  // the world is destroyed outside the timed region
      g_sink += world.noise_power();
    }
    out += (r ? ", " : "") + util::json_double(total);
  }
  std::printf("%s]}\n", out.c_str());
  return 0;
}

// Link-level inputs of one probed link: per-subcarrier receiver
// observations as RoundBuilder (sim/round.cc) forms them, for an
// unprecoded stream set (n = min(M, N) streams, no concurrent interferer).
struct LinkInputs {
  std::vector<sim::RxObservation> obs;  // one per data subcarrier
  std::vector<double> sinrs;            // all streams, all subcarriers
};

LinkInputs link_inputs(const sim::World& w, std::size_t tx, std::size_t rx) {
  constexpr std::size_t kSc = sim::World::kSubcarriers;
  const std::size_t n_rx = w.antennas(rx);
  const std::size_t n = std::min(w.antennas(tx), n_rx);
  LinkInputs in;
  in.obs.resize(kSc);
  for (std::size_t s = 0; s < kSc; ++s) {
    sim::RxObservation& o = in.obs[s];
    o.g_true = w.channel(tx, rx, s).block(0, n_rx, 0, n);
    o.g_est = w.estimate(o.g_true);
    o.interference_true = CMat(n_rx, 0);
    o.unwanted_basis =
        sim::advertised_unwanted_space(o.g_est, CMat(n_rx, 0), n);
    o.noise_power = w.noise_power();
    const std::vector<double> sinr = sim::zf_stream_sinr(o);
    in.sinrs.insert(in.sinrs.end(), sinr.begin(), sinr.end());
  }
  return in;
}

const phy::Mcs& pick_mcs(const std::vector<double>& sinrs) {
  const phy::Mcs* m = phy::select_mcs_esnr(sinrs, 1.0);
  return m != nullptr ? *m : phy::mcs_by_index(0);
}

// Per-item cap on probed links (the 200-link worlds would otherwise make
// the link-level probes dominate the traced run).
constexpr std::size_t kMaxLinks = 16;
// Whole-round probes over the sweep, spread evenly over the items.
constexpr std::size_t kRoundCalls = 480;
constexpr std::size_t kContendCalls = 200;
constexpr std::size_t kAdmissionReps = 20;
constexpr std::size_t kAdvanceCalls = 8;
// Full-PHY stream probes over the sweep, on every (full items / this)-th
// full-PHY item; each costs milliseconds.
constexpr std::size_t kFullProbeCalls = 32;
constexpr std::size_t kPacketBytes = 1500;

std::string metric(const char* name, double v) {
  return std::string("\"") + name + "\": " + util::json_double(v);
}

int run_trace(const std::vector<sim::SweepItem>& items, std::uint64_t seed,
              const std::string& spans_path) {
  constexpr std::size_t kSc = sim::World::kSubcarriers;
  const auto table = stream_table(seed, items.size());
  const std::size_t round_calls =
      (kRoundCalls + items.size() - 1) / items.size();
  const auto is_full = [](const sim::SweepItem& it) {
    return it.session.round.fidelity == sim::Fidelity::kFullPhy;
  };
  const std::size_t full_stride = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::count_if(items.begin(), items.end(), is_full)) /
             kFullProbeCalls);
  std::size_t full_seen = 0;
  Tracer tr;
  std::vector<std::string> sessions;
  std::vector<double> item_host_s;      // topology + world + session
  std::vector<double> session_s;        // run_session alone
  std::vector<double> round_us;         // run_nplus_round samples
  std::size_t rounds_total = 0;
  std::size_t round_streams = 0;
  double advance_session_s = 0.0;       // predicted advance time in sessions
  double full_scoring_s = 0.0;          // session time in full-PHY scoring

  // Warm-up: one discarded pass over the first item, so the measured pass
  // does not pay the process's cold start (first-touch page faults).
  {
    ItemStreams rng(table[0]);
    const auto topo = sim::generate_topology(items[0].gen, rng.gen);
    sim::World w = sim::make_world(topo, rng.world, items[0].world);
    g_sink += sim::run_session(w, topo.scenario, rng.session, items[0].session)
                  .total_mbps;
  }

  for (std::size_t i = 0; i < items.size(); ++i) {
    const sim::SweepItem& item = items[i];
    const long item_span = tr.open("item", -1);
    ItemStreams rng(table[i]);
    util::Rng& probe_rng = rng.probe;

    // --- The item as the runner runs it.
    sim::GeneratedTopology topo;
    const double t_topo = tr.time("scenario_gen.topology", item_span, 1, [&] {
      topo = sim::generate_topology(item.gen, rng.gen);
    });
    std::optional<sim::World> world;
    const double t_world = tr.time("scenario_gen.world", item_span, 1, [&] {
      world.emplace(sim::make_world(topo, rng.world, item.world));
    });
    sim::SessionResult res;
    const double t_session = tr.time("session.run", item_span, 1, [&] {
      res = sim::run_session(*world, topo.scenario, rng.session, item.session);
    });
    world.reset();
    item_host_s.push_back(t_topo + t_world + t_session);
    session_s.push_back(t_session);
    sessions.push_back(session_json(res));
    rounds_total += res.rounds;

    // --- Layer probes on a fresh copy of the item's world.
    ItemStreams fresh(table[i]);
    sim::World pw = sim::make_world(topo, fresh.world, item.world);
    const auto& links = topo.scenario.links;
    const std::size_t n_probe = std::min(links.size(), kMaxLinks);

    // World reads: first touch (lazy materialization) and repeat touch.
    for (std::size_t l = 0; l < n_probe; ++l) {
      const std::size_t tx = links[l].tx_node;
      const std::size_t rxs[2] = {links[l].rx_node,
                                  links[(l + 1) % links.size()].rx_node};
      for (const std::size_t rx : rxs) {
        tr.time("world.channel_cold", item_span, 1,
                [&] { g_sink += pw.channel(tx, rx, 0)(0, 0).real(); });
        tr.time("world.channel_warm", item_span, kSc, [&] {
          for (std::size_t s = 0; s < kSc; ++s) {
            g_sink += pw.channel(tx, rx, s)(0, 0).real();
          }
        });
      }
      tr.time("world.recip_cold", item_span, 1, [&] {
        g_sink += pw.reciprocal_channel(tx, links[l].rx_node, 0)(0, 0).real();
      });
    }

    // CSI estimation and the linalg kernels on the item's channels.
    for (std::size_t l = 0; l < n_probe; ++l) {
      std::vector<CMat> h(kSc);
      for (std::size_t s = 0; s < kSc; ++s) {
        h[s] = pw.channel(links[l].tx_node, links[l].rx_node, s);
      }
      tr.time("world.estimate", item_span, kSc, [&] {
        for (const CMat& m : h) g_sink += pw.estimate(m)(0, 0).real();
      });
      tr.time("linalg.complement", item_span, kSc, [&] {
        for (const CMat& m : h) {
          g_sink +=
              static_cast<double>(linalg::orthogonal_complement(m).cols());
        }
      });
      tr.time("linalg.null_space", item_span, kSc, [&] {
        for (const CMat& m : h) {
          g_sink += static_cast<double>(linalg::null_space(m).cols());
        }
      });
      tr.time("linalg.qr_pivoted", item_span, kSc, [&] {
        for (const CMat& m : h) {
          g_sink += static_cast<double>(linalg::qr_pivoted(m).rank);
        }
      });
    }

    // Contention over the item's transmitters.
    const std::size_t n_tx = topo.scenario.transmitters().size();
    tr.time("mac.contend", item_span, kContendCalls, [&] {
      for (std::size_t k = 0; k < kContendCalls; ++k) {
        g_sink += mac::contend(n_tx, probe_rng).elapsed_s;
      }
    });

    // Join path: the next link's transmitter nulls at this link's receiver
    // when it has antennas to spare (48 subcarrier lanes per call), and
    // the admission rule on the same pairs' link SNRs.
    std::vector<std::vector<double>> interference(n_probe);
    std::vector<double> own(n_probe);
    for (std::size_t l = 0; l < n_probe; ++l) {
      const std::size_t joiner = links[(l + 1) % links.size()].tx_node;
      const std::size_t rx0 = links[l].rx_node;
      for (std::size_t k = 0; k < std::min<std::size_t>(4, links.size());
           ++k) {
        interference[l].push_back(
            pw.link_snr_db(joiner, links[(l + k) % links.size()].rx_node));
      }
      own[l] = pw.link_snr_db(joiner, links[(l + 1) % links.size()].rx_node);
      const std::size_t m_ant = pw.antennas(joiner);
      if (joiner == links[l].tx_node || m_ant <= pw.antennas(rx0)) continue;
      std::vector<std::vector<nulling::OngoingReceiver>> ongoing(kSc);
      for (std::size_t s = 0; s < kSc; ++s) {
        ongoing[s].push_back(nulling::make_null_constraint(
            pw.reciprocal_channel(joiner, rx0, s)));
      }
      tr.time("nulling.join_batch", item_span, 1, [&] {
        const auto pres = nulling::compute_join_precoders_batch(
            m_ant, ongoing, m_ant - pw.antennas(rx0));
        g_sink += pres[0].has_value() ? 1.0 : 0.0;
      });
    }
    tr.time("nulling.admission", item_span, kAdmissionReps * n_probe, [&] {
      for (std::size_t r = 0; r < kAdmissionReps; ++r) {
        for (std::size_t l = 0; l < n_probe; ++l) {
          g_sink += nulling::decide_join(interference[l], own[l])
                        .own_snr_after_db;
        }
      }
    });

    // PHY: rate selection, abstracted scoring, and — on full-PHY items
    // only — the codec chain.
    const bool full = is_full(item);
    const bool full_probe = full && full_seen++ % full_stride == 0;
    if (!full) {
      for (const char* name : {"phy.full_stream", "phy.viterbi", "phy.demap"}) {
        tr.skip(name, item_span);
      }
    }
    for (std::size_t l = 0; l < n_probe; ++l) {
      const LinkInputs in =
          link_inputs(pw, links[l].tx_node, links[l].rx_node);
      const phy::Mcs& mcs = pick_mcs(in.sinrs);
      tr.time("phy.rate_select", item_span, 1, [&] {
        const phy::Mcs* m = phy::select_mcs_esnr(in.sinrs, 1.0);
        g_sink += m != nullptr ? m->index : -1;
      });
      tr.time("phy.abstracted_score", item_span, 1, [&] {
        std::vector<std::vector<double>> per_stream;
        for (const sim::RxObservation& o : in.obs) {
          const std::vector<double> sinr = sim::zf_stream_sinr(o);
          per_stream.resize(sinr.size());
          for (std::size_t j = 0; j < sinr.size(); ++j) {
            per_stream[j].push_back(sinr[j]);
          }
        }
        for (const auto& sv : per_stream) {
          const double esnr =
              std::max(phy::effective_snr(sv, mcs.modulation), 1e-30);
          g_sink += phy::LinkAbstraction::calibrated().per(
              mcs, 10.0 * std::log10(esnr), kPacketBytes);
        }
      });
      if (l > 0 || !full_probe) continue;
      std::vector<phy::StreamRxModel> models;
      for (const sim::RxObservation& o : in.obs) {
        models.push_back(sim::zf_stream_rx_models(o).at(0));
      }
      tr.time("phy.full_stream", item_span, 1, [&] {
        g_sink += phy::simulate_stream_delivery_mimo(kPacketBytes, mcs, models,
                                                     probe_rng)
                      ? 1.0
                      : 0.0;
      });
      phy::Bits bits(8 * kPacketBytes);
      for (auto& b : bits) b = probe_rng.bernoulli(0.5) ? 1 : 0;
      phy::Bits coded = phy::conv_encode(bits, mcs.code_rate);
      std::vector<double> llr(coded.size());
      for (std::size_t j = 0; j < coded.size(); ++j) {
        llr[j] = (coded[j] != 0 ? -4.0 : 4.0) + probe_rng.gaussian(0.0, 2.0);
      }
      tr.time("phy.viterbi", item_span, 1, [&] {
        g_sink += static_cast<double>(
            phy::viterbi_decode_soft(llr, bits.size(), mcs.code_rate).size());
      });
      const std::size_t bps = phy::bits_per_symbol(mcs.modulation);
      coded.resize(coded.size() - coded.size() % bps);
      std::vector<phy::cdouble> symbols = phy::map_bits(coded, mcs.modulation);
      for (auto& y : symbols) y += probe_rng.cgaussian(0.05);
      const std::vector<double> noise_var(symbols.size(), 0.05);
      tr.time("phy.demap", item_span, 1, [&] {
        g_sink += phy::demap_soft(symbols, noise_var, mcs.modulation)[0];
      });
    }

    // Whole rounds on the probe world, with the round config the session
    // runs: its own, with the AARF controller wired in when rate control
    // is on (as sim::run_session does).
    const auto& dyn = item.session.dynamics;
    phy::RateController rate_ctl(dyn.rate_control);
    sim::RoundConfig round_cfg = item.session.round;
    if (dyn.use_rate_control) round_cfg.rate_control = &rate_ctl;
    for (std::size_t k = 0; k < round_calls; ++k) {
      sim::RoundResult r;
      round_us.push_back(1e6 * tr.time("round.run", item_span, 1, [&] {
        r = sim::run_nplus_round(pw, topo.scenario, probe_rng, round_cfg);
      }));
      round_streams += r.total_streams;
    }

    // World writes: one round's airtime of the item's motion and Doppler
    // (only where the session moves the world), and CSI re-measurement.
    if (dyn.active()) {
      std::vector<channel::Location> initial;
      for (std::size_t n = 0; n < pw.n_nodes(); ++n) {
        initial.push_back(pw.node_position(n));
      }
      sim::Mobility mob(std::move(initial), dyn.mobility, probe_rng);
      const double dt =
          res.rounds > 0 ? res.duration_s / static_cast<double>(res.rounds)
                         : 1e-3;
      double advance_s = 0.0;
      for (std::size_t k = 0; k < kAdvanceCalls; ++k) {
        mob.advance(dt, probe_rng);
        advance_s += tr.time("world.advance", item_span, 1, [&] {
          pw.advance(mob.positions(), mob.speed_mps(), dt, dyn.evolution,
                     probe_rng);
        });
      }
      // The session advances the world before every round but the first
      // (idle rounds included).
      if (res.rounds > 0) {
        advance_session_s += advance_s / static_cast<double>(kAdvanceCalls) *
                             static_cast<double>(res.rounds - 1);
      }
    } else {
      tr.skip("world.advance", item_span);
    }
    tr.time("world.refresh_csi", item_span, n_probe, [&] {
      for (std::size_t l = 0; l < n_probe; ++l) {
        pw.refresh_csi(links[l].tx_node, links[l].rx_node, probe_rng);
      }
    });

    // Full-PHY scoring share: replay the item's session with abstracted
    // scoring. Both fidelities replay the identical protocol trace (the
    // scorer draws from its own forked stream), so the host-time
    // difference is what the codec chain cost inside the session.
    if (item.session.round.fidelity == sim::Fidelity::kFullPhy) {
      ItemStreams replay(table[i]);
      sim::World replay_world = sim::make_world(topo, replay.world, item.world);
      sim::SessionConfig abstracted = item.session;
      abstracted.round.fidelity = sim::Fidelity::kAbstracted;
      const double t_abstracted =
          tr.time("session.abstracted_replay", item_span, 1, [&] {
            g_sink += sim::run_session(replay_world, topo.scenario,
                                       replay.session, abstracted)
                          .total_mbps;
          });
      full_scoring_s += t_session - t_abstracted;
    }
    tr.close(item_span);
  }
  if (!spans_path.empty()) tr.write(spans_path);

  const double host_s = tr.acc("session.run").s;
  std::sort(round_us.begin(), round_us.end());
  const auto pct = [&](double p) {
    const std::size_t k = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(round_us.size())));
    return round_us[std::min(round_us.size() - 1, k == 0 ? 0 : k - 1)];
  };
  const double slowest =
      *std::max_element(session_s.begin(), session_s.end());
  double session_sum = 0.0;
  for (double v : session_s) session_sum += v;

  std::string m;
  m += metric("scenario_gen.topology_ms",
              tr.acc("scenario_gen.topology").s * 1e3);
  m += ", " + metric("scenario_gen.world_ms",
                     tr.acc("scenario_gen.world").s * 1e3);
  m += ", " + metric("session.host_s", host_s);
  m += ", " + metric("session.round_us",
                     host_s * 1e6 / static_cast<double>(rounds_total));
  m += ", " + metric("session.slowest_share", slowest / session_sum);
  m += ", " + metric("round.us_p50", pct(50.0));
  m += ", " + metric("round.us_p99", pct(99.0));
  m += ", " + metric("round.streams_per_call",
                     static_cast<double>(round_streams) /
                         static_cast<double>(round_us.size()));
  m += ", " + metric("world.channel_cold_us",
                     tr.acc("world.channel_cold").per_call() * 1e6);
  m += ", " + metric("world.channel_warm_ns",
                     tr.acc("world.channel_warm").per_call() * 1e9);
  m += ", " + metric("world.recip_cold_us",
                     tr.acc("world.recip_cold").per_call() * 1e6);
  m += ", " + metric("world.estimate_ns",
                     tr.acc("world.estimate").per_call() * 1e9);
  m += ", " + metric("world.advance_ms",
                     tr.acc("world.advance").per_call() * 1e3);
  m += ", " + metric("world.advance_share", advance_session_s / host_s);
  m += ", " + metric("world.refresh_csi_us",
                     tr.acc("world.refresh_csi").per_call() * 1e6);
  m += ", " + metric("mac.contend_us", tr.acc("mac.contend").per_call() * 1e6);
  m += ", " + metric("linalg.complement_ns",
                     tr.acc("linalg.complement").per_call() * 1e9);
  m += ", " + metric("linalg.null_space_ns",
                     tr.acc("linalg.null_space").per_call() * 1e9);
  m += ", " + metric("linalg.qr_pivoted_ns",
                     tr.acc("linalg.qr_pivoted").per_call() * 1e9);
  m += ", " + metric("nulling.join_batch_us",
                     tr.acc("nulling.join_batch").per_call() * 1e6);
  m += ", " + metric("nulling.admission_ns",
                     tr.acc("nulling.admission").per_call() * 1e9);
  m += ", " + metric("phy.rate_select_us",
                     tr.acc("phy.rate_select").per_call() * 1e6);
  m += ", " + metric("phy.abstracted_score_us",
                     tr.acc("phy.abstracted_score").per_call() * 1e6);
  m += ", " + metric("phy.full_stream_ms",
                     tr.acc("phy.full_stream").per_call() * 1e3);
  m += ", " + metric("phy.full_share", std::max(0.0, full_scoring_s) / host_s);
  m += ", " + metric("phy.viterbi_ms", tr.acc("phy.viterbi").per_call() * 1e3);
  m += ", " + metric("phy.demap_us", tr.acc("phy.demap").per_call() * 1e6);

  std::string c = "\"session.items\": " + std::to_string(items.size());
  c += ", \"session.rounds\": " + std::to_string(rounds_total);
  for (const char* name :
       {"round.run", "world.channel_cold", "world.estimate", "world.advance",
        "world.refresh_csi", "mac.contend", "linalg.qr_pivoted",
        "nulling.join_batch", "nulling.admission", "phy.rate_select",
        "phy.full_stream"}) {
    c += std::string(", \"") + name + ".calls\": " +
         std::to_string(tr.acc(name).calls);
  }

  std::string out = "{\"item_host_s\": [";
  for (std::size_t i = 0; i < item_host_s.size(); ++i) {
    out += (i ? ", " : "") + util::json_double(item_host_s[i]);
  }
  out += "], \"sessions\": [";
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    out += (i ? ", " : "") + sessions[i];
  }
  out += "], \"metrics\": {" + m + "}, \"counts\": {" + c + "}}";
  std::printf("%s\n", out.c_str());
  std::fprintf(stderr, "probe checksum %g\n", g_sink);
  return 0;
}

// --- Command line -----------------------------------------------------------

std::size_t size_arg(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == flag) return std::stoul(argv[i + 1]);
  }
  fail(std::string("missing ") + flag);
}

std::string string_arg(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == flag) return argv[i + 1];
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) fail("usage: perfbench-probe host|setup|trace ...");
  const std::string mode = argv[1];
  if (mode == "host") return run_host();
  if (argc < 3) fail("missing workload config");
  const std::vector<sim::SweepItem> items = make_items(load_workload(argv[2]));
  const std::uint64_t seed = size_arg(argc, argv, "--seed");
  if (mode == "setup") {
    return run_setup(items, seed,
                     1e-3 * static_cast<double>(
                                size_arg(argc, argv, "--budget-ms")));
  }
  if (mode == "trace") {
    return run_trace(items, seed, string_arg(argc, argv, "--spans"));
  }
  fail("unknown mode " + mode);
}
