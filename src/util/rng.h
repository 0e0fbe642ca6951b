// Deterministic pseudo-random number generation for the simulator.
//
// Everything in the library draws randomness through util::Rng so that every
// experiment is reproducible from a single 64-bit seed. The generator is a
// PCG-XSH-RR (O'Neill 2014) implemented locally: small state, excellent
// statistical quality, and identical output on every platform (unlike
// std::mt19937 paired with std:: distributions, whose output is
// implementation-defined for the distribution step).
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <vector>

namespace nplus::util {

using cdouble = std::complex<double>;

// PCG32 core: 64-bit state, 32-bit output, period 2^64 per stream.
class Pcg32 {
 public:
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL) {
    state_ = 0U;
    inc_ = (stream << 1u) | 1u;
    next();
    state_ += seed;
    next();
  }

  std::uint32_t next() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  // Raw generator state, for checkpoint serialization (util/checkpoint.h):
  // a restored generator continues the stream exactly where save left it.
  struct Raw {
    std::uint64_t state = 0;
    std::uint64_t inc = 0;
  };
  Raw raw() const { return {state_, inc_}; }
  static Pcg32 from_raw(const Raw& r) {
    Pcg32 g;
    g.state_ = r.state;
    g.inc_ = r.inc;
    return g;
  }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

// High-level RNG with the distributions the simulator needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1, std::uint64_t stream = 54u)
      : gen_(seed, stream) {}

  // Copying an Rng silently duplicates a stream: the original and the copy
  // then replay identical draws, which breaks the one-stream-per-consumer
  // discipline the cross-thread bit-identity guarantee rests on. The copy
  // constructor is therefore gated behind the explicit, greppable
  // duplicate() below (the determinism linter's `rng-by-value` rule flags
  // implicit copies); copy *assignment* stays deleted outright — overwriting
  // a live stream in place is never the right tool (checkpoint round-trips
  // go through Rng::State, new streams through fork()).
  Rng(Rng&&) = default;
  Rng& operator=(Rng&&) = default;
  Rng& operator=(const Rng&) = delete;

  // Deliberate stream duplication for peek/probe patterns: draw from the
  // duplicate to learn what the stream WOULD produce (e.g. recovering the
  // realized shadowing materialization draw) while the original stays
  // untouched. Every call site is an auditable statement of intent.
  Rng duplicate() const { return Rng(*this); }

  // Uniform in [0, 1).
  double uniform() {
    // 53-bit mantissa from two 32-bit draws.
    const std::uint64_t hi = gen_.next();
    const std::uint64_t lo = gen_.next();
    const std::uint64_t bits = ((hi << 32) | lo) >> 11;  // 53 bits
    return static_cast<double>(bits) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Uniform integer in [0, n) for n >= 1 (unbiased via rejection).
  std::uint32_t uniform_int(std::uint32_t n);

  // Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    return lo + static_cast<int>(uniform_int(static_cast<std::uint32_t>(hi - lo + 1)));
  }

  // Standard normal via Box-Muller (cached second value).
  double gaussian();

  // Advances the stream exactly as k calls of gaussian() would: the same
  // generator outputs (including the u1 == 0 retry) and the same Box-Muller
  // cache state afterwards, cached bits included. Only the last pair is
  // evaluated (the cache keeps its sine half); every earlier one is skipped
  // without log, sqrt, sin or cos.
  void discard_gaussians(std::size_t k);

  // Normal with given mean / standard deviation.
  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  // Circularly-symmetric complex Gaussian with E[|z|^2] = variance.
  cdouble cgaussian(double variance = 1.0) {
    const double s = std::sqrt(variance / 2.0);
    return {s * gaussian(), s * gaussian()};
  }

  // Random complex phase e^{j theta}, theta ~ U[0, 2*pi).
  cdouble phase() {
    const double t = uniform(0.0, 2.0 * std::numbers::pi);
    return {std::cos(t), std::sin(t)};
  }

  // Exponential with given mean.
  double exponential(double mean) {
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
  }

  bool bernoulli(double p) { return uniform() < p; }

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = uniform_int(static_cast<std::uint32_t>(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  // Draw k distinct indices from [0, n).
  std::vector<int> sample_without_replacement(int n, int k);

  // Fork a child generator with an independent stream; deterministic in
  // (parent state, label). Used to give each node / channel / placement /
  // trial its own stream — the parallel harness forks one child per work
  // item *before* dispatch so results are schedule-independent.
  //
  // The label is diffused through splitmix64 before it touches the child's
  // seed and stream selector. A linear mix (label * odd-constant, as used
  // previously) keeps label differences linear: labels differing only in
  // high bits produce PCG streams whose states differ by a constant that
  // the LCG preserves forever (e.g. labels 0 and 2^63 collided to the same
  // stream increment with seeds a single bit apart). splitmix64 is a
  // bijection with full avalanche, so nested fork chains with structured
  // labels (p+1, 1000+m, ...) land on unrelated (seed, stream) pairs.
  Rng fork(std::uint64_t label) {
    const std::uint64_t s1 = gen_.next();
    const std::uint64_t s2 = gen_.next();
    const std::uint64_t mixed = splitmix64(label);
    return Rng(((s1 << 32) | s2) ^ mixed,
               splitmix64(mixed ^ 0x632be59bd9b4e019ULL));
  }

  // Complete serializable state (generator + the Box-Muller cache, which
  // must survive a round-trip or the draw *sequence* after restore would
  // shift by one gaussian). The checkpointed sweep runner persists the
  // pre-forked per-item stream table as a vector of these.
  struct State {
    Pcg32::Raw gen{};
    bool has_cached = false;
    double cached = 0.0;
  };
  State save() const { return {gen_.raw(), has_cached_, cached_}; }
  static Rng restore(const State& s) {
    Rng r;
    r.gen_ = Pcg32::from_raw(s.gen);
    r.has_cached_ = s.has_cached;
    r.cached_ = s.cached;
    return r;
  }

 private:
  Rng(const Rng&) = default;

  static std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  Pcg32 gen_;
  bool has_cached_ = false;
  double cached_ = 0.0;
};

// The determinism shard of every parallel sweep: item i's stream is
// Rng(seed).fork(label i + 1), forked in item order *before* dispatch, so
// whatever worker later evaluates item i sees exactly the stream the serial
// loop would have handed it. Returned in saved form: a retry or a resume
// restores a pristine copy, because fork() advances its parent. This is the
// only place the table is built (ThreadPool::run_seeded, the supervised
// experiment harness and sim::CheckpointedRunner all call it).
std::vector<Rng::State> fork_streams(std::uint64_t seed, std::size_t n);

}  // namespace nplus::util
