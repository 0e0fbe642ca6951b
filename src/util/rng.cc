#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace nplus::util {

std::uint32_t Rng::uniform_int(std::uint32_t n) {
  if (n <= 1) return 0;
  // Lemire-style rejection to remove modulo bias.
  const std::uint32_t threshold = (-n) % n;
  for (;;) {
    const std::uint64_t m =
        static_cast<std::uint64_t>(gen_.next()) * static_cast<std::uint64_t>(n);
    const auto l = static_cast<std::uint32_t>(m);
    if (l >= threshold) return static_cast<std::uint32_t>(m >> 32);
  }
}

double Rng::gaussian() {
  if (has_cached_) {
    has_cached_ = false;
    return cached_;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double t = 2.0 * std::numbers::pi * u2;
  cached_ = r * std::sin(t);
  has_cached_ = true;
  return r * std::cos(t);
}

void Rng::discard_gaussians(std::size_t k) {
  if (k > 0 && has_cached_) {
    has_cached_ = false;
    --k;
  }
  // Every Box-Muller pair but the last: u1 until nonzero (uniform() is
  // zero exactly when its 53 bits are), then u2.
  for (; k > 2; k -= 2) {
    std::uint64_t bits;
    do {
      const std::uint64_t hi = gen_.next();
      const std::uint64_t lo = gen_.next();
      bits = ((hi << 32) | lo) >> 11;
    } while (bits == 0);
    gen_.next();
    gen_.next();
  }
  // The last pair is evaluated: its sine half is what the cache holds
  // afterwards, whether or not it was consumed.
  for (; k > 0; --k) (void)gaussian();
}

std::vector<int> Rng::sample_without_replacement(int n, int k) {
  std::vector<int> all(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
  shuffle(all);
  all.resize(static_cast<std::size_t>(k < n ? k : n));
  return all;
}

std::vector<Rng::State> fork_streams(std::uint64_t seed, std::size_t n) {
  Rng master(seed);
  std::vector<Rng::State> table;
  table.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    table.push_back(master.fork(i + 1).save());
  }
  return table;
}

}  // namespace nplus::util
