// Tests for util: deterministic RNG, distributions, statistics, units.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "util/log.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace nplus::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformIntOfOneIsZero) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(1u), 0u);
}

TEST(Rng, GaussianMoments) {
  Rng rng(42);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.variance(), 1.0, 0.03);
}

TEST(Rng, ComplexGaussianVariance) {
  Rng rng(42);
  double p = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) p += std::norm(rng.cgaussian(2.5));
  EXPECT_NEAR(p / n, 2.5, 0.1);
}

TEST(Rng, PhaseIsUnitMagnitude) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NEAR(std::abs(rng.phase()), 1.0, 1e-12);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(9);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(sorted[size_t(i)], i);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  const auto s = rng.sample_without_replacement(20, 6);
  EXPECT_EQ(s.size(), 6u);
  std::set<int> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 6u);
  for (int v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
}

TEST(Rng, ForkIndependence) {
  Rng parent(77);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.uniform() == c2.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkDeterministic) {
  Rng p1(77), p2(77);
  Rng a = p1.fork(9);
  Rng b = p2.fork(9);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

namespace {

// |Pearson correlation| between two equal-length uniform streams.
double stream_correlation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  const std::size_t n = x.size();
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  return std::abs(sxy / std::sqrt(sxx * syy));
}

}  // namespace

TEST(Rng, ForkAdversarialLabelsDecorrelated) {
  // Regression for the pre-splitmix64 fork: label mixing was linear
  // (label * odd constant; stream = label * 2 + 1), so labels differing
  // only in high bits produced streams whose PCG increments collided
  // (e.g. 0 vs 2^63) and whose states stayed a constant apart forever.
  // Collect streams from adversarial direct labels and from nested fork
  // chains with the structured labels the harness actually uses
  // (placement p+1, method 1000+m), then demand pairwise independence.
  const std::vector<std::uint64_t> labels = {
      0u,
      1u,
      2u,
      (1ULL << 32),
      (1ULL << 32) + 1u,
      (1ULL << 63),
      (1ULL << 63) + 1u,
  };
  std::vector<std::vector<double>> streams;
  const int kDraws = 256;
  for (const std::uint64_t label : labels) {
    Rng parent(2026);  // fresh parent: stream depends on the label alone
    Rng child = parent.fork(label);
    std::vector<double> s(kDraws);
    for (auto& v : s) v = child.uniform();
    streams.push_back(std::move(s));
  }
  // Nested chains: fork(p).fork(m) for the harness's label shapes, plus
  // swapped orders that a linear mix could alias.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> chains = {
      {1, 1000}, {1000, 1}, {2, 1001}, {3, 1002}};
  for (const auto& [a, b] : chains) {
    Rng parent(2026);
    Rng child = parent.fork(a).fork(b);
    std::vector<double> s(kDraws);
    for (auto& v : s) v = child.uniform();
    streams.push_back(std::move(s));
  }

  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (std::size_t j = i + 1; j < streams.size(); ++j) {
      int same = 0;
      for (int d = 0; d < kDraws; ++d) {
        if (streams[i][d] == streams[j][d]) ++same;
      }
      EXPECT_LT(same, 3) << "streams " << i << " and " << j
                         << " share draws";
      EXPECT_LT(stream_correlation(streams[i], streams[j]), 0.35)
          << "streams " << i << " and " << j << " correlate";
    }
  }
}

TEST(Rng, ForkSequentialLabelsDistinctFirstDraws) {
  // The harness forks thousands of sequential labels (one per placement /
  // trial); their first draws must not collide structurally.
  Rng parent(1);
  std::set<std::uint64_t> seen;
  const int kStreams = 2000;
  for (int i = 0; i < kStreams; ++i) {
    Rng child = parent.fork(static_cast<std::uint64_t>(i) + 1);
    seen.insert(static_cast<std::uint64_t>(child.uniform() * (1ULL << 53)));
  }
  // Allow a couple of birthday coincidences in the low bits, no more.
  EXPECT_GE(seen.size(), static_cast<std::size_t>(kStreams - 2));
}

TEST(Rng, DiscardGaussiansMatchesDrawing) {
  // State 0 makes the first 32-bit output 0, so uniform() is exactly 0 when
  // the output from state = increment is below 2^11 too: gaussian() must
  // then retry u1. Bounded search for such an odd increment.
  std::uint64_t inc = 0;
  for (std::uint64_t c = 1; c < (1ULL << 24) && inc == 0; c += 2) {
    if (Rng::restore({{0, c}, false, 0.0}).uniform() == 0.0) inc = c;
  }
  ASSERT_NE(inc, 0U);
  const Rng::State zero_u1{{0, inc}, false, 0.0};
  {
    // The crafted start does take the retry: one gaussian() consumes six
    // generator outputs (u1 = 0, u1, u2), not four.
    Pcg32 six = Pcg32::from_raw(zero_u1.gen);
    for (int i = 0; i < 6; ++i) (void)six.next();
    Rng g = Rng::restore(zero_u1);
    (void)g.gaussian();
    EXPECT_EQ(g.save().gen.state, six.raw().state);
  }
  Rng cached(11);
  (void)cached.gaussian();
  ASSERT_TRUE(cached.save().has_cached);

  const std::pair<const char*, Rng::State> starts[] = {
      {"fresh", Rng(7).save()},
      {"cached", cached.save()},
      {"zero u1", zero_u1},
  };
  for (const auto& [name, start] : starts) {
    for (std::size_t k = 0; k <= 9; ++k) {
      Rng drawn = Rng::restore(start);
      for (std::size_t i = 0; i < k; ++i) (void)drawn.gaussian();
      Rng skipped = Rng::restore(start);
      skipped.discard_gaussians(k);
      const Rng::State want = drawn.save();
      const Rng::State got = skipped.save();
      EXPECT_EQ(got.gen.state, want.gen.state) << name << " k=" << k;
      EXPECT_EQ(got.gen.inc, want.gen.inc) << name << " k=" << k;
      EXPECT_EQ(got.has_cached, want.has_cached) << name << " k=" << k;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cached),
                std::bit_cast<std::uint64_t>(want.cached))
          << name << " k=" << k;
    }
  }
}

TEST(RunningStats, Basics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Percentile, EmptyReturnsNaN) {
  // Regression: the empty case used to return a silent 0.0, which bench
  // tables printed as a real measurement. "No data" is now NaN — loudly
  // distinct from a genuine zero sample.
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
  EXPECT_TRUE(std::isnan(percentile({}, 0)));
  EXPECT_TRUE(std::isnan(percentile({}, 100)));
}

TEST(Percentile, OutOfRangePClampsToExtremes) {
  // Regression: p > 100 indexed past samples.size() - 1 (for p >= 125 on a
  // 5-sample set even `lo` overflowed); p < 0 cast a negative rank to a
  // huge unsigned index. Both must saturate instead.
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 100.0001), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 150), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1e9), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, -0.0001), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, -50), 1.0);
  // NaN p slips through a plain clamp (both comparisons are false) and
  // would turn into an arbitrary index; it must return the no-data NaN
  // instead.
  EXPECT_TRUE(std::isnan(percentile(v, std::nan(""))));
}

TEST(Percentile, SingleSampleAnyP) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 50), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 200), 7.0);
}

TEST(EmpiricalCdf, MonotoneAndNormalized) {
  const auto cdf = empirical_cdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].x, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().f, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].x, cdf[i].x);
    EXPECT_LT(cdf[i - 1].f, cdf[i].f);
  }
}

TEST(Histogram, BucketsValues) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0, 10.0);
  h.add(1.5, 20.0);
  h.add(9.9, 5.0);
  h.add(-1.0, 99.0);  // ignored
  h.add(10.1, 99.0);  // ignored
  EXPECT_EQ(h.buckets()[0].stats.count(), 2u);
  EXPECT_DOUBLE_EQ(h.buckets()[0].stats.mean(), 15.0);
  EXPECT_EQ(h.buckets()[4].stats.count(), 1u);
  EXPECT_EQ(h.buckets()[1].stats.count(), 0u);
}

TEST(Histogram, DegenerateParametersCollapseToOneSafeBucket) {
  // Regression: nbuckets <= 0 divided by zero (NaN width, and add()'s index
  // math went out of range); hi <= lo produced negative widths whose
  // negative bucket index the unsigned cast turned huge. Both now collapse
  // to a single finite unit-width bucket.
  for (Histogram h : {Histogram(0.0, 10.0, 0), Histogram(0.0, 10.0, -3),
                      Histogram(5.0, 5.0, 4), Histogram(5.0, 2.0, 4)}) {
    ASSERT_GE(h.buckets().size(), 1u);
    for (const auto& b : h.buckets()) {
      EXPECT_TRUE(std::isfinite(b.lo));
      EXPECT_TRUE(std::isfinite(b.hi));
      EXPECT_GT(b.hi, b.lo);
    }
    h.add(5.0, 1.0);   // in range of the collapsed bucket for the hi<=lo
    h.add(-1e9, 1.0);  // far out of range: ignored, no crash
    h.add(1e9, 1.0);
    std::size_t total = 0;
    for (const auto& b : h.buckets()) total += b.stats.count();
    EXPECT_EQ(total, 1u);  // x = 5.0 is in range for every collapsed shape
  }
}

TEST(Histogram, TopEdgeFoldsIntoLastBucket) {
  // Regression: `f >= buckets_.size()` rejected x == hi exactly, so a
  // metric pinned at the histogram's cap silently vanished from Fig. 11.
  // The range is closed at the top: [lo, hi].
  Histogram h(0.0, 10.0, 5);
  h.add(10.0, 7.0);  // exact upper bound -> last bucket
  EXPECT_EQ(h.buckets()[4].stats.count(), 1u);
  EXPECT_DOUBLE_EQ(h.buckets()[4].stats.mean(), 7.0);
  h.add(std::nextafter(10.0, 11.0), 1.0);  // just past hi: still ignored
  EXPECT_EQ(h.buckets()[4].stats.count(), 1u);
  // The exact lower bound keeps working too (closed at both ends).
  h.add(0.0, 3.0);
  EXPECT_EQ(h.buckets()[0].stats.count(), 1u);
}

TEST(Histogram, NanInputsIgnored) {
  Histogram h(0.0, 10.0, 5);
  h.add(std::nan(""), 1.0);
  for (const auto& b : h.buckets()) EXPECT_EQ(b.stats.count(), 0u);
}

TEST(Histogram, HugeAndInfiniteXIgnoredSafely) {
  // The bucket index must be range-checked in floating point before the
  // integer cast: converting 1e300 or +inf to size_t is undefined behavior,
  // not just an out-of-range value.
  Histogram h(0.0, 10.0, 5);
  h.add(1e300, 1.0);
  h.add(std::numeric_limits<double>::infinity(), 1.0);
  h.add(-std::numeric_limits<double>::infinity(), 1.0);
  for (const auto& b : h.buckets()) EXPECT_EQ(b.stats.count(), 0u);
  h.add(9.999, 2.0);  // still lands in the last bucket
  EXPECT_EQ(h.buckets()[4].stats.count(), 1u);
}

TEST(Units, DbRoundtrip) {
  for (double db : {-30.0, -3.0, 0.0, 10.0, 27.0}) {
    EXPECT_NEAR(to_db(from_db(db)), db, 1e-9);
  }
}

TEST(Units, KnownValues) {
  EXPECT_NEAR(from_db(3.0), 2.0, 0.01);
  EXPECT_NEAR(to_db(100.0), 20.0, 1e-9);
  EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(mw_to_dbm(100.0), 20.0, 1e-9);
}

TEST(Units, ThermalNoise10MHz) {
  // kTB at 290K over 10 MHz ~ -104 dBm.
  EXPECT_NEAR(thermal_noise_dbm(10e6), -104.0, 0.5);
}

TEST(Log, RespectsLevel) {
  static std::vector<std::string> captured;
  captured.clear();
  set_log_sink([](LogLevel, const std::string& m) { captured.push_back(m); });
  set_log_level(LogLevel::kWarn);
  NPLUS_INFO() << "hidden";
  NPLUS_WARN() << "visible " << 42;
  reset_log_sink();
  set_log_level(LogLevel::kWarn);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "visible 42");
}

}  // namespace
}  // namespace nplus::util

// ---------------------------------------------------------------------------
// Checkpoint container, serializable state, and CLI plumbing (PR 7).
// ---------------------------------------------------------------------------

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "util/checkpoint.h"
#include "util/cli.h"

namespace nplus::util {
namespace {

TEST(RngState, SaveRestoreContinuesStreamExactly) {
  Rng a(42);
  // Burn a mixed prefix, including a gaussian so the Box-Muller cache is
  // live at the save point — the classic way to shift the stream by one.
  for (int i = 0; i < 7; ++i) a.uniform();
  a.gaussian();
  const Rng::State snap = a.save();
  Rng b = Rng::restore(snap);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(a.uniform(), b.uniform()) << i;
    ASSERT_EQ(a.gaussian(), b.gaussian()) << i;
    ASSERT_EQ(a.uniform_int(1000u), b.uniform_int(1000u)) << i;
  }
}

TEST(RunningStatsState, RoundTripAccumulatesIdentically) {
  RunningStats a;
  for (int i = 0; i < 9; ++i) a.add(std::sin(i) * 10.0);
  RunningStats b = RunningStats::from_state(a.state());
  for (int i = 9; i < 20; ++i) {
    a.add(std::cos(i));
    b.add(std::cos(i));
  }
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(Crc32, KnownAnswerAndIncremental) {
  // The classic CRC-32 check value.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
  // Incremental feeding must match one-shot.
  const std::uint32_t part = crc32(s, 4);
  EXPECT_EQ(crc32(s + 4, 5, part), 0xCBF43926u);
  EXPECT_EQ(crc32(s, 0), 0u);
}

TEST(ByteCodec, RoundTripsAndBoundsChecks) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-1.5e-300);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  const std::vector<std::uint8_t> buf = w.data();

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -1.5e-300);
  EXPECT_TRUE(std::isnan(r.f64()));  // NaN bit pattern survives
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u8(), CheckpointError);  // over-read must never be quiet
}

TEST(Checkpoint, FileRoundTripMissingAndCorrupt) {
  const std::string path = "test_util_ckpt.bin";
  std::remove(path.c_str());
  EXPECT_FALSE(read_checkpoint_file(path).has_value());

  CheckpointData d;
  d.version = 3;
  d.header = {1, 2, 3, 4};
  d.items.emplace_back(7, std::vector<std::uint8_t>{9, 8, 7});
  d.items.emplace_back(2, std::vector<std::uint8_t>{});
  write_checkpoint_file(path, d);

  const auto back = read_checkpoint_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, 3u);
  EXPECT_EQ(back->header, d.header);
  ASSERT_EQ(back->items.size(), 2u);
  EXPECT_EQ(back->items[0].first, 7u);
  EXPECT_EQ(back->items[0].second, d.items[0].second);
  EXPECT_EQ(back->items[1].first, 2u);
  EXPECT_TRUE(back->items[1].second.empty());

  // Corrupt one byte in the middle: CRC verification must throw.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 10, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 10, SEEK_SET);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  EXPECT_THROW(read_checkpoint_file(path), CheckpointError);
  std::remove(path.c_str());
}

// Builds a mutable argv from string literals (argv[argc] == nullptr).
struct FakeArgv {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc = 0;
  explicit FakeArgv(std::vector<std::string> args)
      : storage(std::move(args)) {
    for (auto& s : storage) ptrs.push_back(s.data());
    ptrs.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
  char** argv() { return ptrs.data(); }
};

TEST(Cli, TakeHelpersConsumeFlags) {
  FakeArgv a({"bench", "--smoke", "--checkpoint", "ck.bin",
              "--retries=2", "out.json"});
  int argc = a.argc;
  char** argv = a.argv();
  EXPECT_TRUE(take_flag(argc, argv, "--smoke"));
  EXPECT_FALSE(take_flag(argc, argv, "--smoke"));
  const auto ck = take_option(argc, argv, "--checkpoint");
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(*ck, "ck.bin");
  const auto retries = take_size_option(argc, argv, "--retries");
  ASSERT_TRUE(retries.has_value());
  EXPECT_EQ(*retries, 2u);
  EXPECT_FALSE(take_double_option(argc, argv, "--watchdog").has_value());
  EXPECT_NO_THROW(reject_unknown_flags(argc, argv));
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "out.json");
}

TEST(Cli, MalformedInputThrowsUsageError) {
  {
    FakeArgv a({"bench", "--retries", "soon"});
    int argc = a.argc;
    EXPECT_THROW(take_size_option(argc, a.argv(), "--retries"), UsageError);
  }
  {
    FakeArgv a({"bench", "--watchdog"});  // missing value
    int argc = a.argc;
    EXPECT_THROW(take_double_option(argc, a.argv(), "--watchdog"),
                 UsageError);
  }
  {
    FakeArgv a({"bench", "--watchdog=2x"});
    int argc = a.argc;
    EXPECT_THROW(take_double_option(argc, a.argv(), "--watchdog"),
                 UsageError);
  }
  {
    FakeArgv a({"bench", "--bogus", "out.json"});
    int argc = a.argc;
    EXPECT_THROW(reject_unknown_flags(argc, a.argv()), UsageError);
  }
}

// Writes a raw container body plus its trailing CRC, bypassing
// write_checkpoint_file so tests can craft CRC-valid but hostile payloads.
void write_raw_checkpoint(const std::string& path, const ByteWriter& w) {
  std::vector<std::uint8_t> body = w.data();
  const std::uint32_t crc = crc32(body.data(), body.size());
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(body.data(), 1, body.size(), f), body.size());
  std::fclose(f);
}

constexpr std::uint32_t kTestMagic = 0x4B43504Eu;  // "NPCK"

TEST(Checkpoint, HugeDeclaredHeaderSizeIsRejectedNotAllocated) {
  const std::string path = "test_util_ckpt_hostile.bin";
  // CRC-valid file whose header claims ~16 EiB: before the bounds check
  // this reached resize() and died with bad_alloc instead of a clean error.
  ByteWriter w;
  w.u32(kTestMagic);
  w.u32(1);                       // container version
  w.u32(3);                       // payload version
  w.u64(0xFFFFFFFFFFFFFF00ull);   // declared header size >> actual bytes
  write_raw_checkpoint(path, w);
  EXPECT_THROW(read_checkpoint_file(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, HugeDeclaredItemCountIsRejectedNotAllocated) {
  const std::string path = "test_util_ckpt_hostile.bin";
  ByteWriter w;
  w.u32(kTestMagic);
  w.u32(1);
  w.u32(3);
  w.u64(0);                       // empty header (valid)
  w.u64(0x2000000000000000ull);   // item count that reserve() cannot hold
  write_raw_checkpoint(path, w);
  EXPECT_THROW(read_checkpoint_file(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, HugeDeclaredBlobSizeIsRejectedNotAllocated) {
  const std::string path = "test_util_ckpt_hostile.bin";
  ByteWriter w;
  w.u32(kTestMagic);
  w.u32(1);
  w.u32(3);
  w.u64(0);                       // empty header
  w.u64(1);                       // one item...
  w.u64(7);                       // ...with a plausible index
  w.u64(0x7FFFFFFFFFFFFFFFull);   // and an absurd blob size
  write_raw_checkpoint(path, w);
  EXPECT_THROW(read_checkpoint_file(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(Cli, LenientThreadsRejectsTrailingJunk) {
  {
    // "123456x" used to strtol-parse as 123456 threads; now the malformed
    // value is consumed from argv but ignored with a warning.
    FakeArgv a({"bench", "--threads=123456x", "out.json"});
    int argc = a.argc;
    char** argv = a.argv();
    const std::size_t n = init_threads_from_cli(argc, argv, /*strict=*/false);
    EXPECT_NE(n, 123456u);
    ASSERT_EQ(argc, 2);  // flag consumed, positional preserved
    EXPECT_STREQ(argv[1], "out.json");
  }
  {
    FakeArgv a({"bench", "--threads", "3", "out.json"});
    int argc = a.argc;
    char** argv = a.argv();
    EXPECT_EQ(init_threads_from_cli(argc, argv, /*strict=*/false), 3u);
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "out.json");
  }
  // Restore the process-wide default so later tests see a clean pool.
  FakeArgv reset({"bench"});
  int argc = reset.argc;
  init_threads_from_cli(argc, reset.argv(), /*strict=*/false);
}

TEST(Cli, CliMainMapsExceptionsToExitCodes) {
  char prog[] = "bench";
  char* argv[] = {prog, nullptr};
  EXPECT_EQ(cli_main(1, argv, "[opts]",
                     [](int, char**) -> int { return 0; }),
            0);
  EXPECT_EQ(cli_main(1, argv, "[opts]", [](int, char**) -> int {
              throw UsageError("bad flag");
            }),
            2);
  EXPECT_EQ(cli_main(1, argv, "[opts]", [](int, char**) -> int {
              throw std::runtime_error("config exploded");
            }),
            1);
}

}  // namespace
}  // namespace nplus::util
