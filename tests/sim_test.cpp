// Tests for the sim module: virtual clock, RNG determinism, distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "sim/clock.h"
#include "sim/distribution.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace {

using sim::Clock;
using sim::DurationDist;
using sim::Nanos;
using sim::Rng;
using sim::ZipfianGenerator;

// The lazy Box-Muller cache is packed into the old cached-double word and
// its padding; a bigger Rng grows every tenant and shard that holds one.
static_assert(sizeof(Rng) == 48, "Rng must stay 48 bytes");

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(TimeTest, UnitConstructors) {
  EXPECT_EQ(sim::micros(1), 1'000);
  EXPECT_EQ(sim::millis(1), 1'000'000);
  EXPECT_EQ(sim::seconds(1), 1'000'000'000);
  EXPECT_EQ(sim::millis(0.5), 500'000);
}

TEST(TimeTest, UnitExtractors) {
  EXPECT_DOUBLE_EQ(sim::to_millis(sim::millis(42)), 42.0);
  EXPECT_DOUBLE_EQ(sim::to_seconds(sim::seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(sim::to_micros(1500), 1.5);
}

TEST(TimeTest, FormatPicksUnit) {
  EXPECT_EQ(sim::format_duration(500), "500 ns");
  EXPECT_EQ(sim::format_duration(sim::micros(1.5)), "1.500 us");
  EXPECT_EQ(sim::format_duration(sim::millis(20)), "20.000 ms");
  EXPECT_EQ(sim::format_duration(sim::seconds(1.25)), "1.250 s");
}

TEST(ClockTest, StartsAtZeroAndAdvances) {
  Clock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(100);
  clock.advance(50);
  EXPECT_EQ(clock.now(), 150);
}

TEST(ClockTest, RejectsNegativeAdvance) {
  Clock clock;
  EXPECT_THROW(clock.advance(-1), std::invalid_argument);
}

TEST(ClockTest, AdvanceToAbsoluteTime) {
  Clock clock;
  clock.advance_to(1'000);
  EXPECT_EQ(clock.now(), 1'000);
  EXPECT_THROW(clock.advance_to(500), std::invalid_argument);
}

TEST(ClockTest, ZeroCostIsAllowed) {
  Clock clock;
  clock.advance(0);
  EXPECT_EQ(clock.now(), 0);
}

TEST(ClockTest, ScopedTimerMeasuresElapsed) {
  Clock clock;
  sim::ScopedTimer timer(clock);
  clock.advance(sim::millis(3));
  EXPECT_EQ(timer.elapsed(), sim::millis(3));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (a.next_u64() == b.next_u64());
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1'000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(RngTest, NormalMomentsRoughlyMatch) {
  Rng rng(123);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(55);
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(0.5);  // mean 2
  }
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(RngTest, ExponentialRejectsNonPositiveLambda) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(RngTest, ParetoAtLeastScale) {
  Rng rng(77);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GE(rng.pareto(3.0, 2.0), 3.0);
  }
}

TEST(RngTest, ChanceProbability) {
  Rng rng(31);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    hits += rng.chance(0.25);
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(99);
  Rng child = parent.fork();
  // Child must not replay the parent's stream.
  Rng parent_copy(99);
  parent_copy.next_u64();  // align with parent post-fork state
  EXPECT_NE(child.next_u64(), parent_copy.next_u64());
}

TEST(ZipfianTest, HotKeysDominate) {
  Rng rng(2024);
  ZipfianGenerator zipf(10'000, 0.99);
  int in_top_100 = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    if (zipf.next(rng) < 100) {
      ++in_top_100;
    }
  }
  // With theta=0.99 over 10k items the top 1% draws well over a third of
  // accesses; uniform would give 1%.
  EXPECT_GT(static_cast<double>(in_top_100) / n, 0.35);
}

TEST(ZipfianTest, SamplesWithinRange) {
  Rng rng(5);
  ZipfianGenerator zipf(100, 0.99);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(zipf.next(rng), 100u);
  }
}

TEST(ZipfianTest, RejectsEmptyDomain) {
  EXPECT_THROW(ZipfianGenerator(0), std::invalid_argument);
}

TEST(DurationDistTest, ConstantAlwaysSame) {
  Rng rng(3);
  const auto d = DurationDist::constant(sim::micros(5));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(d.sample(rng), sim::micros(5));
  }
  EXPECT_EQ(d.mean(), sim::micros(5));
}

TEST(DurationDistTest, NormalClampsAtZero) {
  Rng rng(3);
  const auto d = DurationDist::normal(10, 1'000'000);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_GE(d.sample(rng), 0);
  }
}

TEST(DurationDistTest, LognormalMedianParameterization) {
  Rng rng(17);
  const auto d = DurationDist::lognormal(sim::millis(100), 0.1);
  std::vector<Nanos> samples;
  for (int i = 0; i < 20'000; ++i) {
    samples.push_back(d.sample(rng));
  }
  std::sort(samples.begin(), samples.end());
  const double median = static_cast<double>(samples[samples.size() / 2]);
  EXPECT_NEAR(median / sim::millis(100), 1.0, 0.02);
}

TEST(DurationDistTest, ExponentialMeanMatches) {
  Rng rng(21);
  const auto d = DurationDist::exponential(sim::micros(50));
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(d.sample(rng));
  }
  EXPECT_NEAR(sum / n / sim::micros(50), 1.0, 0.03);
}

TEST(DurationDistTest, InvalidParametersThrow) {
  EXPECT_THROW(DurationDist::constant(-1), std::invalid_argument);
  EXPECT_THROW(DurationDist::normal(-1, 0), std::invalid_argument);
  EXPECT_THROW(DurationDist::lognormal(0, 0.1), std::invalid_argument);
  EXPECT_THROW(DurationDist::exponential(0), std::invalid_argument);
}

// --- skip(): advances the stream exactly as a discarded sample ------------
//
// `ref` samples everywhere; `sut` skips where `ref` discards. Every value
// both sides sample, and the stream afterwards, must be bit-identical.

TEST(RngSkipTest, SkipAfterCachedVariateDropsIt) {
  Rng ref(11);
  Rng sut(11);
  EXPECT_EQ(bits_of(ref.normal()), bits_of(sut.normal()));  // caches a variate
  (void)ref.normal();  // consumes the cached variate
  sut.skip_normal();   // drops it
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bits_of(ref.normal()), bits_of(sut.normal()));
  }
  EXPECT_EQ(ref.next_u64(), sut.next_u64());
}

TEST(RngSkipTest, NormalAfterSkipTakesLazyPath) {
  Rng ref(12);
  Rng sut(12);
  (void)ref.normal();  // draws a pair, caches the sine variate
  sut.skip_normal();   // draws the same pair, keeps the raw uniforms
  // The sine variate, computed lazily from the kept uniforms.
  EXPECT_EQ(bits_of(ref.normal()), bits_of(sut.normal()));
  EXPECT_EQ(bits_of(ref.normal()), bits_of(sut.normal()));
  EXPECT_EQ(ref.next_u64(), sut.next_u64());
}

TEST(RngSkipTest, SeveralSkipsInARow) {
  for (int skips = 1; skips <= 5; ++skips) {
    Rng ref(13);
    Rng sut(13);
    for (int i = 0; i < skips; ++i) {
      (void)ref.normal();
      sut.skip_normal();
    }
    EXPECT_EQ(bits_of(ref.normal()), bits_of(sut.normal())) << skips;
    EXPECT_EQ(bits_of(ref.lognormal(1.0, 0.5)), bits_of(sut.lognormal(1.0, 0.5)))
        << skips;
    EXPECT_EQ(ref.next_u64(), sut.next_u64()) << skips;
  }
}

TEST(RngSkipTest, RandomInterleavingMatchesNormal) {
  Rng choice(2024);
  Rng ref(14);
  Rng sut(14);
  for (int i = 0; i < 20'000; ++i) {
    switch (choice.uniform_int(0, 3)) {
      case 0:
        EXPECT_EQ(bits_of(ref.normal()), bits_of(sut.normal())) << i;
        break;
      case 1:
        (void)ref.normal();
        sut.skip_normal();
        break;
      case 2:
        EXPECT_EQ(bits_of(ref.next_double()), bits_of(sut.next_double())) << i;
        break;
      default:
        EXPECT_EQ(bits_of(ref.lognormal(2.0, 0.3)),
                  bits_of(sut.lognormal(2.0, 0.3)))
            << i;
        break;
    }
  }
  EXPECT_EQ(ref.next_u64(), sut.next_u64());
}

TEST(DurationDistTest, SkipMatchesDiscardedSampleOverAllKinds) {
  const std::vector<DurationDist> dists = {
      DurationDist::constant(sim::micros(5)),
      DurationDist::normal(sim::micros(10), sim::micros(4)),
      DurationDist::lognormal(sim::nanos(250), 0.15),
      DurationDist::exponential(sim::micros(50)),
  };
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng choice(seed * 7919);
    Rng ref(seed);
    Rng sut(seed);
    for (int i = 0; i < 20'000; ++i) {
      const auto& d = dists[static_cast<std::size_t>(choice.uniform_int(0, 3))];
      if (choice.chance(0.5)) {
        EXPECT_EQ(d.sample(ref), d.sample(sut)) << seed << " " << i;
      } else {
        (void)d.sample(ref);
        d.skip(sut);
      }
    }
    EXPECT_EQ(ref.next_u64(), sut.next_u64()) << seed;
  }
}

TEST(DurationDistTest, ConstantSkipDrawsNothing) {
  Rng ref(5);
  Rng sut(5);
  DurationDist::constant(sim::micros(5)).skip(sut);
  EXPECT_EQ(ref.next_u64(), sut.next_u64());
}

}  // namespace
