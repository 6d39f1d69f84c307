// Tests for the stats module: summaries, percentiles, CDFs, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "stats/sample_set.h"
#include "stats/summary.h"
#include "stats/table.h"

namespace {

using stats::SampleSet;
using stats::Summary;
using stats::Table;

TEST(SummaryTest, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SummaryTest, MeanAndStddev) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryTest, SingleSampleHasZeroVariance) {
  Summary s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SummaryTest, MergeMatchesSequential) {
  Summary a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i) * 10 + i;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SummaryTest, MergeWithEmpty) {
  Summary a, empty;
  a.add(1.0);
  a.add(3.0);
  const double mean_before = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  Summary c;
  c.merge(a);
  EXPECT_DOUBLE_EQ(c.mean(), mean_before);
}

TEST(SummaryTest, CoefficientOfVariation) {
  Summary s;
  s.add(9.0);
  s.add(11.0);
  EXPECT_NEAR(s.cv(), std::sqrt(2.0) / 10.0, 1e-12);
}

TEST(SampleSetTest, PercentileInterpolates) {
  SampleSet s({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
}

TEST(SampleSetTest, PercentileSingleElement) {
  SampleSet s({42.0});
  EXPECT_DOUBLE_EQ(s.percentile(90), 42.0);
}

TEST(SampleSetTest, PercentileErrors) {
  SampleSet empty;
  EXPECT_THROW(empty.percentile(50), std::logic_error);
  SampleSet s({1.0});
  EXPECT_THROW(s.percentile(-1), std::invalid_argument);
  EXPECT_THROW(s.percentile(101), std::invalid_argument);
}

TEST(SampleSetTest, AddInvalidatesSortCache) {
  SampleSet s({5.0, 1.0});
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 9.0);
}

TEST(SampleSetTest, CdfIsMonotonic) {
  SampleSet s;
  for (int i = 100; i > 0; --i) {
    s.add(static_cast<double>(i % 17));
  }
  const auto cdf = s.cdf(20);
  ASSERT_FALSE(cdf.empty());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GE(cdf[i].fraction, cdf[i - 1].fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(SampleSetTest, CdfAlwaysIncludesTheMaximum) {
  // Regression: the old fixed-stride down-sampling dropped the maximum
  // whenever (n-1) % step != 0, then patched it back in by exceeding the
  // requested point budget. Sweep awkward (n, max_points) combinations.
  for (const std::size_t n : {1u, 2u, 3u, 7u, 10u, 11u, 100u, 300u, 1000u}) {
    for (const std::size_t max_points : {1u, 2u, 3u, 10u, 99u, 100u}) {
      SampleSet s;
      for (std::size_t i = 0; i < n; ++i) {
        s.add(static_cast<double>(i));
      }
      const auto cdf = s.cdf(max_points);
      ASSERT_FALSE(cdf.empty());
      ASSERT_LE(cdf.size(), max_points) << "n=" << n << " m=" << max_points;
      EXPECT_DOUBLE_EQ(cdf.back().value, static_cast<double>(n - 1))
          << "n=" << n << " m=" << max_points;
      EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0)
          << "n=" << n << " m=" << max_points;
      if (max_points >= 2) {
        EXPECT_DOUBLE_EQ(cdf.front().value, 0.0)
            << "n=" << n << " m=" << max_points;
      }
      for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GT(cdf[i].fraction, cdf[i - 1].fraction);  // no duplicates
      }
    }
  }
}

TEST(SampleSetTest, FractionBelow) {
  SampleSet s({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_below(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_below(10.0), 1.0);
}

TEST(SampleSetTest, SummaryMatchesValues) {
  SampleSet s({1.0, 2.0, 3.0});
  const auto sum = s.summary();
  EXPECT_EQ(sum.count(), 3u);
  EXPECT_DOUBLE_EQ(sum.mean(), 2.0);
}

// --- Selection against a sorted reference ----------------------------------

std::uint64_t bits_of(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

double from_bits(std::uint64_t u) {
  double x;
  std::memcpy(&x, &u, sizeof x);
  return x;
}

// Bit-identical, except for the sign of a zero: std::sort orders -0.0 and
// +0.0 as equal, so the reference itself may hold either at a rank.
::testing::AssertionResult SameBits(double got, double want) {
  if (bits_of(got) == bits_of(want) || (got == 0.0 && want == 0.0)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hexfloat << got << " != " << want;
}

// The sort-then-interpolate percentile that selection must reproduce.
double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.size() == 1) {
    return sorted.front();
  }
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

// n samples of one shape: all-equal, heavy ties, neighbouring doubles, a
// narrow band, zeros of both signs, subnormals, huge magnitudes and
// arbitrary finite bit patterns.
std::vector<double> draw_samples(const std::string& shape, std::size_t n,
                                 std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::lognormal_distribution<double> latency(0.0, 1.5);
  std::vector<double> v(n);
  for (double& x : v) {
    const bool negative = (rng() & 1) != 0;
    if (shape == "uniform") {
      x = unit(rng) * 2000.0 - 1000.0;
    } else if (shape == "latency") {
      x = latency(rng);
    } else if (shape == "all-equal") {
      x = 3.25;
    } else if (shape == "ties") {
      static const double kTies[] = {-2.5, 0.0, 1.0, 1.0 + DBL_EPSILON, 7.0};
      x = kTies[rng() % 5];
    } else if (shape == "adjacent") {
      // Two neighbouring doubles and one 100000 ulps above.
      const std::uint64_t pick = rng() % 10;
      x = from_bits(bits_of(1.5) + (pick < 5 ? 0 : pick < 9 ? 1 : 100000));
    } else if (shape == "narrow") {
      x = 1.0 + unit(rng) * 1e-9;
    } else if (shape == "zeros") {
      const std::uint64_t pick = rng() % 4;
      x = pick == 0 ? 0.0 : pick == 1 ? -0.0 : negative ? -unit(rng) : unit(rng);
    } else if (shape == "subnormal") {
      x = from_bits(rng() % (std::uint64_t{1} << 52));
      x = negative ? -x : x;
    } else if (shape == "huge") {
      x = DBL_MAX * (0.5 + 0.5 * unit(rng));
      x = negative ? -x : x;
    } else {  // "bits": any finite double
      do {
        x = from_bits(rng());
      } while (!std::isfinite(x));
    }
  }
  return v;
}

void expect_matches_reference(const SampleSet& s, std::mt19937_64& rng,
                              const std::string& where) {
  std::vector<double> sorted = s.values();
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> ps = {0.0, 0.1, 50.0, 90.0, 99.0, 99.9, 100.0};
  std::uniform_real_distribution<double> any_p(0.0, 100.0);
  for (int i = 0; i < 3; ++i) {
    ps.push_back(any_p(rng));
  }
  const std::vector<double> batched = s.percentiles(ps);
  ASSERT_EQ(batched.size(), ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double want = sorted_percentile(sorted, ps[i]);
    EXPECT_TRUE(SameBits(batched[i], want)) << where << " batched p=" << ps[i];
    EXPECT_TRUE(SameBits(s.percentile(ps[i]), want))
        << where << " single p=" << ps[i];
  }
  for (const double x : {sorted.front(), sorted[sorted.size() / 2], 0.0}) {
    const double want =
        static_cast<double>(std::upper_bound(sorted.begin(), sorted.end(), x) -
                            sorted.begin()) /
        static_cast<double>(sorted.size());
    EXPECT_EQ(s.fraction_below(x), want) << where << " fraction_below";
  }
  const auto cdf = s.cdf(100);
  const std::size_t m = std::min<std::size_t>(sorted.size(), 100);
  ASSERT_EQ(cdf.size(), m) << where;
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t i = m == 1 ? sorted.size() - 1
                                 : k * (sorted.size() - 1) / (m - 1);
    EXPECT_TRUE(SameBits(cdf[k].value, sorted[i])) << where << " cdf " << k;
  }
}

TEST(SampleSetTest, SelectionMatchesSortReference) {
  std::mt19937_64 rng(0x5e1ec7);
  for (const std::string shape :
       {"uniform", "latency", "all-equal", "ties", "adjacent", "narrow",
        "zeros", "subnormal", "huge", "bits"}) {
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{1000},
          std::size_t{200000}}) {
      const std::string where = shape + " n=" + std::to_string(n);
      SampleSet s(draw_samples(shape, n, rng));
      expect_matches_reference(s, rng, where);
      // A set queried once must answer for samples added afterwards: a new
      // extreme on each side and one more draw of the same shape.
      s.add(s.percentile(100.0) + 1.0);
      s.add(-DBL_MAX);
      s.add(draw_samples(shape, 1, rng).front());
      expect_matches_reference(s, rng, where + " after add");
    }
  }
}

TEST(SampleSetTest, ConstReadsAreThreadSafe) {
  std::mt19937_64 rng(17);
  const SampleSet s(draw_samples("latency", 65536, rng));
  const std::vector<double> ps = {50.0, 90.0, 99.0};
  const std::vector<double> want = s.percentiles(ps);
  const double want_below = s.fraction_below(want[1]);
  const auto want_cdf = s.cdf(50);
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        int& bad = mismatches[static_cast<std::size_t>(t)];
        bad += s.percentiles(ps) == want ? 0 : 1;
        bad += s.percentile(ps[static_cast<std::size_t>(round) % 3]) ==
                       want[static_cast<std::size_t>(round) % 3]
                   ? 0
                   : 1;
        bad += s.fraction_below(want[1]) == want_below ? 0 : 1;
        const auto cdf = s.cdf(50);
        bad += cdf.size() == want_cdf.size() &&
                       cdf.back().value == want_cdf.back().value
                   ? 0
                   : 1;
      }
    });
  }
  for (std::thread& r : readers) {
    r.join();
  }
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

TEST(TableTest, TextRenderingAligns) {
  Table t({"platform", "ms"});
  t.add_row({"docker", "101.5"});
  t.add_row({"kata-containers", "612.0"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("platform"), std::string::npos);
  EXPECT_NE(text.find("kata-containers"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(TableTest, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, EmptyHeadersThrow) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, CsvEscaping) {
  Table t({"name", "note"});
  t.add_row({"a,b", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::mean_pm_std(10.0, 1.5, 1), "10.0 +- 1.5");
}

}  // namespace
