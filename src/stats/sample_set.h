// Retained-sample statistics: percentiles and empirical CDFs.
//
// The paper reports mean +- stddev bar charts for most figures, p90 for the
// netperf latency figure, and CDFs over 300 startups for the boot figures.
// SampleSet supports all three from one container.
//
// Percentiles are exact order statistics found by selection, never by
// sorting: successive std::nth_element calls on a local copy of the samples
// find the ranks each p interpolates between, and the copy is freed on
// return. The result is bit-identical to sorting the samples and
// interpolating between neighbouring ranks, up to the sign of a zero:
// std::sort orders -0.0 and +0.0 as equal, so it fixes neither at a rank.
// percentiles() serves several p from one copy. cdf() sorts a local copy
// and fraction_below() counts. Nothing is cached, so a const SampleSet has
// no hidden state and concurrent const reads are thread-safe.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "stats/summary.h"

namespace stats {

/// A point on an empirical CDF: (value, cumulative fraction in [0,1]).
struct CdfPoint {
  double value;
  double fraction;
};

/// Collects raw observations and serves order statistics. Samples must not
/// be NaN (std::sort has no order for them either).
class SampleSet {
 public:
  SampleSet() = default;
  explicit SampleSet(std::vector<double> values);

  void add(double x) { values_.push_back(x); }
  void reserve(std::size_t n) { values_.reserve(n); }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  /// Linear-interpolated percentile, p in [0, 100]. Throws when empty or
  /// p is out of range.
  double percentile(double p) const;

  /// percentile() of each p, in order, from one selection over the set.
  /// Throws like percentile() for any p.
  std::vector<double> percentiles(const std::vector<double>& ps) const;

  double median() const { return percentile(50.0); }

  /// Streaming summary over the same observations.
  Summary summary() const;

  /// Empirical CDF with at most `max_points` points (down-sampled evenly;
  /// always includes the minimum and maximum observation).
  std::vector<CdfPoint> cdf(std::size_t max_points = 100) const;

  /// Fraction of samples <= x.
  double fraction_below(double x) const;

 private:
  std::vector<double> values_;
};

}  // namespace stats
