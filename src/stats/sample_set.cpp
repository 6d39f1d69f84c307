#include "stats/sample_set.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace stats {

namespace {

/// out[i] = the value at sorted position ranks[i] of `v`. `ranks` ascend,
/// are distinct and lie below v.size(). Successive nth_element calls on a
/// local copy each partition what the last one left above its rank.
std::vector<double> select_ranks(const std::vector<double>& v,
                                 const std::vector<std::size_t>& ranks) {
  std::vector<double> copy(v);
  std::vector<double> out;
  out.reserve(ranks.size());
  auto begin = copy.begin();
  for (const std::size_t rank : ranks) {
    const auto nth = copy.begin() + static_cast<std::ptrdiff_t>(rank);
    std::nth_element(begin, nth, copy.end());
    out.push_back(*nth);
    begin = nth + 1;
  }
  return out;
}

}  // namespace

SampleSet::SampleSet(std::vector<double> values) : values_(std::move(values)) {}

double SampleSet::percentile(double p) const {
  return percentiles({p}).front();
}

std::vector<double> SampleSet::percentiles(
    const std::vector<double>& ps) const {
  if (values_.empty()) {
    throw std::logic_error("SampleSet::percentile: empty sample set");
  }
  for (const double p : ps) {
    if (p < 0.0 || p > 100.0) {
      throw std::invalid_argument("SampleSet::percentile: p out of [0,100]");
    }
  }
  if (values_.size() == 1) {
    return std::vector<double>(ps.size(), values_.front());
  }
  const double top = static_cast<double>(values_.size() - 1);
  std::vector<std::size_t> ranks;
  ranks.reserve(2 * ps.size());
  for (const double p : ps) {
    const double rank = p / 100.0 * top;
    ranks.push_back(static_cast<std::size_t>(std::floor(rank)));
    ranks.push_back(static_cast<std::size_t>(std::ceil(rank)));
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  const std::vector<double> at = select_ranks(values_, ranks);
  const auto value_at = [&](std::size_t rank) {
    return at[static_cast<std::size_t>(
        std::lower_bound(ranks.begin(), ranks.end(), rank) - ranks.begin())];
  };
  std::vector<double> out;
  out.reserve(ps.size());
  for (const double p : ps) {
    // The same arithmetic as interpolating over a sorted copy.
    const double rank = p / 100.0 * top;
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    out.push_back(value_at(lo) + frac * (value_at(hi) - value_at(lo)));
  }
  return out;
}

Summary SampleSet::summary() const {
  Summary s;
  for (double v : values_) {
    s.add(v);
  }
  return s;
}

std::vector<CdfPoint> SampleSet::cdf(std::size_t max_points) const {
  std::vector<CdfPoint> points;
  if (values_.empty() || max_points == 0) {
    return points;
  }
  std::vector<double> sorted(values_);
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const std::size_t m = std::min(n, max_points);
  points.reserve(m);
  if (m == 1) {
    // A single point can only honor the "maximum is included" promise.
    points.push_back({sorted.back(), 1.0});
    return points;
  }
  // Indices spread evenly over [0, n-1]; k=0 hits the minimum and k=m-1
  // the maximum, so neither extreme is ever dropped and the point count
  // never exceeds max_points. (The previous fixed-stride loop missed the
  // maximum whenever (n-1) % step != 0 and then over-ran the budget
  // appending it back.)
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t i = k * (n - 1) / (m - 1);
    points.push_back(
        {sorted[i], static_cast<double>(i + 1) / static_cast<double>(n)});
  }
  return points;
}

double SampleSet::fraction_below(double x) const {
  if (values_.empty()) {
    return 0.0;
  }
  // Counts what std::upper_bound over a sorted copy would place at or
  // before x.
  const auto below = std::count_if(values_.begin(), values_.end(),
                                   [x](double v) { return !(x < v); });
  return static_cast<double>(below) / static_cast<double>(values_.size());
}

}  // namespace stats
