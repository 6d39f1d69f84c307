#include "sim/rng.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace sim {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kRawMask = (std::uint64_t{1} << 53) - 1;

/// A raw 53-bit draw as a double in [0, 1); exact, so raws round-trip.
double unit(std::uint64_t raw) { return static_cast<double>(raw) * 0x1.0p-53; }

/// One Box-Muller pair's radius and angle. The eager normal() path and the
/// lazy path after skip_normal() both go through here, so their variates
/// are bit-identical.
struct Polar {
  double r;
  double theta;
};
Polar box_muller(double u1, double u2) {
  return {std::sqrt(-2.0 * std::log(u1)), 2.0 * kPi * u2};
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

double zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() { return unit(next_u64() >> 11); }

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) {
    throw std::invalid_argument("Rng::uniform_int: lo > hi");
  }
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

std::uint64_t Rng::next_u1_raw() {
  std::uint64_t raw = next_u64() >> 11;
  while (unit(raw) <= 1e-300) {
    raw = next_u64() >> 11;
  }
  return raw;
}

double Rng::normal() {
  switch (cache_mode()) {
    case kVariate: {
      cache_hi_ = 0;
      double v;
      std::memcpy(&v, &cache_lo_, sizeof v);
      return v;
    }
    case kUniforms: {
      const Polar p = box_muller(unit(cache_lo_), unit(cache_hi_ & kRawMask));
      cache_hi_ = 0;
      return p.r * std::sin(p.theta);
    }
    case kEmpty:
      break;
  }
  const double u1 = unit(next_u1_raw());
  const double u2 = next_double();
  const Polar p = box_muller(u1, u2);
  const double cached = p.r * std::sin(p.theta);
  std::memcpy(&cache_lo_, &cached, sizeof cached);
  cache_hi_ = std::uint64_t{kVariate} << kModeShift;
  return p.r * std::cos(p.theta);
}

void Rng::skip_normal() {
  if (cache_mode() != kEmpty) {
    cache_hi_ = 0;
    return;
  }
  cache_lo_ = next_u1_raw();
  cache_hi_ = (std::uint64_t{kUniforms} << kModeShift) | (next_u64() >> 11);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal(double mu, double sigma) { return std::exp(mu + sigma * normal()); }

double Rng::exponential(double lambda) {
  if (lambda <= 0.0) {
    throw std::invalid_argument("Rng::exponential: lambda must be positive");
  }
  double u = next_double();
  while (u <= 1e-300) {
    u = next_double();
  }
  return -std::log(u) / lambda;
}

double Rng::pareto(double scale, double shape) {
  if (scale <= 0.0 || shape <= 0.0) {
    throw std::invalid_argument("Rng::pareto: scale and shape must be positive");
  }
  double u = next_double();
  while (u <= 1e-300) {
    u = next_double();
  }
  return scale / std::pow(u, 1.0 / shape);
}

bool Rng::chance(double p) { return next_double() < p; }

Rng Rng::fork() { return Rng(next_u64()); }

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  if (n == 0) {
    throw std::invalid_argument("ZipfianGenerator: n must be positive");
  }
  zetan_ = zeta(n, theta);
  zeta2theta_ = zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2theta_ / zetan_);
}

std::uint64_t ZipfianGenerator::next(Rng& rng) {
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  const double raw =
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_);
  std::uint64_t item = static_cast<std::uint64_t>(raw);
  if (item >= n_) {
    item = n_ - 1;
  }
  return item;
}

}  // namespace sim
