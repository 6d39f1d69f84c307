// Deterministic pseudo-random number generation for the simulator.
//
// Every experiment seeds its own Rng so figures are bit-for-bit reproducible
// across runs and machines. The generator is xoshiro256++ (public domain,
// Blackman & Vigna), seeded through splitmix64 so that small seeds still
// produce well-mixed state.
#pragma once

#include <array>
#include <cstdint>

namespace sim {

/// xoshiro256++ generator with convenience samplers for the distributions
/// the cost models need. Not thread safe; use one instance per actor.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x1505'CAFE'F00D'5EEDull);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second variate).
  double normal();

  /// Advance the stream exactly as a discarded normal() would, without
  /// computing the variate. If a variate is cached, drops it. Otherwise
  /// draws the Box-Muller pair's two uniforms and keeps them: a later
  /// normal() derives the sine variate from them with the same expression
  /// the eager path uses, so every value and the stream stay bit-identical.
  /// Skips Normal and LogNormal samples alike (lognormal() draws one
  /// normal()).
  void skip_normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma);

  /// Exponential with the given rate (lambda). Mean is 1/lambda.
  double exponential(double lambda);

  /// Pareto (heavy tail) with scale x_m > 0 and shape alpha > 0.
  double pareto(double scale, double shape);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Derive an independent child generator (for per-actor streams).
  Rng fork();

 private:
  /// What the Box-Muller cache holds, kept in the top bits of cache_hi_.
  enum CacheMode : std::uint64_t {
    kEmpty = 0,
    kVariate = 1,   // cache_lo_ holds the cached sine variate's bits
    kUniforms = 2,  // cache_lo_/cache_hi_ hold the pair's 53-bit raw uniforms
  };
  static constexpr int kModeShift = 62;

  CacheMode cache_mode() const {
    return static_cast<CacheMode>(cache_hi_ >> kModeShift);
  }
  /// Raw 53-bit draw for the first Box-Muller uniform, rejecting zero.
  std::uint64_t next_u1_raw();

  std::array<std::uint64_t, 4> state_;
  // The Box-Muller cache in two words, so the generator stays 48 bytes:
  // a mode (kEmpty, kVariate, kUniforms) in cache_hi_'s top bits, plus
  // either the cached variate or the pair's two raw uniforms.
  std::uint64_t cache_lo_ = 0;
  std::uint64_t cache_hi_ = 0;
};

/// Zipfian sampler over [0, n) with skew theta (YCSB uses theta = 0.99).
/// Uses the Gray et al. rejection-inversion-free formulation that YCSB's
/// own generator implements, so key popularity matches the paper's workload.
class ZipfianGenerator {
 public:
  ZipfianGenerator(std::uint64_t n, double theta = 0.99);

  /// Sample an item index in [0, n). Hot items are small indices.
  std::uint64_t next(Rng& rng);

  std::uint64_t item_count() const { return n_; }
  double theta() const { return theta_; }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

}  // namespace sim
