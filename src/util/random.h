// Deterministic pseudo-random generation for data synthesis and sampling.
//
// Rng wraps the xoshiro256** generator: fast, high-quality, and — unlike
// std::mt19937 + std::distribution — bit-for-bit reproducible across
// standard library implementations, which matters because the synthetic
// data sets double as test fixtures.
//
// SplitMix64 is the tree's one 64-bit mixer: Rng seeding, the service's
// audit and trace sampling masks, faultpoint fire decisions, test seed
// derivation and the fuzz driver's mutation stream all call it.

#ifndef XSKETCH_UTIL_RANDOM_H_
#define XSKETCH_UTIL_RANDOM_H_

#include <cstdint>
#include <vector>

namespace xsketch::util {

// One SplitMix64 output for `state` (Steele et al., "Fast Splittable
// Pseudorandom Number Generators"): the golden-gamma step plus the
// variant-13 finalizer. Pure; a caller that wants a stream owns the state
// and its increment. Outputs are well distributed even for consecutive
// inputs, so SplitMix64(seed ^ i) is a deterministic per-index coin.
inline uint64_t SplitMix64(uint64_t state) {
  uint64_t z = state + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t Next();

  // Uniform integer in [0, n). Requires n > 0.
  uint64_t Uniform(uint64_t n);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Approximate Gaussian via the sum of uniforms (Irwin-Hall, n=12).
  double Gaussian(double mean, double stddev);

 private:
  uint64_t s_[4];
};

// Zipf-distributed sampler over {0, ..., n-1} with exponent `theta`.
// Precomputes the CDF once; sampling is a binary search.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double theta);

  // Returns a rank in [0, n), rank 0 being the most frequent.
  uint64_t Sample(Rng& rng) const;

  uint64_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace xsketch::util

#endif  // XSKETCH_UTIL_RANDOM_H_
