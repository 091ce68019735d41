#include "util/random.h"

#include <cmath>

#include "util/check.h"

namespace xsketch::util {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  // The canonical SplitMix64 stream: output i mixes seed + (i + 1) * gamma.
  for (auto& s : s_) {
    s = SplitMix64(seed);
    seed += 0x9E3779B97F4A7C15ull;
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t n) {
  XS_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  XS_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Gaussian(double mean, double stddev) {
  double sum = 0.0;
  for (int i = 0; i < 12; ++i) sum += NextDouble();
  return mean + stddev * (sum - 6.0);
}

ZipfSampler::ZipfSampler(uint64_t n, double theta) {
  XS_CHECK(n > 0);
  cdf_.resize(n);
  double acc = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = acc;
  }
  for (uint64_t i = 0; i < n; ++i) cdf_[i] /= acc;
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  // First index with cdf >= u.
  uint64_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    uint64_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace xsketch::util
