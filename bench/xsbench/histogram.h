// Fixed-memory, log-bucketed latency histogram for client-side samples.
//
// A run records hundreds of thousands of request latencies per slice;
// keeping them all to sort would make memory grow with the run. Values
// (nanoseconds) below 2^kSubBits are counted exactly; above that, every
// power-of-two range [2^e, 2^(e+1)) is cut into 2^kSubBits equal
// sub-buckets. A bucket then spans at most 1/128 of its lower bound, and
// reporting its midpoint is within 0.4% of any sample in it — inside the
// 1% the benchmark promises.
//
// Percentiles use util::Percentile's nearest-rank definition (the sample
// at rank round(p * (n - 1))), and are refused (nullopt) when fewer than
// kMinBeyond samples lie beyond that rank: a tail the sample cannot
// support is not reported.

#ifndef XSKETCH_BENCH_XSBENCH_HISTOGRAM_H_
#define XSKETCH_BENCH_XSBENCH_HISTOGRAM_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace xsbench {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  // Values at or above 2^kMaxExp ns (~4.9 hours) land in the last bucket.
  static constexpr int kMaxExp = 44;
  static constexpr uint64_t kMinBeyond = 10;

  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Record(uint64_t ns) {
    ++counts_[BucketOf(ns)];
    ++count_;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  std::optional<double> Percentile(double p) const {
    if (count_ == 0) return std::nullopt;
    const uint64_t rank = static_cast<uint64_t>(
        std::llround(p * static_cast<double>(count_ - 1)));
    if (count_ - 1 - rank < kMinBeyond) return std::nullopt;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen > rank) return Midpoint(i);
    }
    return std::nullopt;  // unreachable: seen reaches count_ > rank
  }

 private:
  static constexpr size_t kBuckets =
      kSub + static_cast<size_t>(kMaxExp - kSubBits) * kSub;

  static size_t BucketOf(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    v = std::min(v, (uint64_t{1} << kMaxExp) - 1);
    const int e = 63 - std::countl_zero(v);
    const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return kSub + static_cast<size_t>(e - kSubBits) * kSub +
           static_cast<size_t>(sub);
  }

  static double Midpoint(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const int shift = static_cast<int>((i - kSub) / kSub);
    const uint64_t sub = (i - kSub) % kSub;
    const double lo = static_cast<double>((kSub + sub) << shift);
    const double width = static_cast<double>(uint64_t{1} << shift);
    return lo + (width - 1.0) / 2.0;
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

}  // namespace xsbench

#endif  // XSKETCH_BENCH_XSBENCH_HISTOGRAM_H_
