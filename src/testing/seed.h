// Seed plumbing for randomized tests and the differential harness.
//
// Every randomized suite derives its streams from one base seed so a
// failure is reproducible from a single number. The base seed comes from
// the XSKETCH_SEED environment variable when set; otherwise a fixed
// default keeps runs deterministic (never std::random_device — an
// unreproducible failure is a lost failure). util::SplitMix64 turns the
// base seed into independent per-component streams: its outputs are
// well-distributed even for consecutive inputs, so `Derive(seed, i)` is
// safe for i = 0, 1, 2, ...

#ifndef XSKETCH_TESTING_SEED_H_
#define XSKETCH_TESTING_SEED_H_

#include <cstdint>
#include <string>

#include "util/random.h"

namespace xsketch::testing {

// An independent sub-seed for component `index` of a run seeded with
// `base`. Distinct (base, index) pairs give statistically independent
// streams.
inline uint64_t Derive(uint64_t base, uint64_t index) {
  using util::SplitMix64;
  return SplitMix64(SplitMix64(base) ^
                    SplitMix64(index * 0x9E3779B97F4A7C15ull + 1));
}

// The base seed for this test process: the value of $XSKETCH_SEED when it
// parses as a uint64, otherwise `fallback`. Logs the chosen seed (and the
// `XSKETCH_SEED=<seed>` incantation that reproduces the run) to stderr
// the first time it is called.
uint64_t BaseSeed(uint64_t fallback = 0xC0FFEE);

// "XSKETCH_SEED=<seed> ctest -R <test>" — the repro command printed in
// failure messages.
std::string ReproCommand(uint64_t seed, const std::string& test_regex);

}  // namespace xsketch::testing

#endif  // XSKETCH_TESTING_SEED_H_
