// Replay driver for toolchains without libFuzzer (-fsanitize=fuzzer is a
// clang feature; this repo's CI image ships gcc). Links against the same
// LLVMFuzzerTestOneInput entry point the libFuzzer build uses, so fuzz
// targets are written once.
//
// Usage mirrors the libFuzzer flags the scripts rely on:
//
//   fuzz_parser CORPUS_DIR_OR_FILE...            replay corpus inputs
//   fuzz_parser -max_total_time=10 -seed=1 DIR   replay, then mutate
//                                                corpus inputs under a
//                                                SplitMix64 stream until
//                                                the time budget expires
//
// Mutation is deliberately simple (byte flips, truncations, splices,
// random inserts): the goal of the smoke runs is exercising the target's
// error paths deterministically, not coverage-guided exploration.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/random.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace {

using xsketch::util::SplitMix64;

// With XSKETCH_FUZZ_DUMP=<path> set, every input is written to <path>
// before execution — after a crash, the file holds the offending bytes
// (replay them by passing the file as an argument).
void RunOne(const std::string& input) {
  static const char* dump = std::getenv("XSKETCH_FUZZ_DUMP");
  if (dump != nullptr) {
    std::ofstream out(dump, std::ios::binary | std::ios::trunc);
    out.write(input.data(), static_cast<std::streamsize>(input.size()));
  }
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(input.data()),
                         input.size());
}

std::vector<std::string> CollectInputs(int argc, char** argv) {
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-') continue;  // flags handled separately
    std::filesystem::path p(argv[i]);
    if (std::filesystem::is_directory(p)) {
      for (const auto& e : std::filesystem::directory_iterator(p)) {
        if (e.is_regular_file()) files.push_back(e.path().string());
      }
    } else if (std::filesystem::is_regular_file(p)) {
      files.push_back(p.string());
    }
  }
  return files;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string Mutate(const std::string& base, uint64_t& state) {
  std::string m = base;
  const uint64_t r = state = SplitMix64(state);
  switch (r % 4) {
    case 0:  // flip a byte
      if (!m.empty()) m[SplitMix64(state + 1) % m.size()] ^= (r >> 8) & 0xFF;
      break;
    case 1:  // truncate
      m.resize(m.size() / 2 + (r >> 8) % (m.size() / 2 + 1));
      break;
    case 2: {  // splice: repeat a chunk
      if (!m.empty()) {
        const size_t at = SplitMix64(state + 2) % m.size();
        const size_t len = 1 + SplitMix64(state + 3) % 16;
        m.insert(at, m.substr(at, std::min(len, m.size() - at)));
      }
      break;
    }
    default:  // insert random bytes
      for (int i = 0; i < 4; ++i) {
        m.insert(m.size() ? SplitMix64(state + i) % m.size() : 0, 1,
                 static_cast<char>(SplitMix64(state + 16 + i) & 0xFF));
      }
      break;
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  double max_total_time = 0.0;
  uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "-max_total_time=", 16) == 0) {
      max_total_time = std::atof(argv[i] + 16);
    } else if (std::strncmp(argv[i], "-seed=", 6) == 0) {
      seed = std::strtoull(argv[i] + 6, nullptr, 0);
    }
  }

  const std::vector<std::string> files = CollectInputs(argc, argv);
  std::vector<std::string> corpus;
  corpus.reserve(files.size());
  for (const std::string& f : files) {
    corpus.push_back(ReadFile(f));
    RunOne(corpus.back());
  }
  std::fprintf(stderr, "[standalone] replayed %zu corpus inputs\n",
               corpus.size());
  if (corpus.empty()) corpus.push_back("");

  size_t executions = corpus.size();
  if (max_total_time > 0.0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(max_total_time));
    uint64_t state = SplitMix64(seed);
    while (std::chrono::steady_clock::now() < deadline) {
      const std::string& base = corpus[SplitMix64(state) % corpus.size()];
      RunOne(Mutate(base, state));
      ++executions;
    }
  }
  std::fprintf(stderr, "[standalone] done: %zu executions (seed %llu)\n",
               executions, static_cast<unsigned long long>(seed));
  return 0;
}
