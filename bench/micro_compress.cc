// Real wall-clock throughput of the seven from-scratch compressors on 4 KiB
// pages of the nci, dickens and binary profiles, plus the two other per-page
// host costs of every store, load and fault: PageChecksum and FillPage.
// Complements the virtual-time model constants: the *orderings* (lz4 fastest
// ... deflate slowest; compression slower than decompression) must hold for
// real too.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/compress/compressor.h"
#include "src/compress/corpus.h"

namespace tierscape {
namespace {

std::vector<std::vector<std::byte>> MakePages(CorpusProfile profile, int count) {
  std::vector<std::vector<std::byte>> pages;
  for (int i = 0; i < count; ++i) {
    pages.emplace_back(kPageSize);
    FillPage(profile, 100 + i, pages.back());
  }
  return pages;
}

void BM_Compress(benchmark::State& state) {
  const auto algorithm = static_cast<Algorithm>(state.range(0));
  const auto profile = static_cast<CorpusProfile>(state.range(1));
  const Compressor& compressor = GetCompressor(algorithm);
  const auto pages = MakePages(profile, 16);
  std::vector<std::byte> dst(2 * kPageSize);
  std::size_t i = 0;
  for (auto _ : state) {
    auto size = compressor.Compress(pages[i % pages.size()], dst);
    benchmark::DoNotOptimize(size);
    ++i;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
  state.SetLabel(std::string(AlgorithmName(algorithm)) + "/" +
                 std::string(CorpusProfileName(profile)));
}

void BM_Decompress(benchmark::State& state) {
  const auto algorithm = static_cast<Algorithm>(state.range(0));
  const auto profile = static_cast<CorpusProfile>(state.range(1));
  const Compressor& compressor = GetCompressor(algorithm);
  const auto pages = MakePages(profile, 16);
  std::vector<std::vector<std::byte>> compressed;
  for (const auto& page : pages) {
    std::vector<std::byte> dst(2 * kPageSize);
    auto size = compressor.Compress(page, dst);
    dst.resize(*size);
    compressed.push_back(std::move(dst));
  }
  std::vector<std::byte> out(kPageSize);
  std::size_t i = 0;
  for (auto _ : state) {
    auto size = compressor.Decompress(compressed[i % compressed.size()], out);
    benchmark::DoNotOptimize(size);
    ++i;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
  state.SetLabel(std::string(AlgorithmName(algorithm)) + "/" +
                 std::string(CorpusProfileName(profile)));
}

void BM_PageChecksum(benchmark::State& state) {
  const auto pages = MakePages(CorpusProfile::kDickens, 16);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PageChecksum(pages[i % pages.size()]));
    ++i;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}

void BM_FillPage(benchmark::State& state) {
  const auto profile = static_cast<CorpusProfile>(state.range(0));
  std::vector<std::byte> page(kPageSize);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    FillPage(profile, seed++, page);
    benchmark::DoNotOptimize(page.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
  state.SetLabel(std::string(CorpusProfileName(profile)));
}

void RegisterAll() {
  constexpr int kProfiles[] = {static_cast<int>(CorpusProfile::kNci),
                               static_cast<int>(CorpusProfile::kDickens),
                               static_cast<int>(CorpusProfile::kBinary)};
  for (int a = 0; a < kAlgorithmCount; ++a) {
    for (int p : kProfiles) {
      benchmark::RegisterBenchmark("BM_Compress", BM_Compress)->Args({a, p});
      benchmark::RegisterBenchmark("BM_Decompress", BM_Decompress)->Args({a, p});
    }
  }
  benchmark::RegisterBenchmark("BM_PageChecksum", BM_PageChecksum);
  for (int p : kProfiles) {
    benchmark::RegisterBenchmark("BM_FillPage", BM_FillPage)->Arg(p);
  }
}

const bool registered = (RegisterAll(), true);

}  // namespace
}  // namespace tierscape
