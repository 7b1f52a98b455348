// Tests for the seven compression algorithms: round-trip correctness on all
// corpus profiles and sizes (parameterized), ratio-ordering properties the
// paper's tier characterization relies on, and corruption handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/compress/bitstream.h"
#include "src/compress/codelen.h"
#include "src/compress/compressor.h"
#include "src/compress/corpus.h"

namespace tierscape {
namespace {

std::vector<std::byte> MakePage(CorpusProfile profile, std::uint64_t seed,
                                std::size_t size = kPageSize) {
  std::vector<std::byte> page(size);
  FillPage(profile, seed, page);
  return page;
}

// ---------------------------------------------------------------------------
// Parameterized round-trip: every algorithm x every corpus profile.
// ---------------------------------------------------------------------------

class RoundTripTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RoundTripTest, CompressDecompressIdentity) {
  const auto algorithm = static_cast<Algorithm>(std::get<0>(GetParam()));
  const auto profile = static_cast<CorpusProfile>(std::get<1>(GetParam()));
  const Compressor& compressor = GetCompressor(algorithm);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::vector<std::byte> page = MakePage(profile, seed);
    std::vector<std::byte> compressed(2 * kPageSize);
    auto size = compressor.Compress(page, compressed);
    ASSERT_TRUE(size.ok()) << compressor.name() << " seed " << seed << ": "
                           << size.status().ToString();
    std::vector<std::byte> restored(kPageSize);
    auto restored_size = compressor.Decompress(
        std::span<const std::byte>(compressed.data(), *size), restored);
    ASSERT_TRUE(restored_size.ok()) << restored_size.status().ToString();
    EXPECT_EQ(*restored_size, kPageSize);
    EXPECT_EQ(restored, page) << compressor.name() << " corrupted seed " << seed;
  }
}

TEST_P(RoundTripTest, OddSizes) {
  const auto algorithm = static_cast<Algorithm>(std::get<0>(GetParam()));
  const auto profile = static_cast<CorpusProfile>(std::get<1>(GetParam()));
  const Compressor& compressor = GetCompressor(algorithm);

  for (std::size_t size : {1ul, 2ul, 7ul, 13ul, 64ul, 100ul, 1000ul, 4095ul}) {
    const std::vector<std::byte> data = MakePage(profile, size * 31 + 1, size);
    std::vector<std::byte> compressed(4 * size + 1024);
    auto csize = compressor.Compress(data, compressed);
    ASSERT_TRUE(csize.ok()) << compressor.name() << " size " << size;
    std::vector<std::byte> restored(size);
    auto rsize = compressor.Decompress(
        std::span<const std::byte>(compressed.data(), *csize), restored);
    ASSERT_TRUE(rsize.ok()) << compressor.name() << " size " << size << ": "
                            << rsize.status().ToString();
    EXPECT_EQ(restored, data) << compressor.name() << " size " << size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, RoundTripTest,
    ::testing::Combine(::testing::Range(0, kAlgorithmCount),
                       ::testing::Range(0, kCorpusProfileCount)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& param_info) {
      std::string name(AlgorithmName(static_cast<Algorithm>(std::get<0>(param_info.param))));
      name += "_";
      name += CorpusProfileName(static_cast<CorpusProfile>(std::get<1>(param_info.param)));
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Property: random binary blobs round-trip through every algorithm.
// ---------------------------------------------------------------------------

class FuzzRoundTripTest : public ::testing::TestWithParam<int> {};

// A blob of 64..4159 bytes mixing runs, repeated motifs, and random bytes.
std::vector<std::byte> MakeBlob(Rng& rng) {
  std::vector<std::byte> data(64 + rng.NextBelow(4096));
  std::size_t i = 0;
  while (i < data.size()) {
    const int mode = static_cast<int>(rng.NextBelow(3));
    std::size_t run = 1 + rng.NextBelow(64);
    run = std::min(run, data.size() - i);
    if (mode == 0) {
      std::memset(data.data() + i, static_cast<int>(rng.NextBelow(4)), run);
    } else if (mode == 1 && i >= 8) {
      for (std::size_t j = 0; j < run; ++j) {
        data[i + j] = data[i + j - 8];
      }
    } else {
      for (std::size_t j = 0; j < run; ++j) {
        data[i + j] = static_cast<std::byte>(rng.Next() & 0xff);
      }
    }
    i += run;
  }
  return data;
}

TEST_P(FuzzRoundTripTest, RandomStructuredBlobs) {
  const auto algorithm = static_cast<Algorithm>(GetParam());
  const Compressor& compressor = GetCompressor(algorithm);
  Rng rng(999 + GetParam());
  for (int iteration = 0; iteration < 50; ++iteration) {
    const std::vector<std::byte> data = MakeBlob(rng);
    std::vector<std::byte> compressed(2 * data.size() + 1024);
    auto csize = compressor.Compress(data, compressed);
    ASSERT_TRUE(csize.ok());
    std::vector<std::byte> restored(data.size());
    auto rsize = compressor.Decompress(
        std::span<const std::byte>(compressed.data(), *csize), restored);
    ASSERT_TRUE(rsize.ok()) << compressor.name() << " iteration " << iteration;
    ASSERT_EQ(restored, data) << compressor.name() << " iteration " << iteration;
  }
}

// Test-name suffix for a suite parameterized by algorithm index.
std::string AlgorithmParamName(const ::testing::TestParamInfo<int>& info) {
  std::string name(AlgorithmName(static_cast<Algorithm>(info.param)));
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, FuzzRoundTripTest, ::testing::Range(0, kAlgorithmCount),
                         AlgorithmParamName);

// ---------------------------------------------------------------------------
// Ratio ordering properties (§2, §4, Figure 2).
// ---------------------------------------------------------------------------

double MeanRatio(Algorithm algorithm, CorpusProfile profile) {
  const Compressor& compressor = GetCompressor(algorithm);
  double total = 0.0;
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    const std::vector<std::byte> page = MakePage(profile, 100 + i);
    std::vector<std::byte> compressed(2 * kPageSize);
    total += static_cast<double>(*compressor.Compress(page, compressed)) / kPageSize;
  }
  return total / n;
}

TEST(RatioOrderingTest, DeflateBestOnText) {
  // deflate offers one of the best compression ratios (§2).
  for (CorpusProfile profile : {CorpusProfile::kNci, CorpusProfile::kDickens}) {
    const double deflate = MeanRatio(Algorithm::kDeflate, profile);
    EXPECT_LT(deflate, MeanRatio(Algorithm::kLz4, profile));
    EXPECT_LT(deflate, MeanRatio(Algorithm::kLzo, profile));
    EXPECT_LT(deflate, MeanRatio(Algorithm::kZstd, profile));
    EXPECT_LT(deflate, MeanRatio(Algorithm::k842, profile));
  }
}

TEST(RatioOrderingTest, ZstdBetweenLzoAndDeflate) {
  for (CorpusProfile profile : {CorpusProfile::kNci, CorpusProfile::kDickens}) {
    const double zstd = MeanRatio(Algorithm::kZstd, profile);
    EXPECT_LT(zstd, MeanRatio(Algorithm::kLzo, profile));
    EXPECT_GT(zstd, MeanRatio(Algorithm::kDeflate, profile));
  }
}

TEST(RatioOrderingTest, Lz4HcBeatsLz4) {
  for (CorpusProfile profile : {CorpusProfile::kNci, CorpusProfile::kDickens,
                                CorpusProfile::kBinary}) {
    EXPECT_LT(MeanRatio(Algorithm::kLz4Hc, profile), MeanRatio(Algorithm::kLz4, profile));
  }
}

TEST(RatioOrderingTest, NciMoreCompressibleThanDickens) {
  // nci is the highly compressible corpus [22].
  for (int a = 0; a < kAlgorithmCount; ++a) {
    const auto algorithm = static_cast<Algorithm>(a);
    EXPECT_LT(MeanRatio(algorithm, CorpusProfile::kNci),
              MeanRatio(algorithm, CorpusProfile::kDickens))
        << AlgorithmName(algorithm);
  }
}

TEST(RatioOrderingTest, RandomDataIncompressible) {
  for (int a = 0; a < kAlgorithmCount; ++a) {
    EXPECT_GT(MeanRatio(static_cast<Algorithm>(a), CorpusProfile::kRandom), 0.98);
  }
}

TEST(RatioOrderingTest, ZeroPagesNearlyFree) {
  for (Algorithm algorithm : {Algorithm::kLz4, Algorithm::kLzo, Algorithm::kLzoRle,
                              Algorithm::kDeflate, Algorithm::kZstd}) {
    EXPECT_LT(MeanRatio(algorithm, CorpusProfile::kZero), 0.02)
        << AlgorithmName(algorithm);
  }
}

TEST(RatioOrderingTest, LzoRleWinsOnRunHeavyData) {
  EXPECT_LE(MeanRatio(Algorithm::kLzoRle, CorpusProfile::kZero),
            MeanRatio(Algorithm::kLzo, CorpusProfile::kZero));
}

// ---------------------------------------------------------------------------
// Rejection and corruption handling.
// ---------------------------------------------------------------------------

TEST(RejectionTest, TightBufferRejectsIncompressible) {
  const std::vector<std::byte> page = MakePage(CorpusProfile::kRandom, 7);
  std::vector<std::byte> small(kPageSize * 9 / 10);
  for (int a = 0; a < kAlgorithmCount; ++a) {
    auto result = GetCompressor(static_cast<Algorithm>(a)).Compress(page, small);
    EXPECT_FALSE(result.ok()) << AlgorithmName(static_cast<Algorithm>(a));
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kRejected);
    }
  }
}

TEST(CorruptionTest, TruncatedStreamFailsCleanly) {
  const std::vector<std::byte> page = MakePage(CorpusProfile::kDickens, 3);
  for (int a = 0; a < kAlgorithmCount; ++a) {
    const Compressor& compressor = GetCompressor(static_cast<Algorithm>(a));
    std::vector<std::byte> compressed(2 * kPageSize);
    auto size = compressor.Compress(page, compressed);
    ASSERT_TRUE(size.ok());
    std::vector<std::byte> restored(kPageSize);
    // Truncate to half: must fail, not crash, not read out of bounds.
    auto result = compressor.Decompress(
        std::span<const std::byte>(compressed.data(), *size / 2), restored);
    EXPECT_FALSE(result.ok()) << compressor.name();
  }
}

// A zstd stream declaring zero literals, then one sequence (run 0, match 4,
// offset 1) whose match starts before the output does. The zero-length
// literal copy ahead of the match check must not touch the (null) literal
// buffer; under UBSan this test guards exactly that.
TEST(CorruptionTest, ZstdZeroLiteralsThenMatchFailsCleanly) {
  std::vector<std::byte> stream(128);
  BitWriter writer(stream);
  ASSERT_TRUE(writer.Write(0, 24));  // literal count
  ASSERT_TRUE(writer.Write(1, 24));  // sequence count
  const std::vector<std::uint8_t> no_codes(256, 0);
  ASSERT_TRUE(WriteCodeLengths(writer, no_codes));
  ASSERT_TRUE(writer.Write(0, 4));   // literal run 0
  ASSERT_TRUE(writer.Write(0, 4));   // match length 4 + 0
  ASSERT_TRUE(writer.Write(1, 1));   // offset 1, one bit at output position 0
  ASSERT_TRUE(writer.Write(0, 32));  // padding: the reader must not exhaust
  const std::size_t size = writer.Finish();
  ASSERT_GT(size, 0u);
  std::vector<std::byte> restored(kPageSize);
  auto result = GetCompressor(Algorithm::kZstd)
                    .Decompress(std::span<const std::byte>(stream.data(), size), restored);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

// Seeded corruption of valid streams: 1-4 flipped bits per stream. A decoder
// may return wrong bytes (the formats carry no checksum) but must come back
// with a Status — no crash, and no ASan or UBSan finding in those legs.
class BitFlipTest : public ::testing::TestWithParam<int> {};

TEST_P(BitFlipTest, FlippedStreamsReturnStatus) {
  const Compressor& compressor = GetCompressor(static_cast<Algorithm>(GetParam()));
  Rng rng(4242 + GetParam());
  std::vector<std::byte> compressed(2 * kPageSize);
  std::vector<std::byte> restored(kPageSize);
  int rejected = 0;
  for (int p = 0; p < kCorpusProfileCount; ++p) {
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      const std::vector<std::byte> page = MakePage(static_cast<CorpusProfile>(p), 500 + seed);
      auto size = compressor.Compress(page, compressed);
      ASSERT_TRUE(size.ok()) << compressor.name() << " seed " << seed;
      for (int trial = 0; trial < 32; ++trial) {
        std::vector<std::byte> stream(compressed.begin(), compressed.begin() + *size);
        const int flips = 1 + static_cast<int>(rng.NextBelow(4));
        for (int f = 0; f < flips; ++f) {
          const std::size_t bit = rng.NextBelow(8 * stream.size());
          stream[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
        }
        auto result = compressor.Decompress(stream, restored);
        if (result.ok()) {
          EXPECT_EQ(*result, kPageSize) << compressor.name();
        } else {
          EXPECT_EQ(result.status().code(), StatusCode::kCorruption) << compressor.name();
          ++rejected;
        }
      }
    }
  }
  EXPECT_GT(rejected, 0) << compressor.name();
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, BitFlipTest, ::testing::Range(0, kAlgorithmCount),
                         AlgorithmParamName);

TEST(CorpusTest, Deterministic) {
  for (int p = 0; p < kCorpusProfileCount; ++p) {
    const auto profile = static_cast<CorpusProfile>(p);
    EXPECT_EQ(MakePage(profile, 5), MakePage(profile, 5));
    if (profile != CorpusProfile::kZero) {
      EXPECT_NE(MakePage(profile, 5), MakePage(profile, 6));
    }
  }
}

// The text profiles append whole words and separators and truncate only at
// the end, so a fill of any length is a prefix of the full page — at every
// cut through a word, a separator, or the fixed-size slot FillDickens copies.
TEST(CorpusTest, TextFillOfAnyLengthIsAPrefixOfThePage) {
  for (const CorpusProfile profile : {CorpusProfile::kDickens, CorpusProfile::kNci}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const std::vector<std::byte> page = MakePage(profile, seed);
      for (std::size_t size = 0; size <= kPageSize; size += size < 64 || size > 4000 ? 1 : 61) {
        const std::vector<std::byte> fill = MakePage(profile, seed, size);
        ASSERT_TRUE(std::equal(fill.begin(), fill.end(), page.begin()))
            << CorpusProfileName(profile) << " seed " << seed << " size " << size;
      }
    }
  }
}

TEST(CorpusTest, ChecksumDetectsChange) {
  std::vector<std::byte> page = MakePage(CorpusProfile::kBinary, 9);
  const std::uint64_t before = PageChecksum(page);
  page[100] ^= std::byte{1};
  EXPECT_NE(before, PageChecksum(page));
}

// ---------------------------------------------------------------------------
// Golden digests: compressed sizes drive pool packing, TCO and virtual time,
// so every compressed byte is pinned. A codec speed change must leave these
// constants untouched; a deliberate format change must say why it moved them.
// ---------------------------------------------------------------------------

constexpr int kGoldenSeeds = 64;

std::uint64_t Fold(std::uint64_t h, std::span<const std::byte> bytes) {
  h = SplitMix64(h ^ bytes.size());
  for (std::byte b : bytes) {
    h = SplitMix64(h ^ static_cast<std::uint64_t>(b));
  }
  return h;
}

// Indexed [algorithm][profile] in enum order.
constexpr std::uint64_t kCodecGolden[kAlgorithmCount][kCorpusProfileCount] = {
    {0xae05613988a822f7, 0xe00a2a59ce6f87c9, 0x6df122d26bcdd9a8, 0x9722ea02ac3eac44,
     0x516799fd712827d4},  // lz4
    {0x8824fd7f8e451ce3, 0x6e33b71f82d95672, 0x5301dc74442101b1, 0x9722ea02ac3eac44,
     0x516799fd712827d4},  // lz4hc
    {0xa4028b94f6aadca9, 0xaffcee45716756d9, 0x5e46d31c857ea541, 0x411f2903cc6a85f4,
     0xe6fa3cdeff7aef20},  // lzo
    {0xcc0e30681b1f3fab, 0xaffcee45716756d9, 0x79cdbdb63927927b, 0x411f2903cc6a85f4,
     0xe90ed443b1a3cd2d},  // lzo-rle
    {0x40d206a220b146c6, 0x9a4dfa9946028036, 0x691a4abcb1b7f391, 0xd93f0fee1a9dc7d4,
     0x40d0aea10fe32263},  // deflate
    {0xc6c16475a105a3a1, 0x54335d65af16beca, 0xd4f38900417fd30d, 0x94edf59fdbb57942,
     0x7c055b8426a74480},  // zstd
    {0x14b7d8a30df11c83, 0xad2423ed040cf28a, 0x2342270a86c48252, 0x688b52fe02cd1a36,
     0xf144d45d87c58243},  // 842
};

// Indexed by algorithm in enum order.
constexpr std::uint64_t kBlobGolden[kAlgorithmCount] = {
    0xd4557b0371408e43, 0x36a4ba023d7e9d79, 0x73cd948c18bc3db4, 0xf071284fded318b4,
    0x13277c9c922d7ed1, 0x9fb887c9a64eae5c, 0x05db37744fbfc4bf,
};

// Indexed by profile in enum order.
constexpr std::uint64_t kFillPageGolden[kCorpusProfileCount] = {
    0x5715018d0f8b4d6a, 0x7f762c39a9b3c5ef, 0x7e41e4743fdf118d, 0x4670bd0b6f015e92,
    0xc94a37f8e54bbfb7,
};

TEST(GoldenTest, CompressedBytesPinned) {
  std::vector<std::byte> compressed(2 * kPageSize);
  for (int a = 0; a < kAlgorithmCount; ++a) {
    const Compressor& compressor = GetCompressor(static_cast<Algorithm>(a));
    for (int p = 0; p < kCorpusProfileCount; ++p) {
      const auto profile = static_cast<CorpusProfile>(p);
      std::uint64_t h = 0;
      for (std::uint64_t seed = 0; seed < kGoldenSeeds; ++seed) {
        const std::vector<std::byte> page = MakePage(profile, seed);
        auto size = compressor.Compress(page, compressed);
        ASSERT_TRUE(size.ok()) << compressor.name() << " seed " << seed;
        h = Fold(h, std::span<const std::byte>(compressed.data(), *size));
      }
      EXPECT_EQ(h, kCodecGolden[a][p]) << compressor.name() << "/" << CorpusProfileName(profile)
                                       << " digest 0x" << std::hex << h;
    }
  }
}

// Odd-sized blobs reach every match-length limit and tail path a page does not.
TEST(GoldenTest, BlobBytesPinned) {
  for (int a = 0; a < kAlgorithmCount; ++a) {
    const Compressor& compressor = GetCompressor(static_cast<Algorithm>(a));
    Rng rng(7000 + a);
    std::uint64_t h = 0;
    for (int i = 0; i < kGoldenSeeds; ++i) {
      const std::vector<std::byte> blob = MakeBlob(rng);
      std::vector<std::byte> compressed(2 * blob.size() + 1024);
      auto size = compressor.Compress(blob, compressed);
      ASSERT_TRUE(size.ok()) << compressor.name() << " blob " << i;
      h = Fold(h, std::span<const std::byte>(compressed.data(), *size));
    }
    EXPECT_EQ(h, kBlobGolden[a]) << compressor.name() << " digest 0x" << std::hex << h;
  }
}

TEST(GoldenTest, FillPageBytesPinned) {
  for (int p = 0; p < kCorpusProfileCount; ++p) {
    const auto profile = static_cast<CorpusProfile>(p);
    std::uint64_t h = 0;
    for (std::uint64_t seed = 0; seed < kGoldenSeeds; ++seed) {
      h = Fold(h, MakePage(profile, seed));
    }
    EXPECT_EQ(h, kFillPageGolden[p]) << CorpusProfileName(profile) << " digest 0x" << std::hex
                                     << h;
  }
}

// Each word step is a bijection, so a change to any one word, a swap of two
// different words, or a different length must all move the checksum.
TEST(CorpusTest, ChecksumSeesEveryWordItsPositionAndTheLength) {
  const std::vector<std::byte> page = MakePage(CorpusProfile::kBinary, 12);
  const std::uint64_t base = PageChecksum(page);
  Rng rng(13);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::byte> changed = page;
    changed[rng.NextBelow(changed.size())] ^= static_cast<std::byte>(1 + rng.NextBelow(255));
    EXPECT_NE(PageChecksum(changed), base) << "trial " << trial;
  }
  std::vector<std::byte> swapped = page;
  std::swap_ranges(swapped.begin(), swapped.begin() + 8, swapped.begin() + 16);
  ASSERT_NE(swapped, page);
  EXPECT_NE(PageChecksum(swapped), base);
  const std::vector<std::byte> zeros(kPageSize);
  EXPECT_NE(PageChecksum(zeros), PageChecksum(std::span(zeros).first(kPageSize - 1)));
}

TEST(CompressorRegistryTest, NamesRoundTrip) {
  for (int a = 0; a < kAlgorithmCount; ++a) {
    const auto algorithm = static_cast<Algorithm>(a);
    auto parsed = AlgorithmFromName(AlgorithmName(algorithm));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, algorithm);
  }
  EXPECT_FALSE(AlgorithmFromName("gzip").ok());
}

TEST(CompressorRegistryTest, LatencyModelOrdering) {
  // Fig. 2a ordering: lz4 fastest, then lzo, then zstd, then deflate.
  EXPECT_LT(GetCompressor(Algorithm::kLz4).decompress_page_ns(),
            GetCompressor(Algorithm::kLzo).decompress_page_ns());
  EXPECT_LT(GetCompressor(Algorithm::kLzo).decompress_page_ns(),
            GetCompressor(Algorithm::kZstd).decompress_page_ns());
  EXPECT_LT(GetCompressor(Algorithm::kZstd).decompress_page_ns(),
            GetCompressor(Algorithm::kDeflate).decompress_page_ns());
}

}  // namespace
}  // namespace tierscape
