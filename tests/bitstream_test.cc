// Unit + property tests for the entropy-coding building blocks: the LSB-first
// bitstream and the canonical length-limited Huffman coder.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/compress/bitstream.h"
#include "src/compress/codelen.h"
#include "src/compress/huffman.h"

namespace tierscape {
namespace {

TEST(BitStreamTest, RoundTripsFixedPattern) {
  std::vector<std::byte> buffer(64);
  BitWriter writer(buffer);
  ASSERT_TRUE(writer.Write(0b101, 3));
  ASSERT_TRUE(writer.Write(0xffff, 16));
  ASSERT_TRUE(writer.Write(0, 1));
  ASSERT_TRUE(writer.Write(0x12345678, 32));
  const std::size_t size = writer.Finish();
  ASSERT_GT(size, 0u);

  BitReader reader(std::span<const std::byte>(buffer.data(), size));
  EXPECT_EQ(reader.Read(3), 0b101u);
  EXPECT_EQ(reader.Read(16), 0xffffu);
  EXPECT_EQ(reader.Read(1), 0u);
  EXPECT_EQ(reader.Read(32), 0x12345678u);
  EXPECT_FALSE(reader.exhausted());
}

TEST(BitStreamTest, RandomWidthsRoundTrip) {
  Rng rng(31);
  std::vector<std::pair<std::uint32_t, int>> values;
  for (int i = 0; i < 2000; ++i) {
    const int bits = 1 + static_cast<int>(rng.NextBelow(32));
    const std::uint32_t value =
        static_cast<std::uint32_t>(rng.Next()) &
        (bits == 32 ? 0xffffffffu : ((1u << bits) - 1));
    values.emplace_back(value, bits);
  }
  std::vector<std::byte> buffer(16 * 1024);
  BitWriter writer(buffer);
  for (const auto& [value, bits] : values) {
    ASSERT_TRUE(writer.Write(value, bits));
  }
  const std::size_t size = writer.Finish();
  BitReader reader(std::span<const std::byte>(buffer.data(), size));
  for (const auto& [value, bits] : values) {
    ASSERT_EQ(reader.Read(bits), value);
  }
}

TEST(BitStreamTest, OverflowDetected) {
  std::vector<std::byte> buffer(2);
  BitWriter writer(buffer);
  ASSERT_TRUE(writer.Write(0xff, 8));
  ASSERT_TRUE(writer.Write(0xff, 8));
  // A trailing partial bit may sit in the accumulator, but a full byte past
  // the end must fail, and Finish must report the overflow.
  EXPECT_FALSE(writer.Write(0xff, 8));
  EXPECT_TRUE(writer.overflowed());
  EXPECT_EQ(writer.Finish(), 0u);
}

TEST(BitStreamTest, ReaderPastEndSetsExhausted) {
  std::vector<std::byte> buffer = {std::byte{0xab}};
  BitReader reader(buffer);
  reader.Read(8);
  EXPECT_FALSE(reader.exhausted());
  reader.Read(8);
  EXPECT_TRUE(reader.exhausted());
}

TEST(HuffmanTest, SkewedFrequenciesGetShortCodes) {
  std::vector<std::uint32_t> freqs(8, 1);
  freqs[0] = 1000;
  const HuffmanCode code = BuildHuffmanCode(freqs, kMaxHuffmanBits);
  for (std::size_t sym = 1; sym < freqs.size(); ++sym) {
    EXPECT_LE(code.lengths[0], code.lengths[sym]);
  }
}

TEST(HuffmanTest, UnusedSymbolsGetNoCode) {
  std::vector<std::uint32_t> freqs = {5, 0, 3, 0};
  const HuffmanCode code = BuildHuffmanCode(freqs, kMaxHuffmanBits);
  EXPECT_GT(code.lengths[0], 0);
  EXPECT_EQ(code.lengths[1], 0);
  EXPECT_GT(code.lengths[2], 0);
  EXPECT_EQ(code.lengths[3], 0);
}

TEST(HuffmanTest, SingleSymbolGetsOneBit) {
  std::vector<std::uint32_t> freqs = {0, 7, 0};
  const HuffmanCode code = BuildHuffmanCode(freqs, kMaxHuffmanBits);
  EXPECT_EQ(code.lengths[1], 1);
}

TEST(HuffmanTest, KraftInequalityHolds) {
  Rng rng(5);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint32_t> freqs(64);
    for (auto& f : freqs) {
      f = rng.NextBelow(1000);
    }
    const HuffmanCode code = BuildHuffmanCode(freqs, kMaxHuffmanBits);
    std::uint64_t kraft = 0;
    for (const auto len : code.lengths) {
      if (len > 0) {
        ASSERT_LE(len, kMaxHuffmanBits);
        kraft += 1ull << (kMaxHuffmanBits - len);
      }
    }
    EXPECT_LE(kraft, 1ull << kMaxHuffmanBits);
  }
}

TEST(HuffmanTest, LengthLimitingRespectsMaxBits) {
  // Fibonacci-ish frequencies force deep trees without limiting.
  std::vector<std::uint32_t> freqs;
  std::uint32_t a = 1;
  std::uint32_t b = 1;
  for (int i = 0; i < 30; ++i) {
    freqs.push_back(a);
    const std::uint32_t next = a + b;
    a = b;
    b = next;
  }
  const HuffmanCode code = BuildHuffmanCode(freqs, 10);
  for (const auto len : code.lengths) {
    EXPECT_LE(len, 10);
  }
}

TEST(HuffmanTest, EncodeDecodeRandomStreams) {
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::uint32_t> freqs(100);
    for (auto& f : freqs) {
      f = rng.NextBelow(50);
    }
    freqs[0] = 500;  // ensure at least one used symbol
    const HuffmanCode code = BuildHuffmanCode(freqs, kMaxHuffmanBits);
    HuffmanDecoder decoder;
    ASSERT_TRUE(decoder.Init(code.lengths));

    // Encode a random stream of used symbols.
    std::vector<int> symbols;
    for (int i = 0; i < 500; ++i) {
      int sym = 0;
      do {
        sym = static_cast<int>(rng.NextBelow(freqs.size()));
      } while (code.lengths[sym] == 0);
      symbols.push_back(sym);
    }
    std::vector<std::byte> buffer(8 * 1024);
    BitWriter writer(buffer);
    for (const int sym : symbols) {
      ASSERT_TRUE(code.Encode(writer, sym));
    }
    const std::size_t size = writer.Finish();
    BitReader reader(std::span<const std::byte>(buffer.data(), size));
    for (const int sym : symbols) {
      ASSERT_EQ(decoder.Decode(reader), sym);
    }
  }
}

// Unlimited code lengths from a binary heap over (freq, index) nodes, leaves
// indexed by symbol and internal nodes by n + creation order: the reference
// the two-queue TreeLengths must reproduce exactly, ties included.
std::vector<std::uint8_t> HeapTreeLengths(const std::vector<std::uint32_t>& freqs) {
  using Node = std::pair<std::uint64_t, int>;  // (freq, index)
  const int n = static_cast<int>(freqs.size());
  std::priority_queue<Node, std::vector<Node>, std::greater<>> heap;
  std::vector<int> parent(n, -1);
  for (int i = 0; i < n; ++i) {
    if (freqs[i] > 0) {
      heap.push({freqs[i], i});
    }
  }
  std::vector<std::uint8_t> lengths(n, 0);
  if (heap.size() == 1) {
    lengths[heap.top().second] = 1;
  }
  while (heap.size() > 1) {
    const Node a = heap.top();
    heap.pop();
    const Node b = heap.top();
    heap.pop();
    parent[a.second] = parent[b.second] = static_cast<int>(parent.size());
    parent.push_back(-1);
    heap.push({a.first + b.first, static_cast<int>(parent.size()) - 1});
  }
  for (int i = 0; i < n; ++i) {
    for (int p = parent[i]; p != -1; p = parent[p]) {
      ++lengths[i];
    }
  }
  return lengths;
}

TEST(HuffmanTest, TreeLengthsMatchHeapOrderOnTies) {
  Rng rng(404);
  for (int round = 0; round < 300; ++round) {
    // Small frequency ranges make ties between leaves and internal nodes common.
    std::vector<std::uint32_t> freqs(2 + rng.NextBelow(299));
    const std::uint64_t range = 1 + rng.NextBelow(round % 2 == 0 ? 4 : 200);
    for (auto& f : freqs) {
      f = static_cast<std::uint32_t>(rng.NextBelow(range + 1));
    }
    const std::vector<std::uint8_t> expected = HeapTreeLengths(freqs);
    if (*std::max_element(expected.begin(), expected.end()) > kMaxHuffmanBits) {
      continue;  // length limiting applies; the golden codec digests cover it
    }
    EXPECT_EQ(BuildHuffmanCode(freqs, kMaxHuffmanBits).lengths, expected) << "round " << round;
  }
}

// The bit-serial canonical decoder that HuffmanDecoder::Decode keeps as its
// slow path, whole: the reference the table-driven decoder must agree with
// symbol for symbol, in its -1 results and in when the reader exhausts.
class BitSerialDecoder {
 public:
  explicit BitSerialDecoder(std::span<const std::uint8_t> lengths) {
    for (auto len : lengths) {
      if (len > 0) {
        ++count_[len];
      }
    }
    std::uint16_t code = 0;
    std::uint16_t offset = 0;
    for (int bits = 1; bits <= kMaxHuffmanBits; ++bits) {
      code = static_cast<std::uint16_t>((code + count_[bits - 1]) << 1);
      first_code_[bits] = code;
      offset_[bits] = offset;
      offset = static_cast<std::uint16_t>(offset + count_[bits]);
    }
    symbols_.resize(offset);
    std::uint16_t fill[kMaxHuffmanBits + 1] = {};
    for (std::size_t sym = 0; sym < lengths.size(); ++sym) {
      const int len = lengths[sym];
      if (len > 0) {
        symbols_[offset_[len] + fill[len]++] = static_cast<std::uint16_t>(sym);
      }
    }
  }

  int Decode(BitReader& reader) const {
    std::uint32_t code = 0;
    for (int bits = 1; bits <= kMaxHuffmanBits; ++bits) {
      code = (code << 1) | reader.Read(1);
      if (count_[bits] != 0 && code >= first_code_[bits] &&
          code < static_cast<std::uint32_t>(first_code_[bits] + count_[bits])) {
        return symbols_[offset_[bits] + (code - first_code_[bits])];
      }
    }
    return -1;
  }

 private:
  std::uint16_t first_code_[kMaxHuffmanBits + 1] = {};
  std::uint16_t count_[kMaxHuffmanBits + 1] = {};
  std::uint16_t offset_[kMaxHuffmanBits + 1] = {};
  std::vector<std::uint16_t> symbols_;
};

// Random code lengths: complete codes from skewed frequencies (codes longer
// than the decoder's 10-bit table included), or under-subscribed codes with
// prefixes no symbol owns.
std::vector<std::uint8_t> RandomLengths(Rng& rng) {
  std::vector<std::uint32_t> freqs(2 + rng.NextBelow(285));
  if (rng.NextBelow(2) == 0) {
    for (auto& f : freqs) {
      f = rng.NextBelow(3) == 0 ? 0 : static_cast<std::uint32_t>(1 + rng.NextBelow(1u << 12) *
                                                                        rng.NextBelow(1u << 12));
    }
    freqs[0] = 1;  // at least one used symbol
    return BuildHuffmanCode(freqs, kMaxHuffmanBits).lengths;
  }
  std::vector<std::uint8_t> lengths(freqs.size(), 0);
  std::uint64_t kraft = 0;
  const std::uint64_t budget = (1ull << kMaxHuffmanBits) - 1 - rng.NextBelow(1u << 14);
  for (auto& len : lengths) {
    const auto candidate = static_cast<std::uint8_t>(1 + rng.NextBelow(kMaxHuffmanBits));
    if (rng.NextBelow(2) == 0 && kraft + (1ull << (kMaxHuffmanBits - candidate)) <= budget) {
      len = candidate;
      kraft += 1ull << (kMaxHuffmanBits - candidate);
    }
  }
  return lengths;
}

TEST(HuffmanDecoderTest, TableDrivenMatchesBitSerialOnRandomStreams) {
  Rng rng(2024);
  for (int round = 0; round < 400; ++round) {
    const std::vector<std::uint8_t> lengths = RandomLengths(rng);
    HuffmanDecoder decoder;
    ASSERT_TRUE(decoder.Init(lengths));
    const BitSerialDecoder reference(lengths);
    std::vector<std::byte> bits(rng.NextBelow(48));
    for (auto& b : bits) {
      b = static_cast<std::byte>(rng.Next());
    }
    BitReader fast(bits);
    BitReader slow(bits);
    // Decode well past the end so every path into exhaustion is compared.
    for (std::size_t i = 0; i < 8 * bits.size() + 8; ++i) {
      ASSERT_EQ(decoder.Decode(fast), reference.Decode(slow)) << "round " << round << " at " << i;
      ASSERT_EQ(fast.exhausted(), slow.exhausted()) << "round " << round << " at " << i;
    }
    EXPECT_EQ(fast.Read(32), slow.Read(32)) << "round " << round;
  }
}

TEST(HuffmanDecoderTest, RejectsOversubscribedLengths) {
  // Three symbols of length 1 oversubscribe the code space.
  const std::uint8_t lengths[] = {1, 1, 1};
  HuffmanDecoder decoder;
  EXPECT_FALSE(decoder.Init(lengths));
}

TEST(CodeLengthsTest, RoundTripWithRuns) {
  Rng rng(9);
  for (int round = 0; round < 30; ++round) {
    std::vector<std::uint8_t> lengths(286);
    std::size_t i = 0;
    while (i < lengths.size()) {
      const std::uint8_t value =
          rng.NextBelow(3) == 0 ? 0 : static_cast<std::uint8_t>(1 + rng.NextBelow(15));
      std::size_t run = 1 + rng.NextBelow(30);
      run = std::min(run, lengths.size() - i);
      for (std::size_t j = 0; j < run; ++j) {
        lengths[i++] = value;
      }
    }
    std::vector<std::byte> buffer(4096);
    BitWriter writer(buffer);
    ASSERT_TRUE(WriteCodeLengths(writer, lengths));
    const std::size_t size = writer.Finish();
    std::vector<std::uint8_t> decoded(lengths.size());
    BitReader reader(std::span<const std::byte>(buffer.data(), size));
    ASSERT_TRUE(ReadCodeLengths(reader, decoded));
    EXPECT_EQ(decoded, lengths);
  }
}

}  // namespace
}  // namespace tierscape
