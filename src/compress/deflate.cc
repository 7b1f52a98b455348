#include "src/compress/deflate.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/compress/bitstream.h"
#include "src/compress/codelen.h"
#include "src/compress/huffman.h"
#include "src/compress/lz_match.h"

namespace tierscape {
namespace {

constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 258;
constexpr int kHashBits = 12;
constexpr int kMaxChain = 48;

constexpr int kEndOfBlock = 256;
constexpr int kNumLitLenSymbols = 286;
constexpr int kNumDistSymbols = 30;

// RFC 1951 length and distance code tables.
constexpr std::uint16_t kLenBase[29] = {3,  4,  5,  6,  7,  8,  9,  10, 11,  13,
                                        15, 17, 19, 23, 27, 31, 35, 43, 51,  59,
                                        67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::uint8_t kLenExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
                                        2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr std::uint16_t kDistBase[30] = {1,    2,    3,    4,    5,    7,    9,    13,
                                         17,   25,   33,   49,   65,   97,   129,  193,
                                         257,  385,  513,  769,  1025, 1537, 2049, 3073,
                                         4097, 6145, 8193, 12289, 16385, 24577};
constexpr std::uint8_t kDistExtra[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                         4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                         9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

int LengthCode(std::size_t len) {
  for (int i = 28; i >= 0; --i) {
    if (len >= kLenBase[i]) {
      return i;
    }
  }
  return 0;
}

int DistCode(std::size_t dist) {
  for (int i = 29; i >= 0; --i) {
    if (dist >= kDistBase[i]) {
      return i;
    }
  }
  return 0;
}

struct Token {
  // length == 0: `literal` is a plain byte. Otherwise an LZ77 (length, dist).
  std::uint16_t length = 0;
  std::uint16_t dist = 0;
  std::uint8_t literal = 0;
};

// Hash-chain LZ77 parser with one-step-lazy matching. Parses `src` into
// this thread's token buffer, which keeps its capacity from call to call.
const std::vector<Token>& Parse(std::span<const std::byte> src) {
  const std::byte* const base = src.data();
  const std::size_t n = src.size();
  thread_local std::vector<Token> tokens;
  tokens.clear();
  tokens.reserve(n / 3);

  std::int32_t head[1 << kHashBits];
  std::memset(head, -1, sizeof(head));
  const std::span<std::int32_t> chain = ChainScratch(n);

  auto hash = [&](std::size_t pos) {
    const std::uint32_t v = (static_cast<std::uint32_t>(base[pos]) << 16) |
                            (static_cast<std::uint32_t>(base[pos + 1]) << 8) |
                            static_cast<std::uint32_t>(base[pos + 2]);
    return (v * 506832829u) >> (32 - kHashBits);
  };
  auto insert = [&](std::size_t pos) {
    const std::uint32_t h = hash(pos);
    chain[pos] = head[h];
    head[h] = static_cast<std::int32_t>(pos);
  };
  auto best_match = [&](std::size_t pos, std::size_t& best_dist) -> std::size_t {
    std::size_t best_len = 0;
    if (pos + kMinMatch > n) {
      return 0;
    }
    // A candidate that differs at best_len cannot be strictly longer, so it
    // is skipped unmeasured.
    int depth = kMaxChain;
    const std::size_t limit = std::min(n - pos, kMaxMatch);
    for (std::int32_t cand = head[hash(pos)]; cand >= 0 && depth-- > 0; cand = chain[cand]) {
      const auto cpos = static_cast<std::size_t>(cand);
      if (base[cpos + best_len] != base[pos + best_len]) {
        continue;
      }
      const std::size_t len = MatchLength(base + pos, base + cpos, base + pos + limit);
      if (len > best_len) {
        best_len = len;
        best_dist = pos - cpos;
        if (len == limit) {
          break;
        }
      }
    }
    return best_len >= kMinMatch ? best_len : 0;
  };

  std::size_t pos = 0;
  while (pos < n) {
    std::size_t dist = 0;
    std::size_t len = (pos + kMinMatch <= n) ? best_match(pos, dist) : 0;
    if (len >= kMinMatch) {
      // Lazy evaluation: prefer a strictly longer match starting at pos+1.
      if (pos + 1 + kMinMatch <= n) {
        insert(pos);
        std::size_t next_dist = 0;
        const std::size_t next_len = best_match(pos + 1, next_dist);
        if (next_len > len) {
          tokens.push_back(Token{.literal = static_cast<std::uint8_t>(base[pos])});
          ++pos;
          len = next_len;
          dist = next_dist;
        }
      }
      Token t;
      t.length = static_cast<std::uint16_t>(len);
      t.dist = static_cast<std::uint16_t>(dist);
      tokens.push_back(t);
      const std::size_t match_end = pos + len;
      // The lazy branch may have already inserted `pos`.
      while (pos < match_end) {
        if (pos + kMinMatch <= n && head[hash(pos)] != static_cast<std::int32_t>(pos)) {
          insert(pos);
        }
        ++pos;
      }
    } else {
      if (pos + kMinMatch <= n) {
        insert(pos);
      }
      tokens.push_back(Token{.literal = static_cast<std::uint8_t>(base[pos])});
      ++pos;
    }
  }
  return tokens;
}

}  // namespace

StatusOr<std::size_t> DeflateCompressor::Compress(std::span<const std::byte> src,
                                                  std::span<std::byte> dst) const {
  const std::vector<Token>& tokens = Parse(src);

  // Frequency counting.
  std::uint32_t lit_freq[kNumLitLenSymbols] = {};
  std::uint32_t dist_freq[kNumDistSymbols] = {};
  for (const Token& t : tokens) {
    if (t.length == 0) {
      ++lit_freq[t.literal];
    } else {
      ++lit_freq[257 + LengthCode(t.length)];
      ++dist_freq[DistCode(t.dist)];
    }
  }
  ++lit_freq[kEndOfBlock];

  const HuffmanCode lit_code = BuildHuffmanCode(lit_freq, kMaxHuffmanBits);
  const HuffmanCode dist_code = BuildHuffmanCode(dist_freq, kMaxHuffmanBits);

  BitWriter writer(dst);
  if (!WriteCodeLengths(writer, lit_code.lengths) ||
      !WriteCodeLengths(writer, dist_code.lengths)) {
    return Rejected("deflate: output too small");
  }
  for (const Token& t : tokens) {
    if (t.length == 0) {
      if (!lit_code.Encode(writer, t.literal)) {
        return Rejected("deflate: output too small");
      }
      continue;
    }
    const int lc = LengthCode(t.length);
    const int dc = DistCode(t.dist);
    if (!lit_code.Encode(writer, 257 + lc) ||
        !writer.Write(static_cast<std::uint32_t>(t.length - kLenBase[lc]), kLenExtra[lc]) ||
        !dist_code.Encode(writer, dc) ||
        !writer.Write(static_cast<std::uint32_t>(t.dist - kDistBase[dc]), kDistExtra[dc])) {
      return Rejected("deflate: output too small");
    }
  }
  if (!lit_code.Encode(writer, kEndOfBlock)) {
    return Rejected("deflate: output too small");
  }
  const std::size_t size = writer.Finish();
  if (size == 0) {
    return Rejected("deflate: output too small");
  }
  return size;
}

StatusOr<std::size_t> DeflateCompressor::Decompress(std::span<const std::byte> src,
                                                    std::span<std::byte> dst) const {
  BitReader reader(src);
  std::uint8_t lit_lengths[kNumLitLenSymbols];
  std::uint8_t dist_lengths[kNumDistSymbols];
  if (!ReadCodeLengths(reader, lit_lengths) || !ReadCodeLengths(reader, dist_lengths)) {
    return Corruption("deflate: bad header");
  }
  HuffmanDecoder lit_dec;
  HuffmanDecoder dist_dec;
  if (!lit_dec.Init(lit_lengths) || !dist_dec.Init(dist_lengths)) {
    return Corruption("deflate: bad code lengths");
  }

  std::byte* out = dst.data();
  std::byte* const out_end = out + dst.size();
  for (;;) {
    const int sym = lit_dec.Decode(reader);
    if (sym < 0 || reader.exhausted()) {
      return Corruption("deflate: bad symbol");
    }
    if (sym == kEndOfBlock) {
      break;
    }
    if (sym < 256) {
      if (out >= out_end) {
        return Corruption("deflate: output overrun");
      }
      *out++ = static_cast<std::byte>(sym);
      continue;
    }
    const int lc = sym - 257;
    if (lc >= 29) {
      return Corruption("deflate: bad length code");
    }
    const std::size_t len = kLenBase[lc] + reader.Read(kLenExtra[lc]);
    const int dc = dist_dec.Decode(reader);
    if (dc < 0 || dc >= kNumDistSymbols) {
      return Corruption("deflate: bad distance code");
    }
    const std::size_t dist = kDistBase[dc] + reader.Read(kDistExtra[dc]);
    if (dist == 0 || dist > static_cast<std::size_t>(out - dst.data()) ||
        out + len > out_end) {
      return Corruption("deflate: bad match");
    }
    CopyMatch(out, dist, len);
    out += len;
  }
  if (out != out_end) {
    return Corruption("deflate: short output");
  }
  return dst.size();
}

}  // namespace tierscape
