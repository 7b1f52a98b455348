// LZ77 helpers shared by the lz4, lzo, deflate and zstd codecs: match
// finding on the compress side, match copying on the decompress side.
//
// The compressors are process-wide `static const` singletons called
// concurrently from migration workers and the MPMC access path, so scratch
// memory here is per thread, never a compressor member.
#ifndef SRC_COMPRESS_LZ_MATCH_H_
#define SRC_COMPRESS_LZ_MATCH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace tierscape {

// Length of the common prefix of [a, limit) and [b, b + (limit - a)),
// compared eight bytes at a time. Never reads at or past `limit` through
// `a`; callers guarantee `b` trails `a`, so the `b` side stays in bounds too.
inline std::size_t MatchLength(const std::byte* a, const std::byte* b, const std::byte* limit) {
  static_assert(std::endian::native == std::endian::little,
                "the lowest differing byte is the lowest set bit only on little-endian hosts");
  const std::byte* const start = a;
  while (limit - a >= 8) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a, sizeof(x));
    std::memcpy(&y, b, sizeof(y));
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      return static_cast<std::size_t>(a - start) +
             static_cast<std::size_t>(std::countr_zero(diff) / 8);
    }
    a += 8;
    b += 8;
  }
  while (a < limit && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<std::size_t>(a - start);
}

// Hash-chain links for an n-byte input, reused across calls on this thread
// and never reset: a parser writes chain[pos] when it inserts pos, and only
// an inserted pos is reachable from a hash head or another link.
inline std::span<std::int32_t> ChainScratch(std::size_t n) {
  thread_local std::vector<std::int32_t> chain;
  if (chain.size() < n) {
    chain.resize(n);
  }
  return {chain.data(), n};
}

// Copies a `len`-byte match from `offset` bytes back. A match that overlaps
// its own output (offset < len, the run idiom) must replicate forward byte by
// byte; any other is a plain copy. Short copies, the common case, are two
// fixed-size moves (overlapping when len is not a multiple of the move size)
// instead of a memcpy call.
inline void CopyMatch(std::byte* out, std::size_t offset, std::size_t len) {
  const std::byte* from = out - offset;
  if (offset < len || len < 4) {
    for (std::size_t i = 0; i < len; ++i) {
      out[i] = from[i];
    }
  } else if (len <= 8) {
    std::memcpy(out, from, 4);
    std::memcpy(out + len - 4, from + len - 4, 4);
  } else if (len <= 16) {
    std::memcpy(out, from, 8);
    std::memcpy(out + len - 8, from + len - 8, 8);
  } else {
    std::memcpy(out, from, len);
  }
}

}  // namespace tierscape

#endif  // SRC_COMPRESS_LZ_MATCH_H_
