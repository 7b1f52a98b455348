// Canonical, length-limited Huffman coding used by the deflate-style and
// zstd-style compressors.
//
// Codes are emitted most-significant-bit first into the LSB-first BitWriter
// (the encoder stores pre-reversed code words). The decoder resolves a code
// of up to 10 bits with one lookup in a primary table indexed by the next 10
// input bits; longer codes, invalid prefixes and the last bits of the input
// fall back to a bit-serial walk of the canonical first-code table, like a
// classic DEFLATE decoder.
#ifndef SRC_COMPRESS_HUFFMAN_H_
#define SRC_COMPRESS_HUFFMAN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/compress/bitstream.h"

namespace tierscape {

inline constexpr int kMaxHuffmanBits = 15;

// Per-symbol canonical code description. Symbols with zero frequency have
// length 0 and no code.
struct HuffmanCode {
  std::vector<std::uint8_t> lengths;          // code length per symbol (0 = unused)
  std::vector<std::uint16_t> reversed_codes;  // code word, bit-reversed for LSB-first emission

  bool Encode(BitWriter& writer, std::size_t symbol) const {
    return writer.Write(reversed_codes[symbol], lengths[symbol]);
  }
};

// Builds a length-limited canonical Huffman code from symbol frequencies.
// Guarantees max code length <= max_bits and a complete/undersubscribed Kraft
// sum. If fewer than two symbols are used, the used symbol gets a 1-bit code.
HuffmanCode BuildHuffmanCode(std::span<const std::uint32_t> freqs, int max_bits);

// Canonical decoder built from code lengths (must match the encoder's).
class HuffmanDecoder {
 public:
  // Returns false if the lengths do not describe a decodable code.
  bool Init(std::span<const std::uint8_t> lengths);

  // Decodes one symbol; returns -1 on malformed input.
  int Decode(BitReader& reader) const;

 private:
  static constexpr int kTableBits = 10;
  static constexpr std::size_t kMaxTableSymbols = 1 << 12;  // 12 symbol bits per entry

  // Indexed by the next kTableBits input bits, first bit read in bit 0:
  // (symbol << 4) | length for codes of up to kTableBits bits, 0 where the
  // bit-serial slow path decides.
  std::uint16_t table_[1 << kTableBits] = {};
  std::uint16_t first_code_[kMaxHuffmanBits + 1] = {};
  std::uint16_t count_[kMaxHuffmanBits + 1] = {};
  std::uint16_t offset_[kMaxHuffmanBits + 1] = {};
  std::vector<std::uint16_t> symbols_;  // symbols ordered by (length, symbol)
};

}  // namespace tierscape

#endif  // SRC_COMPRESS_HUFFMAN_H_
