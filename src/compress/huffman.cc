#include "src/compress/huffman.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>

namespace tierscape {
namespace {

std::uint16_t ReverseBits(std::uint16_t value, int bits) {
  std::uint16_t out = 0;
  for (int i = 0; i < bits; ++i) {
    out = static_cast<std::uint16_t>((out << 1) | ((value >> i) & 1));
  }
  return out;
}

// Computes unlimited Huffman code lengths. Merging repeatedly pops the two
// least nodes by (freq, index), where leaves are indexed by symbol and
// internal nodes by n + creation order. Two sorted queues pop that minimum
// without a heap: leaves sorted by (freq, symbol), and internal nodes in
// creation order, whose freqs never decrease. On a freq tie the leaf wins,
// as its index is below every internal node's.
std::vector<std::uint8_t> TreeLengths(std::span<const std::uint32_t> freqs) {
  const int n = static_cast<int>(freqs.size());
  std::vector<std::uint8_t> lengths(n, 0);
  std::vector<int> leaves;
  for (int i = 0; i < n; ++i) {
    if (freqs[i] > 0) {
      leaves.push_back(i);
    }
  }
  const int used = static_cast<int>(leaves.size());
  if (used == 0) {
    return lengths;
  }
  if (used == 1) {
    // A lone symbol still needs one bit so the stream is self-terminating.
    lengths[leaves[0]] = 1;
    return lengths;
  }
  std::sort(leaves.begin(), leaves.end(), [&](int a, int b) {
    return freqs[a] < freqs[b] || (freqs[a] == freqs[b] && a < b);
  });

  std::vector<std::uint64_t> node_freq(used - 1);
  std::vector<int> parent(n + used - 1, -1);  // by node index
  int next_leaf = 0;
  int next_node = 0;
  // Pops the least of the two queue heads; `built` internal nodes exist.
  auto pop = [&](int built) {
    if (next_node == built ||
        (next_leaf < used && freqs[leaves[next_leaf]] <= node_freq[next_node])) {
      const int leaf = leaves[next_leaf++];
      return std::pair<int, std::uint64_t>{leaf, freqs[leaf]};
    }
    const int node = next_node++;
    return std::pair<int, std::uint64_t>{n + node, node_freq[node]};
  };
  for (int built = 0; built < used - 1; ++built) {
    const auto [a, a_freq] = pop(built);
    const auto [b, b_freq] = pop(built);
    node_freq[built] = a_freq + b_freq;
    parent[a] = n + built;
    parent[b] = n + built;
  }
  // A parent is created after its children, so one descending pass over the
  // internal nodes sets every depth from the root's.
  std::vector<int> depth(n + used - 1, 0);
  for (int node = n + used - 3; node >= n; --node) {
    depth[node] = depth[parent[node]] + 1;
  }
  for (int leaf : leaves) {
    lengths[leaf] = static_cast<std::uint8_t>(depth[parent[leaf]] + 1);
  }
  return lengths;
}

}  // namespace

HuffmanCode BuildHuffmanCode(std::span<const std::uint32_t> freqs, int max_bits) {
  HuffmanCode code;
  code.lengths = TreeLengths(freqs);
  code.reversed_codes.assign(freqs.size(), 0);

  // Length-limit: clamp, then restore the Kraft inequality by deepening the
  // shallowest over-contributing leaves.
  bool clamped = false;
  for (auto& len : code.lengths) {
    if (len > max_bits) {
      len = static_cast<std::uint8_t>(max_bits);
      clamped = true;
    }
  }
  if (clamped) {
    std::uint64_t kraft = 0;  // in units of 2^-max_bits
    for (auto len : code.lengths) {
      if (len > 0) {
        kraft += 1ULL << (max_bits - len);
      }
    }
    const std::uint64_t full = 1ULL << max_bits;
    while (kraft > full) {
      // Deepen the longest code below max_bits (costs the least).
      int best = -1;
      for (std::size_t i = 0; i < code.lengths.size(); ++i) {
        if (code.lengths[i] > 0 && code.lengths[i] < max_bits) {
          if (best < 0 || code.lengths[i] > code.lengths[best]) {
            best = static_cast<int>(i);
          }
        }
      }
      if (best < 0) {
        break;  // cannot happen for valid inputs
      }
      // One level deeper halves this leaf's share of the sum.
      kraft -= 1ULL << (max_bits - code.lengths[best] - 1);
      ++code.lengths[best];
    }
  }

  // Canonical code assignment: symbols sorted by (length, symbol index).
  std::uint16_t length_count[kMaxHuffmanBits + 1] = {};
  for (auto len : code.lengths) {
    ++length_count[len];
  }
  length_count[0] = 0;
  std::uint16_t next_code[kMaxHuffmanBits + 1] = {};
  std::uint16_t c = 0;
  for (int bits = 1; bits <= max_bits; ++bits) {
    c = static_cast<std::uint16_t>((c + length_count[bits - 1]) << 1);
    next_code[bits] = c;
  }
  for (std::size_t i = 0; i < code.lengths.size(); ++i) {
    const int len = code.lengths[i];
    if (len > 0) {
      code.reversed_codes[i] = ReverseBits(next_code[len]++, len);
    }
  }
  return code;
}

bool HuffmanDecoder::Init(std::span<const std::uint8_t> lengths) {
  std::fill(std::begin(first_code_), std::end(first_code_), 0);
  std::fill(std::begin(count_), std::end(count_), 0);
  std::fill(std::begin(offset_), std::end(offset_), 0);
  std::fill(std::begin(table_), std::end(table_), 0);
  symbols_.clear();
  if (lengths.size() > kMaxTableSymbols) {
    return false;
  }

  for (auto len : lengths) {
    if (len > kMaxHuffmanBits) {
      return false;
    }
    if (len > 0) {
      ++count_[len];
    }
  }
  // Kraft check: must not be oversubscribed.
  std::uint64_t kraft = 0;
  for (int bits = 1; bits <= kMaxHuffmanBits; ++bits) {
    kraft += static_cast<std::uint64_t>(count_[bits]) << (kMaxHuffmanBits - bits);
  }
  if (kraft > (1ULL << kMaxHuffmanBits)) {
    return false;
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
  // A code of length len <= kTableBits owns every table slot whose low len
  // bits are its bits in reading order.
  for (int len = 1; len <= kTableBits; ++len) {
    for (int i = 0; i < count_[len]; ++i) {
      const auto entry = static_cast<std::uint16_t>((symbols_[offset_[len] + i] << 4) | len);
      const auto canonical = static_cast<std::uint16_t>(first_code_[len] + i);
      for (std::size_t slot = ReverseBits(canonical, len); slot < std::size(table_);
           slot += std::size_t{1} << len) {
        table_[slot] = entry;
      }
    }
  }
  return true;
}

int HuffmanDecoder::Decode(BitReader& reader) const {
  if (reader.HasBits(kMaxHuffmanBits)) {
    const std::uint16_t entry = table_[reader.Peek(kTableBits)];
    if (entry != 0) {
      reader.Skip(entry & 0xf);
      return entry >> 4;
    }
  }
  // Slow path, one bit at a time against the canonical first-code table:
  // codes longer than kTableBits, prefixes no code starts with (-1 after 15
  // bits), and the input's last bits, where a read may run past the end and
  // set the reader's exhausted flag.
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

}  // namespace tierscape
