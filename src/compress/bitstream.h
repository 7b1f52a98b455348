// Bit-granular writer/reader used by the entropy-coded compressors
// (deflate-style and zstd-style). Bits are emitted LSB-first within bytes.
#ifndef SRC_COMPRESS_BITSTREAM_H_
#define SRC_COMPRESS_BITSTREAM_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace tierscape {

class BitWriter {
 public:
  explicit BitWriter(std::span<std::byte> out) : out_(out) {}

  // Writes the low `count` bits of `bits` (count <= 32). Returns false once
  // the output buffer is exhausted; the stream is then invalid.
  bool Write(std::uint32_t bits, int count) {
    acc_ |= static_cast<std::uint64_t>(bits & ((count == 32) ? 0xffffffffu
                                                             : ((1u << count) - 1u)))
            << filled_;
    filled_ += count;
    while (filled_ >= 8) {
      if (pos_ >= out_.size()) {
        overflow_ = true;
        return false;
      }
      out_[pos_++] = static_cast<std::byte>(acc_ & 0xff);
      acc_ >>= 8;
      filled_ -= 8;
    }
    return true;
  }

  // Flushes any pending partial byte. Returns total bytes written, or 0 on
  // overflow.
  std::size_t Finish() {
    if (filled_ > 0) {
      if (pos_ >= out_.size()) {
        overflow_ = true;
      } else {
        out_[pos_++] = static_cast<std::byte>(acc_ & 0xff);
        acc_ = 0;
        filled_ = 0;
      }
    }
    return overflow_ ? 0 : pos_;
  }

  bool overflowed() const { return overflow_; }
  std::size_t bytes_written() const { return pos_; }

 private:
  std::span<std::byte> out_;
  std::uint64_t acc_ = 0;
  int filled_ = 0;
  std::size_t pos_ = 0;
  bool overflow_ = false;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::byte> in) : in_(in) {}

  // Reads `count` bits (count <= 32). Reading past the end returns zeros and
  // sets the exhausted flag (checked by callers at the end).
  std::uint32_t Read(int count) {
    while (filled_ < count) {
      std::uint64_t next = 0;
      if (pos_ < in_.size()) {
        next = static_cast<std::uint64_t>(in_[pos_++]);
      } else {
        exhausted_ = true;
      }
      acc_ |= next << filled_;
      filled_ += 8;
    }
    const std::uint32_t value = static_cast<std::uint32_t>(
        acc_ & ((count == 32) ? 0xffffffffu : ((1ull << count) - 1)));
    acc_ >>= count;
    filled_ -= count;
    return value;
  }

  // True when the next `count` bits are all real input, so reading them
  // cannot set the exhausted flag.
  bool HasBits(int count) const {
    return !exhausted_ &&
           static_cast<std::size_t>(filled_) + 8 * (in_.size() - pos_) >=
               static_cast<std::size_t>(count);
  }

  // Returns the next `count` bits (count <= 32) without consuming them.
  // Requires HasBits(count).
  std::uint32_t Peek(int count) {
    while (filled_ < count) {
      acc_ |= static_cast<std::uint64_t>(in_[pos_++]) << filled_;
      filled_ += 8;
    }
    return static_cast<std::uint32_t>(acc_ & ((1ull << count) - 1));
  }

  // Consumes `count` bits already buffered by Peek.
  void Skip(int count) {
    acc_ >>= count;
    filled_ -= count;
  }

  bool exhausted() const { return exhausted_; }

 private:
  std::span<const std::byte> in_;
  std::uint64_t acc_ = 0;
  int filled_ = 0;
  std::size_t pos_ = 0;
  bool exhausted_ = false;
};

}  // namespace tierscape

#endif  // SRC_COMPRESS_BITSTREAM_H_
