#pragma once
/// \file bit_io.hpp
/// MSB-first bit stream reader/writer backing the Elias-γ and Golomb posting
/// codecs (§II: "γ encoding and Golomb compression").

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace hetindex {

/// Appends bits MSB-first into a byte vector.
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  /// Writes the low `count` bits of `bits` (MSB of that field first).
  void write(std::uint64_t bits, unsigned count) {
    HET_DCHECK(count <= 64);
    for (unsigned i = count; i-- > 0;) put_bit((bits >> i) & 1u);
  }

  /// Writes `n` one-bits followed by a zero (unary code of n).
  void write_unary(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) put_bit(1);
    put_bit(0);
  }

  /// Pads the final partial byte with zeros. Must be called before the
  /// underlying buffer is consumed.
  void flush() {
    if (fill_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(current_ << (8 - fill_)));
      current_ = 0;
      fill_ = 0;
    }
  }

  /// Total bits written so far (excluding flush padding).
  [[nodiscard]] std::uint64_t bit_count() const { return bit_count_; }

 private:
  void put_bit(unsigned b) {
    current_ = static_cast<std::uint8_t>((current_ << 1) | (b & 1u));
    if (++fill_ == 8) {
      out_.push_back(current_);
      current_ = 0;
      fill_ = 0;
    }
    ++bit_count_;
  }
  std::vector<std::uint8_t>& out_;
  std::uint8_t current_ = 0;
  unsigned fill_ = 0;
  std::uint64_t bit_count_ = 0;
};

/// Reads bits MSB-first from a byte range.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t bytes) : data_(data), bytes_(bytes) {}

  /// Reads `count` bits a byte at a time: bit-packed postings lanes make
  /// this the block decoder's inner loop.
  [[nodiscard]] std::uint64_t read(unsigned count) {
    HET_DCHECK(count <= 64);
    std::uint64_t v = 0;
    while (count > 0) {
      HET_CHECK_MSG((bit_pos_ >> 3) < bytes_, "bit stream overrun");
      const unsigned avail = 8 - static_cast<unsigned>(bit_pos_ & 7);
      const unsigned take = std::min(avail, count);
      v = (v << take) | ((data_[bit_pos_ >> 3] >> (avail - take)) & ((1u << take) - 1));
      bit_pos_ += take;
      count -= take;
    }
    return v;
  }

  /// Moves past `bits` bits; the next read checks the bounds.
  void skip(std::uint64_t bits) { bit_pos_ += bits; }

  /// Counts one-bits until the terminating zero.
  [[nodiscard]] std::uint64_t read_unary() {
    std::uint64_t n = 0;
    while (read(1) != 0) ++n;
    return n;
  }

  [[nodiscard]] std::uint64_t bits_consumed() const { return bit_pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t bytes_;
  std::uint64_t bit_pos_ = 0;
};

}  // namespace hetindex
