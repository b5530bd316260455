#pragma once
/// \file binary_io.hpp
/// Little-endian binary (de)serialization over growable byte buffers and
/// files. Run files, dictionary dumps and the WARC-like container all share
/// this framing layer.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.hpp"

namespace hetindex {

/// Appends fixed-width little-endian primitives to a byte vector (any
/// std::vector<std::uint8_t, Allocator>).
template <typename Bytes>
class BasicByteWriter {
 public:
  explicit BasicByteWriter(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  void bytes(const void* data, std::size_t n) { raw(data, n); }
  /// Length-prefixed (u32) string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  [[nodiscard]] std::size_t offset() const { return out_.size(); }
  /// Overwrites a previously written u32 at `at` (for back-patching section
  /// lengths in run-file headers).
  void patch_u32(std::size_t at, std::uint32_t v) {
    HET_CHECK(at + 4 <= out_.size());
    std::memcpy(out_.data() + at, &v, 4);
  }
  void patch_u64(std::size_t at, std::uint64_t v) {
    HET_CHECK(at + 8 <= out_.size());
    std::memcpy(out_.data() + at, &v, 8);
  }

 private:
  void raw(const void* data, std::size_t n) {
    // resize+memcpy instead of insert: identical semantics, but sidesteps
    // GCC 12's spurious -Wstringop-overflow on the inlined insert path.
    const std::size_t at = out_.size();
    out_.resize(at + n);
    if (n != 0) std::memcpy(out_.data() + at, data, n);
  }
  Bytes& out_;
};

using ByteWriter = BasicByteWriter<std::vector<std::uint8_t>>;

/// Reads fixed-width little-endian primitives from a byte range with bounds
/// checking; any overrun is a hard check failure (corrupt input).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t n) : data_(data), size_(n) {}
  explicit ByteReader(const std::vector<std::uint8_t>& v) : ByteReader(v.data(), v.size()) {}

  std::uint8_t u8() { return *take(1); }
  std::uint16_t u16() { return load<std::uint16_t>(); }
  std::uint32_t u32() { return load<std::uint32_t>(); }
  std::uint64_t u64() { return load<std::uint64_t>(); }
  double f64() { return load<double>(); }
  std::string str() {
    const auto n = u32();
    const auto* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  void bytes(void* out, std::size_t n) {
    const auto* p = take(n);
    if (n != 0) std::memcpy(out, p, n);  // `out` may be null when n == 0 (empty run blobs)
  }
  void skip(std::size_t n) { take(n); }

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  void seek(std::size_t pos) {
    HET_CHECK(pos <= size_);
    pos_ = pos;
  }

 private:
  template <typename T>
  T load() {
    T v;
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }
  const std::uint8_t* take(std::size_t n) {
    HET_CHECK_MSG(pos_ + n <= size_, "truncated binary input");
    const auto* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Reads an entire file into memory; hard-fails on I/O errors. Routed
/// through the io::Env seam (io/env.hpp) so fault injection sees it.
std::vector<std::uint8_t> read_file(const std::string& path);
/// Writes a buffer to a file (truncate + write, no fsync); hard-fails on
/// I/O errors. Routed through io::Env — durability-critical paths use
/// io::durable_write_file instead.
void write_file(const std::string& path, const std::vector<std::uint8_t>& data);
/// True when the path names an existing regular file.
bool file_exists(const std::string& path);

}  // namespace hetindex
