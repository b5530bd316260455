#include "util/crc32.hpp"

#include <array>
#include <cstring>

namespace hetindex {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables: kTables[0] is the bytewise table; kTables[k][i] is the
/// CRC of byte i followed by k zero bytes, so eight table lookups advance the
/// register over one 8-byte word.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    // Unaligned little-endian word loads (the host order every hetindex
    // format assumes; see util/binary_io.hpp).
    std::uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^ kTables[5][(lo >> 16) & 0xFF] ^
        kTables[4][lo >> 24] ^ kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace hetindex
