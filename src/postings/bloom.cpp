#include "postings/bloom.hpp"

#include <algorithm>

namespace hetindex {
namespace {

/// splitmix64 — a cheap, well-distributed 64-bit mix; the two halves feed
/// classic double hashing (probe i tests bit h1 + i·h2).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Filter size in bits: whole words, at least one, so probes always have
/// bits to land on and filters never hold partial words.
std::uint64_t filter_bits(std::uint32_t count) {
  const std::uint64_t bits =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(count) * kBloomBitsPerDoc);
  return 64 * ((bits + 63) / 64);
}

}  // namespace

std::size_t bloom_filter_bytes(std::uint32_t count) {
  return static_cast<std::size_t>(filter_bits(count) / 8);
}

void append_bloom_filter(const std::uint32_t* docs, std::uint32_t count, PageBytes& out) {
  const std::uint64_t bits = filter_bits(count);
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(bits / 8), 0);
  // Bit b lives in byte b/8 at bit b%8: the little-endian word layout, so
  // no word ever needs aligned access (filters are read from the mapping).
  std::uint8_t* filter = out.data() + at;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t h1 = mix64(docs[i]);
    const std::uint64_t h2 = mix64(h1) | 1;  // odd stride: probes cover all bits
    for (std::uint32_t probe = 0; probe < kBloomProbes; ++probe) {
      const std::uint64_t bit = (h1 + probe * h2) % bits;
      filter[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
}

bool bloom_may_contain(const std::uint8_t* filter, std::uint32_t count, std::uint32_t doc) {
  const std::uint64_t bits = filter_bits(count);
  const std::uint64_t h1 = mix64(doc);
  const std::uint64_t h2 = mix64(h1) | 1;
  for (std::uint32_t probe = 0; probe < kBloomProbes; ++probe) {
    const std::uint64_t bit = (h1 + probe * h2) % bits;
    if ((filter[bit / 8] & (1u << (bit % 8))) == 0) return false;
  }
  return true;
}

}  // namespace hetindex
