#pragma once
/// \file hash.hpp
/// FNV-1a 64 over bytes: deterministic, seedless (no std::hash salting),
/// stable across runs and platforms, and cheap for short terms. Shard
/// placement relies on the stability — term ownership must agree between
/// the ingest path and every router forever.

#include <cstdint>
#include <string_view>

namespace hetindex {

[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace hetindex
