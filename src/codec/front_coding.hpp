#pragma once
/// \file front_coding.hpp
/// Front-coding of lexicographically sorted term lists. §II credits
/// Heinz & Zobel with writing the dictionary in lexicographic order so that
/// adjacent terms share prefixes; the on-disk dictionary (§III.F "it is
/// moved to the disk") uses this to compress term strings.
///
/// Encoding per term: vbyte(shared-prefix length with the previous term),
/// vbyte(suffix length), suffix bytes. The first term has prefix length 0.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hetindex {

/// Encodes `terms` (must be sorted; duplicates allowed) into a front-coded
/// byte block.
std::vector<std::uint8_t> front_code(const std::vector<std::string>& terms);

/// Decodes `count` terms of a block produced by front_code; nullopt when the
/// block is damaged (too short, or a prefix longer than the previous term).
std::optional<std::vector<std::string>> front_decode(const std::vector<std::uint8_t>& block,
                                                     std::size_t count);

/// Length of the longest common prefix of two strings.
std::size_t common_prefix_length(std::string_view a, std::string_view b);

}  // namespace hetindex
