#pragma once
/// \file segment_blocks.hpp
/// Decode-derived reference for segment terms whose blob is already
/// encoded. A concatenation merge copies skip rows and Bloom filters
/// instead of recomputing them; the tests diff its output against a
/// segment written through this reference, which recomputes both from the
/// blob's own block boundaries and feeds SegmentWriter's raw add_term.

#include <cstdint>
#include <span>
#include <string_view>

#include "postings/segment.hpp"

namespace hetindex::oracle {

/// Decodes `blob` (back-to-back self-describing blocks) one block at a
/// time, derives one skip row and one Bloom filter per block, and appends
/// the term to `writer` with exactly those sections.
void add_term_from_blob(SegmentWriter& writer, std::string_view term,
                        std::span<const std::uint8_t> blob);

}  // namespace hetindex::oracle
