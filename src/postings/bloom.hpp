#pragma once
/// \file bloom.hpp
/// Per-block Bloom filters, used to reject AND/PHRASE/NEAR candidates
/// before any postings decode. Zambezi's `-bloom` chains (Asadi & Lin)
/// attach small filters along a postings list instead of one per list;
/// here every skip row of a segment (postings/segment.hpp) owns one filter
/// over the absolute doc ids of its block, stored in the segment's bloom
/// section under the footer CRC.
///
/// A filter's size is a pure function of its row's count (kBloomBitsPerDoc
/// bits per doc, rounded up to whole 64-bit words; kBloomProbes probes), so
/// the reader locates every filter from the skip rows alone.
///
/// Filters are probabilistic one way only: a "no" is exact, a "yes" may be
/// a false positive. So Bloom chains never change results — only the amount
/// of decode work (the `search_blooms_rejected_total` metric counts what
/// they saved).

#include <cstdint>
#include <optional>
#include <vector>

#include "postings/segment.hpp"

namespace hetindex {

/// Fixed filter geometry (~1% false positives).
inline constexpr std::uint32_t kBloomBitsPerDoc = 10;
inline constexpr std::uint32_t kBloomProbes = 7;

/// Size in bytes of the filter of a block holding `count` docs.
[[nodiscard]] std::size_t bloom_filter_bytes(std::uint32_t count);

/// Appends the filter over `docs[0, count)` to `out`
/// (bloom_filter_bytes(count) bytes; bit b is bit b%8 of byte b/8).
void append_bloom_filter(const std::uint32_t* docs, std::uint32_t count, PageBytes& out);

/// False ⇒ `doc` is definitely not among the `count` docs the filter at
/// `filter` was built over.
[[nodiscard]] bool bloom_may_contain(const std::uint8_t* filter, std::uint32_t count,
                                     std::uint32_t doc);

/// One segment's part of a term's chain: the doc range the segment owns and
/// the term's ordinal there (nullopt: the segment has no list for the term).
struct BloomChainLink {
  std::uint32_t min_doc = 0;
  std::uint32_t max_doc = 0;
  const SegmentReader* segment = nullptr;  ///< borrowed; the snapshot pin keeps it alive
  std::optional<std::uint64_t> ordinal;
};

/// A term's rejection chain across a view's segments (links in ascending
/// disjoint doc order). Doc ranges without a link — the memtable — pass.
class BloomChain {
 public:
  void add_link(BloomChainLink link) { links_.push_back(link); }
  [[nodiscard]] bool empty() const { return links_.empty(); }

  /// False ⇒ `doc` is definitely absent from the term's postings.
  [[nodiscard]] bool may_contain(std::uint32_t doc) const {
    for (const auto& link : links_) {
      if (doc < link.min_doc) return true;  // links ascend: uncovered gap
      if (doc <= link.max_doc) {
        return link.ordinal.has_value() && link.segment->may_contain(*link.ordinal, doc);
      }
    }
    return true;
  }

 private:
  std::vector<BloomChainLink> links_;
};

}  // namespace hetindex
