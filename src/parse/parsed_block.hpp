#pragma once
/// \file parsed_block.hpp
/// The parser→indexer interchange format (Fig. 3 Step 5 output): parsed
/// terms regrouped by trie-collection index, with the trie prefix already
/// removed. Per collection i the stream reads
///     (Doc_ID1, term1, term2, ...), (Doc_ID2, term1, ...), ...
/// with Fig. 6 string representation (one length byte, then the bytes).
/// Doc IDs are local to the block; the indexer adds the global offset.

#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace hetindex {

/// One trie collection's parsed stream inside a block.
struct ParsedGroup {
  std::uint32_t trie_idx = 0;
  std::vector<std::uint8_t> data;  ///< [u32 doc][u16 n][len,bytes]*n ...
  /// In-doc token positions, one per token in stream order (parallel to
  /// the byte stream); empty unless the parser records positions.
  std::vector<std::uint32_t> positions;
  std::uint64_t tokens = 0;
  std::uint64_t chars = 0;  ///< total suffix bytes (Table V "Character Number")
};

/// A parsed buffer handed from one parser to the indexing stage; one block
/// is consumed per single run (Fig. 8).
struct ParsedBlock {
  std::uint64_t seq = 0;           ///< global block sequence (run id)
  std::uint32_t parser_id = 0;
  std::uint32_t doc_id_base = 0;   ///< global id of local doc 0
  std::uint32_t doc_count = 0;
  std::uint64_t source_bytes = 0;  ///< uncompressed input bytes represented
  std::uint64_t tokens = 0;        ///< post-stop-word tokens in the block
  /// Indexed tokens per local doc (Fig. 3 Step 1's doc table feeds on
  /// this; also BM25 length normalization downstream).
  std::vector<std::uint32_t> doc_tokens;
  std::vector<ParsedGroup> groups;  ///< sorted by trie_idx

  [[nodiscard]] const ParsedGroup* group(std::uint32_t trie_idx) const;
  /// Total encoded bytes across groups (what pre-processing ships to GPUs).
  [[nodiscard]] std::uint64_t payload_bytes() const;
};

/// The one writer of the Fig. 6 record stream: appends a collection's terms
/// in stream order and keeps the open [u32 doc][u16 n] record itself. A new
/// record opens when the document changes or the open one holds 0xFFFF
/// terms (the count is a u16), so no record is ever empty.
class GroupWriter {
 public:
  explicit GroupWriter(std::uint32_t trie_idx) { group_.trie_idx = trie_idx; }

  /// Appends a term suffix (≤ 255 bytes, Fig. 6) of `local_doc`.
  void add_term(std::uint32_t local_doc, std::string_view suffix);
  /// Same, recording the term's in-document position alongside.
  void add_term(std::uint32_t local_doc, std::string_view suffix, std::uint32_t position) {
    add_term(local_doc, suffix);
    group_.positions.push_back(position);
  }

  /// Hands over the finished group.
  [[nodiscard]] ParsedGroup take() && { return std::move(group_); }

 private:
  ParsedGroup group_;
  std::uint32_t doc_ = 0;
  std::size_t count_at_ = 0;       ///< offset of the open record's count
  std::uint16_t terms_in_doc_ = 0; ///< 0 = no record open
};

/// Iterates a group's records: fn(local_doc_id, suffix) per term.
void for_each_posting(const ParsedGroup& group,
                      const std::function<void(std::uint32_t, std::string_view)>& fn);

/// Positional iteration: fn(local_doc_id, suffix, position). The group must
/// carry positions (one per token).
void for_each_posting_positional(
    const ParsedGroup& group,
    const std::function<void(std::uint32_t, std::string_view, std::uint32_t)>& fn);

}  // namespace hetindex
