#include "oracle/segment_blocks.hpp"

#include <algorithm>
#include <vector>

#include "postings/bloom.hpp"
#include "util/check.hpp"

namespace hetindex::oracle {

void add_term_from_blob(SegmentWriter& writer, std::string_view term,
                        std::span<const std::uint8_t> blob) {
  std::vector<PostingBlockEntry> rows;
  std::vector<std::uint8_t> filters;
  std::vector<std::uint32_t> docs, tfs;
  std::uint32_t min_doc = 0;
  for (std::size_t pos = 0; pos < blob.size();) {
    docs.clear();
    tfs.clear();
    const std::size_t consumed = decode_postings(blob.data(), blob.size(), docs, tfs, nullptr, pos);
    HET_CHECK_MSG(!docs.empty(), "postings blobs must not hold empty blocks");
    PostingBlockEntry row;
    row.offset = pos;
    row.bytes = static_cast<std::uint32_t>(consumed);
    row.last_doc = docs.back();
    row.count = static_cast<std::uint32_t>(docs.size());
    row.max_tf = *std::max_element(tfs.begin(), tfs.end());
    rows.push_back(row);
    append_bloom_filter(docs.data(), row.count, filters);
    if (rows.size() == 1) min_doc = docs.front();
    pos += consumed;
  }
  HET_CHECK_MSG(!rows.empty(), "segment terms must have postings");
  writer.add_term(term, blob, min_doc, rows, filters);
}

}  // namespace hetindex::oracle
