#include "parse/parsed_block.hpp"

#include <algorithm>
#include <cstring>

namespace hetindex {

const ParsedGroup* ParsedBlock::group(std::uint32_t trie_idx) const {
  const auto it = std::lower_bound(
      groups.begin(), groups.end(), trie_idx,
      [](const ParsedGroup& g, std::uint32_t idx) { return g.trie_idx < idx; });
  if (it == groups.end() || it->trie_idx != trie_idx) return nullptr;
  return &*it;
}

std::uint64_t ParsedBlock::payload_bytes() const {
  std::uint64_t total = 0;
  for (const auto& g : groups) total += g.data.size();
  return total;
}

void GroupWriter::add_term(std::uint32_t local_doc, std::string_view suffix) {
  HET_DCHECK(suffix.size() <= 255);
  auto& data = group_.data;
  if (terms_in_doc_ == 0 || local_doc != doc_ || terms_in_doc_ == 0xFFFF) {
    const std::size_t at = data.size();
    data.resize(at + 6);
    std::memcpy(data.data() + at, &local_doc, 4);
    doc_ = local_doc;
    count_at_ = at + 4;
    terms_in_doc_ = 0;
  }
  const std::size_t at = data.size();
  data.resize(at + 1 + suffix.size());
  data[at] = static_cast<std::uint8_t>(suffix.size());
  std::memcpy(data.data() + at + 1, suffix.data(), suffix.size());
  ++terms_in_doc_;
  std::memcpy(data.data() + count_at_, &terms_in_doc_, 2);
  ++group_.tokens;
  group_.chars += suffix.size();
}

namespace {

template <typename Fn>
void iterate_group(const ParsedGroup& group, Fn&& fn) {
  const auto& data = group.data;
  std::size_t pos = 0;
  std::size_t token_index = 0;
  while (pos < data.size()) {
    HET_CHECK_MSG(pos + 6 <= data.size(), "truncated parsed group record");
    std::uint32_t doc;
    std::uint16_t count;
    std::memcpy(&doc, data.data() + pos, 4);
    std::memcpy(&count, data.data() + pos + 4, 2);
    pos += 6;
    for (std::uint16_t t = 0; t < count; ++t) {
      HET_CHECK_MSG(pos < data.size(), "truncated parsed group term");
      const std::uint8_t len = data[pos++];
      HET_CHECK_MSG(pos + len <= data.size(), "truncated parsed term bytes");
      fn(doc, std::string_view(reinterpret_cast<const char*>(data.data() + pos), len),
         token_index++);
      pos += len;
    }
  }
}

}  // namespace

void for_each_posting(const ParsedGroup& group,
                      const std::function<void(std::uint32_t, std::string_view)>& fn) {
  iterate_group(group,
                [&](std::uint32_t doc, std::string_view term, std::size_t) { fn(doc, term); });
}

void for_each_posting_positional(
    const ParsedGroup& group,
    const std::function<void(std::uint32_t, std::string_view, std::uint32_t)>& fn) {
  HET_CHECK_MSG(group.positions.size() == group.tokens,
                "group has no positions (parser record_positions off?)");
  iterate_group(group, [&](std::uint32_t doc, std::string_view term, std::size_t i) {
    fn(doc, term, group.positions[i]);
  });
}

}  // namespace hetindex
