#include "codec/front_coding.hpp"

#include <algorithm>

#include "codec/posting_codecs.hpp"
#include "util/check.hpp"

namespace hetindex {

std::size_t common_prefix_length(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

std::vector<std::uint8_t> front_code(const std::vector<std::string>& terms) {
  std::vector<std::uint8_t> out;
  std::string_view prev;
  for (const auto& term : terms) {
    HET_CHECK_MSG(prev <= term, "front coding requires sorted input");
    const std::size_t shared = common_prefix_length(prev, term);
    vbyte_encode(shared, out);
    vbyte_encode(term.size() - shared, out);
    out.insert(out.end(), term.begin() + static_cast<std::ptrdiff_t>(shared), term.end());
    prev = term;
  }
  return out;
}

std::optional<std::vector<std::string>> front_decode(const std::vector<std::uint8_t>& block,
                                                     std::size_t count) {
  std::vector<std::string> terms;
  terms.reserve(std::min(count, block.size()));
  std::size_t pos = 0;
  std::string prev;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t shared = 0, suffix_len = 0;
    if (!vbyte_try_decode(block.data(), block.size(), pos, shared) ||
        !vbyte_try_decode(block.data(), block.size(), pos, suffix_len) ||
        shared > prev.size() || suffix_len > block.size() - pos) {
      return std::nullopt;
    }
    std::string term = prev.substr(0, shared);
    term.append(reinterpret_cast<const char*>(block.data() + pos), suffix_len);
    pos += suffix_len;
    prev = term;
    terms.push_back(std::move(term));
  }
  return terms;
}

}  // namespace hetindex
