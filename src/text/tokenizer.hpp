#pragma once
/// \file tokenizer.hpp
/// Step 2 of the parser (Fig. 3): splits document text into lowercase tokens
/// with a single character-class scan. The scan classifies each token into
/// the categories Table I needs (pure number / short-or-special / 3-letter
/// prefix) as a by-product, which is why the paper reports the regrouping
/// overhead at ~5% of parsing.
///
/// Token rules:
///  - a token is a maximal run of [A-Za-z0-9] or non-ASCII bytes (≥ 0x80);
///  - ASCII letters are lowercased; non-ASCII bytes pass through and count
///    as "special letters" for Table I purposes;
///  - tokens longer than 255 bytes are truncated (Fig. 6 stores the length
///    in one byte).

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace hetindex {

/// Maximum token length the on-wire parsed format supports (Fig. 6: one
/// length byte).
inline constexpr std::size_t kMaxTokenBytes = 255;

/// Per-character classification used by the tokenizer and the trie table.
[[nodiscard]] constexpr bool is_token_char(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c >= 0x80;
}
[[nodiscard]] constexpr bool is_ascii_lower(unsigned char c) { return c >= 'a' && c <= 'z'; }
[[nodiscard]] constexpr bool is_digit(unsigned char c) { return c >= '0' && c <= '9'; }

/// The token scan every tokenizer entry point shares: calls
/// `sink(char* token, std::size_t len)` per token. The buffer holds
/// kMaxTokenBytes + 1 bytes and is only valid for the duration of the call,
/// so a sink may rewrite the token in place (the Porter stemmer needs the
/// one spare byte).
template <typename Sink>
void for_each_token(std::string_view text, Sink&& sink) {
  char buf[kMaxTokenBytes + 1];
  std::size_t len = 0;
  for (const char ch : text) {
    const auto c = static_cast<unsigned char>(ch);
    if (is_token_char(c)) {
      // Past kMaxTokenBytes the tail of an over-long token is swallowed.
      if (len < kMaxTokenBytes) {
        buf[len++] = (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a')
                                            : static_cast<char>(c);
      }
    } else if (len > 0) {
      sink(buf, len);
      len = 0;
    }
  }
  if (len > 0) sink(buf, len);
}

/// Streams lowercase tokens from `text` into `sink`. The string_view passed
/// to the sink points into an internal buffer and is only valid for the
/// duration of the call.
void tokenize(std::string_view text, const std::function<void(std::string_view)>& sink);

/// Convenience for tests: materializes all tokens.
std::vector<std::string> tokenize_to_vector(std::string_view text);

}  // namespace hetindex
