#include "text/tokenizer.hpp"

#include <vector>

namespace hetindex {

void tokenize(std::string_view text, const std::function<void(std::string_view)>& sink) {
  for_each_token(text, [&](char* token, std::size_t len) { sink(std::string_view(token, len)); });
}

std::vector<std::string> tokenize_to_vector(std::string_view text) {
  std::vector<std::string> tokens;
  tokenize(text, [&](std::string_view t) { tokens.emplace_back(t); });
  return tokens;
}

}  // namespace hetindex
