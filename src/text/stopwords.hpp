#pragma once
/// \file stopwords.hpp
/// Step 4 of the parser (Fig. 3): removal of stop words ("the", "to",
/// "and", ...). The list is the classic short English list used by most
/// indexing systems.

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace hetindex {

/// Immutable stop-word membership set.
class StopWords {
 public:
  /// Builds the default English list.
  StopWords();

  [[nodiscard]] bool contains(std::string_view word) const {
    return set_.contains(word);
  }
  [[nodiscard]] std::size_t size() const { return set_.size(); }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
    std::size_t operator()(const std::string& s) const {
      return (*this)(std::string_view(s));
    }
  };
  std::unordered_set<std::string, Hash, std::equal_to<>> set_;
};

/// Process-wide default list (thread-safe lazy init).
const StopWords& default_stopwords();

/// The words of the default list, in declaration order. The synthetic
/// corpus generator maps the top Zipf ranks onto these so stop-word
/// removal has realistic impact on generated text.
std::vector<std::string_view> default_stopword_list();

}  // namespace hetindex
