#include "text/stopwords.hpp"

#include <string>

#include "text/porter.hpp"

namespace hetindex {
namespace {

/// The classic English stop-word list (van Rijsbergen-style short list).
constexpr std::string_view kDefaultList[] = {
    "a",       "about",  "above",   "after",  "again",   "against", "all",    "am",
    "an",      "and",    "any",     "are",    "as",      "at",      "be",     "because",
    "been",    "before", "being",   "below",  "between", "both",    "but",    "by",
    "can",     "cannot", "could",   "did",    "do",      "does",    "doing",  "down",
    "during",  "each",   "few",     "for",    "from",    "further", "had",    "has",
    "have",    "having", "he",      "her",    "here",    "hers",    "herself","him",
    "himself", "his",    "how",     "i",      "if",      "in",      "into",   "is",
    "it",      "its",    "itself",  "me",     "more",    "most",    "my",     "myself",
    "no",      "nor",    "not",     "of",     "off",     "on",      "once",   "only",
    "or",      "other",  "ought",   "our",    "ours",    "ourselves","out",   "over",
    "own",     "same",   "she",     "should", "so",      "some",    "such",   "than",
    "that",    "the",    "their",   "theirs", "them",    "themselves","then", "there",
    "these",   "they",   "this",    "those",  "through", "to",      "too",    "under",
    "until",   "up",     "very",    "was",    "we",      "were",    "what",   "when",
    "where",   "which",  "while",   "who",    "whom",    "why",     "with",   "would",
    "you",     "your",   "yours",   "yourself", "yourselves",
};

}  // namespace

StopWords::StopWords() {
  // The parser removes stop words *after* stemming (Fig. 3 step order), so
  // the membership set must contain the stemmed forms as well ("above" →
  // "abov", "being" → "be", ...).
  for (const auto w : kDefaultList) {
    set_.emplace(w);
    set_.insert(porter_stem(w));
  }
}

const StopWords& default_stopwords() {
  static const StopWords instance;
  return instance;
}

std::vector<std::string_view> default_stopword_list() {
  return {std::begin(kDefaultList), std::end(kDefaultList)};
}

}  // namespace hetindex
