#pragma once
/// \file parser.hpp
/// The parser of Fig. 3, Steps 2–5: tokenization (with trie-index
/// computation as a by-product), Porter stemming, stop-word removal and
/// regrouping by trie-collection index with prefix removal. Step 1 (read +
/// decompress + local doc-ID assignment) lives in read_scheduler.hpp.

#include <string>
#include <string_view>
#include <vector>

#include "corpus/document.hpp"
#include "parse/parsed_block.hpp"
#include "text/html_strip.hpp"
#include "text/porter.hpp"
#include "text/stopwords.hpp"
#include "text/tokenizer.hpp"

namespace hetindex {

struct ParserConfig {
  bool strip_html = true;
  bool stem = true;
  bool remove_stopwords = true;
  /// Record in-document token positions (positional postings; the paper's
  /// Ivory comparison point notes positional lists "add some extra cost").
  bool record_positions = false;
};

/// One parser worker. Stateless between calls except for configuration, so
/// one instance per thread and no sharing.
class Parser {
 public:
  explicit Parser(ParserConfig config = {});

  /// Parses a batch of documents into a trie-grouped block: each document
  /// goes through for_each_term (Steps 2–4) and each kept term is appended,
  /// prefix stripped, to its trie collection's GroupWriter (Step 5). Local
  /// doc IDs are the positions within `docs`.
  ParsedBlock parse(const std::vector<Document>& docs, std::uint64_t seq,
                    std::uint32_t parser_id, std::uint32_t doc_id_base) const;

  /// Steps 2–4 without Step 5, one token at a time through the
  /// copying `tokenize`/`porter_stem` entry points: the output keeps raw
  /// token order (trie_idx values interleaved in stream order) with full
  /// terms. The per-token oracle for parse() and the input of the
  /// MapReduce indexers and the serial baselines.
  struct FlatToken {
    std::uint32_t local_doc;
    std::uint32_t trie_idx;
    std::string term;  ///< full term (prefix not removed)
  };
  std::vector<FlatToken> parse_flat(const std::vector<Document>& docs) const;

  /// Steps 2–4 over one document body in one pass per token — tokenize,
  /// stem in place, stop-word test. parse() and the live writer both
  /// normalize through it. Calls `sink(std::string_view term,
  /// std::uint32_t position)` for every kept token in stream order;
  /// `position` counts every token, stop words included. Returns the
  /// kept-token count (parse()'s doc_tokens entry for the body). The term
  /// view is only valid for the duration of the sink call.
  template <typename Sink>
  std::uint32_t for_each_term(std::string_view body, Sink&& sink) const {
    const std::string stripped = config_.strip_html ? html_strip(body) : std::string();
    const std::string_view text = config_.strip_html ? std::string_view(stripped) : body;
    std::uint32_t position = 0;
    std::uint32_t kept = 0;
    for_each_token(text, [&](char* token, std::size_t len) {
      if (config_.stem) len = porter_stem_inplace(token, len);
      const std::string_view term(token, len);
      if (!config_.remove_stopwords || !stopwords_->contains(term)) {
        sink(term, position);
        ++kept;
      }
      ++position;
    });
    return kept;
  }

 private:
  ParserConfig config_;
  const StopWords* stopwords_;
};

}  // namespace hetindex
