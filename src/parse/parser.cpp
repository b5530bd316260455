#include "parse/parser.hpp"

#include <algorithm>

#include "dict/trie_table.hpp"
#include "text/html_strip.hpp"
#include "text/porter.hpp"
#include "text/tokenizer.hpp"

namespace hetindex {

Parser::Parser(ParserConfig config)
    : config_(config), stopwords_(&default_stopwords()) {}

ParsedBlock Parser::parse(const std::vector<Document>& docs, std::uint64_t seq,
                          std::uint32_t parser_id, std::uint32_t doc_id_base) const {
  ParsedBlock block;
  block.seq = seq;
  block.parser_id = parser_id;
  block.doc_id_base = doc_id_base;
  block.doc_count = static_cast<std::uint32_t>(docs.size());
  block.doc_tokens.reserve(docs.size());

  // Steps 2–4 run per token in for_each_term; Step 5 is a bucketed append
  // of each kept token to its trie collection's stream. The trie index is a
  // by-product of the scan, which is why the paper measures the regrouping
  // overhead at ~5% of parsing. The trie-as-table: a flat collection→writer
  // index (no hashing), the same table §III.B.1 uses in place of a
  // pointer-based trie.
  constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;
  std::vector<std::uint32_t> writer_of(kTrieCollections, kNoGroup);
  std::vector<GroupWriter> writers;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    const auto doc = static_cast<std::uint32_t>(d);
    block.source_bytes += document_raw_bytes(docs[d]);
    const std::uint32_t kept =
        for_each_term(docs[d].body, [&](std::string_view term, std::uint32_t position) {
          const std::uint32_t idx = trie_index(term);
          if (writer_of[idx] == kNoGroup) {
            writer_of[idx] = static_cast<std::uint32_t>(writers.size());
            writers.emplace_back(idx);
          }
          GroupWriter& writer = writers[writer_of[idx]];
          const std::string_view suffix = trie_suffix(term, idx);
          if (config_.record_positions) {
            writer.add_term(doc, suffix, position);
          } else {
            writer.add_term(doc, suffix);
          }
        });
    block.doc_tokens.push_back(kept);
    block.tokens += kept;
  }
  block.groups.reserve(writers.size());
  for (auto& writer : writers) block.groups.push_back(std::move(writer).take());
  std::sort(block.groups.begin(), block.groups.end(),
            [](const ParsedGroup& a, const ParsedGroup& b) { return a.trie_idx < b.trie_idx; });
  return block;
}

std::vector<Parser::FlatToken> Parser::parse_flat(const std::vector<Document>& docs) const {
  std::vector<FlatToken> out;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    const auto& doc = docs[d];
    const std::string stripped = config_.strip_html ? html_strip(doc.body) : std::string();
    const std::string_view text = config_.strip_html ? stripped : doc.body;
    tokenize(text, [&](std::string_view tok) {
      std::string term = config_.stem ? porter_stem(tok) : std::string(tok);
      if (config_.remove_stopwords && stopwords_->contains(term)) return;
      const std::uint32_t idx = trie_index(term);
      out.push_back({static_cast<std::uint32_t>(d), idx, std::move(term)});
    });
  }
  return out;
}

}  // namespace hetindex
