#include "parse/parser.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "dict/trie_table.hpp"
#include "text/html_strip.hpp"
#include "text/porter.hpp"
#include "text/tokenizer.hpp"
#include "util/timer.hpp"

namespace hetindex {
namespace {

/// Token scratch entry: chars live in a block-wide buffer.
struct Tok {
  std::uint32_t doc;
  std::uint32_t offset;
  std::uint8_t len;
  bool removed;
  std::uint32_t trie_idx;
};

}  // namespace

Parser::Parser(ParserConfig config)
    : config_(config), stopwords_(&default_stopwords()) {}

ParsedBlock Parser::parse(const std::vector<Document>& docs, std::uint64_t seq,
                          std::uint32_t parser_id, std::uint32_t doc_id_base,
                          ParseTimes* times) const {
  ParsedBlock block;
  block.seq = seq;
  block.parser_id = parser_id;
  block.doc_id_base = doc_id_base;
  block.doc_count = static_cast<std::uint32_t>(docs.size());

  std::vector<char> chars;
  std::vector<Tok> toks;
  std::vector<std::size_t> doc_start(docs.size() + 1, 0);

  // Step 2: tokenization (HTML stripping folded in — it is part of turning
  // a web document into tokens).
  {
    WallTimer t;
    for (std::size_t d = 0; d < docs.size(); ++d) {
      doc_start[d] = toks.size();
      const auto& doc = docs[d];
      block.source_bytes += document_raw_bytes(doc);
      const std::string stripped = config_.strip_html ? html_strip(doc.body) : std::string();
      const std::string_view text = config_.strip_html ? stripped : doc.body;
      tokenize(text, [&](std::string_view tok) {
        const auto off = static_cast<std::uint32_t>(chars.size());
        chars.insert(chars.end(), tok.begin(), tok.end());
        toks.push_back({static_cast<std::uint32_t>(d), off,
                        static_cast<std::uint8_t>(tok.size()), false, 0});
      });
    }
    doc_start[docs.size()] = toks.size();
    if (times) times->tokenize += t.seconds();
  }

  // Step 3: Porter stemming, in place over the char buffer.
  if (config_.stem) {
    WallTimer t;
    char scratch[kMaxTokenBytes + 1];
    for (auto& tok : toks) {
      std::memcpy(scratch, chars.data() + tok.offset, tok.len);
      const std::size_t n = porter_stem_inplace(scratch, tok.len);
      std::memcpy(chars.data() + tok.offset, scratch, n);
      tok.len = static_cast<std::uint8_t>(n);
    }
    if (times) times->stem += t.seconds();
  }

  // Step 4: stop-word removal.
  if (config_.remove_stopwords) {
    WallTimer t;
    for (auto& tok : toks) {
      tok.removed = stopwords_->contains({chars.data() + tok.offset, tok.len});
    }
    if (times) times->stopword += t.seconds();
  }

  // Step 5: regrouping by trie index with prefix removal. One pass, O(1)
  // per token: each token is appended to its collection's stream, starting
  // a new (doc, count, terms...) record whenever the collection's current
  // record belongs to an earlier document. This is why the paper measures
  // the regrouping overhead at ~5% of parsing — the trie index is a
  // by-product of the scan and grouping is a bucketed append.
  block.doc_tokens.assign(docs.size(), 0);
  {
    WallTimer t;
    struct BuildState {
      ParsedGroup group;
      std::uint32_t current_doc = 0xFFFFFFFFu;
      std::size_t count_at = 0;       // offset of the open record's count field
      std::uint16_t terms_in_doc = 0; // terms appended to the open record
    };
    // The trie-as-table: a flat collection→state index (no hashing), the
    // same table that §III.B.1 uses in place of a pointer-based trie.
    constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;
    std::vector<std::uint32_t> group_of(kTrieCollections, kNoGroup);
    std::deque<BuildState> states;  // stable addresses during build

    auto close_record = [](BuildState& st) {
      if (st.terms_in_doc > 0) {
        std::memcpy(st.group.data.data() + st.count_at, &st.terms_in_doc, 2);
        st.terms_in_doc = 0;
      }
    };

    for (std::size_t d = 0; d < docs.size(); ++d) {
      for (std::size_t i = doc_start[d]; i < doc_start[d + 1]; ++i) {
        const Tok& tok = toks[i];
        if (tok.removed) continue;
        const std::uint32_t idx = trie_index({chars.data() + tok.offset, tok.len});
        if (group_of[idx] == kNoGroup) {
          group_of[idx] = static_cast<std::uint32_t>(states.size());
          states.emplace_back();
          states.back().group.trie_idx = idx;
        }
        BuildState& st = states[group_of[idx]];
        auto& data = st.group.data;
        if (st.current_doc != d || st.terms_in_doc == 0xFFFF) {
          close_record(st);
          st.current_doc = static_cast<std::uint32_t>(d);
          const auto doc32 = static_cast<std::uint32_t>(d);
          const std::size_t at = data.size();
          data.resize(at + 6);
          std::memcpy(data.data() + at, &doc32, 4);
          st.count_at = at + 4;
        }
        const std::size_t strip = trie_prefix_length(idx);
        const auto suffix_len = static_cast<std::uint8_t>(tok.len - strip);
        const std::size_t at = data.size();
        data.resize(at + 1 + suffix_len);
        data[at] = suffix_len;
        std::memcpy(data.data() + at + 1, chars.data() + tok.offset + strip, suffix_len);
        ++st.terms_in_doc;
        ++st.group.tokens;
        st.group.chars += suffix_len;
        if (config_.record_positions) {
          st.group.positions.push_back(static_cast<std::uint32_t>(i - doc_start[d]));
        }
        ++block.tokens;
        ++block.doc_tokens[d];
      }
    }
    block.groups.reserve(states.size());
    for (auto& st : states) {
      close_record(st);
      block.groups.push_back(std::move(st.group));
    }
    std::sort(block.groups.begin(), block.groups.end(),
              [](const ParsedGroup& a, const ParsedGroup& b) { return a.trie_idx < b.trie_idx; });
    if (times) times->regroup += t.seconds();
  }
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
