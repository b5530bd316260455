// Tests for the parser (Fig. 3 Steps 1–5): parsed-block format, regrouping
// invariants and the serialized read scheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "corpus/container.hpp"
#include "corpus/synthetic.hpp"
#include "dict/trie_table.hpp"
#include "parse/parser.hpp"
#include "parse/read_scheduler.hpp"
#include "text/porter.hpp"
#include "text/stopwords.hpp"

namespace hetindex {
namespace {

std::vector<Document> make_docs(std::initializer_list<const char*> bodies) {
  std::vector<Document> docs;
  std::uint32_t id = 0;
  for (const char* b : bodies) {
    Document d;
    d.local_id = id++;
    d.body = b;
    docs.push_back(std::move(d));
  }
  return docs;
}

TEST(ParsedBlock, GroupWriterRoundTrip) {
  GroupWriter w(42);
  w.add_term(7, "lication");
  w.add_term(7, "le");
  w.add_term(9, "");
  const ParsedGroup group = std::move(w).take();
  EXPECT_EQ(group.trie_idx, 42u);
  std::vector<std::pair<std::uint32_t, std::string>> seen;
  for_each_posting(group, [&](std::uint32_t doc, std::string_view term) {
    seen.emplace_back(doc, std::string(term));
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::uint32_t, std::string>{7, "lication"}));
  EXPECT_EQ(seen[1], (std::pair<std::uint32_t, std::string>{7, "le"}));
  EXPECT_EQ(seen[2], (std::pair<std::uint32_t, std::string>{9, ""}));
  EXPECT_EQ(group.tokens, 3u);
  EXPECT_EQ(group.chars, 10u);
  // Two records: doc 7 with two terms, doc 9 with one.
  EXPECT_EQ(group.data.size(), (6u + 1 + 8 + 1 + 2) + (6u + 1));
}

TEST(Parser, GroupsAreSortedAndPrefixStripped) {
  Parser parser({.strip_html = false});
  const auto docs = make_docs({"application apple zebra 42 across the plain"});
  const auto block = parser.parse(docs, 0, 0, 0);
  ASSERT_FALSE(block.groups.empty());
  for (std::size_t i = 1; i < block.groups.size(); ++i) {
    EXPECT_LT(block.groups[i - 1].trie_idx, block.groups[i].trie_idx);
  }
  // "the" is a stop word → gone; every surviving term reconstructs as
  // prefix + stored suffix and lands in its own collection.
  std::set<std::string> reconstructed;
  for (const auto& g : block.groups) {
    for_each_posting(g, [&](std::uint32_t, std::string_view suffix) {
      reconstructed.insert(trie_prefix(g.trie_idx) + std::string(suffix));
    });
  }
  const std::set<std::string> expected = {porter_stem("application"), porter_stem("apple"),
                                          porter_stem("zebra"), "42", porter_stem("across"),
                                          porter_stem("plain")};
  EXPECT_EQ(reconstructed, expected);
}

/// The Fig. 6 records of a group as (doc, term count) pairs.
std::vector<std::pair<std::uint32_t, std::uint16_t>> records(const ParsedGroup& group) {
  std::vector<std::pair<std::uint32_t, std::uint16_t>> out;
  std::size_t pos = 0;
  while (pos < group.data.size()) {
    std::uint32_t doc;
    std::uint16_t count;
    std::memcpy(&doc, group.data.data() + pos, 4);
    std::memcpy(&count, group.data.data() + pos + 4, 2);
    pos += 6;
    for (std::uint16_t t = 0; t < count; ++t) pos += 1 + group.data[pos];
    out.emplace_back(doc, count);
  }
  return out;
}

/// Checks that parse() equals, byte for byte, a GroupWriter regroup of
/// parse_flat's stream in stream order, and that positional groups carry
/// the positions for_each_term reports.
void expect_parse_equals_flat_regroup(const std::vector<Document>& docs) {
  Parser parser;
  const auto block = parser.parse(docs, 0, 0, 0);
  const auto flat = parser.parse_flat(docs);

  std::map<std::uint32_t, GroupWriter> writers;
  std::vector<std::uint32_t> doc_tokens(docs.size(), 0);
  for (const auto& t : flat) {
    writers.try_emplace(t.trie_idx, t.trie_idx)
        .first->second.add_term(t.local_doc, trie_suffix(t.term, t.trie_idx));
    ++doc_tokens[t.local_doc];
  }
  ASSERT_EQ(block.groups.size(), writers.size());
  std::size_t i = 0;
  for (auto& [idx, writer] : writers) {
    const ParsedGroup expected = std::move(writer).take();
    const ParsedGroup& got = block.groups[i++];
    ASSERT_EQ(got.trie_idx, idx);
    EXPECT_EQ(got.data, expected.data) << "collection " << idx;
    EXPECT_EQ(got.tokens, expected.tokens) << "collection " << idx;
    EXPECT_EQ(got.chars, expected.chars) << "collection " << idx;
    EXPECT_TRUE(got.positions.empty());
  }
  EXPECT_EQ(block.doc_tokens, doc_tokens);
  EXPECT_EQ(block.tokens, flat.size());

  Parser positional({.record_positions = true});
  const auto pblock = positional.parse(docs, 0, 0, 0);
  std::map<std::uint32_t, std::vector<std::uint32_t>> positions;
  for (const auto& doc : docs) {
    positional.for_each_term(doc.body, [&](std::string_view term, std::uint32_t position) {
      positions[trie_index(term)].push_back(position);
    });
  }
  ASSERT_EQ(pblock.groups.size(), block.groups.size());
  for (std::size_t g = 0; g < pblock.groups.size(); ++g) {
    const ParsedGroup& got = pblock.groups[g];
    EXPECT_EQ(got.data, block.groups[g].data) << "collection " << got.trie_idx;
    EXPECT_EQ(got.positions, positions[got.trie_idx]) << "collection " << got.trie_idx;
  }
}

std::vector<Document> synthetic_docs(CollectionSpec spec) {
  spec.vocabulary = 5000;
  const Vocabulary vocab(spec.vocabulary, spec.numeric_fraction, spec.special_fraction,
                         spec.seed);
  Rng rng(spec.seed);
  return generate_documents(spec, vocab, 256u << 10, 0, 1, rng);
}

TEST(Parser, RegroupingPreservesEveryToken) {
  // Property: the grouped block and the flat (per-token oracle) parse
  // contain the same multiset of (doc, term) pairs.
  Parser parser({.strip_html = true});
  const auto docs =
      make_docs({"<p>Parallel indexers consume parsed streams rapidly</p>",
                 "<p>the indexers and the parsers pipeline</p>",
                 "<p>zzzy zoo 01 0195 3d Parallel</p>"});
  const auto block = parser.parse(docs, 0, 0, 0);
  const auto flat = parser.parse_flat(docs);

  std::multiset<std::pair<std::uint32_t, std::string>> grouped_pairs, flat_pairs;
  for (const auto& g : block.groups) {
    for_each_posting(g, [&](std::uint32_t doc, std::string_view suffix) {
      grouped_pairs.emplace(doc, trie_prefix(g.trie_idx) + std::string(suffix));
    });
  }
  for (const auto& t : flat) flat_pairs.emplace(t.local_doc, t.term);
  EXPECT_EQ(grouped_pairs, flat_pairs);
  EXPECT_EQ(block.tokens, flat.size());

  // Byte for byte, on generated web-like (HTML) and Wikipedia-like text.
  const auto clueweb = synthetic_docs(clueweb_like());
  const auto wikipedia = synthetic_docs(wikipedia_like());
  ASSERT_GT(clueweb.size(), 10u);
  ASSERT_GT(wikipedia.size(), 10u);
  expect_parse_equals_flat_regroup(clueweb);
  expect_parse_equals_flat_regroup(wikipedia);

  // A document with more than 0xFFFF terms in one collection splits into
  // two records of the same doc, between ordinary documents.
  std::string big;
  for (int i = 0; i < 70000; ++i) big += "zebra ";
  std::vector<Document> edge = make_docs({"zebras grazing", "", "zebra crossing"});
  edge[1].body = big;
  expect_parse_equals_flat_regroup(edge);
  const auto edge_block = parser.parse(edge, 0, 0, 0);
  const ParsedGroup* zeb = edge_block.group(trie_index("zebra"));
  ASSERT_NE(zeb, nullptr);
  const std::vector<std::pair<std::uint32_t, std::uint16_t>> want = {
      {0, 1}, {1, 0xFFFF}, {1, 70000 - 0xFFFF}, {2, 1}};
  EXPECT_EQ(records(*zeb), want);
  std::uint64_t big_terms = 0;
  for_each_posting(*zeb, [&](std::uint32_t doc, std::string_view suffix) {
    if (doc != 1) return;
    EXPECT_EQ(suffix, "ra");
    ++big_terms;
  });
  EXPECT_EQ(big_terms, 70000u);
  EXPECT_EQ(edge_block.doc_tokens[1], 70000u);
}

TEST(Parser, DocIdBaseIsRecorded) {
  Parser parser;
  const auto block = parser.parse(make_docs({"hello world"}), 3, 1, 1000);
  EXPECT_EQ(block.seq, 3u);
  EXPECT_EQ(block.parser_id, 1u);
  EXPECT_EQ(block.doc_id_base, 1000u);
  EXPECT_EQ(block.doc_count, 1u);
}

class ReadSchedulerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "hetindex_sched_test").string();
    std::filesystem::create_directories(dir_);
    auto spec = wikipedia_like();
    spec.total_bytes = 1u << 20;
    spec.file_bytes = 256u << 10;
    spec.vocabulary = 5000;
    collection_ = generate_collection(spec, dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  Collection collection_;
};

TEST_F(ReadSchedulerFixture, HandsOutFilesInOrderWithMonotoneDocBases) {
  ReadScheduler sched(collection_.paths());
  std::uint64_t expected_seq = 0;
  std::uint32_t expected_base = 0;
  for (;;) {
    auto next = sched.next();
    ASSERT_TRUE(next.has_value()) << next.error().to_string();
    if (!next.value().has_value()) break;
    const ScheduledRead& read = *next.value();
    EXPECT_EQ(read.seq, expected_seq++);
    EXPECT_EQ(read.doc_id_base, expected_base);
    expected_base += static_cast<std::uint32_t>(read.docs.size());
    EXPECT_GT(read.uncompressed_bytes, read.compressed_bytes);
  }
  EXPECT_EQ(expected_seq, collection_.files.size());
  EXPECT_EQ(sched.docs_assigned(), collection_.total_docs());
}

TEST_F(ReadSchedulerFixture, ConcurrentParsersSeeDisjointFiles) {
  ReadScheduler sched(collection_.paths());
  std::mutex mu;
  std::map<std::uint64_t, std::uint32_t> seen;  // seq → doc base
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (;;) {
          auto next = sched.next();
          ASSERT_TRUE(next.has_value()) << next.error().to_string();
          if (!next.value().has_value()) return;
          std::scoped_lock lock(mu);
          EXPECT_TRUE(seen.emplace(next.value()->seq, next.value()->doc_id_base).second);
        }
      });
    }
  }
  ASSERT_EQ(seen.size(), collection_.files.size());
  // Doc bases must be monotone in seq even under concurrency.
  std::uint32_t prev = 0;
  for (const auto& [seq, base] : seen) {
    EXPECT_GE(base, prev) << "seq " << seq;
    prev = base;
  }
}

}  // namespace
}  // namespace hetindex
