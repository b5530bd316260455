// Tests for the parser (Fig. 3 Steps 1–5): parsed-block format, regrouping
// invariants and the serialized read scheduler.

#include <gtest/gtest.h>

#include <algorithm>
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
  ParsedGroup group;
  group.trie_idx = 42;
  GroupWriter w(group);
  w.begin_doc(7);
  w.add_term("lication");
  w.add_term("le");
  w.end_doc();
  w.begin_doc(9);
  w.add_term("");
  w.end_doc();
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
}

TEST(ParsedBlock, EmptyDocRecordsAreDropped) {
  ParsedGroup group;
  GroupWriter w(group);
  w.begin_doc(1);
  w.end_doc();  // no terms
  EXPECT_TRUE(group.data.empty());
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

TEST(Parser, RegroupingPreservesEveryToken) {
  // Property: the grouped block and the flat (ablation) parse contain the
  // same multiset of (doc, term) pairs.
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
}

TEST(Parser, StepTimesAreReported) {
  Parser parser;
  std::vector<Document> docs;
  for (int i = 0; i < 50; ++i)
    docs.push_back({static_cast<std::uint32_t>(i), "",
                    "<html>the quick brown foxes were jumping over lazy dogs "
                    "repeatedly and continuously</html>"});
  // Each step's minimum over a few parses of the same input: one parse of a
  // tiny block is easily stretched by a preemption (or a sanitizer's
  // bookkeeping) landing inside a single step.
  ParseTimes best;
  for (int round = 0; round < 5; ++round) {
    ParseTimes times;
    parser.parse(docs, 0, 0, 0, &times);
    EXPECT_GT(times.tokenize, 0.0);
    EXPECT_GT(times.total(), 0.0);
    if (round == 0) {
      best = times;
      continue;
    }
    best.tokenize = std::min(best.tokenize, times.tokenize);
    best.stem = std::min(best.stem, times.stem);
    best.stopword = std::min(best.stopword, times.stopword);
    best.regroup = std::min(best.regroup, times.regroup);
  }
  // §III.C: regrouping is a small fraction of parsing (~5%). Allow slack on
  // a tiny input but it must not dominate.
  EXPECT_LT(best.regroup, best.total() * 0.6);
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
