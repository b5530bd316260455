// Tests for the reference boolean list operators (oracle/list_ops.hpp) and
// index verification. Query-level
// conjunction goes through the Searcher facade (an AND Query AST) —
// the old conjunctive_query free function is gone.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "core/hetindex.hpp"
#include "corpus/container.hpp"
#include "oracle/list_ops.hpp"
#include "postings/verify.hpp"
#include "search/searcher.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace hetindex {
namespace {

QueryPostings make(std::initializer_list<std::uint32_t> ids) {
  QueryPostings p;
  for (auto id : ids) {
    p.doc_ids.push_back(id);
    p.tfs.push_back(id % 5 + 1);
  }
  return p;
}

TEST(BooleanOps, AndBasics) {
  const auto r = oracle::postings_and(make({1, 3, 5, 7}), make({2, 3, 5, 9}));
  EXPECT_EQ(r.doc_ids, (std::vector<std::uint32_t>{3, 5}));
  // tfs sum across both sides.
  EXPECT_EQ(r.tfs[0], (3 % 5 + 1) * 2u);
}

TEST(BooleanOps, AndWithEmptyAndDisjoint) {
  EXPECT_TRUE(oracle::postings_and(make({}), make({1, 2})).doc_ids.empty());
  EXPECT_TRUE(oracle::postings_and(make({1, 3}), make({2, 4})).doc_ids.empty());
}

TEST(BooleanOps, OrMergesAndSums) {
  const auto r = oracle::postings_or(make({1, 3}), make({2, 3, 4}));
  EXPECT_EQ(r.doc_ids, (std::vector<std::uint32_t>{1, 2, 3, 4}));
  EXPECT_EQ(r.tfs[2], (3 % 5 + 1) * 2u);  // doc 3 present in both
}

TEST(BooleanOps, OrWithEmpty) {
  const auto r = oracle::postings_or(make({}), make({5, 6}));
  EXPECT_EQ(r.doc_ids, (std::vector<std::uint32_t>{5, 6}));
}

TEST(BooleanOps, AndNot) {
  const auto r = oracle::postings_and_not(make({1, 2, 3, 4, 5}), make({2, 4, 9}));
  EXPECT_EQ(r.doc_ids, (std::vector<std::uint32_t>{1, 3, 5}));
}

TEST(BooleanOps, AndNotEverythingRemoved) {
  EXPECT_TRUE(oracle::postings_and_not(make({1, 2}), make({1, 2, 3})).doc_ids.empty());
}

TEST(BooleanOps, GallopingMatchesLinearOnRandomLists) {
  Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    std::set<std::uint32_t> sa, sb;
    const std::size_t na = 1 + rng.below(300);
    const std::size_t nb = 1 + rng.below(3000);
    while (sa.size() < na) sa.insert(static_cast<std::uint32_t>(rng.below(10000)));
    while (sb.size() < nb) sb.insert(static_cast<std::uint32_t>(rng.below(10000)));
    QueryPostings a, b;
    for (auto id : sa) {
      a.doc_ids.push_back(id);
      a.tfs.push_back(1);
    }
    for (auto id : sb) {
      b.doc_ids.push_back(id);
      b.tfs.push_back(2);
    }
    const auto linear = oracle::postings_and(a, b);
    const auto gallop = oracle::postings_and_galloping(a, b);
    ASSERT_EQ(gallop.doc_ids, linear.doc_ids) << "trial " << trial;
    ASSERT_EQ(gallop.tfs, linear.tfs) << "trial " << trial;
  }
}

TEST(BooleanOps, OperatorsPreserveSortedness) {
  Rng rng(11);
  std::set<std::uint32_t> sa, sb;
  while (sa.size() < 500) sa.insert(static_cast<std::uint32_t>(rng.below(5000)));
  while (sb.size() < 500) sb.insert(static_cast<std::uint32_t>(rng.below(5000)));
  QueryPostings a, b;
  for (auto id : sa) {
    a.doc_ids.push_back(id);
    a.tfs.push_back(1);
  }
  for (auto id : sb) {
    b.doc_ids.push_back(id);
    b.tfs.push_back(1);
  }
  for (const auto& r : {oracle::postings_and(a, b), oracle::postings_or(a, b),
                        oracle::postings_and_not(a, b)}) {
    EXPECT_TRUE(std::is_sorted(r.doc_ids.begin(), r.doc_ids.end()));
    EXPECT_EQ(r.doc_ids.size(), r.tfs.size());
  }
}

class QueryIndexFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() / "hetindex_qops").string();
    std::filesystem::create_directories(dir_);
    std::vector<Document> docs = {
        {0, "", "apple banana cherry"},
        {1, "", "apple banana"},
        {2, "", "apple"},
        {3, "", "banana cherry"},
        {4, "", "apple cherry dates"},
    };
    const auto corpus = dir_ + "/c.hdc";
    container_write(corpus, docs);
    IndexBuilder builder;
    builder.parsers(1).cpu_indexers(1).gpus(1).emit_segment(true);
    builder.build({corpus}, dir_ + "/index");
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }
  static inline std::string dir_;
};

TEST_F(QueryIndexFixture, ConjunctiveModeIntersects) {
  const auto index = InvertedIndex::open(dir_ + "/index", {}).value();
  // No doc map: boolean modes only.
  const auto searcher_ptr = Searcher::open(SearchSource::batch(index)).value();
  const Searcher& searcher = *searcher_ptr;
  QueryRequest request;
  request.query = Query::conjunction({normalize_term("apple"), normalize_term("banana")});
  const auto r = searcher.search(request);
  ASSERT_TRUE(r.has_value());
  std::vector<std::uint32_t> docs;
  for (const auto& h : r.value().hits) docs.push_back(h.doc_id);
  std::sort(docs.begin(), docs.end());
  EXPECT_EQ(docs, (std::vector<std::uint32_t>{0, 1}));

  request.query = Query::conjunction({normalize_term("apple"), normalize_term("banana"),
                                      normalize_term("cherry")});
  const auto r3 = searcher.search(request);
  ASSERT_TRUE(r3.has_value());
  ASSERT_EQ(r3.value().hits.size(), 1u);
  EXPECT_EQ(r3.value().hits[0].doc_id, 0u);
}

TEST_F(QueryIndexFixture, ConjunctiveModeMissingTerm) {
  const auto index = InvertedIndex::open(dir_ + "/index", {}).value();
  const auto searcher_ptr = Searcher::open(SearchSource::batch(index)).value();
  const Searcher& searcher = *searcher_ptr;
  QueryRequest request;
  request.query = Query::conjunction({normalize_term("apple"), "zzzznope"});
  const auto r = searcher.search(request);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r.value().hits.empty());  // any absent term empties the AND

  request.query = Query();
  const auto empty = searcher.search(request);
  ASSERT_FALSE(empty.has_value());
  EXPECT_EQ(empty.error().code, ErrorCode::kInvalidArgument);
}

TEST_F(QueryIndexFixture, TermsWithPrefixScansLexicographically) {
  const auto index = InvertedIndex::open(dir_ + "/index", {}).value();
  // Dictionary holds the stems: appl, banana, cherri, date.
  const auto all = index.terms_with_prefix("");
  EXPECT_EQ(all.size(), index.term_count());
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  const auto a_terms = index.terms_with_prefix("a");
  ASSERT_EQ(a_terms.size(), 1u);
  EXPECT_EQ(a_terms[0], "appl");
  EXPECT_TRUE(index.terms_with_prefix("zz").empty());
  const auto exact = index.terms_with_prefix("banana");
  ASSERT_EQ(exact.size(), 1u);
}

TEST_F(QueryIndexFixture, VerifyPassesOnIntactIndex) {
  const auto report = verify_index(dir_ + "/index");
  for (const auto& e : report.errors) ADD_FAILURE() << e;
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.terms, 4u);  // apple banana cherry dates (stemmed forms)
  EXPECT_GT(report.postings, 0u);
}

TEST_F(QueryIndexFixture, VerifyFlagsMissingDictionary) {
  const auto scratch =
      (std::filesystem::temp_directory_path() / "hetindex_qops_broken").string();
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  const auto report = verify_index(scratch);
  EXPECT_FALSE(report.ok);
  std::filesystem::remove_all(scratch);
}

TEST_F(QueryIndexFixture, VerifyFlagsDoctoredDirectoryRange) {
  // Copy the index and shrink a directory entry's doc range so the run's
  // real range exceeds it.
  const auto scratch =
      (std::filesystem::temp_directory_path() / "hetindex_qops_range").string();
  std::filesystem::remove_all(scratch);
  std::filesystem::copy(dir_ + "/index", scratch);
  auto entries = index_directory_read(IndexLayout::directory_path(scratch)).value();
  ASSERT_FALSE(entries.empty());
  entries[0].max_doc = 0;
  entries[0].min_doc = 0;
  index_directory_write(IndexLayout::directory_path(scratch), entries);
  const auto report = verify_index(scratch);
  EXPECT_FALSE(report.ok);
  std::filesystem::remove_all(scratch);
}

}  // namespace
}  // namespace hetindex
