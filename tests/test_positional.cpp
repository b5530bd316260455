// Tests for positional postings: codec round trips, pipeline end-to-end
// with record_positions, phrase queries, and CPU-vs-GPU parity of the
// positional path.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "codec/posting_codecs.hpp"
#include "core/hetindex.hpp"
#include "corpus/container.hpp"
#include "index/indexer.hpp"
#include "oracle/list_ops.hpp"
#include "parse/parser.hpp"
#include "postings/merger.hpp"
#include "postings/run_file.hpp"
#include "util/rng.hpp"

namespace hetindex {
namespace {

class PositionalCodecParam : public ::testing::TestWithParam<PostingCodec> {};

TEST_P(PositionalCodecParam, RoundTripWithPositions) {
  // docs {3, 9}; tf {2, 3}; positions per doc non-decreasing.
  const std::vector<std::uint32_t> ids = {3, 9};
  const std::vector<std::uint32_t> tfs = {2, 3};
  const std::vector<std::uint32_t> pos = {0, 17, 4, 4, 1000};
  const auto enc = encode_postings(GetParam(), ids, tfs, &pos);
  std::vector<std::uint32_t> ids2, tfs2, pos2;
  decode_postings(enc.data(), enc.size(), ids2, tfs2, &pos2);
  EXPECT_EQ(ids2, ids);
  EXPECT_EQ(tfs2, tfs);
  EXPECT_EQ(pos2, pos);
}

TEST_P(PositionalCodecParam, NonPositionalDecoderIgnoresPositions) {
  const std::vector<std::uint32_t> ids = {1, 2};
  const std::vector<std::uint32_t> tfs = {1, 1};
  const std::vector<std::uint32_t> pos = {5, 6};
  const auto enc = encode_postings(GetParam(), ids, tfs, &pos);
  std::vector<std::uint32_t> ids2, tfs2;
  decode_postings(enc.data(), enc.size(), ids2, tfs2, nullptr);  // discard positions
  EXPECT_EQ(ids2, ids);
  EXPECT_EQ(tfs2, tfs);
}

TEST_P(PositionalCodecParam, RandomPositionalRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 1);
  std::vector<std::uint32_t> ids, tfs, pos;
  std::uint32_t doc = 0;
  for (int i = 0; i < 300; ++i) {
    doc += 1 + static_cast<std::uint32_t>(rng.below(50));
    const auto tf = 1 + static_cast<std::uint32_t>(rng.below(6));
    ids.push_back(doc);
    tfs.push_back(tf);
    std::uint32_t p = static_cast<std::uint32_t>(rng.below(10));
    for (std::uint32_t k = 0; k < tf; ++k) {
      pos.push_back(p);
      p += static_cast<std::uint32_t>(rng.below(30));  // non-decreasing
    }
  }
  const auto enc = encode_postings(GetParam(), ids, tfs, &pos);
  std::vector<std::uint32_t> ids2, tfs2, pos2;
  decode_postings(enc.data(), enc.size(), ids2, tfs2, &pos2);
  EXPECT_EQ(ids2, ids);
  EXPECT_EQ(pos2, pos);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, PositionalCodecParam,
                         ::testing::Values(PostingCodec::kVByte, PostingCodec::kGamma,
                                           PostingCodec::kGolomb));

TEST(PositionalParser, PositionsCountStopwordSlots) {
  // Positions index the doc's token stream before stop-word removal, so a
  // removed "the" still advances the counter (standard IR practice keeps
  // proximity meaningful across removed words).
  Parser parser({.strip_html = false, .record_positions = true});
  std::vector<Document> docs = {{0, "", "alpha the beta"}};
  const auto block = parser.parse(docs, 0, 0, 0);
  std::vector<std::pair<std::string, std::uint32_t>> seen;
  for (const auto& g : block.groups) {
    for_each_posting_positional(g, [&](std::uint32_t, std::string_view s, std::uint32_t p) {
      seen.emplace_back(std::string(s), p);
    });
  }
  std::sort(seen.begin(), seen.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].second, 0u);  // alpha at 0
  EXPECT_EQ(seen[1].second, 2u);  // beta at 2 ("the" held slot 1)
}

class PositionalIndexFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() / "hetindex_positional").string();
    std::filesystem::create_directories(dir_);
    std::vector<Document> docs = {
        {0, "", "fast inverted file construction on heterogeneous platforms"},
        {1, "", "inverted file construction is fast"},
        {2, "", "file inverted construction"},          // words present, wrong order
        {3, "", "the inverted file wins"},              // stop word inside phrase
        {4, "", "inverted inverted file file"},
    };
    const auto corpus = dir_ + "/c.hdc";
    container_write(corpus, docs);
    IndexBuilder builder;
    builder.parsers(1).cpu_indexers(1).gpus(1).emit_segment(true);
    builder.config().parser.record_positions = true;
    builder.build({corpus}, dir_ + "/index");
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }
  static inline std::string dir_;
};

TEST_F(PositionalIndexFixture, LookupPositionalReturnsPositions) {
  const auto index = InvertedIndex::open(dir_ + "/index", {}).value();
  const auto p = index.lookup_positional(normalize_term("inverted"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->doc_ids, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  std::uint32_t total_tf = 0;
  for (auto tf : p->tfs) total_tf += tf;
  EXPECT_EQ(p->positions.size(), total_tf);
  // Doc 0: "inverted" is token 1.
  EXPECT_EQ(p->positions[0], 1u);
}

TEST_F(PositionalIndexFixture, PhraseQueryRequiresAdjacency) {
  const auto index = InvertedIndex::open(dir_ + "/index", {}).value();
  const std::vector<std::string> phrase = {normalize_term("inverted"),
                                           normalize_term("file")};
  const auto hits = oracle::phrase_query(index, phrase);
  ASSERT_TRUE(hits.has_value());
  // Docs 0, 1, 4 contain "inverted file" adjacently; doc 2 has the words
  // reversed; doc 3 has them adjacent too ("the inverted file wins" →
  // positions 1,2).
  EXPECT_EQ(hits->doc_ids, (std::vector<std::uint32_t>{0, 1, 3, 4}));
}

TEST_F(PositionalIndexFixture, ThreeTermPhrase) {
  const auto index = InvertedIndex::open(dir_ + "/index", {}).value();
  const std::vector<std::string> phrase = {normalize_term("inverted"),
                                           normalize_term("file"),
                                           normalize_term("construction")};
  const auto hits = oracle::phrase_query(index, phrase);
  ASSERT_TRUE(hits.has_value());
  EXPECT_EQ(hits->doc_ids, (std::vector<std::uint32_t>{0, 1}));
}

TEST_F(PositionalIndexFixture, PhraseQueryMissingTerm) {
  const auto index = InvertedIndex::open(dir_ + "/index", {}).value();
  EXPECT_FALSE(oracle::phrase_query(index, {"nonexistentterm"}).has_value());
}

TEST_F(PositionalIndexFixture, RepeatedTermCountsPhraseOccurrences) {
  const auto index = InvertedIndex::open(dir_ + "/index", {}).value();
  // Doc 4: "inverted inverted file file" — "inverted file" matches once
  // (position 1 → 2).
  const auto hits = oracle::phrase_query(
      index, {normalize_term("inverted"), normalize_term("file")});
  ASSERT_TRUE(hits.has_value());
  const auto it = std::find(hits->doc_ids.begin(), hits->doc_ids.end(), 4u);
  ASSERT_NE(it, hits->doc_ids.end());
  EXPECT_EQ(hits->tfs[static_cast<std::size_t>(it - hits->doc_ids.begin())], 1u);
}

TEST(PositionalParity, GpuMatchesCpuWithPositions) {
  Parser parser({.strip_html = false, .record_positions = true});
  Rng rng(55);
  std::vector<Document> docs;
  const char* words[] = {"alpha", "beta", "gamma", "delta", "epsilon", "zeta"};
  for (int d = 0; d < 50; ++d) {
    Document doc;
    doc.local_id = static_cast<std::uint32_t>(d);
    for (int t = 0; t < 40; ++t) {
      doc.body += words[rng.below(6)];
      doc.body += ' ';
    }
    docs.push_back(std::move(doc));
  }
  const auto block = parser.parse(docs, 0, 0, 0);
  std::vector<std::uint32_t> all;
  for (const auto& g : block.groups) all.push_back(g.trie_idx);

  DictionaryShard cpu_shard, gpu_shard;
  PostingsStore cpu_store, gpu_store;
  CpuIndexer cpu(cpu_shard, cpu_store, all);
  GpuIndexer gpu(gpu_shard, gpu_store, all);
  cpu.index_block(block);
  gpu.index_block(block);

  cpu_shard.for_each_tree([&](std::uint32_t idx, const BTree& tree) {
    const auto* gpu_tree = gpu_shard.tree_if_exists(idx);
    ASSERT_NE(gpu_tree, nullptr);
    tree.for_each([&](std::string_view suffix, std::uint32_t h) {
      const auto* gh = gpu_tree->find(suffix);
      ASSERT_NE(gh, nullptr);
      const auto& a = cpu_store.list(h);
      const auto& b = gpu_store.list(*gh);
      ASSERT_EQ(a.doc_ids, b.doc_ids);
      ASSERT_EQ(a.tfs, b.tfs);
      ASSERT_EQ(a.positions, b.positions);
    });
  });
}

TEST(PositionalMerge, MergedRunsKeepPositions) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "hetindex_posmerge").string();
  std::filesystem::create_directories(dir);
  PostingsList a;
  a.doc_ids = {1, 2};
  a.tfs = {2, 1};
  a.positions = {0, 5, 3};
  PostingsList b;
  b.doc_ids = {10};
  b.tfs = {1};
  b.positions = {7};
  {
    RunFileWriter w(dir + "/run_0.post", 0);
    w.add_list({0, 1}, a);
    w.finalize();
  }
  {
    RunFileWriter w(dir + "/run_1.post", 1);
    w.add_list({0, 1}, b);
    w.finalize();
  }
  merge_runs({dir + "/run_0.post", dir + "/run_1.post"}, dir + "/merged.post");
  const auto merged = RunFile::open(dir + "/merged.post");
  std::vector<std::uint32_t> ids, tfs, pos;
  ASSERT_TRUE(merged.fetch({0, 1}, ids, tfs, &pos));
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{1, 2, 10}));
  EXPECT_EQ(pos, (std::vector<std::uint32_t>{0, 5, 3, 7}));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hetindex
