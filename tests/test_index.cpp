// Tests for the indexing stage: sampler/popularity split, CPU indexer,
// GPU indexer, and the CPU-vs-GPU differential property over real parsed
// blocks.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "corpus/container.hpp"
#include "corpus/synthetic.hpp"
#include "index/indexer.hpp"
#include "index/sampler.hpp"
#include "parse/parser.hpp"
#include "util/binary_io.hpp"

namespace hetindex {
namespace {

std::vector<Document> synth_docs(std::size_t count, std::uint64_t seed) {
  auto spec = wikipedia_like();
  spec.vocabulary = 3000;
  spec.avg_doc_tokens = 80;
  const Vocabulary vocab(spec.vocabulary, 0.03, 0.01, seed);
  Rng rng(seed);
  auto docs = generate_documents(spec, vocab, count * 600, 0, 1, rng);
  docs.resize(std::min(docs.size(), count));
  return docs;
}

TEST(Sampler, BalancePopularEqualizesTokenMass) {
  std::vector<std::uint32_t> popular = {10, 20, 30, 40, 50};
  std::vector<std::uint64_t> tokens(kTrieCollections, 0);
  tokens[10] = 100;
  tokens[20] = 90;
  tokens[30] = 50;
  tokens[40] = 40;
  tokens[50] = 10;
  const auto sets = balance_popular(popular, tokens, 2);
  ASSERT_EQ(sets.size(), 2u);
  std::uint64_t mass0 = 0, mass1 = 0;
  for (auto c : sets[0]) mass0 += tokens[c];
  for (auto c : sets[1]) mass1 += tokens[c];
  EXPECT_EQ(mass0 + mass1, 290u);
  // LPT on these numbers: {100,40,10}=150 vs {90,50}=140.
  EXPECT_LE(std::max(mass0, mass1) - std::min(mass0, mass1), 20u);
}

TEST(Sampler, ModSplitMatchesPaperExample) {
  // §III.E: unpopular (0, 13, 27, 175, 384, 5810, 10041, 17316) on 2 GPUs
  // → GPU0 gets (0, 384, 5810, 17316), GPU1 gets (13, 27, 175, 10041).
  const std::vector<std::uint32_t> unpopular = {0, 13, 27, 175, 384, 5810, 10041, 17316};
  const auto sets = split_unpopular_mod(unpopular, 2);
  EXPECT_EQ(sets[0], (std::vector<std::uint32_t>{0, 384, 5810, 17316}));
  EXPECT_EQ(sets[1], (std::vector<std::uint32_t>{13, 27, 175, 10041}));
}

TEST(Sampler, SampleFindsPopularCollections) {
  const auto dir = (std::filesystem::temp_directory_path() / "hetindex_sampler").string();
  std::filesystem::create_directories(dir);
  auto spec = wikipedia_like();
  spec.total_bytes = 1u << 20;
  spec.vocabulary = 5000;
  const auto coll = generate_collection(spec, dir);
  SamplerConfig cfg;
  cfg.sample_fraction = 0.2;
  cfg.popular_count = 20;
  const auto sampled = sample_and_split(coll.paths(), cfg);
  ASSERT_TRUE(sampled.has_value()) << sampled.error().to_string();
  const WorkSplit& split = sampled.value();
  EXPECT_EQ(split.popular.size(), 20u);
  EXPECT_GT(split.unpopular.size(), 100u);
  EXPECT_GT(split.sampling_seconds, 0.0);
  // Popular collections must dominate sampled token mass per collection.
  std::uint64_t min_popular = ~0ull;
  for (auto c : split.popular) min_popular = std::min(min_popular, split.sampled_tokens[c]);
  for (auto c : split.unpopular)
    EXPECT_LE(split.sampled_tokens[c], min_popular);
  std::filesystem::remove_all(dir);
}

TEST(Sampler, SampleStopsAtBudgetInWholeDocuments) {
  const auto dir = (std::filesystem::temp_directory_path() / "hetindex_sampler_budget").string();
  std::filesystem::create_directories(dir);
  auto spec = wikipedia_like();
  spec.total_bytes = 1u << 21;
  spec.file_bytes = 1u << 20;
  const auto coll = generate_collection(spec, dir);
  ASSERT_EQ(coll.paths().size(), 2u);
  for (const auto& path : coll.paths()) {
    const auto bytes = read_file(path);
    const auto all = container_read(path);
    SamplerConfig cfg;  // 0.1% of a 1 MB file: the 64 KiB floor applies
    const std::uint64_t want = sample_budget_bytes(container_uncompressed_size(path), cfg);
    EXPECT_EQ(want, 64u << 10);

    const auto docs = sample_documents(bytes, cfg).value();
    ASSERT_GE(docs.size(), cfg.min_docs_per_file);
    ASSERT_LT(docs.size(), all.size());
    std::uint64_t raw = 0;
    for (std::size_t i = 0; i < docs.size(); ++i) {
      // Whole leading documents, in file order.
      EXPECT_EQ(docs[i].url, all[i].url);
      EXPECT_EQ(docs[i].body, all[i].body);
      raw += document_raw_bytes(docs[i]);
    }
    // The budget is met, overshooting by at most the last document.
    EXPECT_GE(raw, want);
    EXPECT_LT(raw - document_raw_bytes(docs.back()), want);

    // min_docs_per_file wins over the budget, up to the whole file.
    cfg.min_docs_per_file = static_cast<std::uint32_t>(docs.size() + 10);
    EXPECT_EQ(sample_documents(bytes, cfg).value().size(), docs.size() + 10);
    cfg.min_docs_per_file = static_cast<std::uint32_t>(all.size() + 10);
    EXPECT_EQ(sample_documents(bytes, cfg).value().size(), all.size());
  }
  std::filesystem::remove_all(dir);
}

TEST(CpuIndexer, IndexesOwnedCollectionsOnly) {
  Parser parser({.strip_html = false});
  std::vector<Document> docs = {{0, "", "apple application banana 42"}};
  const auto block = parser.parse(docs, 0, 0, 100);

  DictionaryShard shard;
  PostingsStore store;
  // Own only the "app" collection.
  const auto app_idx = trie_index("apple");
  CpuIndexer indexer(shard, store, {app_idx});
  const auto stats = indexer.index_block(block);
  EXPECT_EQ(stats.collections_touched, 1u);
  EXPECT_EQ(stats.tokens, 2u);  // apple + application (stems "appl", "applic")
  EXPECT_EQ(stats.new_terms, 2u);
  EXPECT_EQ(shard.term_count(), 2u);
  // Global doc ids: base 100 + local 0.
  const auto* h = shard.find_term("appl");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(store.list(*h).doc_ids, (std::vector<std::uint32_t>{100}));
}

TEST(CpuIndexer, TermFrequencyAccumulates) {
  Parser parser({.strip_html = false});
  std::vector<Document> docs = {{0, "", "echo echo echo other"},
                                {1, "", "echo"}};
  const auto block = parser.parse(docs, 0, 0, 0);
  DictionaryShard shard;
  PostingsStore store;
  CpuIndexer indexer(shard, store, {trie_index("echo")});
  indexer.index_block(block);
  const auto* h = shard.find_term("echo");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(store.list(*h).doc_ids, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(store.list(*h).tfs, (std::vector<std::uint32_t>{3, 1}));
}

TEST(GpuIndexer, MatchesCpuIndexerExactly) {
  // The central differential property (§III.D): GPU and CPU indexers given
  // the same parsed stream must produce identical dictionaries and
  // postings.
  Parser parser;
  const auto docs = synth_docs(200, 77);
  const auto block = parser.parse(docs, 0, 0, 0);

  // Both own *all* collections.
  std::vector<std::uint32_t> all;
  for (const auto& g : block.groups) all.push_back(g.trie_idx);

  DictionaryShard cpu_shard, gpu_shard;
  PostingsStore cpu_store, gpu_store;
  CpuIndexer cpu(cpu_shard, cpu_store, all);
  GpuIndexer gpu(gpu_shard, gpu_store, all);
  const auto cpu_stats = cpu.index_block(block);
  GpuIndexer::Timing timing;
  const auto gpu_stats = gpu.index_block(block, &timing);

  EXPECT_EQ(cpu_stats.tokens, gpu_stats.tokens);
  EXPECT_EQ(cpu_stats.new_terms, gpu_stats.new_terms);
  EXPECT_EQ(cpu_stats.chars, gpu_stats.chars);
  ASSERT_EQ(cpu_shard.term_count(), gpu_shard.term_count());

  // Postings must match term by term.
  std::size_t checked = 0;
  cpu_shard.for_each_tree([&](std::uint32_t idx, const BTree& tree) {
    const auto* gpu_tree = gpu_shard.tree_if_exists(idx);
    ASSERT_NE(gpu_tree, nullptr) << "collection " << idx;
    tree.for_each([&](std::string_view suffix, std::uint32_t cpu_handle) {
      const auto* gpu_handle = gpu_tree->find(suffix);
      ASSERT_NE(gpu_handle, nullptr);
      const auto& a = cpu_store.list(cpu_handle);
      const auto& b = gpu_store.list(*gpu_handle);
      ASSERT_EQ(a.doc_ids, b.doc_ids);
      ASSERT_EQ(a.tfs, b.tfs);
      ++checked;
    });
  });
  EXPECT_EQ(checked, cpu_shard.term_count());
  EXPECT_GT(timing.index_seconds, 0.0);
  EXPECT_GT(timing.pre_seconds, 0.0);
}

TEST(GpuIndexer, MoreThreadBlocksReduceSimTime) {
  Parser parser;
  const auto docs = synth_docs(400, 11);
  const auto block = parser.parse(docs, 0, 0, 0);
  std::vector<std::uint32_t> all;
  for (const auto& g : block.groups) all.push_back(g.trie_idx);

  auto run = [&](std::uint32_t blocks) {
    DictionaryShard shard;
    PostingsStore store;
    GpuIndexer gpu(shard, store, all, GpuSpec{}, blocks);
    GpuIndexer::Timing timing;
    gpu.index_block(block, &timing);
    return timing.index_seconds;
  };
  const double t1 = run(1);       // single thread block: fully serial
  const double t480 = run(480);   // the paper's optimum
  EXPECT_GT(t1, t480 * 5);        // massive parallelism gain
}

TEST(GpuIndexer, SplitWorkIsDisjointAndComplete) {
  Parser parser;
  const auto docs = synth_docs(150, 5);
  const auto block = parser.parse(docs, 0, 0, 0);
  std::vector<std::uint32_t> all;
  std::uint64_t total_tokens = 0;
  for (const auto& g : block.groups) {
    all.push_back(g.trie_idx);
    total_tokens += g.tokens;
  }
  const auto sets = split_unpopular_mod(all, 2);
  DictionaryShard s0, s1;
  PostingsStore p0, p1;
  GpuIndexer g0(s0, p0, sets[0]);
  GpuIndexer g1(s1, p1, sets[1]);
  const auto st0 = g0.index_block(block);
  const auto st1 = g1.index_block(block);
  EXPECT_EQ(st0.tokens + st1.tokens, total_tokens);
  EXPECT_EQ(st0.collections_touched + st1.collections_touched, all.size());
}

}  // namespace
}  // namespace hetindex
