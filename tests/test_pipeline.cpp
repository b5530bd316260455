// End-to-end pipeline tests: build an index with the full Fig. 9 pipeline,
// read its run files back through the test-side run-file reader
// (oracle/run_index.hpp), and check them against a brute-force reference
// index. Also
// verifies the CPU+GPU configuration is bit-identical to CPU-only.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "core/hetindex.hpp"
#include "corpus/container.hpp"
#include "corpus/synthetic.hpp"
#include "oracle/run_index.hpp"
#include "parse/parser.hpp"
#include "pipeline/reorder_buffer.hpp"
#include "postings/merger.hpp"

namespace hetindex {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("hetindex_pipe_" + tag + "_" + std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

/// Brute-force reference: parse every doc through the same text path and
/// accumulate postings in a map.
std::map<std::string, std::vector<std::pair<std::uint32_t, std::uint32_t>>> reference_index(
    const std::vector<std::string>& files) {
  std::map<std::string, std::vector<std::pair<std::uint32_t, std::uint32_t>>> ref;
  Parser parser;
  std::uint32_t base = 0;
  for (const auto& file : files) {
    const auto docs = container_read(file);
    for (const auto& tok : parser.parse_flat(docs)) {
      auto& list = ref[tok.term];
      const std::uint32_t doc = base + tok.local_doc;
      if (!list.empty() && list.back().first == doc) {
        ++list.back().second;
      } else {
        list.emplace_back(doc, 1);
      }
    }
    base += static_cast<std::uint32_t>(docs.size());
  }
  return ref;
}

class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_dir_ = new TempDir("corpus");
    auto spec = wikipedia_like();
    spec.total_bytes = 1u << 21;  // 2 MB, 4 files
    spec.file_bytes = 512u << 10;
    spec.vocabulary = 8000;
    spec.avg_doc_tokens = 200;
    collection_ = new Collection(generate_collection(spec, corpus_dir_->path()));
  }
  static void TearDownTestSuite() {
    delete collection_;
    delete corpus_dir_;
  }

  static inline TempDir* corpus_dir_ = nullptr;
  static inline Collection* collection_ = nullptr;
};

TEST_F(PipelineFixture, BuildsQueryableIndexMatchingReference) {
  TempDir out("out");
  IndexBuilder builder;
  builder.parsers(2).cpu_indexers(1).gpus(1);
  builder.config().sampler.popular_count = 30;
  const auto report = builder.build(collection_->paths(), out.path());

  EXPECT_EQ(report.documents, collection_->total_docs());
  EXPECT_EQ(report.runs.size(), collection_->files.size());
  EXPECT_GT(report.terms, 1000u);
  EXPECT_GT(report.tokens, 10000u);

  const auto ref = reference_index(collection_->paths());
  EXPECT_EQ(report.terms, ref.size());

  const auto index = oracle::RunIndex::open(out.path());
  EXPECT_EQ(index.term_count(), ref.size());
  // Every reference term must be retrievable with exactly the reference
  // postings.
  std::size_t checked = 0;
  for (const auto& [term, postings] : ref) {
    const auto got = index.lookup(term);
    ASSERT_TRUE(got.has_value()) << term;
    ASSERT_EQ(got->doc_ids.size(), postings.size()) << term;
    for (std::size_t i = 0; i < postings.size(); ++i) {
      ASSERT_EQ(got->doc_ids[i], postings[i].first) << term;
      ASSERT_EQ(got->tfs[i], postings[i].second) << term;
    }
    if (++checked >= 500) break;  // bounded for test time; terms iterate in order
  }
}

TEST_F(PipelineFixture, GpuAndCpuOnlyBuildsProduceIdenticalIndexes) {
  TempDir out_cpu("cpu"), out_gpu("gpu");
  IndexBuilder cpu_builder;
  cpu_builder.parsers(1).cpu_indexers(2).gpus(0);
  IndexBuilder gpu_builder;
  gpu_builder.parsers(2).cpu_indexers(1).gpus(2);
  cpu_builder.build(collection_->paths(), out_cpu.path());
  gpu_builder.build(collection_->paths(), out_gpu.path());

  const auto a = oracle::RunIndex::open(out_cpu.path());
  const auto b = oracle::RunIndex::open(out_gpu.path());
  ASSERT_EQ(a.term_count(), b.term_count());
  for (std::size_t i = 0; i < a.entries().size(); ++i) {
    ASSERT_EQ(a.entries()[i].term, b.entries()[i].term);
    const auto pa = a.lookup(a.entries()[i].term);
    const auto pb = b.lookup(b.entries()[i].term);
    ASSERT_EQ(pa->doc_ids, pb->doc_ids) << a.entries()[i].term;
    ASSERT_EQ(pa->tfs, pb->tfs) << a.entries()[i].term;
  }
}

TEST_F(PipelineFixture, RunRecordsCarryStageCosts) {
  TempDir out("rec");
  IndexBuilder builder;
  builder.parsers(2).cpu_indexers(2).gpus(2);
  const auto report = builder.build(collection_->paths(), out.path());
  ASSERT_EQ(report.runs.size(), collection_->files.size());
  for (const auto& run : report.runs) {
    EXPECT_GT(run.source_bytes, 0u);
    EXPECT_GT(run.tokens, 0u);
    EXPECT_GT(run.parse_seconds, 0.0);
    EXPECT_GE(run.read_seconds, 0.0);
    EXPECT_GT(run.decompress_seconds, 0.0);
    ASSERT_EQ(run.cpu_index_seconds.size(), 2u);
    ASSERT_EQ(run.gpu_timings.size(), 2u);
    for (const auto& g : run.gpu_timings) EXPECT_GE(g.index_seconds, 0.0);
    EXPECT_GT(run.flush_seconds, 0.0);
  }
  // Table V-style split: both CPU and GPU did real work.
  EXPECT_GT(report.cpu_total().tokens, 0u);
  EXPECT_GT(report.gpu_total().tokens, 0u);
  EXPECT_EQ(report.cpu_total().tokens + report.gpu_total().tokens, report.tokens);
  // Popular collections on CPU → CPU handles more tokens per term (Zipf).
  const double cpu_tokens_per_term = static_cast<double>(report.cpu_total().tokens) /
                                     static_cast<double>(report.cpu_total().new_terms);
  const double gpu_tokens_per_term = static_cast<double>(report.gpu_total().tokens) /
                                     static_cast<double>(report.gpu_total().new_terms);
  EXPECT_GT(cpu_tokens_per_term, gpu_tokens_per_term);
}

TEST_F(PipelineFixture, MergedOutputMatchesPerRunOutput) {
  TempDir out("merge");
  IndexBuilder builder;
  builder.parsers(1).cpu_indexers(1).gpus(0).merge_output(true);
  const auto report = builder.build(collection_->paths(), out.path());
  EXPECT_GT(report.merge_seconds, 0.0);

  const auto index = oracle::RunIndex::open(out.path());
  const auto merged = RunFile::open(IndexLayout::merged_path(out.path()));
  std::size_t checked = 0;
  for (const auto& e : index.entries()) {
    const auto full = index.lookup(e.term);
    std::vector<std::uint32_t> ids, tfs;
    ASSERT_TRUE(merged.fetch({e.shard, e.handle}, ids, tfs)) << e.term;
    ASSERT_EQ(ids, full->doc_ids) << e.term;
    ASSERT_EQ(tfs, full->tfs) << e.term;
    if (++checked >= 300) break;
  }
}

TEST_F(PipelineFixture, SingleParserSingleIndexerStillCorrect) {
  TempDir out("min");
  IndexBuilder builder;
  builder.parsers(1).cpu_indexers(1).gpus(0);
  const auto report = builder.build(collection_->paths(), out.path());
  EXPECT_EQ(report.documents, collection_->total_docs());
  const auto ref = reference_index(collection_->paths());
  EXPECT_EQ(report.terms, ref.size());
}

TEST_F(PipelineFixture, ManyParsersDoNotBreakOrdering) {
  TempDir out("many");
  IndexBuilder builder;
  builder.parsers(6).cpu_indexers(2).gpus(2);
  const auto report = builder.build(collection_->paths(), out.path());
  EXPECT_EQ(report.documents, collection_->total_docs());
  // Postings sortedness is validated inside run-file writing (checks), and
  // queries must see monotone doc ids.
  const auto index = oracle::RunIndex::open(out.path());
  std::size_t checked = 0;
  for (const auto& e : index.entries()) {
    const auto got = index.lookup(e.term);
    for (std::size_t i = 1; i < got->doc_ids.size(); ++i)
      ASSERT_LT(got->doc_ids[i - 1], got->doc_ids[i]) << e.term;
    if (++checked >= 200) break;
  }
}

TEST(ReorderBufferTest, ReleasesInSequenceOrder) {
  ReorderBuffer<int> buf(4);
  buf.push(1, 10);
  buf.push(0, 9);
  EXPECT_EQ(buf.pop_next(), 9);
  EXPECT_EQ(buf.pop_next(), 10);
  buf.push(2, 11);
  buf.close();
  EXPECT_EQ(buf.pop_next(), 11);
  EXPECT_EQ(buf.pop_next(), std::nullopt);
}

TEST(ReorderBufferTest, HeadSequenceBypassesFullWindow) {
  // Deadlock regression: window full of later sequences must still accept
  // the head-of-line sequence.
  ReorderBuffer<int> buf(2);
  buf.push(1, 1);
  buf.push(2, 2);
  buf.push(0, 0);  // must not block
  EXPECT_EQ(buf.pop_next(), 0);
  EXPECT_EQ(buf.pop_next(), 1);
  EXPECT_EQ(buf.pop_next(), 2);
}

TEST(CoreApi, NormalizeTermMatchesParsePath) {
  EXPECT_EQ(normalize_term("Parallelism"), "parallel");
  EXPECT_EQ(normalize_term("  Running!  "), "run");
  EXPECT_EQ(normalize_term("42"), "42");
}

TEST(CoreApi, VersionString) { EXPECT_EQ(version_string(), "1.7.0"); }

}  // namespace
}  // namespace hetindex
