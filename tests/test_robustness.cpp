// Failure-injection and edge-case tests: corrupted on-disk artifacts must
// die loudly or come back as structured errors (a damaged run file is
// reported by RunFile::open, verify_index, compact_index and merge_runs) (never silently return a
// wrong index), a directory holding only run files is refused with a
// pointer to `hetindex_cli compact`, and degenerate inputs
// (empty docs, stop-word-only docs, unicode-heavy text, giant tokens) must
// flow through the full pipeline correctly.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "codec/lz.hpp"
#include "core/hetindex.hpp"
#include "corpus/container.hpp"
#include "corpus/synthetic.hpp"
#include "postings/merger.hpp"
#include "postings/query.hpp"
#include "postings/verify.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace hetindex {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("hetindex_rob_" + tag + "_" + std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

// ------------------------------------------------ corrupted artifacts

class CorruptionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("corrupt");
    std::vector<Document> docs;
    for (int i = 0; i < 20; ++i) {
      docs.push_back({static_cast<std::uint32_t>(i), "http://x/" + std::to_string(i),
                      "alpha beta gamma delta epsilon token" + std::to_string(i)});
    }
    corpus_file_ = dir_->path() + "/c.hdc";
    container_write(corpus_file_, docs);

    IndexBuilder builder;
    builder.parsers(1).cpu_indexers(1).gpus(0).emit_segment(true);
    index_dir_ = dir_->path() + "/index";
    builder.build({corpus_file_}, index_dir_);
  }

  static void flip_byte(const std::string& path, std::size_t from_end) {
    auto data = read_file(path);
    ASSERT_GT(data.size(), from_end);
    data[data.size() - 1 - from_end] ^= 0x5A;
    write_file(path, data);
  }

  std::unique_ptr<TempDir> dir_;
  std::string corpus_file_;
  std::string index_dir_;
};

TEST_F(CorruptionFixture, CorruptContainerPayloadDies) {
  flip_byte(corpus_file_, 10);
  EXPECT_DEATH((void)container_read(corpus_file_), "crc|lz|container");
}

TEST_F(CorruptionFixture, CorruptContainerMagicDies) {
  auto data = read_file(corpus_file_);
  data[0] ^= 0xFF;
  write_file(corpus_file_, data);
  EXPECT_DEATH((void)container_read(corpus_file_), "container");
}

TEST_F(CorruptionFixture, TruncatedContainerDies) {
  auto data = read_file(corpus_file_);
  data.resize(data.size() / 2);
  write_file(corpus_file_, data);
  EXPECT_DEATH((void)container_read(corpus_file_), "truncated|lz|short");
}

TEST_F(CorruptionFixture, CorruptRunFileBlobIsReported) {
  const auto run_path = IndexLayout::run_path(index_dir_, 0);
  flip_byte(run_path, 3);
  const auto opened = RunFile::open(run_path);
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.error().code, ErrorCode::kCorrupt);
  EXPECT_NE(opened.error().message.find(run_path), std::string::npos)
      << opened.error().message;
}

/// The three ways a run file is damaged on disk: a bad magic, table keys
/// out of order, and a blob byte that no longer matches the CRC.
enum class RunDamage { kMagic, kTableOrder, kBlob };

class CorruptRunFile : public CorruptionFixture,
                       public ::testing::WithParamInterface<RunDamage> {
 protected:
  void SetUp() override {
    CorruptionFixture::SetUp();
    run_path_ = IndexLayout::run_path(index_dir_, 0);
    auto data = read_file(run_path_);
    switch (GetParam()) {
      case RunDamage::kMagic:
        data[0] ^= 0xFF;
        break;
      case RunDamage::kTableOrder: {
        // Swap the keys of the first two table rows (header 33 B, rows 32 B).
        constexpr std::size_t kHeader = 33, kRow = 32;
        ASSERT_GE(data.size(), kHeader + 2 * kRow);
        std::swap_ranges(data.begin() + kHeader, data.begin() + kHeader + 8,
                         data.begin() + kHeader + kRow);
        break;
      }
      case RunDamage::kBlob:
        data[data.size() - 4] ^= 0x5A;
        break;
    }
    write_file(run_path_, data);
  }

  std::string run_path_;
};

TEST_P(CorruptRunFile, VerifyIndexReportsIt) {
  const auto report = verify_index(index_dir_);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.errors.empty());
  const bool named = std::any_of(report.errors.begin(), report.errors.end(), [&](const auto& e) {
    return e.find(run_path_) != std::string::npos;
  });
  EXPECT_TRUE(named) << report.errors.front();
}

TEST_P(CorruptRunFile, CompactIndexReturnsCorruptAndLeavesNoSegment) {
  const auto folded = compact_index(index_dir_);
  ASSERT_FALSE(folded.has_value());
  EXPECT_EQ(folded.error().code, ErrorCode::kCorrupt);
  EXPECT_NE(folded.error().message.find(run_path_), std::string::npos)
      << folded.error().message;
  EXPECT_FALSE(std::filesystem::exists(IndexLayout::segment_path(index_dir_)));
}

TEST_P(CorruptRunFile, MergeRunsReturnsCorrupt) {
  const auto merged = merge_runs({run_path_}, dir_->path() + "/merged.post");
  ASSERT_FALSE(merged.has_value());
  EXPECT_EQ(merged.error().code, ErrorCode::kCorrupt);
  EXPECT_FALSE(std::filesystem::exists(dir_->path() + "/merged.post"));
}

INSTANTIATE_TEST_SUITE_P(Damage, CorruptRunFile,
                         ::testing::Values(RunDamage::kMagic, RunDamage::kTableOrder,
                                           RunDamage::kBlob));

/// A damaged dictionary.bin or runs.dir is reported, never aborted on: the
/// reader's own error, compact_index and verify_index all say kCorrupt,
/// naming the file and `what` went wrong; no index.seg is left behind.
void expect_corrupt_everywhere(const Error& read_error, const std::string& index_dir,
                               const std::string& path, const std::string& what) {
  EXPECT_EQ(read_error.code, ErrorCode::kCorrupt);
  EXPECT_NE(read_error.message.find(path), std::string::npos) << read_error.message;
  EXPECT_NE(read_error.message.find(what), std::string::npos) << read_error.message;
  std::filesystem::remove(IndexLayout::segment_path(index_dir));
  const auto compacted = compact_index(index_dir);
  ASSERT_FALSE(compacted.has_value());
  EXPECT_EQ(compacted.error().to_string(), read_error.to_string());
  EXPECT_FALSE(std::filesystem::exists(IndexLayout::segment_path(index_dir)));
  const auto report = verify_index(index_dir);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0], read_error.to_string());
}

TEST_F(CorruptionFixture, CorruptDictionaryMagicIsCorrupt) {
  const auto dict_path = IndexLayout::dictionary_path(index_dir_);
  auto data = read_file(dict_path);
  data[1] ^= 0xFF;
  write_file(dict_path, data);
  const auto read = dictionary_read(dict_path);
  ASSERT_FALSE(read.has_value());
  expect_corrupt_everywhere(read.error(), index_dir_, dict_path, "bad magic");
}

TEST_F(CorruptionFixture, DamagedDictionaryCountsAndBlocksAreCorrupt) {
  const auto dict_path = IndexLayout::dictionary_path(index_dir_);
  const auto intact = read_file(dict_path);
  // Layout: magic u32, term count u64, then per collection trie index,
  // term count and front-coded block size (u32 each) before the block.
  auto truncated = intact;
  truncated.resize(truncated.size() / 2);
  write_file(dict_path, truncated);
  auto read = dictionary_read(dict_path);
  ASSERT_FALSE(read.has_value());
  expect_corrupt_everywhere(read.error(), index_dir_, dict_path, "past the end");

  auto empty_block = intact;
  std::fill_n(empty_block.begin() + 20, 4, 0);  // first block: 0 bytes for >= 1 term
  write_file(dict_path, empty_block);
  read = dictionary_read(dict_path);
  ASSERT_FALSE(read.has_value());
  expect_corrupt_everywhere(read.error(), index_dir_, dict_path, "front-coded block");
}

TEST_F(CorruptionFixture, TruncatedRunDirectoryIsCorrupt) {
  const auto dir_path = IndexLayout::directory_path(index_dir_);
  auto data = read_file(dir_path);
  data.resize(data.size() - 6);  // the last entry loses its doc range
  write_file(dir_path, data);
  const auto read = index_directory_read(dir_path);
  ASSERT_FALSE(read.has_value());
  expect_corrupt_everywhere(read.error(), index_dir_, dir_path, "past the end");

  data[0] ^= 0xFF;
  write_file(dir_path, data);
  const auto bad_magic = index_directory_read(dir_path);
  ASSERT_FALSE(bad_magic.has_value());
  expect_corrupt_everywhere(bad_magic.error(), index_dir_, dir_path, "bad magic");
}

TEST_F(CorruptionFixture, RunsOnlyDirectoryReportsNotFoundNamingCompact) {
  // Run files and dictionary intact, no index.seg: open refuses without
  // reading them and names the fold that makes the directory servable.
  std::filesystem::remove(IndexLayout::segment_path(index_dir_));
  const auto result = InvertedIndex::open(index_dir_, {});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kNotFound);
  EXPECT_NE(result.error().message.find("hetindex_cli compact " + index_dir_),
            std::string::npos)
      << result.error().message;
}

TEST_F(CorruptionFixture, CorruptRunFileBesideSegmentStillServes) {
  // Serving reads only index.seg, so a damaged run file beside it (the
  // build's intermediate output) changes nothing a query sees.
  const auto before = InvertedIndex::open(index_dir_, {}).value().lookup("alpha");
  ASSERT_TRUE(before.has_value());
  flip_byte(IndexLayout::run_path(index_dir_, 0), 3);
  const auto index = InvertedIndex::open(index_dir_, {});
  ASSERT_TRUE(index.has_value()) << index.error().to_string();
  const auto after = index.value().lookup("alpha");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->doc_ids, before->doc_ids);
  EXPECT_EQ(after->tfs, before->tfs);
  const auto docs = DocMap::open(doc_map_path(index_dir_));
  const auto searcher = Searcher::open(SearchSource::batch(index.value(), docs)).value();
  QueryRequest request;
  request.query = Query::bag({"alpha", "beta"});
  request.k = 20;
  const auto response = searcher->search(request);
  ASSERT_TRUE(response.has_value()) << response.error().to_string();
  EXPECT_EQ(response.value().hits.size(), 20u);  // every doc holds both terms
}

TEST_F(CorruptionFixture, MissingIndexReportsNotFound) {
  const auto result = InvertedIndex::open(index_dir_ + "/nope", {});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kNotFound);
  EXPECT_NE(result.error().message.find("no index"), std::string::npos);
}

TEST_F(CorruptionFixture, IntactIndexStillOpens) {
  // Sanity: the fixture's artifacts are valid before any corruption.
  const auto index = InvertedIndex::open(index_dir_, {}).value();
  EXPECT_GT(index.term_count(), 0u);
  EXPECT_TRUE(index.lookup("alpha").has_value());
}

// ------------------------------------------------ degenerate documents

std::string build_and_lookup_dir(const std::vector<Document>& docs, const TempDir& dir) {
  const auto corpus = dir.path() + "/c.hdc";
  container_write(corpus, docs);
  IndexBuilder builder;
  builder.parsers(1).cpu_indexers(1).gpus(1).emit_segment(true);
  const auto out = dir.path() + "/index";
  builder.build({corpus}, out);
  return out;
}

TEST(DegenerateInput, EmptyDocumentsProduceEmptyIndex) {
  TempDir dir("empty");
  std::vector<Document> docs(5);  // all bodies empty
  const auto out = build_and_lookup_dir(docs, dir);
  const auto index = InvertedIndex::open(out, {}).value();
  EXPECT_EQ(index.term_count(), 0u);
}

TEST(DegenerateInput, StopWordOnlyDocuments) {
  TempDir dir("stop");
  std::vector<Document> docs(3);
  for (auto& d : docs) d.body = "the and of to a in is it";
  const auto out = build_and_lookup_dir(docs, dir);
  const auto index = InvertedIndex::open(out, {}).value();
  EXPECT_EQ(index.term_count(), 0u);
}

TEST(DegenerateInput, UnicodeHeavyDocuments) {
  TempDir dir("uni");
  std::vector<Document> docs(2);
  docs[0].body = "caf\xC3\xA9 na\xC3\xAFve r\xC3\xA9sum\xC3\xA9 \xC4\x8C"
                 "esky";
  docs[1].body = "caf\xC3\xA9 again";
  const auto out = build_and_lookup_dir(docs, dir);
  const auto index = InvertedIndex::open(out, {}).value();
  const auto hits = index.lookup("caf\xC3\xA9");
  ASSERT_TRUE(hits.has_value());
  EXPECT_EQ(hits->doc_ids, (std::vector<std::uint32_t>{0, 1}));
}

TEST(DegenerateInput, OverlongTokensAreTruncatedConsistently) {
  TempDir dir("long");
  const std::string giant(1000, 'q');
  std::vector<Document> docs(2);
  docs[0].body = giant;
  docs[1].body = giant + " tail";
  const auto out = build_and_lookup_dir(docs, dir);
  const auto index = InvertedIndex::open(out, {}).value();
  // Both docs contain the same (truncated) token → one term, two postings.
  const auto hits = index.lookup(std::string(kMaxTokenBytes, 'q'));
  ASSERT_TRUE(hits.has_value());
  EXPECT_EQ(hits->doc_ids.size(), 2u);
}

TEST(DegenerateInput, SingleTermCollection) {
  TempDir dir("one");
  std::vector<Document> docs(1);
  docs[0].body = "solitary";
  const auto out = build_and_lookup_dir(docs, dir);
  const auto index = InvertedIndex::open(out, {}).value();
  EXPECT_EQ(index.term_count(), 1u);
  const auto hits = index.lookup(normalize_term("solitary"));
  ASSERT_TRUE(hits.has_value());
  EXPECT_EQ(hits->tfs, (std::vector<std::uint32_t>{1}));
}

TEST(DegenerateInput, ManyFilesFewDocs) {
  // One tiny doc per file stresses run bookkeeping (one run per file).
  TempDir dir("many");
  std::vector<std::string> files;
  for (int f = 0; f < 12; ++f) {
    Document d;
    d.body = "common unique" + std::to_string(f);
    const auto path = dir.path() + "/f" + std::to_string(f) + ".hdc";
    container_write(path, {d});
    files.push_back(path);
  }
  IndexBuilder builder;
  builder.parsers(3).cpu_indexers(1).gpus(1).emit_segment(true);
  const auto out = dir.path() + "/index";
  const auto report = builder.build(files, out);
  EXPECT_EQ(report.runs.size(), 12u);
  const auto index = InvertedIndex::open(out, {}).value();
  const auto common = index.lookup("common");
  ASSERT_TRUE(common.has_value());
  EXPECT_EQ(common->doc_ids.size(), 12u);
  for (std::uint32_t i = 0; i < 12; ++i) EXPECT_EQ(common->doc_ids[i], i);
}

// ------------------------------------------------ prefix sampling

TEST(PrefixSampling, SampleIsPrefixOfFullDecode) {
  TempDir dir("sample");
  auto spec = wikipedia_like();
  spec.total_bytes = 2u << 20;
  spec.file_bytes = 2u << 20;
  spec.vocabulary = 5000;
  const auto coll = generate_collection(spec, dir.path());
  const auto file = read_file(coll.files[0].path);
  const auto full = container_decompress(file.data(), file.size());
  const auto sample = container_sample(file.data(), file.size(), 64 << 10);
  ASSERT_GT(sample.size(), 0u);
  ASSERT_LT(sample.size(), full.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    ASSERT_EQ(sample[i].url, full[i].url);
    ASSERT_EQ(sample[i].body, full[i].body);
  }
}

TEST(PrefixSampling, HugeBudgetReturnsEverything) {
  TempDir dir("sample2");
  std::vector<Document> docs(7);
  for (int i = 0; i < 7; ++i) docs[static_cast<std::size_t>(i)].body = "word " + std::to_string(i);
  const auto path = dir.path() + "/c.hdc";
  container_write(path, docs);
  const auto file = read_file(path);
  const auto sample = container_sample(file.data(), file.size(), 1u << 30);
  EXPECT_EQ(sample.size(), docs.size());
}

TEST(PrefixSampling, LzPrefixMatchesFullDecode) {
  Rng rng(3);
  std::string text;
  const char* words[] = {"lorem", "ipsum", "dolor", "sit", "amet"};
  while (text.size() < (3u << 20)) {
    text += words[rng.below(5)];
    text += ' ';
  }
  const std::vector<std::uint8_t> data(text.begin(), text.end());
  const auto comp = lz_compress(data);
  const auto full = lz_decompress(comp);
  for (const std::uint64_t budget : {1ull << 10, 1ull << 20, 5ull << 20}) {
    const auto prefix = lz_decompress_prefix(comp.data(), comp.size(), budget);
    ASSERT_GE(prefix.size(), std::min<std::uint64_t>(budget, full.size()));
    ASSERT_LE(prefix.size(), full.size());
    ASSERT_TRUE(std::equal(prefix.begin(), prefix.end(), full.begin()));
  }
}

}  // namespace
}  // namespace hetindex
