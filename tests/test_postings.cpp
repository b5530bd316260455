// Tests for postings accumulation, run files, merging and the run-file read
// path with its doc-ID range narrowing (§III.F output organization).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "oracle/run_index.hpp"
#include "postings/merger.hpp"
#include "postings/postings_store.hpp"
#include "postings/query.hpp"
#include "postings/run_file.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace hetindex {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = (std::filesystem::temp_directory_path() /
             ("hetindex_post_" + std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

TEST(PostingsStore, HandlesStartAtOne) {
  PostingsStore store;
  EXPECT_EQ(store.create(), 1u);
  EXPECT_EQ(store.create(), 2u);
}

TEST(PostingsStore, AppendsAndBumpsTermFrequency) {
  PostingsStore store;
  const auto h = store.create();
  store.add(h, 5);
  store.add(h, 5);  // same doc → tf bump
  store.add(h, 9);
  const auto& list = store.list(h);
  EXPECT_EQ(list.doc_ids, (std::vector<std::uint32_t>{5, 9}));
  EXPECT_EQ(list.tfs, (std::vector<std::uint32_t>{2, 1}));
  EXPECT_EQ(store.postings_added(), 2u);
}

TEST(PostingsStore, ClearKeepsHandles) {
  PostingsStore store;
  const auto h = store.create();
  store.add(h, 1);
  store.clear_lists();
  EXPECT_TRUE(store.list(h).empty());
  store.add(h, 2);  // handle still valid after flush
  EXPECT_EQ(store.list(h).doc_ids, (std::vector<std::uint32_t>{2}));
}

TEST(RunFile, WriteReadRoundTrip) {
  TempDir dir;
  const auto path = dir.path() + "/run_0.post";
  RunFileWriter writer(path, 0);
  PostingsList a;
  a.doc_ids = {1, 5, 9};
  a.tfs = {2, 1, 4};
  PostingsList b;
  b.doc_ids = {3};
  b.tfs = {1};
  writer.add_list({0, 1}, a);
  writer.add_list({1, 1}, b);
  writer.add_list({0, 2}, {});  // empty lists are skipped
  const auto bytes = writer.finalize();
  EXPECT_GT(bytes, 0u);

  const auto run = RunFile::open(path).value();
  EXPECT_EQ(run.run_id(), 0u);
  EXPECT_EQ(run.table().size(), 2u);
  EXPECT_EQ(run.min_doc(), 1u);
  EXPECT_EQ(run.max_doc(), 9u);
  std::vector<std::uint32_t> ids, tfs;
  ASSERT_TRUE(run.fetch({0, 1}, ids, tfs));
  EXPECT_EQ(ids, a.doc_ids);
  EXPECT_EQ(tfs, a.tfs);
  ids.clear();
  tfs.clear();
  ASSERT_TRUE(run.fetch({1, 1}, ids, tfs));
  EXPECT_EQ(ids, b.doc_ids);
  EXPECT_FALSE(run.fetch({0, 2}, ids, tfs));
  EXPECT_FALSE(run.fetch({9, 9}, ids, tfs));
}

TEST(RunFile, DetectsBlobCorruption) {
  TempDir dir;
  const auto path = dir.path() + "/run_0.post";
  RunFileWriter writer(path, 0);
  PostingsList a;
  for (std::uint32_t i = 0; i < 100; ++i) {
    a.doc_ids.push_back(i * 2);
    a.tfs.push_back(1);
  }
  writer.add_list({0, 1}, a);
  writer.finalize();
  auto data = read_file(path);
  data[data.size() - 3] ^= 0x40;
  write_file(path, data);
  const auto opened = RunFile::open(path);
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.error().code, ErrorCode::kCorrupt);
  EXPECT_NE(opened.error().message.find(path), std::string::npos) << opened.error().message;
  EXPECT_NE(opened.error().message.find("checksum"), std::string::npos);
}

TEST(RunFile, RejectsTableKeysOutOfOrder) {
  TempDir dir;
  const auto path = dir.path() + "/run_0.post";
  RunFileWriter writer(path, 0);
  PostingsList a;
  a.doc_ids = {1, 5};
  a.tfs = {1, 1};
  writer.add_list({0, 1}, a);
  writer.add_list({0, 2}, a);
  writer.add_list({1, 1}, a);
  // The writer enforces the order itself (including across shards).
  EXPECT_DEATH(writer.add_list({0, 3}, a), "ascend");
  EXPECT_DEATH(writer.add_list({1, 1}, a), "ascend");  // duplicate key
  writer.finalize();

  // Swap the keys of table rows 0 and 1 on disk. The blob CRC covers only
  // the blobs, so the table order check is what catches it.
  constexpr std::size_t kHeader = 4 + 4 + 1 + 4 + 4 + 4 + 8 + 4;
  constexpr std::size_t kRow = 32;
  auto data = read_file(path);
  ASSERT_GE(data.size(), kHeader + 2 * kRow);
  std::swap_ranges(data.begin() + kHeader, data.begin() + kHeader + 8,
                   data.begin() + kHeader + kRow);
  write_file(path, data);
  const auto opened = RunFile::open(path);
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.error().code, ErrorCode::kCorrupt);
  EXPECT_NE(opened.error().message.find("ascend"), std::string::npos) << opened.error().message;
}

TEST(RunFile, ReportsBadMagicAndTruncation) {
  TempDir dir;
  const auto path = dir.path() + "/run_0.post";
  RunFileWriter writer(path, 0);
  PostingsList a;
  a.doc_ids = {1, 5};
  a.tfs = {1, 1};
  writer.add_list({0, 1}, a);
  writer.finalize();
  const auto good = read_file(path);

  auto data = good;
  data[0] ^= 0xFF;
  write_file(path, data);
  auto opened = RunFile::open(path);
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.error().code, ErrorCode::kCorrupt);
  EXPECT_NE(opened.error().message.find("magic"), std::string::npos) << opened.error().message;

  for (const std::size_t keep : {std::size_t{5}, good.size() - 1}) {
    data.assign(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(keep));
    write_file(path, data);
    opened = RunFile::open(path);
    ASSERT_FALSE(opened.has_value()) << keep;
    EXPECT_EQ(opened.error().code, ErrorCode::kCorrupt) << keep;
  }

  EXPECT_EQ(RunFile::open(dir.path() + "/absent.post").error().code, ErrorCode::kNotFound);
}

class RunCodecParam : public ::testing::TestWithParam<PostingCodec> {};

TEST_P(RunCodecParam, RoundTripUnderEachCodec) {
  TempDir dir;
  const auto path = dir.path() + "/run_0.post";
  RunFileWriter writer(path, 0, GetParam());
  Rng rng(3);
  PostingsList list;
  std::uint32_t doc = 0;
  for (int i = 0; i < 1000; ++i) {
    doc += 1 + static_cast<std::uint32_t>(rng.below(100));
    list.doc_ids.push_back(doc);
    list.tfs.push_back(1 + static_cast<std::uint32_t>(rng.below(8)));
  }
  writer.add_list({2, 7}, list);
  writer.finalize();
  const auto run = RunFile::open(path).value();
  EXPECT_EQ(run.codec(), GetParam());
  std::vector<std::uint32_t> ids, tfs;
  ASSERT_TRUE(run.fetch({2, 7}, ids, tfs));
  EXPECT_EQ(ids, list.doc_ids);
  EXPECT_EQ(tfs, list.tfs);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, RunCodecParam,
                         ::testing::Values(PostingCodec::kVByte, PostingCodec::kGamma,
                                           PostingCodec::kGolomb));

TEST(Merger, CombinesPartialListsAcrossRuns) {
  TempDir dir;
  // Run 0: docs 0..9, run 1: docs 10..19 for the same key; a second key
  // appears only in run 1.
  {
    RunFileWriter w(dir.path() + "/run_0.post", 0);
    PostingsList l;
    l.doc_ids = {1, 4};
    l.tfs = {1, 2};
    w.add_list({0, 1}, l);
    w.finalize();
  }
  {
    RunFileWriter w(dir.path() + "/run_1.post", 1);
    PostingsList l;
    l.doc_ids = {12, 15};
    l.tfs = {3, 1};
    w.add_list({0, 1}, l);
    PostingsList m;
    m.doc_ids = {11};
    m.tfs = {1};
    w.add_list({0, 2}, m);
    w.finalize();
  }
  const auto out = dir.path() + "/merged.post";
  const auto stats =
      merge_runs({dir.path() + "/run_0.post", dir.path() + "/run_1.post"}, out).value();
  EXPECT_EQ(stats.terms, 2u);
  EXPECT_EQ(stats.postings, 5u);

  const auto merged = RunFile::open(out).value();
  EXPECT_EQ(merged.run_id(), kMergedRunId);
  std::vector<std::uint32_t> ids, tfs;
  ASSERT_TRUE(merged.fetch({0, 1}, ids, tfs));
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{1, 4, 12, 15}));
  EXPECT_EQ(tfs, (std::vector<std::uint32_t>{1, 2, 3, 1}));
}

TEST(Merger, KeyOnlyInMiddleRunKeepsTableOrder) {
  // Three runs; key {0, 2} appears only in run 1 and {1, 1} only in run 2,
  // so the k-way walk must interleave the tables to emit ascending keys.
  TempDir dir;
  std::vector<std::string> paths;
  for (std::uint32_t run = 0; run < 3; ++run) {
    paths.push_back(dir.path() + "/run_" + std::to_string(run) + ".post");
    RunFileWriter w(paths.back(), run);
    PostingsList l;
    l.doc_ids = {run * 10 + 1, run * 10 + 2};
    l.tfs = {1, run + 1};
    w.add_list({0, 1}, l);
    if (run == 1) w.add_list({0, 2}, l);
    if (run == 2) w.add_list({1, 1}, l);
    w.finalize();
  }
  const auto out = dir.path() + "/merged.post";
  // Input order does not matter: runs are taken in run-id order.
  const auto stats = merge_runs({paths[2], paths[0], paths[1]}, out).value();
  EXPECT_EQ(stats.terms, 3u);
  EXPECT_EQ(stats.postings, 10u);

  const auto merged = RunFile::open(out).value();
  ASSERT_EQ(merged.table().size(), 3u);
  EXPECT_EQ(merged.table()[0].key, (PostingKey{0, 1}));
  EXPECT_EQ(merged.table()[1].key, (PostingKey{0, 2}));
  EXPECT_EQ(merged.table()[2].key, (PostingKey{1, 1}));
  std::vector<std::uint32_t> ids, tfs;
  ASSERT_TRUE(merged.fetch({0, 1}, ids, tfs));
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{1, 2, 11, 12, 21, 22}));
  EXPECT_EQ(tfs, (std::vector<std::uint32_t>{1, 1, 1, 2, 1, 3}));
  ids.clear();
  tfs.clear();
  ASSERT_TRUE(merged.fetch({0, 2}, ids, tfs));
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{11, 12}));
  EXPECT_EQ(merged.table()[1].min_doc, 11u);
  EXPECT_EQ(merged.table()[1].max_doc, 12u);
  ids.clear();
  tfs.clear();
  ASSERT_TRUE(merged.fetch({1, 1}, ids, tfs));
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{21, 22}));
}

TEST(Merger, RejectsOverlappingDocRanges) {
  TempDir dir;
  for (int run = 0; run < 2; ++run) {
    RunFileWriter w(dir.path() + "/run_" + std::to_string(run) + ".post",
                    static_cast<std::uint32_t>(run));
    PostingsList l;
    l.doc_ids = {5};  // same doc id in both runs → violates global order
    l.tfs = {1};
    w.add_list({0, 1}, l);
    w.finalize();
  }
  const auto merged =
      merge_runs({dir.path() + "/run_0.post", dir.path() + "/run_1.post"},
                 dir.path() + "/merged.post");
  ASSERT_FALSE(merged.has_value());
  EXPECT_EQ(merged.error().code, ErrorCode::kCorrupt);
  EXPECT_NE(merged.error().message.find("increasing"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/merged.post"));
}

TEST(IndexDirectory, RoundTrip) {
  TempDir dir;
  const auto path = dir.path() + "/runs.dir";
  std::vector<IndexDirectoryEntry> entries = {{"run_0.post", 0, 0, 99},
                                              {"run_1.post", 1, 100, 199}};
  index_directory_write(path, entries);
  const auto loaded = index_directory_read(path).value();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].file, "run_0.post");
  EXPECT_EQ(loaded[1].min_doc, 100u);
  EXPECT_EQ(loaded[1].max_doc, 199u);
}

/// Builds a small two-run index directory by hand to exercise the run-file
/// read path (the test-side oracle::RunIndex) without the full pipeline.
class RunIndexFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Dictionary dict;
    dict.add_shard();
    auto apple = dict.insert("apple");
    *apple.postings_slot = 1;
    auto banana = dict.insert("banana");
    *banana.postings_slot = 2;
    dictionary_write(dict.combine(), IndexLayout::dictionary_path(dir_.path()));

    {
      RunFileWriter w(IndexLayout::run_path(dir_.path(), 0), 0);
      PostingsList a;
      a.doc_ids = {0, 7};
      a.tfs = {1, 2};
      w.add_list({0, 1}, a);
      w.finalize();
    }
    {
      RunFileWriter w(IndexLayout::run_path(dir_.path(), 1), 1);
      PostingsList a;
      a.doc_ids = {20};
      a.tfs = {5};
      w.add_list({0, 1}, a);
      PostingsList b;
      b.doc_ids = {21};
      b.tfs = {1};
      w.add_list({0, 2}, b);
      w.finalize();
    }
    index_directory_write(IndexLayout::directory_path(dir_.path()),
                          {{"run_0.post", 0, 0, 7}, {"run_1.post", 1, 20, 21}});
  }

  TempDir dir_;
};

TEST_F(RunIndexFixture, LookupConcatenatesRuns) {
  const auto idx = oracle::RunIndex::open(dir_.path());
  EXPECT_EQ(idx.term_count(), 2u);
  const auto apple = idx.lookup("apple");
  ASSERT_TRUE(apple.has_value());
  EXPECT_EQ(apple->doc_ids, (std::vector<std::uint32_t>{0, 7, 20}));
  EXPECT_EQ(apple->tfs, (std::vector<std::uint32_t>{1, 2, 5}));
  EXPECT_FALSE(idx.lookup("cherry").has_value());
}

TEST_F(RunIndexFixture, RangeLookupSkipsNonOverlappingRuns) {
  const auto idx = oracle::RunIndex::open(dir_.path());
  std::size_t touched = 0;
  const auto hits = idx.lookup_range("apple", 0, 10, &touched);
  ASSERT_TRUE(hits.has_value());
  EXPECT_EQ(hits->doc_ids, (std::vector<std::uint32_t>{0, 7}));
  EXPECT_EQ(touched, 1u);  // §III.F range narrowing: run 1 never decoded

  const auto tail = idx.lookup_range("apple", 15, 30, &touched);
  EXPECT_EQ(tail->doc_ids, (std::vector<std::uint32_t>{20}));
  EXPECT_EQ(touched, 1u);
}

TEST_F(RunIndexFixture, RangeLookupFiltersWithinRun) {
  const auto idx = oracle::RunIndex::open(dir_.path());
  const auto hits = idx.lookup_range("apple", 5, 7, nullptr);
  ASSERT_TRUE(hits.has_value());
  EXPECT_EQ(hits->doc_ids, (std::vector<std::uint32_t>{7}));
}

}  // namespace
}  // namespace hetindex
