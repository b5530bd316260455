// Single-file segment tests: writer/reader round trip, run-file fold
// equivalence (the segment must answer every query exactly like the
// test-side run-file reader, oracle/run_index.hpp), corruption detection
// (truncation, bit flips, bad footers and tampered sections come back from
// SegmentReader::try_open as structured errors, never decode garbage and
// never abort), the section-by-section
// concatenation merge (byte-identical to the decode-derived reference in
// oracle/segment_blocks.hpp, structured errors on bad inputs), the
// range-parallel run fold (byte-identical to a serial oracle fold and to
// the same lists cut into other runs; a term without postings is kCorrupt),
// per-block Bloom filters, and lock-free concurrent readers sharing one
// SegmentReader.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/hetindex.hpp"
#include "corpus/container.hpp"
#include "io/mmap_file.hpp"
#include "oracle/run_index.hpp"
#include "oracle/segment_blocks.hpp"
#include "util/binary_io.hpp"
#include "util/crc32.hpp"

namespace hetindex {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("hetindex_seg_" + tag + "_" + std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

// ------------------------------------------------ writer/reader round trip

/// Adds `term` with `ids`, every tf 1, through the writer's one term path.
void add_list(SegmentWriter& writer, std::string_view term,
              const std::vector<std::uint32_t>& ids) {
  const std::vector<std::uint32_t> tfs(ids.size(), 1);
  writer.add_postings(term, ids, tfs);
}

TEST(SegmentWriterReader, RoundTripAcrossBlockBoundaries) {
  TempDir dir("rt");
  const std::string path = dir.path() + "/t.seg";
  // 3 terms per block and 8 terms → three blocks, last one partial.
  SegmentWriter writer(path, PostingCodec::kVByte, /*terms_per_block=*/3);
  std::vector<std::string> terms = {"alder", "alder2", "beech",
                                    "birch", "cedar", "cedarwood",
                                    "fir",   "pine"};
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const std::vector<std::uint32_t> ids = {static_cast<std::uint32_t>(i),
                                            static_cast<std::uint32_t>(i + 10)};
    add_list(writer, terms[i], ids);
  }
  EXPECT_EQ(writer.term_count(), terms.size());
  const auto total = writer.finalize().value();
  EXPECT_EQ(total, std::filesystem::file_size(path));

  const auto reader = SegmentReader::try_open(path).value();
  EXPECT_EQ(reader.term_count(), terms.size());
  EXPECT_EQ(reader.codec(), PostingCodec::kVByte);
  EXPECT_EQ(reader.min_doc(), 0u);
  EXPECT_EQ(reader.max_doc(), 17u);
  EXPECT_EQ(reader.file_bytes(), total);

  for (std::size_t i = 0; i < terms.size(); ++i) {
    const auto ordinal = reader.find(terms[i]);
    ASSERT_TRUE(ordinal.has_value()) << terms[i];
    EXPECT_EQ(*ordinal, i);
    const auto m = reader.meta(*ordinal);
    EXPECT_EQ(m.count, 2u);
    EXPECT_EQ(m.min_doc, i);
    EXPECT_EQ(m.max_doc, i + 10);
    std::vector<std::uint32_t> ids, tfs;
    reader.decode(m, ids, tfs);
    EXPECT_EQ(ids, (std::vector<std::uint32_t>{static_cast<std::uint32_t>(i),
                                               static_cast<std::uint32_t>(i + 10)}));
    EXPECT_EQ(tfs, (std::vector<std::uint32_t>{1, 1}));
  }
  // Absent terms, including ones that fall before / between / after blocks.
  EXPECT_FALSE(reader.find("aaa").has_value());
  EXPECT_FALSE(reader.find("alder3").has_value());
  EXPECT_FALSE(reader.find("cedarw").has_value());
  EXPECT_FALSE(reader.find("zzz").has_value());

  // Enumeration yields every term in order with its ordinal.
  std::vector<std::string> seen;
  reader.for_each_term([&](std::string_view t, std::uint64_t ord) {
    EXPECT_EQ(ord, seen.size());
    seen.emplace_back(t);
    return true;
  });
  EXPECT_EQ(seen, terms);

  // Prefix scans work across block boundaries.
  EXPECT_EQ(reader.terms_with_prefix("alder"),
            (std::vector<std::string>{"alder", "alder2"}));
  EXPECT_EQ(reader.terms_with_prefix("cedar"),
            (std::vector<std::string>{"cedar", "cedarwood"}));
  EXPECT_EQ(reader.terms_with_prefix("").size(), terms.size());
  EXPECT_TRUE(reader.terms_with_prefix("oak").empty());
}

TEST(SegmentWriterReader, EmptySegmentRoundTrips) {
  TempDir dir("empty");
  const std::string path = dir.path() + "/e.seg";
  SegmentWriter writer(path, PostingCodec::kGamma);
  writer.finalize();
  const auto reader = SegmentReader::try_open(path).value();
  EXPECT_EQ(reader.term_count(), 0u);
  EXPECT_EQ(reader.codec(), PostingCodec::kGamma);
  EXPECT_FALSE(reader.find("anything").has_value());
  EXPECT_TRUE(reader.terms_with_prefix("").empty());
}

TEST(SegmentWriterReader, WriterRejectsUnsortedAndEmptyTerms) {
  TempDir dir("sorted");
  SegmentWriter writer(dir.path() + "/s.seg", PostingCodec::kVByte);
  add_list(writer, "m", {1, 2});
  EXPECT_DEATH(add_list(writer, "a", {1, 2}), "sorted");
  EXPECT_DEATH(add_list(writer, "m", {1, 2}), "sorted");
  EXPECT_DEATH(add_list(writer, "z", {}), "postings");
}

// ------------------------------------------------ fold equivalence

/// Corpus across several container files → several run files, with shared
/// vocabulary so the segment fold concatenates partial lists across runs.
class SegmentEquivalenceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir("equiv");
    index_dir_ = dir_->path() + "/index";
    std::vector<std::string> files;
    std::uint32_t doc_id = 0;
    for (int f = 0; f < 3; ++f) {
      std::vector<Document> docs;
      for (int d = 0; d < 12; ++d) {
        std::string body = "shared common everywhere";
        body += " file" + std::to_string(f) + "only";
        if (d % 2 == 0) body += " evens alternating";
        if (d % 3 == 0) body += " thirds";
        body += " doc" + std::to_string(doc_id) + "unique";
        docs.push_back({doc_id, "http://x/" + std::to_string(doc_id), body});
        ++doc_id;
      }
      const auto file = dir_->path() + "/c" + std::to_string(f) + ".hdc";
      container_write(file, docs);
      files.push_back(file);
    }
    IndexBuilder builder;
    builder.parsers(1).cpu_indexers(1).gpus(1);
    builder.config().parser.record_positions = true;
    builder.build(files, index_dir_);
    stats_ = compact_index(index_dir_).value();
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  static inline TempDir* dir_ = nullptr;
  static inline std::string index_dir_;
  static inline SegmentBuildStats stats_;
};

TEST_F(SegmentEquivalenceFixture, CompactionFoldsAllRuns) {
  EXPECT_EQ(stats_.runs, 3u);
  EXPECT_GT(stats_.terms, 0u);
  EXPECT_GT(stats_.postings, stats_.terms);  // shared terms span many docs
  EXPECT_TRUE(file_exists(IndexLayout::segment_path(index_dir_)));
  EXPECT_GT(stats_.output_bytes, 0u);
}

TEST_F(SegmentEquivalenceFixture, OpenServesTheSegment) {
  const auto index = InvertedIndex::open(index_dir_, {}).value();
  ASSERT_NE(index.segment(), nullptr);
  const auto legacy = oracle::RunIndex::open(index_dir_);
  EXPECT_EQ(legacy.run_count(), 3u);
  EXPECT_EQ(index.term_count(), legacy.term_count());
}

TEST_F(SegmentEquivalenceFixture, LookupsMatchLegacyForEveryTerm) {
  const auto segment = InvertedIndex::open(index_dir_, {}).value();
  const auto legacy = oracle::RunIndex::open(index_dir_);
  std::size_t checked = 0;
  std::vector<std::string> segment_terms;
  segment.for_each_term([&](std::string_view term) { segment_terms.emplace_back(term); });
  ASSERT_EQ(segment_terms.size(), legacy.entries().size());
  for (const auto& entry : legacy.entries()) {
    const std::string_view term = entry.term;
    EXPECT_EQ(segment_terms[checked], term);
    const auto a = legacy.lookup(term);
    const auto b = segment.lookup(term);
    ASSERT_TRUE(a.has_value() && b.has_value()) << term;
    EXPECT_EQ(a->doc_ids, b->doc_ids) << term;
    EXPECT_EQ(a->tfs, b->tfs) << term;
    const auto ap = legacy.lookup_positional(term);
    const auto bp = segment.lookup_positional(term);
    ASSERT_TRUE(ap.has_value() && bp.has_value()) << term;
    EXPECT_EQ(ap->positions, bp->positions) << term;
    ++checked;
  }
  EXPECT_EQ(checked, legacy.term_count());
  EXPECT_FALSE(segment.lookup("zzzznope").has_value());
  EXPECT_FALSE(legacy.lookup("zzzznope").has_value());
}

TEST_F(SegmentEquivalenceFixture, RangeLookupsMatchLegacy) {
  const auto segment = InvertedIndex::open(index_dir_, {}).value();
  const auto legacy = oracle::RunIndex::open(index_dir_);
  const std::string shared = normalize_term("shared");
  const struct {
    std::uint32_t lo, hi;
  } ranges[] = {{0, 35}, {0, 11}, {12, 23}, {5, 30}, {30, 35}, {100, 200}};
  for (const auto& r : ranges) {
    const auto a = legacy.lookup_range(shared, r.lo, r.hi);
    const auto b = segment.lookup_range(shared, r.lo, r.hi);
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_EQ(a->doc_ids, b->doc_ids) << r.lo << ".." << r.hi;
    EXPECT_EQ(a->tfs, b->tfs);
  }
  // Segment-backed narrowing: a non-overlapping range skips the decode and
  // reports zero blobs touched (the term still exists → not nullopt).
  std::size_t touched = 99;
  const auto out = segment.lookup_range(shared, 1000, 2000, &touched);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->doc_ids.empty());
  EXPECT_EQ(touched, 0u);
  EXPECT_FALSE(segment.lookup_range("zzzznope", 0, 10, &touched).has_value());
  EXPECT_EQ(touched, 0u);
}

TEST_F(SegmentEquivalenceFixture, PrefixScansMatchLegacy) {
  const auto segment = InvertedIndex::open(index_dir_, {}).value();
  const auto legacy = oracle::RunIndex::open(index_dir_);
  for (const std::string prefix : {"", "s", "file", "doc1", "zzz"}) {
    std::vector<std::string> expected;
    for (const auto& e : legacy.entries()) {
      if (e.term.starts_with(prefix)) expected.push_back(e.term);
    }
    EXPECT_EQ(segment.terms_with_prefix(prefix), expected) << "prefix '" << prefix << "'";
  }
}

TEST_F(SegmentEquivalenceFixture, ReadMetricsAccumulate) {
  const auto index = InvertedIndex::open(index_dir_, {}).value();
  (void)index.lookup(normalize_term("shared"));
  (void)index.lookup("zzzznope");
  // Cursor opens count as lookups too (hetbench reads lookups per query
  // off this counter); a miss counts once more.
  ASSERT_NE(index.open_cursor(normalize_term("shared")), nullptr);
  EXPECT_EQ(index.open_cursor("zzzznope"), nullptr);
  const auto snap = index.metrics().snapshot();
  EXPECT_EQ(snap.counter("query_lookups_total"), 4u);
  EXPECT_EQ(snap.counter("query_lookup_misses_total"), 2u);
  EXPECT_GT(snap.counter("query_postings_decoded_total"), 0u);
  EXPECT_GT(snap.counter("query_bytes_decoded_total"), 0u);
  const auto* mapped = snap.gauge("segment_bytes_mapped");
  ASSERT_NE(mapped, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(mapped->value), index.segment()->mapped_bytes());
}

// ------------------------------------------------ corruption

class SegmentCorruptionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("corrupt");
    seg_path_ = dir_->path() + "/c.seg";
    SegmentWriter writer(seg_path_, PostingCodec::kVByte);
    const std::vector<std::string> sorted = {"alpha", "beta", "delta", "gamma", "omega"};
    for (const auto& term : sorted) add_list(writer, term, {1, 5, 9});
    writer.finalize();
  }

  /// XORs one byte at `offset` (negative = from end).
  void flip(std::ptrdiff_t offset) {
    auto data = read_file(seg_path_);
    const std::size_t at = offset >= 0 ? static_cast<std::size_t>(offset)
                                       : data.size() + offset;
    ASSERT_LT(at, data.size());
    data[at] ^= 0x5A;
    write_file(seg_path_, data);
  }

  /// Recomputes the footer CRC so header/section tampering survives the
  /// checksum and exercises the structural checks behind it.
  void fix_crc() {
    auto data = read_file(seg_path_);
    const std::uint32_t crc = crc32(data.data(), data.size() - 16);
    std::memcpy(data.data() + data.size() - 8, &crc, 4);
    write_file(seg_path_, data);
  }

  std::unique_ptr<TempDir> dir_;
  std::string seg_path_;
  /// try_open's error, which must carry `code` and mention `what`.
  void expect_open_error(ErrorCode code, const std::string& what) {
    const auto r = SegmentReader::try_open(seg_path_);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, code) << r.error().message;
    EXPECT_NE(r.error().message.find(what), std::string::npos) << r.error().message;
  }

  /// Offset of the dictionary section (the header's first section field).
  std::size_t dict_offset() {
    const auto data = read_file(seg_path_);
    std::uint64_t off = 0;
    std::memcpy(&off, data.data() + 32, 8);
    return static_cast<std::size_t>(off);
  }
};

TEST_F(SegmentCorruptionFixture, TruncatedFileIsCorrupt) {
  auto data = read_file(seg_path_);
  data.resize(data.size() / 2);
  write_file(seg_path_, data);
  expect_open_error(ErrorCode::kCorrupt, "footer");
  data.resize(10);
  write_file(seg_path_, data);
  expect_open_error(ErrorCode::kCorrupt, "too small");
}

TEST_F(SegmentCorruptionFixture, BitFlippedBlobIsCorrupt) {
  flip(-20);  // inside the blob area, just before the footer
  expect_open_error(ErrorCode::kCorrupt, "crc");
}

TEST_F(SegmentCorruptionFixture, BitFlippedHeaderIsCorrupt) {
  flip(0);
  expect_open_error(ErrorCode::kCorrupt, "crc");
}

TEST_F(SegmentCorruptionFixture, BadFooterCrcIsCorrupt) {
  flip(-6);  // inside the stored CRC field
  expect_open_error(ErrorCode::kCorrupt, "crc");
}

TEST_F(SegmentCorruptionFixture, BadFooterMagicIsCorrupt) {
  flip(-1);
  expect_open_error(ErrorCode::kCorrupt, "footer magic");
}

TEST_F(SegmentCorruptionFixture, WrongMagicWithValidCrcIsCorrupt) {
  flip(0);
  fix_crc();
  expect_open_error(ErrorCode::kCorrupt, "not a hetindex segment");
}

TEST_F(SegmentCorruptionFixture, UnknownVersionIsUnsupported) {
  flip(4);
  fix_crc();
  expect_open_error(ErrorCode::kUnsupported, "segment version");
}

TEST_F(SegmentCorruptionFixture, FormatV1NamesTheUpgrade) {
  auto data = read_file(seg_path_);
  const std::uint32_t v1 = 1;
  std::memcpy(data.data() + 4, &v1, 4);
  write_file(seg_path_, data);
  fix_crc();
  expect_open_error(ErrorCode::kUnsupported, "hetindex_cli compact");
}

TEST_F(SegmentCorruptionFixture, TamperedSectionBoundsAreCorrupt) {
  // Grow dict_bytes (u64 at offset 40) past the file end; CRC is repaired
  // so only the bounds check can catch it.
  auto data = read_file(seg_path_);
  std::uint64_t dict_bytes = 0;
  std::memcpy(&dict_bytes, data.data() + 40, 8);
  dict_bytes += 1 << 20;
  std::memcpy(data.data() + 40, &dict_bytes, 8);
  write_file(seg_path_, data);
  fix_crc();
  expect_open_error(ErrorCode::kCorrupt, "section out of bounds");
}

TEST_F(SegmentCorruptionFixture, OverlongSharedPrefixIsCorrupt) {
  // The second dictionary term ("beta") is front-coded against "alpha":
  // its first byte is the shared-prefix length (0). Claiming more than the
  // previous term holds must fail the open — before this check it passed
  // and aborted on the first find().
  const std::size_t at = dict_offset() + 4 + std::string("alpha").size();
  auto data = read_file(seg_path_);
  ASSERT_EQ(data[at], 0);
  data[at] = 9;  // > 5 = strlen("alpha")
  write_file(seg_path_, data);
  fix_crc();
  expect_open_error(ErrorCode::kCorrupt, "shared prefix");
}

TEST_F(SegmentCorruptionFixture, TamperedSkipRowIsCorrupt) {
  // Every term's one skip row follows the table; shrink the first row's
  // count so it disagrees with the table row's count.
  auto data = read_file(seg_path_);
  std::uint64_t skip_off = 0;
  std::memcpy(&skip_off, data.data() + 64, 8);
  std::uint32_t count = 0;
  std::memcpy(&count, data.data() + skip_off + 8, 4);
  ASSERT_EQ(count, 3u);
  count = 2;
  std::memcpy(data.data() + skip_off + 8, &count, 4);
  write_file(seg_path_, data);
  fix_crc();
  expect_open_error(ErrorCode::kCorrupt, "skip rows");
}

TEST_F(SegmentCorruptionFixture, MissingFileIsNotFound) {
  const auto r = SegmentReader::try_open(dir_->path() + "/nope.seg");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
}

// ------------------------------------------------ merge and Bloom filters

/// A random strictly-increasing list of `n` docs in [base, base + span),
/// with tfs and (one position per occurrence) positions.
QueryPostings random_list(std::mt19937& rng, std::size_t n, std::uint32_t base,
                          std::uint32_t span) {
  std::set<std::uint32_t> ids;
  while (ids.size() < n) ids.insert(base + static_cast<std::uint32_t>(rng() % span));
  QueryPostings p;
  for (const auto id : ids) {
    p.doc_ids.push_back(id);
    const std::uint32_t tf = 1 + static_cast<std::uint32_t>(rng() % 5);
    p.tfs.push_back(tf);
    for (std::uint32_t k = 0; k < tf; ++k) p.positions.push_back(3 * k + 1);
  }
  return p;
}

/// Writes one segment through add_postings (the flush path) over doc ids
/// [base, base + span); vbyte segments are positional.
void write_input_segment(const std::string& path, std::mt19937& rng, std::uint32_t base,
                         std::uint32_t span, PostingCodec codec = PostingCodec::kVByte) {
  SegmentWriter writer(path, codec);
  for (const std::string term : {"alpha", "beta", "gamma", "omega"}) {
    if (rng() % 4 == 0) continue;  // not every term in every segment
    auto list = random_list(rng, 1 + rng() % 400, base, span);
    if (codec != PostingCodec::kVByte) list.positions.clear();
    writer.add_postings(term, list.doc_ids, list.tfs, list.positions);
  }
  ASSERT_TRUE(writer.finalize().has_value());
}

TEST(SegmentMerge, OutputEqualsDecodeDerivedWriteByteForByte) {
  TempDir dir("merge");
  std::mt19937 rng(0x5E6);
  std::vector<SegmentReader> readers;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const std::string path = dir.path() + "/in" + std::to_string(i) + ".seg";
    write_input_segment(path, rng, i * 5000, 4000);
    readers.push_back(SegmentReader::try_open(path).value());
  }
  std::vector<const SegmentReader*> inputs;
  for (const auto& r : readers) inputs.push_back(&r);
  const std::string merged_path = dir.path() + "/merged.seg";
  const auto stats = merge_segments(inputs, merged_path);
  ASSERT_TRUE(stats.has_value()) << stats.error().to_string();

  // The same concatenated blobs, written through the reference that
  // decodes each blob to derive its skip rows and filters
  // (oracle/segment_blocks.hpp), must produce the identical file.
  const auto merged = SegmentReader::try_open(merged_path).value();
  const std::string derived_path = dir.path() + "/derived.seg";
  SegmentWriter derived(derived_path, PostingCodec::kVByte);
  merged.for_each_term([&](std::string_view term, std::uint64_t ordinal) {
    const auto [blob, bytes] = merged.raw_blob(merged.meta(ordinal));
    oracle::add_term_from_blob(derived, term, std::span<const std::uint8_t>(blob, bytes));
    return true;
  });
  ASSERT_TRUE(derived.finalize().has_value());
  EXPECT_EQ(read_file(merged_path), read_file(derived_path));
  EXPECT_GT(stats.value().terms, 0u);
}

TEST(SegmentMerge, CodecMismatchIsInvalidArgument) {
  TempDir dir("merge_codec");
  std::mt19937 rng(7);
  write_input_segment(dir.path() + "/a.seg", rng, 0, 1000);
  write_input_segment(dir.path() + "/b.seg", rng, 2000, 1000, PostingCodec::kGamma);
  const auto a = SegmentReader::try_open(dir.path() + "/a.seg").value();
  const auto b = SegmentReader::try_open(dir.path() + "/b.seg").value();
  const std::string out = dir.path() + "/out.seg";
  const auto merged = merge_segments({&a, &b}, out);
  ASSERT_FALSE(merged.has_value());
  EXPECT_EQ(merged.error().code, ErrorCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(out));
}

TEST(SegmentMerge, OverlappingDocRangesAreCorrupt) {
  TempDir dir("merge_overlap");
  for (const std::string name : {"a", "b"}) {
    SegmentWriter writer(dir.path() + "/" + name + ".seg", PostingCodec::kVByte);
    add_list(writer, "shared", {1, 5, 9});
    ASSERT_TRUE(writer.finalize().has_value());
  }
  const auto a = SegmentReader::try_open(dir.path() + "/a.seg").value();
  const auto b = SegmentReader::try_open(dir.path() + "/b.seg").value();
  const std::string out = dir.path() + "/out.seg";
  write_file(out, {1, 2, 3});  // a stale leftover under the output name
  const auto merged = merge_segments({&a, &b}, out);
  ASSERT_FALSE(merged.has_value());
  EXPECT_EQ(merged.error().code, ErrorCode::kCorrupt);
  EXPECT_FALSE(std::filesystem::exists(out));
}

TEST(SegmentBloom, PerBlockFiltersHaveNoFalseNegativesAndReject) {
  TempDir dir("bloom");
  std::mt19937 rng(0xB100);
  const std::string path = dir.path() + "/b.seg";
  const auto list = random_list(rng, 1000, 0, 100000);
  {
    SegmentWriter writer(path, PostingCodec::kVByte);
    writer.add_postings("term", list.doc_ids, list.tfs);
    ASSERT_TRUE(writer.finalize().has_value());
  }
  const auto reader = SegmentReader::try_open(path).value();
  const auto ordinal = reader.find("term").value();
  ASSERT_GT(reader.skip_rows(ordinal).size(), 4u);
  for (const auto doc : list.doc_ids) EXPECT_TRUE(reader.may_contain(ordinal, doc)) << doc;
  EXPECT_FALSE(reader.may_contain(ordinal, list.doc_ids.back() + 1));  // past the list
  std::size_t rejected = 0, absent = 0;
  const std::set<std::uint32_t> present(list.doc_ids.begin(), list.doc_ids.end());
  for (std::uint32_t doc = 0; doc < list.doc_ids.back(); doc += 7) {
    if (present.count(doc) != 0) continue;
    ++absent;
    if (!reader.may_contain(ordinal, doc)) ++rejected;
  }
  EXPECT_GT(rejected * 10, absent * 9) << rejected << "/" << absent;  // ~1% false positives
}

// ------------------------------------------------ parallel fold vs serial oracle

/// Run files plus the dictionary that points into them.
struct FoldInput {
  std::vector<DictionaryEntry> entries;  ///< sorted by term
  std::vector<IndexDirectoryEntry> directory;
};

/// Writes `runs` run files into `dir` for `terms` sorted terms. Keys are a
/// shuffled (shard, handle) assignment, so dictionary order and run-table
/// order differ. Every term has postings in run `t % runs` and in about half
/// of the others; list sizes straddle the 128-doc encode block.
FoldInput write_fold_input(const std::string& dir, std::size_t terms, std::uint32_t runs,
                           bool positional) {
  constexpr std::uint32_t kShards = 3;
  constexpr std::uint32_t kDocsPerRun = 10000;
  std::mt19937 rng(static_cast<std::uint32_t>(terms * 31 + runs));
  std::vector<std::uint32_t> term_of_slot(terms);
  std::iota(term_of_slot.begin(), term_of_slot.end(), 0u);
  std::shuffle(term_of_slot.begin(), term_of_slot.end(), rng);
  FoldInput in;
  in.entries.resize(terms);
  for (std::uint32_t slot = 0; slot < terms; ++slot) {
    const std::uint32_t t = term_of_slot[slot];
    char name[16];
    std::snprintf(name, sizeof name, "t%06u", t * 7);
    in.entries[t] = {name, 0, slot % kShards, slot / kShards + 1};
  }
  for (std::uint32_t r = 0; r < runs; ++r) {
    const std::string file = "run_" + std::to_string(r) + ".post";
    RunFileWriter writer(dir + "/" + file, r);
    // Ascending (shard, handle): slot order within each shard.
    for (std::uint32_t shard = 0; shard < kShards; ++shard) {
      for (std::uint32_t slot = shard; slot < terms; slot += kShards) {
        if (term_of_slot[slot] % runs != r && rng() % 2 == 0) continue;
        const auto q = random_list(rng, 1 + rng() % 300, r * kDocsPerRun, kDocsPerRun);
        PostingsList list;
        list.doc_ids = q.doc_ids;
        list.tfs = q.tfs;
        if (positional) list.positions = q.positions;
        writer.add_list({shard, slot / kShards + 1}, list);
      }
    }
    writer.finalize();
    in.directory.push_back({file, r, r * kDocsPerRun, (r + 1) * kDocsPerRun - 1});
  }
  return in;
}

/// The oracle: one SegmentWriter fed term by term in dictionary order with
/// each term's run parts decoded in run order and written through
/// add_postings.
std::vector<std::uint8_t> serial_fold(const std::string& dir, const FoldInput& in) {
  std::vector<RunFile> runs;
  for (const auto& e : in.directory) runs.push_back(RunFile::open(dir + "/" + e.file).value());
  const std::string path = dir + "/oracle.seg";
  SegmentWriter writer(path, PostingCodec::kVByte);
  for (const auto& de : in.entries) {
    QueryPostings list;
    for (const auto& run : runs) {
      run.fetch({de.shard, de.handle}, list.doc_ids, list.tfs, &list.positions);
    }
    writer.add_postings(de.term, list.doc_ids, list.tfs, list.positions);
  }
  EXPECT_TRUE(writer.finalize().has_value());
  return read_file(path);
}

struct FoldCase {
  const char* name;
  std::size_t terms;
  std::uint32_t runs;
  bool positional;
};

class SegmentFold : public ::testing::TestWithParam<FoldCase> {};

TEST_P(SegmentFold, RangeFoldEqualsSerialOracleByteForByte) {
  const FoldCase& c = GetParam();
  TempDir dir(c.name);
  const auto in = write_fold_input(dir.path(), c.terms, c.runs, c.positional);
  const auto stats = build_segment_from_runs(dir.path(), in.entries, in.directory);
  ASSERT_TRUE(stats.has_value()) << stats.error().to_string();
  EXPECT_EQ(stats.value().terms, c.terms);
  EXPECT_EQ(stats.value().runs, c.runs);
  const auto folded = read_file(IndexLayout::segment_path(dir.path()));
  EXPECT_EQ(folded.size(), stats.value().output_bytes);
  EXPECT_TRUE(folded == serial_fold(dir.path(), in)) << "index.seg differs from the oracle";

  const auto reader = SegmentReader::try_open(IndexLayout::segment_path(dir.path())).value();
  ASSERT_EQ(reader.term_count(), c.terms);
  for (std::size_t t = 0; t < c.terms; t += 13) {
    EXPECT_EQ(reader.find(in.entries[t].term), std::optional<std::uint64_t>(t));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dictionaries, SegmentFold,
    ::testing::Values(
        // 33 dictionary blocks, the last one partial: every fold range is used
        // and range boundaries fall on block leaders.
        FoldCase{"multi_range", 16 * 33 - 9, 3, false},
        FoldCase{"under_one_block", 5, 3, false},
        FoldCase{"single_run", 200, 1, false},
        FoldCase{"positional", 300, 3, true}),
    [](const ::testing::TestParamInfo<FoldCase>& info) { return std::string(info.param.name); });

TEST(SegmentRunCut, IndexSegIsByteIdenticalAcrossRunCuts) {
  // One set of term lists written as 1, 3 and 7 run files, each cut at its
  // own random doc ids: the fold re-blocks every term from its whole list,
  // so where the runs were cut must not show in index.seg.
  constexpr std::uint32_t kDocs = 20000;
  for (const bool positional : {false, true}) {
    std::mt19937 rng(positional ? 0xC07 : 0xC08);
    std::vector<DictionaryEntry> entries;
    std::vector<QueryPostings> lists;
    for (std::uint32_t t = 0; t < 60; ++t) {
      char name[16];
      std::snprintf(name, sizeof name, "t%03u", t);
      entries.push_back({name, 0, 0, t + 1});
      lists.push_back(random_list(rng, 1 + rng() % 700, 0, kDocs));
      if (!positional) lists.back().positions.clear();
    }
    std::vector<std::vector<std::uint8_t>> segments;
    for (const std::uint32_t runs : {1u, 3u, 7u}) {
      TempDir dir("cut" + std::to_string(runs));
      std::set<std::uint32_t> cuts = {0, kDocs};
      while (cuts.size() < runs + 1) cuts.insert(1 + static_cast<std::uint32_t>(rng() % (kDocs - 1)));
      const std::vector<std::uint32_t> bounds(cuts.begin(), cuts.end());
      std::vector<IndexDirectoryEntry> directory;
      for (std::uint32_t r = 0; r < runs; ++r) {
        const std::string file = "run_" + std::to_string(r) + ".post";
        RunFileWriter writer(dir.path() + "/" + file, r);
        for (std::uint32_t t = 0; t < lists.size(); ++t) {
          const QueryPostings& full = lists[t];
          PostingsList part;
          std::size_t pos_at = 0;
          for (std::size_t i = 0; i < full.doc_ids.size(); ++i) {
            const std::uint32_t tf = full.tfs[i];
            if (full.doc_ids[i] >= bounds[r] && full.doc_ids[i] < bounds[r + 1]) {
              part.doc_ids.push_back(full.doc_ids[i]);
              part.tfs.push_back(tf);
              if (positional) {
                part.positions.insert(part.positions.end(), full.positions.begin() + pos_at,
                                      full.positions.begin() + pos_at + tf);
              }
            }
            if (positional) pos_at += tf;
          }
          writer.add_list({0, t + 1}, part);
        }
        writer.finalize();
        directory.push_back({file, r, bounds[r], bounds[r + 1] - 1});
      }
      const auto stats = build_segment_from_runs(dir.path(), entries, directory);
      ASSERT_TRUE(stats.has_value()) << stats.error().to_string();
      EXPECT_EQ(stats.value().runs, runs);
      segments.push_back(read_file(IndexLayout::segment_path(dir.path())));
    }
    EXPECT_TRUE(segments[0] == segments[1]) << "3 runs differ from 1, positional=" << positional;
    EXPECT_TRUE(segments[0] == segments[2]) << "7 runs differ from 1, positional=" << positional;
  }
}

TEST(SegmentWriterAppend, RequiresABlockBoundary) {
  TempDir dir("append");
  SegmentWriter head(dir.path() + "/h.seg", PostingCodec::kVByte, /*terms_per_block=*/2);
  add_list(head, "a", {1, 2});
  SegmentWriter tail(dir.path() + "/t.seg", PostingCodec::kVByte, /*terms_per_block=*/2);
  add_list(tail, "b", {1, 2});
  EXPECT_DEATH(head.append(std::move(tail)), "block boundary");
  add_list(head, "b", {1, 2});
  SegmentWriter unsorted(dir.path() + "/u.seg", PostingCodec::kVByte, /*terms_per_block=*/2);
  add_list(unsorted, "a", {1, 2});
  EXPECT_DEATH(head.append(std::move(unsorted)), "sorted");
}

TEST_F(SegmentEquivalenceFixture, TermWithoutPostingsIsCorrupt) {
  // A copy of the index whose run directory drops the last run: the
  // dictionary still names terms that only that run holds.
  TempDir copy("nopostings");
  std::filesystem::copy(index_dir_, copy.path(), std::filesystem::copy_options::recursive);
  auto directory = index_directory_read(IndexLayout::directory_path(copy.path())).value();
  ASSERT_EQ(directory.size(), 3u);
  directory.pop_back();
  index_directory_write(IndexLayout::directory_path(copy.path()), directory);

  // The first such term in dictionary order is the one reported.
  std::vector<RunFile> kept;
  for (const auto& e : directory) kept.push_back(RunFile::open(copy.path() + "/" + e.file).value());
  std::string missing;
  const auto entries = dictionary_read(IndexLayout::dictionary_path(copy.path())).value();
  for (const auto& de : entries) {
    if (std::none_of(kept.begin(), kept.end(), [&](const RunFile& run) {
          return run.entry({de.shard, de.handle}) != nullptr;
        })) {
      missing = de.term;
      break;
    }
  }
  ASSERT_FALSE(missing.empty());

  const auto r = compact_index(copy.path());
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kCorrupt);
  EXPECT_NE(r.error().message.find("'" + missing + "'"), std::string::npos) << r.error().message;
  EXPECT_FALSE(file_exists(IndexLayout::segment_path(copy.path())));
}

// ------------------------------------------------ concurrent readers

TEST_F(SegmentEquivalenceFixture, ConcurrentReadersMatchLegacy) {
  // Expected answers collected single-threaded from the run-file oracle.
  const auto legacy = oracle::RunIndex::open(index_dir_);
  std::vector<std::string> terms;
  for (const auto& e : legacy.entries()) terms.push_back(e.term);
  std::vector<QueryPostings> expected;
  expected.reserve(terms.size());
  for (const auto& t : terms) expected.push_back(*legacy.lookup(t));

  // One shared reader, no locks: lookups, range lookups and prefix scans
  // hammered from many threads must all agree with the legacy answers.
  const auto index = InvertedIndex::open(index_dir_, {}).value();
  constexpr int kThreads = 8;
  constexpr int kIters = 150;
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> workers;
    workers.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        for (int i = 0; i < kIters; ++i) {
          const std::size_t k = static_cast<std::size_t>(w + i) % terms.size();
          const auto got = index.lookup(terms[k]);
          if (!got || got->doc_ids != expected[k].doc_ids ||
              got->tfs != expected[k].tfs) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          if (index.lookup("zzzznope").has_value()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          const auto ranged = index.lookup_range(terms[k], 0, 11);
          if (!ranged || ranged->doc_ids.size() > expected[k].doc_ids.size()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          if (i % 25 == 0 &&
              index.terms_with_prefix("doc").empty()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  const auto snap = index.metrics().snapshot();
  EXPECT_EQ(snap.counter("query_lookups_total"),
            static_cast<std::uint64_t>(kThreads) * kIters * 3);
}

}  // namespace
}  // namespace hetindex
