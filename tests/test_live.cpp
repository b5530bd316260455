// Live indexing tests (docs/LIVE_INDEXING.md): incremental-vs-batch
// equivalence (random flush points must produce exactly the index a
// one-shot IndexBuilder builds, term for term), tiered compaction
// correctness (merges fold segments without re-encoding and answers never
// change), snapshot-isolated readers racing flushes and compaction (the
// TSan tier-1 leg runs this), crash recovery (uncommitted segment files
// and a stale MANIFEST.tmp must not survive reopen), and the DocMap
// offset/rebase API live segments rely on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/hetindex.hpp"
#include "dict/trie_table.hpp"
#include "util/binary_io.hpp"

namespace hetindex {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("hetindex_live_" + tag + "_" + std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

/// A small deterministic corpus read back as documents, plus the batch
/// index built from the same container files.
struct Corpus {
  std::vector<std::string> files;
  std::vector<Document> docs;
};

Corpus make_corpus(const std::string& dir, std::uint64_t bytes, std::uint64_t seed) {
  CollectionSpec spec = wikipedia_like();
  spec.total_bytes = bytes;
  spec.seed = seed;
  const auto coll = generate_collection(spec, dir);
  Corpus corpus;
  corpus.files = coll.paths();
  for (const auto& file : corpus.files) {
    for (auto& doc : container_read(file)) corpus.docs.push_back(std::move(doc));
  }
  return corpus;
}

/// Ingests the corpus into `dir` with flushes at the given doc indices
/// (plus a final flush), then runs compaction to completion.
IndexWriter ingest(const Corpus& corpus, const std::string& dir,
                   IndexWriterOptions opts, const std::vector<std::size_t>& flush_after) {
  auto writer = IndexWriter::open(dir, opts);
  EXPECT_TRUE(writer.has_value());
  auto w = std::move(writer).value();
  std::size_t next_flush = 0;
  for (std::size_t i = 0; i < corpus.docs.size(); ++i) {
    const auto id = w.add_document(corpus.docs[i].url, corpus.docs[i].body);
    EXPECT_EQ(id, i);
    if (next_flush < flush_after.size() && flush_after[next_flush] == i) {
      ++next_flush;
      w.flush();
    }
  }
  w.flush();
  return w;
}

/// Asserts the snapshot answers every term exactly like the batch index.
void expect_equivalent(const LiveSnapshot& snap, const InvertedIndex& batch,
                       bool positions) {
  EXPECT_EQ(snap.term_count(), batch.term_count());
  std::uint64_t compared = 0;
  snap.for_each_term([&](std::string_view term) {
    const auto live = snap.lookup(term);
    const auto ref =
        positions ? batch.lookup_positional(term) : batch.lookup(term);
    EXPECT_TRUE(live.has_value()) << term;
    EXPECT_TRUE(ref.has_value()) << term;
    if (live && ref) {
      EXPECT_EQ(live->doc_ids, ref->doc_ids) << term;
      EXPECT_EQ(live->tfs, ref->tfs) << term;
      if (positions) {
        EXPECT_EQ(live->positions, ref->positions) << term;
      }
    }
    ++compared;
    return true;
  });
  EXPECT_EQ(compared, batch.term_count());
}

// -------------------------------------------------- incremental == batch

TEST(LiveEquivalence, RandomFlushPointsMatchBatchBuild) {
  TempDir corpus_dir("corpus");
  TempDir batch_dir("batch");
  TempDir live_dir("live");
  const auto corpus = make_corpus(corpus_dir.path(), 256 << 10, /*seed=*/0xC0FFEE);
  ASSERT_GT(corpus.docs.size(), 16u);

  IndexBuilder builder;
  builder.emit_segment(true);
  builder.build(corpus.files, batch_dir.path());
  const auto batch =
      InvertedIndex::open(batch_dir.path(), {}).value();

  // Random flush points; seeded so failures reproduce.
  std::mt19937 rng(42);
  std::vector<std::size_t> flush_after;
  for (std::size_t i = 0; i < corpus.docs.size(); ++i) {
    if (rng() % 7 == 0) flush_after.push_back(i);
  }
  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;  // explicit flushes only
  opts.background_compaction = false;
  auto w = ingest(corpus, live_dir.path(), opts, flush_after);

  const auto snap = w.snapshot();
  EXPECT_EQ(snap->doc_count(), corpus.docs.size());
  EXPECT_GT(snap->segment_count(), 1u);
  expect_equivalent(*snap, batch, /*positions=*/false);

  // Compaction must not change a single answer.
  w.compact_now();
  const auto compacted = w.snapshot();
  EXPECT_LE(compacted->segment_count(), snap->segment_count());
  expect_equivalent(*compacted, batch, /*positions=*/false);

  // A fresh read-only open of the committed state agrees too.
  const auto live = LiveIndex::open(live_dir.path());
  ASSERT_TRUE(live.has_value());
  expect_equivalent(*live.value().snapshot(), batch, /*positions=*/false);
}

TEST(LiveEquivalence, PositionalPostingsSurviveFlushAndMerge) {
  TempDir corpus_dir("pcorpus");
  TempDir batch_dir("pbatch");
  TempDir live_dir("plive");
  const auto corpus = make_corpus(corpus_dir.path(), 96 << 10, /*seed=*/0xBEEF);

  IndexBuilder builder;
  builder.emit_segment(true);
  builder.config().parser.record_positions = true;
  builder.build(corpus.files, batch_dir.path());
  const auto batch =
      InvertedIndex::open(batch_dir.path(), {}).value();

  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  opts.parser.record_positions = true;
  // Flush every 10 documents, then fold everything back together: the
  // §III.F byte-concatenation merge must preserve positions bit-exactly.
  std::vector<std::size_t> flush_after;
  for (std::size_t i = 9; i < corpus.docs.size(); i += 10) flush_after.push_back(i);
  auto w = ingest(corpus, live_dir.path(), opts, flush_after);
  w.compact_now();
  expect_equivalent(*w.snapshot(), batch, /*positions=*/true);
}

// -------------------------------------------------- add path == batch parser

/// The oracle for the writer's one-pass add path: the batch parser's term
/// stream for each document exactly as the writer once consumed it — a
/// one-document parse() block (Step 5 regroup included), each term rebuilt
/// as trie_prefix + suffix, one insert per token — accumulated into an
/// ordered map and written straight through SegmentWriter.
struct OracleIndex {
  struct Posting {
    std::uint32_t doc = 0;
    std::uint32_t tf = 0;
    std::vector<std::uint32_t> positions;
  };
  std::map<std::string, std::vector<Posting>> terms;
  std::vector<std::uint32_t> doc_tokens;
  std::uint64_t token_sum = 0;

  void add(const Parser& parser, const Document& doc, std::uint32_t doc_id) {
    const ParsedBlock block = parser.parse({{0, doc.url, doc.body}}, 0, 0, doc_id);
    const std::uint32_t tokens = block.doc_tokens.empty() ? 0 : block.doc_tokens[0];
    doc_tokens.push_back(tokens);
    token_sum += tokens;
    std::string term;
    for (const auto& group : block.groups) {
      term = trie_prefix(group.trie_idx);
      const std::size_t prefix_len = term.size();
      auto insert = [&](std::string_view suffix, std::optional<std::uint32_t> position) {
        term.resize(prefix_len);
        term.append(suffix);
        auto& list = terms[term];
        if (list.empty() || list.back().doc != doc_id) list.push_back({doc_id, 0, {}});
        ++list.back().tf;
        if (position.has_value()) list.back().positions.push_back(*position);
      };
      if (!group.positions.empty()) {
        for_each_posting_positional(
            group, [&](std::uint32_t, std::string_view suffix, std::uint32_t position) {
              insert(suffix, position);
            });
      } else {
        for_each_posting(group,
                         [&](std::uint32_t, std::string_view suffix) { insert(suffix, {}); });
      }
    }
  }

  void write_segment(const std::string& path, bool positional) const {
    SegmentWriter writer(path, PostingCodec::kVByte);
    std::vector<std::uint32_t> docs, tfs, positions;
    for (const auto& [term, list] : terms) {
      docs.clear();
      tfs.clear();
      positions.clear();
      for (const auto& p : list) {
        docs.push_back(p.doc);
        tfs.push_back(p.tf);
        if (positional) positions.insert(positions.end(), p.positions.begin(), p.positions.end());
      }
      writer.add_postings(term, docs, tfs, positions);
    }
    ASSERT_TRUE(writer.finalize().has_value());
  }
};

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Documents at the add path's edges, appended to every corpus below.
std::vector<Document> edge_documents() {
  std::vector<Document> docs;
  docs.push_back({0, "edge://empty", ""});
  docs.push_back({0, "edge://stopwords", "The and OF to a in IS it, was: for on!"});
  // One term 70,000 times: more occurrences than the parser's 0xFFFF
  // per-record term count, so parse() splits the record in two.
  std::string repeated;
  for (int i = 0; i < 70000; ++i) repeated += "zebras ";
  docs.push_back({0, "edge://repeated", repeated});
  // Tokens past kMaxTokenBytes are truncated before stemming.
  docs.push_back({0, "edge://long", "lead " + std::string(293, 'x') + "ational tail " +
                                        std::string(300, '7') + " mixed" +
                                        std::string(294, 'Q') + " end"});
  docs.push_back({0, "edge://bytes",
                  "caf\xc3\xa9 na\xc3\xafve \xff\xfe\x80 \xe4\xb8\xad\xe6\x96\x87 "
                  "r\xc3\xa9sum\xc3\xa9s running \x01\x02 plain"});
  return docs;
}

TEST(LiveAddPath, MemtableMatchesBatchParserByteForByte) {
  struct Case {
    const char* name;
    CollectionSpec spec;
    ParserConfig parser;
  };
  ParserConfig positional;
  positional.record_positions = true;
  ParserConfig raw;  // no HTML strip, stemming or stop list
  raw.strip_html = false;
  raw.stem = false;
  raw.remove_stopwords = false;
  const std::vector<Case> cases = {
      {"wikipedia_positional", wikipedia_like(), positional},
      {"wikipedia", wikipedia_like(), ParserConfig{}},
      {"clueweb_positional", clueweb_like(), positional},
      {"clueweb", clueweb_like(), ParserConfig{}},
      {"clueweb_raw", clueweb_like(), raw},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    TempDir corpus_dir("addpath_corpus");
    TempDir live_dir("addpath_live");
    CollectionSpec spec = c.spec;
    spec.total_bytes = 128 << 10;
    spec.seed = 0xADD;
    const auto coll = generate_collection(spec, corpus_dir.path());
    std::vector<Document> docs;
    for (const auto& file : coll.paths()) {
      for (auto& doc : container_read(file)) docs.push_back(std::move(doc));
    }
    ASSERT_GT(docs.size(), 16u);
    for (auto& doc : edge_documents()) docs.push_back(std::move(doc));

    IndexWriterOptions opts;
    opts.flush_threshold_bytes = 0;
    opts.background_compaction = false;
    opts.parser = c.parser;
    auto w = IndexWriter::open(live_dir.path(), opts).value();
    const Parser parser(c.parser);
    OracleIndex oracle;
    for (const auto& doc : docs) {
      const std::uint32_t id = w.add_document(doc.url, doc.body);
      oracle.add(parser, doc, id);
    }

    // Per-document token counts and token_sum, read from the memtable.
    const auto snap = w.snapshot();
    EXPECT_EQ(snap->token_stats().token_sum, oracle.token_sum);
    for (std::uint32_t id = 0; id < docs.size(); ++id) {
      const auto loc = snap->locate(id);
      ASSERT_TRUE(loc.has_value());
      ASSERT_EQ(loc->token_count, oracle.doc_tokens[id]) << docs[id].url;
    }
    EXPECT_EQ(oracle.doc_tokens[docs.size() - 5], 0u);  // empty body
    if (c.parser.remove_stopwords) {
      EXPECT_EQ(oracle.doc_tokens[docs.size() - 4], 0u);  // only stop words
    }
    EXPECT_EQ(oracle.terms.count("zebra"), c.parser.stem ? 1u : 0u);

    ASSERT_EQ(w.flush().value(), 1u);
    const std::string oracle_path = live_dir.path() + "/oracle.seg";
    oracle.write_segment(oracle_path, c.parser.record_positions);
    const auto live_bytes = file_bytes(live_segment_path(live_dir.path(), 1));
    ASSERT_FALSE(live_bytes.empty());
    EXPECT_TRUE(live_bytes == file_bytes(oracle_path))
        << "live segment differs from the batch parser's term stream";
  }
}

// -------------------------------------------------- writer lifecycle

TEST(LiveWriter, EmptyFlushIsNoOp) {
  TempDir dir("noop");
  auto w = IndexWriter::open(dir.path(), {}).value();
  EXPECT_EQ(w.flush().value(), 0u);
  EXPECT_EQ(w.snapshot()->segment_count(), 0u);
  EXPECT_EQ(w.add_document("u://0", "alpha beta gamma"), 0u);
  EXPECT_EQ(w.buffered_docs(), 1u);
  EXPECT_GT(w.flush().value(), 0u);
  EXPECT_EQ(w.flush().value(), 0u);  // buffer drained by the first flush
  EXPECT_EQ(w.committed_docs(), 1u);
  EXPECT_EQ(w.buffered_docs(), 0u);
}

TEST(LiveWriter, ReopenContinuesDocIdsFromCommittedState) {
  TempDir dir("reopen");
  IndexWriterOptions opts;
  opts.background_compaction = false;
  {
    auto w = IndexWriter::open(dir.path(), opts).value();
    w.add_document("u://0", "apple banana");
    w.flush();
    w.add_document("u://1", "banana cherry");
    w.flush();
    // A buffered-but-unflushed document is dropped by the destructor.
    w.add_document("u://2", "never committed");
  }
  auto w = IndexWriter::open(dir.path(), opts).value();
  EXPECT_EQ(w.committed_docs(), 2u);
  EXPECT_EQ(w.snapshot()->segment_count(), 2u);
  EXPECT_EQ(w.add_document("u://2", "cherry dates"), 2u);
  w.flush();
  const auto snap = w.snapshot();
  EXPECT_EQ(snap->doc_count(), 3u);
  const auto hits = snap->lookup(normalize_term("banana"));
  ASSERT_TRUE(hits.has_value());
  EXPECT_EQ(hits->doc_ids, (std::vector<std::uint32_t>{0, 1}));
  // The per-segment doc maps resolve every committed id.
  for (std::uint32_t id = 0; id < 3; ++id) {
    const auto loc = snap->locate(id);
    ASSERT_TRUE(loc.has_value()) << id;
    EXPECT_EQ(loc->url, "u://" + std::to_string(id));
  }
}

TEST(LiveWriter, CrashRecoveryDropsUncommittedFiles) {
  TempDir dir("crash");
  IndexWriterOptions opts;
  opts.background_compaction = false;
  {
    auto w = IndexWriter::open(dir.path(), opts).value();
    w.add_document("u://0", "alpha beta");
    w.flush();
    w.add_document("u://1", "beta gamma");
    w.flush();
  }
  // Simulate a crash between segment write and manifest rename: a stray
  // segment pair on disk that no manifest names, plus a torn MANIFEST.tmp.
  const std::string stray_seg = live_segment_path(dir.path(), 99);
  const std::string stray_map = live_docmap_path(dir.path(), 99);
  write_file(stray_seg, std::vector<std::uint8_t>{'j', 'u', 'n', 'k'});
  write_file(stray_map, std::vector<std::uint8_t>{'j', 'u', 'n', 'k'});
  write_file(manifest_path(dir.path()) + ".tmp", std::vector<std::uint8_t>{0});

  auto w = IndexWriter::open(dir.path(), opts).value();
  EXPECT_EQ(w.committed_docs(), 2u);  // last committed snapshot, intact
  EXPECT_EQ(w.snapshot()->segment_count(), 2u);
  EXPECT_FALSE(file_exists(stray_seg));
  EXPECT_FALSE(file_exists(stray_map));
  EXPECT_FALSE(file_exists(manifest_path(dir.path()) + ".tmp"));
  // New commits keep working after recovery.
  w.add_document("u://2", "gamma delta");
  w.flush();
  EXPECT_EQ(w.snapshot()->doc_count(), 3u);
}

TEST(LiveWriter, CorruptManifestReportsStructuredError) {
  TempDir dir("badmanifest");
  {
    auto w = IndexWriter::open(dir.path(), {}).value();
    w.add_document("u://0", "alpha");
    w.flush();
  }
  auto bytes = read_file(manifest_path(dir.path()));
  bytes[bytes.size() / 2] ^= 0x40;  // flip a bit inside the CRC'd payload
  write_file(manifest_path(dir.path()), bytes);

  const auto writer = IndexWriter::open(dir.path(), {});
  ASSERT_FALSE(writer.has_value());
  EXPECT_EQ(writer.error().code, ErrorCode::kCorrupt);
  const auto index = LiveIndex::open(dir.path());
  ASSERT_FALSE(index.has_value());
  EXPECT_EQ(index.error().code, ErrorCode::kCorrupt);
}

TEST(LiveIndexOpen, MissingManifestReportsNotFound) {
  TempDir dir("nomanifest");
  const auto index = LiveIndex::open(dir.path());
  ASSERT_FALSE(index.has_value());
  EXPECT_EQ(index.error().code, ErrorCode::kNotFound);
}

// -------------------------------------------------- tiered compaction

TEST(LiveCompaction, TieredMergeFoldsAdjacentSegments) {
  TempDir dir("tiered");
  IndexWriterOptions opts;
  opts.background_compaction = false;
  opts.merge_factor = 2;
  opts.tier_base_bytes = 1 << 20;  // everything lands in tier 0
  auto w = IndexWriter::open(dir.path(), opts).value();
  for (std::uint32_t i = 0; i < 8; ++i) {
    w.add_document("u://" + std::to_string(i),
                   "common term" + std::to_string(i) + " filler words here");
    w.flush();
  }
  EXPECT_EQ(w.snapshot()->segment_count(), 8u);
  w.compact_now();
  const auto snap = w.snapshot();
  EXPECT_LT(snap->segment_count(), 8u);
  EXPECT_EQ(snap->doc_count(), 8u);
  // Every document is still findable, postings globally sorted.
  const auto hits = snap->lookup(normalize_term("common"));
  ASSERT_TRUE(hits.has_value());
  ASSERT_EQ(hits->doc_ids.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(hits->doc_ids[i], i);
  // Doc maps were rebased and folded along with the postings.
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto loc = snap->locate(i);
    ASSERT_TRUE(loc.has_value()) << i;
    EXPECT_EQ(loc->url, "u://" + std::to_string(i));
  }
  // Obsolete segment files are reclaimed once no snapshot holds them.
  std::size_t seg_files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.path())) {
    if (e.path().extension() == ".seg") ++seg_files;
  }
  EXPECT_EQ(seg_files, snap->segment_count());
}

TEST(LiveCompaction, OneFilePerSegmentThroughFlushConcatAndRewrite) {
  // Skip rows and Bloom filters live inside the segment file, so a flush,
  // a concatenation merge (no deletes) and a reclaiming rewrite leave only
  // segments, their doc maps, the MANIFEST and tombstone generations.
  TempDir dir("onefile");
  IndexWriterOptions opts;
  opts.background_compaction = false;
  opts.merge_factor = 2;
  opts.tier_base_bytes = 1 << 20;  // everything lands in tier 0
  auto w = IndexWriter::open(dir.path(), opts).value();
  const auto add_and_flush = [&w](std::uint32_t i) {
    w.add_document("u://" + std::to_string(i),
                   "common term" + std::to_string(i) + " filler words here");
    ASSERT_TRUE(w.flush().has_value());
  };
  for (std::uint32_t i = 0; i < 4; ++i) add_and_flush(i);
  ASSERT_TRUE(w.compact_now().has_value());  // concatenation only
  EXPECT_EQ(w.metrics().snapshot().counter("compaction_reclaimed_docs_total"), 0u);
  ASSERT_TRUE(w.delete_document(1).has_value());
  for (std::uint32_t i = 4; i < 6; ++i) add_and_flush(i);
  ASSERT_TRUE(w.compact_now().has_value());  // reclaims doc 1: a rewrite
  EXPECT_EQ(w.metrics().snapshot().counter("compaction_reclaimed_docs_total"), 1u);

  const auto snap = w.snapshot();
  for (const auto& e : std::filesystem::directory_iterator(dir.path())) {
    const std::string name = e.path().filename().string();
    const std::string ext = e.path().extension().string();
    const bool seg_file = name.rfind("seg-", 0) == 0 && (ext == ".seg" || ext == ".docmap");
    EXPECT_TRUE(seg_file || name == "MANIFEST" || name.rfind("tomb-", 0) == 0) << name;
  }
  const auto hits = snap->lookup(normalize_term("common"));
  ASSERT_TRUE(hits.has_value());
  EXPECT_EQ(hits->doc_ids, (std::vector<std::uint32_t>{0, 2, 3, 4, 5}));
}

TEST(LiveCompaction, RangeLookupSkipsNonOverlappingSegments) {
  TempDir dir("range");
  IndexWriterOptions opts;
  opts.background_compaction = false;
  auto w = IndexWriter::open(dir.path(), opts).value();
  for (std::uint32_t i = 0; i < 6; ++i) {
    w.add_document("u://" + std::to_string(i), "shared unique" + std::to_string(i));
    if (i % 2 == 1) w.flush();  // two docs per segment -> 3 segments
  }
  const auto snap = w.snapshot();
  ASSERT_EQ(snap->segment_count(), 3u);
  std::size_t touched = 0;
  const auto hits = snap->lookup_range(normalize_term("shared"), 2, 3, &touched);
  ASSERT_TRUE(hits.has_value());
  EXPECT_EQ(hits->doc_ids, (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(touched, 1u);  // only the middle segment overlaps [2, 3]
}

// -------------------------------------------------- readers vs writer races

TEST(LiveConcurrency, QueriesRaceFlushAndCompaction) {
  TempDir corpus_dir("ccorpus");
  TempDir dir("conc");
  const auto corpus = make_corpus(corpus_dir.path(), 128 << 10, /*seed=*/0xFACE);

  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 8 << 10;  // flush roughly every few docs
  opts.tier_base_bytes = 4 << 10;
  opts.merge_factor = 2;
  opts.background_compaction = true;
  auto w = IndexWriter::open(dir.path(), opts).value();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  auto reader = [&] {
    std::uint64_t last_docs = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = w.snapshot();  // lock-free grab, then frozen state
      // Committed doc count never goes backwards across snapshots.
      EXPECT_GE(snap->doc_count(), last_docs);
      last_docs = snap->doc_count();
      std::uint64_t expected = 0;
      for (const auto& seg : snap->segments()) expected += seg->doc_count();
      if (snap->memtable() != nullptr) expected += snap->memtable()->doc_count();
      EXPECT_EQ(snap->total_docs(), expected);
      EXPECT_EQ(snap->doc_count(), expected - snap->deleted_docs());
      snap->for_each_term([&](std::string_view term) {
        const auto hits = snap->lookup(term);
        EXPECT_TRUE(hits.has_value());
        // Disjoint ascending segments -> globally sorted, unique doc ids.
        for (std::size_t i = 1; i < hits->doc_ids.size(); ++i) {
          EXPECT_LT(hits->doc_ids[i - 1], hits->doc_ids[i]);
        }
        return reads.fetch_add(1, std::memory_order_relaxed) % 64 != 63;
      });
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);
  for (const auto& doc : corpus.docs) w.add_document(doc.url, doc.body);
  w.flush();
  w.compact_now();
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(w.snapshot()->doc_count(), corpus.docs.size());
}

// ----------------------------- mutable index: memtable, deletes, updates

/// Splits a test body into the tokens the parser indexes: split on single
/// spaces (the synthetic bodies below make tokenization trivial), then the
/// same normalization the indexer applies (lowercase + Porter stem).
std::vector<std::string> split_tokens(const std::string& body) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start < body.size()) {
    const auto end = body.find(' ', start);
    const auto stop = end == std::string::npos ? body.size() : end;
    if (stop > start) {
      tokens.push_back(normalize_term(body.substr(start, stop - start)));
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return tokens;
}

/// The writer-side reference model of one document for brute-force checks.
struct RefDoc {
  std::string url;
  std::vector<std::string> tokens;
  bool alive = false;
};

std::uint32_t ref_tf(const RefDoc& doc, const std::string& term) {
  std::uint32_t tf = 0;
  for (const auto& t : doc.tokens) {
    if (t == term) ++tf;
  }
  return tf;
}

/// Brute-force tf-ranked reference for the boolean modes: every alive doc
/// matching per `conjunctive`, scored by summed tf, sorted exactly like
/// the production tie-break (score desc, doc id asc).
std::vector<ScoredDoc> brute_force_tf(const std::vector<RefDoc>& ref,
                                      const std::vector<std::string>& terms,
                                      bool conjunctive, std::size_t k) {
  std::vector<ScoredDoc> hits;
  for (std::uint32_t id = 0; id < ref.size(); ++id) {
    if (!ref[id].alive) continue;
    std::uint64_t sum = 0;
    bool all = true;
    bool any = false;
    for (const auto& term : terms) {
      const auto tf = ref_tf(ref[id], term);
      sum += tf;
      all = all && tf > 0;
      any = any || tf > 0;
    }
    if (conjunctive ? all : any) hits.push_back({id, static_cast<double>(sum)});
  }
  std::sort(hits.begin(), hits.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

TEST(LiveMutable, MemtableDocsSearchableBeforeAnyFlush) {
  TempDir dir("memvis");
  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;  // never auto-flush
  opts.background_compaction = false;
  auto w = IndexWriter::open(dir.path(), opts).value();
  const auto searcher_ptr =
      Searcher::open(SearchSource::live([&w] { return w.snapshot(); })).value();
  const Searcher& searcher = *searcher_ptr;

  EXPECT_EQ(w.add_document("u://0", "zebra quokka zebra"), 0u);
  ASSERT_EQ(w.snapshot()->segment_count(), 0u);  // nothing hit disk yet

  QueryRequest req;
  req.query = Query::term(normalize_term("zebra"));
  const auto resp = searcher.search(req);
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp.value().hits.size(), 1u);
  EXPECT_EQ(resp.value().hits[0].doc_id, 0u);

  // The raw snapshot surface agrees: postings, stats, and the doc map row
  // are all served straight out of the memtable.
  const auto snap = w.snapshot();
  const auto hits = snap->lookup(normalize_term("zebra"));
  ASSERT_TRUE(hits.has_value());
  EXPECT_EQ(hits->doc_ids, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(hits->tfs, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(snap->doc_count(), 1u);
  const auto loc = snap->locate(0);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->url, "u://0");

  // A doc added after the Searcher was constructed is visible to the very
  // next query (the provider re-resolves the snapshot every call).
  EXPECT_EQ(w.add_document("u://1", "zebra"), 1u);
  const auto again = searcher.search(req);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again.value().hits.size(), 2u);
}

TEST(LiveMutable, DeleteHidesDocFromEveryModeAndTheResultCache) {
  TempDir dir("delmodes");
  IndexWriterOptions opts;
  opts.background_compaction = false;
  auto w = IndexWriter::open(dir.path(), opts).value();
  w.add_document("u://0", "apple banana");
  w.add_document("u://1", "apple banana cherry");
  w.add_document("u://2", "apple cherry");
  w.flush();
  w.add_document("u://3", "apple banana");  // memtable-resident

  const auto searcher_ptr =
      Searcher::open(SearchSource::live([&w] { return w.snapshot(); })).value();
  const Searcher& searcher = *searcher_ptr;
  const auto run = [&](Query (*make)(std::vector<std::string>), bool exhaustive) {
    QueryRequest req;
    req.query = make({normalize_term("apple"), normalize_term("banana")});
    req.exhaustive = exhaustive;
    auto resp = searcher.search(req);
    EXPECT_TRUE(resp.has_value());
    return std::move(resp).value();
  };
  struct Mode {
    const char* name;
    Query (*make)(std::vector<std::string>);
  };
  const std::vector<Mode> modes = {{"bag", &Query::bag},
                                   {"conjunction", &Query::conjunction},
                                   {"disjunction", &Query::disjunction}};
  // Warm the result cache with every mode while all four docs are alive.
  for (const auto& mode : modes) {
    const auto resp = run(mode.make, /*exhaustive=*/false);
    bool saw = false;
    for (const auto& hit : resp.hits) saw = saw || hit.doc_id == 1;
    EXPECT_TRUE(saw) << mode.name;
  }

  // Delete a flushed doc and a memtable-only doc. Both must vanish from
  // every mode immediately — including queries the cache answered a moment
  // ago (each delete publishes a new snapshot id, rolling every cache key).
  ASSERT_TRUE(w.delete_document(1).has_value());
  ASSERT_TRUE(w.delete_document(3).has_value());
  EXPECT_EQ(w.deleted_docs(), 2u);
  for (const auto& mode : modes) {
    for (const bool exhaustive : {false, true}) {
      const auto resp = run(mode.make, exhaustive);
      EXPECT_FALSE(resp.hits.empty()) << mode.name;
      for (const auto& hit : resp.hits) {
        EXPECT_NE(hit.doc_id, 1u) << mode.name << " ex=" << exhaustive;
        EXPECT_NE(hit.doc_id, 3u) << mode.name << " ex=" << exhaustive;
      }
    }
  }

  // Deleting an id the writer never assigned is rejected outright.
  const auto bad = w.delete_document(1000);
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().code, ErrorCode::kInvalidArgument);
  // Re-deleting is an idempotent no-op (no new tombstone generation).
  ASSERT_TRUE(w.delete_document(1).has_value());
  EXPECT_EQ(w.deleted_docs(), 2u);
}

TEST(LiveMutable, UpdateReplacesDocumentUnderANewId) {
  TempDir dir("update");
  IndexWriterOptions opts;
  opts.background_compaction = false;
  auto w = IndexWriter::open(dir.path(), opts).value();
  EXPECT_EQ(w.add_document("u://0", "stale words here"), 0u);
  w.flush();

  const auto updated = w.update_document(0, "u://0", "fresh words here");
  ASSERT_TRUE(updated.has_value());
  EXPECT_EQ(updated.value(), 1u);  // update = delete + re-add, fresh id

  const auto snap = w.snapshot();
  EXPECT_EQ(snap->doc_count(), 1u);
  EXPECT_EQ(snap->total_docs(), 2u);
  EXPECT_EQ(snap->deleted_docs(), 1u);
  EXPECT_TRUE(snap->is_deleted(0));

  const auto searcher_ptr = Searcher::open(SearchSource::snapshot(snap)).value();
  const Searcher& searcher = *searcher_ptr;
  QueryRequest req;
  req.query = Query::term(normalize_term("stale"));
  auto resp = searcher.search(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp.value().hits.empty());
  req.query = Query::term(normalize_term("fresh"));
  resp = searcher.search(req);
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp.value().hits.size(), 1u);
  EXPECT_EQ(resp.value().hits[0].doc_id, 1u);

  // Updating an already-deleted doc still works: the delete half is an
  // idempotent no-op and the re-add proceeds under the next fresh id.
  const auto again = w.update_document(0, "u://0", "even fresher");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(w.snapshot()->doc_count(), 2u);
}

TEST(LiveMutable, DeletesSurviveReopenAndPhantomTombstonesDoNot) {
  TempDir dir("delreopen");
  IndexWriterOptions opts;
  opts.background_compaction = false;
  {
    auto w = IndexWriter::open(dir.path(), opts).value();
    w.add_document("u://0", "alpha beta");
    w.add_document("u://1", "beta gamma");
    w.flush();
    ASSERT_TRUE(w.delete_document(0).has_value());
    // Tombstone a memtable-only doc, then "crash" before it flushes: the
    // destructor drops the buffered doc, leaving a durable tombstone for
    // an id that was never committed.
    w.add_document("u://2", "gamma delta");
    ASSERT_TRUE(w.delete_document(2).has_value());
  }
  auto w = IndexWriter::open(dir.path(), opts).value();
  // The committed delete survived the reopen...
  EXPECT_EQ(w.deleted_docs(), 1u);
  EXPECT_TRUE(w.snapshot()->is_deleted(0));
  // ...and the phantom bit above next_doc_id was truncated during
  // recovery, so the reassigned id is not born dead.
  EXPECT_EQ(w.add_document("u://2b", "delta epsilon"), 2u);
  const auto snap = w.snapshot();
  EXPECT_FALSE(snap->is_deleted(2));
  const auto hits = snap->lookup(normalize_term("delta"));
  ASSERT_TRUE(hits.has_value());
  EXPECT_EQ(hits->doc_ids, (std::vector<std::uint32_t>{2}));
}

TEST(LiveMutable, RandomizedAddDeleteUpdateMatchesBruteForce) {
  TempDir dir("fuzz");
  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 2 << 10;  // auto-flush every few docs
  opts.tier_base_bytes = 1 << 10;
  opts.merge_factor = 2;
  opts.background_compaction = false;  // compacted at checkpoints below
  auto w = IndexWriter::open(dir.path(), opts).value();
  const auto searcher_ptr =
      Searcher::open(SearchSource::live([&w] { return w.snapshot(); })).value();
  const Searcher& searcher = *searcher_ptr;

  const std::vector<std::string> vocab = {
      "alder", "birch", "cedar", "dogwood", "elm",    "fir",
      "ginkgo", "hazel", "ivy",   "juniper", "katsura", "larch"};
  std::mt19937 rng(0xD1CE5);
  std::vector<RefDoc> ref;  // indexed by doc id, mirrors the writer
  const auto alive_ids = [&] {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < ref.size(); ++id) {
      if (ref[id].alive) ids.push_back(id);
    }
    return ids;
  };
  const auto make_body = [&] {
    std::string body;
    const std::size_t len = 3 + rng() % 12;
    for (std::size_t i = 0; i < len; ++i) {
      if (!body.empty()) body += ' ';
      body += vocab[rng() % vocab.size()];
    }
    return body;
  };
  const auto check = [&] {
    // A couple of random boolean queries against the brute-force model;
    // ranked mode is additionally diffed exhaustive-vs-pruned.
    for (int q = 0; q < 3; ++q) {
      QueryRequest req;
      std::vector<std::string> pair = {normalize_term(vocab[rng() % vocab.size()]),
                                       normalize_term(vocab[rng() % vocab.size()])};
      if (pair[0] == pair[1]) pair.pop_back();
      req.k = 1u << 20;  // everything: the whole ranking must match
      req.use_result_cache = false;
      for (const bool conjunctive : {true, false}) {
        req.query = conjunctive ? Query::conjunction(pair) : Query::disjunction(pair);
        const auto resp = searcher.search(req);
        ASSERT_TRUE(resp.has_value());
        const auto expected = brute_force_tf(ref, pair, conjunctive, req.k);
        ASSERT_EQ(resp.value().hits.size(), expected.size())
            << (conjunctive ? "conjunction" : "disjunction");
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(resp.value().hits[i].doc_id, expected[i].doc_id) << i;
          EXPECT_EQ(resp.value().hits[i].score, expected[i].score) << i;
        }
      }
      req.query = Query::bag(pair);
      req.k = 16;
      req.exhaustive = true;
      const auto exhaustive = searcher.search(req);
      req.exhaustive = false;
      const auto pruned = searcher.search(req);
      ASSERT_TRUE(exhaustive.has_value());
      ASSERT_TRUE(pruned.has_value());
      ASSERT_EQ(exhaustive.value().hits.size(), pruned.value().hits.size());
      for (std::size_t i = 0; i < pruned.value().hits.size(); ++i) {
        EXPECT_EQ(exhaustive.value().hits[i].doc_id, pruned.value().hits[i].doc_id);
        EXPECT_EQ(exhaustive.value().hits[i].score, pruned.value().hits[i].score);
        EXPECT_TRUE(ref[pruned.value().hits[i].doc_id].alive);
      }
    }
  };

  for (int step = 0; step < 320; ++step) {
    const auto alive = alive_ids();
    const auto op = rng() % 10;
    if (op < 6 || alive.empty()) {
      const auto body = make_body();
      const auto url = "u://" + std::to_string(ref.size());
      const auto id = w.add_document(url, body);
      ASSERT_EQ(id, ref.size());
      ref.push_back({url, split_tokens(body), true});
    } else if (op < 8) {
      const auto victim = alive[rng() % alive.size()];
      ASSERT_TRUE(w.delete_document(victim).has_value());
      ref[victim].alive = false;
    } else {
      const auto victim = alive[rng() % alive.size()];
      const auto body = make_body();
      const auto url = "u://" + std::to_string(ref.size()) + "v2";
      const auto id = w.update_document(victim, url, body);
      ASSERT_TRUE(id.has_value());
      ASSERT_EQ(id.value(), ref.size());
      ref[victim].alive = false;
      ref.push_back({url, split_tokens(body), true});
    }
    if (step % 80 == 79) {
      w.flush();
      w.compact_now();  // physical reclaim mid-stream must not change answers
    }
    if (step % 40 == 19) check();
  }
  w.flush();
  w.compact_now();
  check();

  const auto snap = w.snapshot();
  std::uint64_t alive_count = 0;
  for (const auto& doc : ref) alive_count += doc.alive ? 1 : 0;
  EXPECT_EQ(snap->doc_count(), alive_count);
  EXPECT_EQ(snap->total_docs(), ref.size());
}

TEST(LiveMutable, ReclaimedIndexRanksBitIdenticallyToFreshBuildOfSurvivors) {
  TempDir corpus_dir("rcorpus");
  TempDir live_dir("rlive");
  TempDir fresh_dir("rfresh");
  const auto corpus = make_corpus(corpus_dir.path(), 128 << 10, /*seed=*/0xFEED);
  ASSERT_GT(corpus.docs.size(), 24u);

  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  auto w = IndexWriter::open(live_dir.path(), opts).value();
  for (std::size_t i = 0; i < corpus.docs.size(); ++i) {
    w.add_document(corpus.docs[i].url, corpus.docs[i].body);
    if (i % 16 == 15) w.flush();
  }
  w.flush();
  std::vector<std::uint32_t> survivors;
  for (std::uint32_t id = 0; id < corpus.docs.size(); ++id) {
    if (id % 3 == 0) {
      ASSERT_TRUE(w.delete_document(id).has_value());
    } else {
      survivors.push_back(id);
    }
  }
  w.compact_now();  // full physical reclaim

  // Reclaim proof: no raw postings list mentions a tombstoned doc anymore.
  const auto snap = w.snapshot();
  snap->for_each_term([&](std::string_view term) {
    const auto hits = snap->lookup(term);
    EXPECT_TRUE(hits.has_value());
    for (const auto doc : hits->doc_ids) {
      EXPECT_NE(doc % 3, 0u) << "unreclaimed posting for " << term;
    }
    return true;
  });

  // A fresh index built from only the survivors, in the same order.
  auto fresh = IndexWriter::open(fresh_dir.path(), opts).value();
  for (const auto id : survivors) {
    fresh.add_document(corpus.docs[id].url, corpus.docs[id].body);
  }
  fresh.flush();
  fresh.compact_now();
  const auto fresh_snap = fresh.snapshot();
  EXPECT_EQ(snap->doc_count(), fresh_snap->doc_count());

  // Rankings must be bit-identical: same scores (exact double equality),
  // same docs modulo the survivor id remap, both executors.
  std::vector<std::string> terms;
  snap->for_each_term([&](std::string_view term) {
    terms.emplace_back(term);
    return true;
  });
  const auto live_ptr = Searcher::open(SearchSource::snapshot(snap)).value();
  const auto fresh_ptr =
      Searcher::open(SearchSource::snapshot(fresh_snap)).value();
  const Searcher& live_searcher = *live_ptr;
  const Searcher& fresh_searcher = *fresh_ptr;
  std::mt19937 rng(7);
  for (int q = 0; q < 24; ++q) {
    QueryRequest req;
    req.query = Query::bag({terms[rng() % terms.size()], terms[rng() % terms.size()],
                            terms[rng() % terms.size()]});
    req.k = 10;
    for (const bool exhaustive : {false, true}) {
      req.exhaustive = exhaustive;
      const auto live_resp = live_searcher.search(req);
      const auto fresh_resp = fresh_searcher.search(req);
      ASSERT_TRUE(live_resp.has_value());
      ASSERT_TRUE(fresh_resp.has_value());
      const auto& live_hits = live_resp.value().hits;
      const auto& fresh_hits = fresh_resp.value().hits;
      ASSERT_EQ(live_hits.size(), fresh_hits.size()) << "query " << q;
      for (std::size_t i = 0; i < live_hits.size(); ++i) {
        const auto it = std::lower_bound(survivors.begin(), survivors.end(),
                                         live_hits[i].doc_id);
        ASSERT_TRUE(it != survivors.end() && *it == live_hits[i].doc_id);
        const auto remapped =
            static_cast<std::uint32_t>(it - survivors.begin());
        EXPECT_EQ(remapped, fresh_hits[i].doc_id) << "query " << q << " hit " << i;
        EXPECT_EQ(live_hits[i].score, fresh_hits[i].score) << "query " << q << " hit " << i;
      }
    }
  }
}

TEST(LiveConcurrency, SearchesRaceDeletesFlushAndCompaction) {
  TempDir corpus_dir("dcorpus");
  TempDir dir("dconc");
  const auto corpus = make_corpus(corpus_dir.path(), 96 << 10, /*seed=*/0xDEAD);

  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 8 << 10;
  opts.tier_base_bytes = 4 << 10;
  opts.merge_factor = 2;
  opts.background_compaction = true;
  auto w = IndexWriter::open(dir.path(), opts).value();
  const auto searcher_ptr =
      Searcher::open(SearchSource::live([&w] { return w.snapshot(); })).value();
  const Searcher& searcher = *searcher_ptr;

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  auto reader = [&] {
    std::mt19937 rng(std::hash<std::thread::id>{}(std::this_thread::get_id()));
    std::uint64_t last_total = 0;
    std::uint64_t last_deleted = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = w.snapshot();
      // The id space and the tombstone set only ever grow.
      EXPECT_GE(snap->total_docs(), last_total);
      EXPECT_GE(snap->deleted_docs(), last_deleted);
      last_total = snap->total_docs();
      last_deleted = snap->deleted_docs();
      EXPECT_EQ(snap->doc_count(), snap->total_docs() - snap->deleted_docs());
      // Exercise the full search stack (memtable cursors, tombstone
      // filter, stats, caches) against whatever snapshot is current.
      std::vector<std::string> terms;
      snap->for_each_term([&](std::string_view term) {
        terms.emplace_back(term);
        return terms.size() < 8;
      });
      if (terms.empty()) continue;
      QueryRequest req;
      std::vector<std::string> pair = {terms[rng() % terms.size()],
                                       terms[rng() % terms.size()]};
      req.query = rng() % 2 == 0 ? Query::bag(std::move(pair))
                                 : Query::disjunction(std::move(pair));
      const auto resp = searcher.search(req);
      EXPECT_TRUE(resp.has_value());
      answered.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);
  std::mt19937 rng(99);
  std::uint32_t added = 0;
  for (const auto& doc : corpus.docs) {
    w.add_document(doc.url, doc.body);
    ++added;
    if (added % 7 == 0) {
      // Delete a random already-assigned doc; racing readers must never
      // see it resurface once their snapshot includes the tombstone.
      ASSERT_TRUE(w.delete_document(rng() % added).has_value());
    } else if (added % 11 == 0) {
      const auto id = w.update_document(rng() % added, doc.url + "#v2", doc.body);
      ASSERT_TRUE(id.has_value());
      ++added;  // the re-add consumed an id
    }
  }
  w.flush();
  w.compact_now();
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_GT(answered.load(), 0u);
  const auto snap = w.snapshot();
  EXPECT_EQ(snap->doc_count(), snap->total_docs() - snap->deleted_docs());
}

// -------------------------------------------------- DocMap offset/rebase

TEST(DocMapRebase, NonZeroBaseRoundTripsThroughV2Header) {
  TempDir dir("dmv2");
  const std::string path = dir.path() + "/m.docmap";
  DocMapBuilder builder(/*doc_id_base=*/100);
  builder.add_file(100, /*file_seq=*/7, {"u://a", "u://b"}, {3, 4});
  EXPECT_EQ(builder.base(), 100u);
  EXPECT_EQ(builder.doc_count(), 2u);
  builder.write(path);

  const auto map = DocMap::open(path);
  EXPECT_EQ(map.base(), 100u);
  EXPECT_EQ(map.doc_count(), 2u);
  EXPECT_FALSE(map.contains(99));
  EXPECT_TRUE(map.contains(101));
  EXPECT_FALSE(map.contains(102));
  EXPECT_EQ(map.location(100).url, "u://a");
  EXPECT_EQ(map.location(101).token_count, 4u);
  EXPECT_EQ(map.location(101).file_seq, 7u);
}

TEST(DocMapRebase, AppendFoldsAdjacentMapsPreservingIds) {
  TempDir dir("dmfold");
  const std::string a_path = dir.path() + "/a.docmap";
  const std::string b_path = dir.path() + "/b.docmap";
  const std::string merged_path = dir.path() + "/m.docmap";
  DocMapBuilder a(0);
  a.add_file(0, 1, {"u://0", "u://1", "u://2"}, {5, 6, 7});
  a.write(a_path);
  DocMapBuilder b(3);
  b.add_file(3, 2, {"u://3", "u://4"}, {8, 9});
  b.write(b_path);

  DocMapBuilder merged(0);
  merged.append(DocMap::open(a_path));
  merged.append(DocMap::open(b_path));
  merged.write(merged_path);

  const auto map = DocMap::open(merged_path);
  EXPECT_EQ(map.base(), 0u);
  EXPECT_EQ(map.doc_count(), 5u);
  for (std::uint32_t id = 0; id < 5; ++id) {
    EXPECT_EQ(map.location(id).url, "u://" + std::to_string(id)) << id;
  }
  EXPECT_EQ(map.location(2).file_seq, 1u);  // grouping survives the fold
  EXPECT_EQ(map.location(3).file_seq, 2u);
  EXPECT_EQ(map.location(4).token_count, 9u);
}

}  // namespace
}  // namespace hetindex
