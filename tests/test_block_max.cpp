// Block-Max pruning equivalence suite (ISSUE: block-based postings).
//
// Three layers of coverage:
//   cursors    the PostingsCursor state machine — segment (skip-table),
//              decoded, and concatenated backends must agree posting for
//              posting under identical next/seek/shallow_seek sequences,
//              and block bounds must dominate every real contribution
//   executor   Block-Max MaxScore == the exhaustive scorer, bit-identical
//              docs and scores, across batch / live / merged segments
//   plumbing   a compacted segment equals add_postings of the decoded
//              union of its inputs byte for byte, a corrupt segment fails
//              the open,
//              cursors carry exact list-level max tfs, and pruning provably
//              fires (search_blocks_skipped_total > 0) on a prunable
//              workload
//
// Runs under both the TSan and ASan tier-1 legs (scripts/tier1.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/hetindex.hpp"
#include "oracle/list_ops.hpp"
#include "postings/cursor.hpp"
#include "search/topk.hpp"
#include "util/binary_io.hpp"

namespace hetindex {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("hetindex_bmax_" + tag + "_" + std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

/// A random strictly-increasing postings list spanning several blocks.
QueryPostings random_list(std::uint64_t seed, std::size_t n, std::uint32_t doc_span) {
  std::mt19937 rng(static_cast<std::uint32_t>(seed));
  std::set<std::uint32_t> ids;
  while (ids.size() < n) ids.insert(rng() % doc_span);
  QueryPostings p;
  for (auto id : ids) {
    p.doc_ids.push_back(id);
    p.tfs.push_back(1 + rng() % 9);
  }
  return p;
}

struct BlockedList {
  std::vector<std::uint8_t> blob;
  std::vector<PostingBlockEntry> entries;
};

BlockedList encode_blocked(const QueryPostings& p) {
  BlockedList out;
  out.blob = encode_postings_blocked(PostingCodec::kVByte, p.doc_ids, p.tfs, {}, &out.entries);
  return out;
}

std::unique_ptr<PostingsCursor> segment_cursor(const BlockedList& l) {
  return make_segment_cursor(l.blob.data(), l.blob.size(), l.entries.data(),
                             l.entries.size(), nullptr);
}

std::unique_ptr<PostingsCursor> decoded_cursor(const QueryPostings& p) {
  return make_decoded_cursor(std::make_shared<const QueryPostings>(p));
}

// ------------------------------------------------------ cursor state machine

TEST(Cursor, SegmentCursorWalksWholeList) {
  const auto list = random_list(1, 700, 100000);
  const auto enc = encode_blocked(list);
  auto c = segment_cursor(enc);
  EXPECT_EQ(c->size(), list.doc_ids.size());
  EXPECT_EQ(c->last_doc(), list.doc_ids.back());
  EXPECT_TRUE(c->valid());
  EXPECT_FALSE(c->positioned());  // fresh cursors are shallow
  c->seek(0);
  for (std::size_t i = 0; i < list.doc_ids.size(); ++i) {
    ASSERT_TRUE(c->valid() && c->positioned()) << i;
    EXPECT_EQ(c->docid(), list.doc_ids[i]);
    EXPECT_EQ(c->tf(), list.tfs[i]);
    c->next();
  }
  EXPECT_FALSE(c->valid());
}

TEST(Cursor, SeekLandsOnLowerBound) {
  const auto list = random_list(2, 500, 50000);
  const auto enc = encode_blocked(list);
  auto c = segment_cursor(enc);
  std::mt19937 rng(3);
  std::uint32_t target = 0;
  while (true) {
    target += rng() % 400;
    c->seek(target);
    const auto it =
        std::lower_bound(list.doc_ids.begin(), list.doc_ids.end(), target);
    if (it == list.doc_ids.end()) {
      EXPECT_FALSE(c->valid());
      break;
    }
    ASSERT_TRUE(c->positioned());
    EXPECT_EQ(c->docid(), *it) << "target " << target;
    const auto i = static_cast<std::size_t>(it - list.doc_ids.begin());
    EXPECT_EQ(c->tf(), list.tfs[i]);
  }
}

TEST(Cursor, BackendsAgreeUnderRandomOperations) {
  const auto list = random_list(4, 800, 200000);
  const auto enc = encode_blocked(list);
  auto a = segment_cursor(enc);
  auto b = decoded_cursor(list);
  std::mt19937 rng(5);
  a->seek(0);
  b->seek(0);
  while (a->valid() && b->valid()) {
    ASSERT_EQ(a->positioned(), b->positioned());
    if (a->positioned()) {
      ASSERT_EQ(a->docid(), b->docid());
      ASSERT_EQ(a->tf(), b->tf());
    }
    ASSERT_EQ(a->block_last_doc(), b->block_last_doc());
    ASSERT_EQ(a->block_max_tf(), b->block_max_tf());
    ASSERT_EQ(a->docs_in_block(), b->docs_in_block());
    switch (rng() % 3) {
      case 0:
        if (a->positioned()) {
          a->next();
          b->next();
        } else {
          a->seek(0);
          b->seek(0);
        }
        break;
      case 1: {
        const std::uint32_t t =
            (a->positioned() ? a->docid() : 0) + rng() % 1000;
        a->seek(t);
        b->seek(t);
        break;
      }
      default: {
        const std::uint32_t t =
            (a->positioned() ? a->docid() : 0) + rng() % 2000;
        a->shallow_seek(t);
        b->shallow_seek(t);
        break;
      }
    }
  }
  EXPECT_EQ(a->valid(), b->valid());
}

TEST(Cursor, LongSeekSkipsBlocksWithoutDecoding) {
  const auto list = random_list(6, 1000, 1000000);
  const auto enc = encode_blocked(list);
  ASSERT_GT(enc.entries.size(), 4u);
  auto c = segment_cursor(enc);
  c->seek(list.doc_ids.back());  // jump over everything but the last block
  ASSERT_TRUE(c->positioned());
  EXPECT_EQ(c->docid(), list.doc_ids.back());
  EXPECT_GE(c->blocks_skipped(), enc.entries.size() - 1);
}

TEST(Cursor, BlockMaxScoreDominatesEveryContribution) {
  const auto list = random_list(7, 600, 80000);
  const auto enc = encode_blocked(list);
  auto c = segment_cursor(enc);
  const Bm25Params params;
  const double idf = bm25_idf(list.doc_ids.size(), 100000);
  c->set_score_params(idf, params);
  c->seek(0);
  while (c->valid()) {
    const double bound = c->block_max_score();
    const std::uint32_t last = c->block_last_doc();
    while (c->positioned() && c->docid() <= last) {
      // Any document length: the bound drops the length term entirely.
      const double real = bm25_contribution(idf, c->tf(), 50.0, 100.0, params);
      EXPECT_LE(real, bound + 1e-12);
      c->next();
      if (!c->valid()) return;
    }
  }
}

TEST(Cursor, ConcatChainsDisjointParts) {
  QueryPostings full;
  std::vector<std::unique_ptr<PostingsCursor>> parts;
  std::uint32_t base = 0;
  for (int s = 0; s < 3; ++s) {
    auto part = random_list(10 + s, 200, 5000);
    for (auto& d : part.doc_ids) d += base;
    base += 6000;
    full.doc_ids.insert(full.doc_ids.end(), part.doc_ids.begin(), part.doc_ids.end());
    full.tfs.insert(full.tfs.end(), part.tfs.begin(), part.tfs.end());
    parts.push_back(decoded_cursor(part));
  }
  auto c = make_concat_cursor(std::move(parts));
  EXPECT_EQ(c->size(), full.doc_ids.size());
  EXPECT_EQ(c->last_doc(), full.doc_ids.back());
  // Walk…
  c->seek(0);
  for (std::size_t i = 0; i < full.doc_ids.size(); ++i) {
    ASSERT_TRUE(c->positioned()) << i;
    EXPECT_EQ(c->docid(), full.doc_ids[i]);
    EXPECT_EQ(c->tf(), full.tfs[i]);
    c->next();
  }
  EXPECT_FALSE(c->valid());
  // …and seek across part boundaries.
  auto seeker = make_concat_cursor([&] {
    std::vector<std::unique_ptr<PostingsCursor>> ps;
    std::uint32_t b = 0;
    for (int s = 0; s < 3; ++s) {
      auto part = random_list(10 + s, 200, 5000);
      for (auto& d : part.doc_ids) d += b;
      b += 6000;
      ps.push_back(decoded_cursor(part));
    }
    return ps;
  }());
  std::mt19937 rng(12);
  std::uint32_t target = 0;
  while (true) {
    target += rng() % 1500;
    seeker->seek(target);
    const auto it = std::lower_bound(full.doc_ids.begin(), full.doc_ids.end(), target);
    if (it == full.doc_ids.end()) {
      EXPECT_FALSE(seeker->valid());
      break;
    }
    ASSERT_TRUE(seeker->positioned());
    EXPECT_EQ(seeker->docid(), *it) << "target " << target;
  }
}

TEST(Cursor, MaterializeRoundTrips) {
  const auto list = random_list(13, 400, 30000);
  const auto enc = encode_blocked(list);
  auto c = segment_cursor(enc);
  const auto out = oracle::materialize_cursor(*c);
  EXPECT_EQ(out.doc_ids, list.doc_ids);
  EXPECT_EQ(out.tfs, list.tfs);
}

// ----------------------------------------- executor equivalence, all stacks

std::vector<std::vector<std::string>> sample_queries(
    const std::vector<std::string>& vocabulary, std::size_t count, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, vocabulary.size() - 1);
  std::uniform_int_distribution<std::size_t> arity(1, 5);
  std::vector<std::vector<std::string>> queries;
  queries.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    std::vector<std::string> terms;
    const std::size_t n = arity(rng);
    for (std::size_t t = 0; t < n; ++t) terms.push_back(vocabulary[pick(rng)]);
    queries.push_back(std::move(terms));
  }
  return queries;
}

/// Bit-identical docs and scores between the pruned and exhaustive engines.
void expect_identical_rankings(const Searcher& searcher,
                               const std::vector<std::vector<std::string>>& queries,
                               std::size_t k) {
  for (const auto& terms : queries) {
    QueryRequest fast;
    fast.query = Query::bag(terms);
    fast.k = k;
    fast.use_result_cache = false;
    QueryRequest slow = fast;
    slow.exhaustive = true;
    const auto a = searcher.search(fast);
    const auto b = searcher.search(slow);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    ASSERT_EQ(a.value().hits.size(), b.value().hits.size());
    for (std::size_t i = 0; i < a.value().hits.size(); ++i) {
      ASSERT_EQ(a.value().hits[i].doc_id, b.value().hits[i].doc_id)
          << "rank " << i << " k=" << k;
      ASSERT_EQ(a.value().hits[i].score, b.value().hits[i].score)
          << "rank " << i << " k=" << k;
    }
  }
}

/// A multi-segment live index over a synthetic corpus; queries drawn from
/// its own vocabulary.
struct LiveStack {
  std::unique_ptr<TempDir> corpus_dir;
  std::unique_ptr<TempDir> live_dir;
  std::unique_ptr<IndexWriter> writer;
  std::vector<std::string> vocab;
};

LiveStack build_live_stack(std::uint64_t seed) {
  LiveStack s;
  s.corpus_dir = std::make_unique<TempDir>("corpus");
  s.live_dir = std::make_unique<TempDir>("live");
  CollectionSpec spec = wikipedia_like();
  spec.total_bytes = 128 << 10;
  spec.seed = seed;
  const auto coll = generate_collection(spec, s.corpus_dir->path());
  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  s.writer = std::make_unique<IndexWriter>(
      IndexWriter::open(s.live_dir->path(), opts).value());
  std::mt19937 rng(9);
  for (const auto& file : coll.paths()) {
    for (const auto& doc : container_read(file)) {
      s.writer->add_document(doc.url, doc.body);
      if (rng() % 11 == 0) s.writer->flush();
    }
  }
  s.writer->flush();
  s.writer->snapshot()->for_each_term([&s](std::string_view term) {
    s.vocab.emplace_back(term);
    return true;
  });
  return s;
}

TEST(BlockMaxEquivalence, LiveThenMerged) {
  auto stack = build_live_stack(0xB10C);
  const auto queries = sample_queries(stack.vocab, 30, 21);

  const auto multi = stack.writer->snapshot();
  ASSERT_GT(multi->segments().size(), 1u);
  {  // flushed segments: zero-copy block cursors end to end
    const auto searcher_ptr = Searcher::open(SearchSource::snapshot(multi)).value();
    const Searcher& searcher = *searcher_ptr;
    expect_identical_rankings(searcher, queries, 10);
    expect_identical_rankings(searcher, queries, 1);
  }

  // Merged: compaction decodes each term's parts and re-blocks the union
  // list. Each merged segment must equal, byte for byte, add_postings of
  // the union the pre-merge snapshot serves over the same doc range.
  stack.writer->compact_now();
  const auto merged = stack.writer->snapshot();
  ASSERT_LT(merged->segments().size(), multi->segments().size());
  TempDir scratch("derived");
  for (const auto& seg : merged->segments()) {
    const SegmentReader& reader = seg->reader();
    const std::string derived_path = scratch.path() + "/" + std::to_string(seg->id()) + ".seg";
    SegmentWriter derived(derived_path, reader.codec());
    const std::uint32_t last = seg->doc_base() + seg->doc_count() - 1;
    for (const auto& term : stack.vocab) {
      const auto lists = multi->lookup_range(term, seg->doc_base(), last);
      if (lists && !lists->doc_ids.empty()) derived.add_postings(term, lists->doc_ids, lists->tfs);
    }
    ASSERT_TRUE(derived.finalize().has_value());
    EXPECT_EQ(read_file(reader.path()), read_file(derived_path)) << "segment " << seg->id();
  }
  const auto searcher_ptr = Searcher::open(SearchSource::snapshot(merged)).value();
  const Searcher& searcher = *searcher_ptr;
  expect_identical_rankings(searcher, queries, 10);
}

TEST(BlockMaxEquivalence, BatchIndexMatchesExhaustive) {
  TempDir corpus_dir("bcorpus");
  TempDir index_dir("bindex");
  CollectionSpec spec = wikipedia_like();
  spec.total_bytes = 128 << 10;
  spec.seed = 0xBA7C4;
  const auto coll = generate_collection(spec, corpus_dir.path());
  IndexBuilder builder;
  builder.parsers(1).cpu_indexers(1).emit_segment(true);
  builder.build(coll.paths(), index_dir.path());
  const auto index = InvertedIndex::open(index_dir.path(), {}).value();
  const auto docs = DocMap::open(doc_map_path(index_dir.path()));
  const auto searcher_ptr = Searcher::open(SearchSource::batch(index, docs)).value();
  const Searcher& searcher = *searcher_ptr;
  std::vector<std::string> vocab;
  index.for_each_term([&vocab](std::string_view t) { vocab.emplace_back(t); });
  for (const std::size_t k : {1u, 3u, 10u, 100u}) {
    expect_identical_rankings(searcher, sample_queries(vocab, 25, 31), k);
  }
}

TEST(BlockMax, CorruptSegmentFailsLiveOpen) {
  auto stack = build_live_stack(0xBAD);
  const auto snap = stack.writer->snapshot();
  const auto seg_path =
      live_segment_path(stack.live_dir->path(), snap->segments().front()->id());
  const auto size = std::filesystem::file_size(seg_path);
  std::fstream f(seg_path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(size / 2));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(static_cast<std::streamoff>(size / 2));
  byte = static_cast<char>(byte ^ 0x5A);
  f.write(&byte, 1);
  f.close();
  const auto reopened = LiveIndex::open(stack.live_dir->path());
  ASSERT_FALSE(reopened.has_value());
  EXPECT_EQ(reopened.error().code, ErrorCode::kCorrupt);
}

// ------------------------------------------------- pruning provably fires

TEST(BlockMax, SkipsBlocksOnPrunableWorkload) {
  // 3000 docs of a ubiquitous term; every 300th doc also holds a rare one.
  // Ranked {rare, common} k=1: the rare term is essential, the common list
  // (24 blocks) is only probed near the rare term's postings — whole
  // blocks in between are passed without decoding.
  TempDir dir("prune");
  std::vector<Document> docs;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    Document d;
    d.local_id = i;
    d.url = "http://x/" + std::to_string(i);
    d.body = i % 300 == 0 ? "rarebird common token" : "common token filler";
    docs.push_back(std::move(d));
  }
  const auto corpus = dir.path() + "/c.hdc";
  container_write(corpus, docs);
  IndexBuilder builder;
  builder.parsers(1).cpu_indexers(1).emit_segment(true);
  builder.build({corpus}, dir.path() + "/index");
  const auto index = InvertedIndex::open(dir.path() + "/index", {}).value();
  const auto map = DocMap::open(doc_map_path(dir.path() + "/index"));
  const auto searcher_ptr = Searcher::open(SearchSource::batch(index, map)).value();
  const Searcher& searcher = *searcher_ptr;

  QueryRequest request;
  request.query = Query::bag({normalize_term("rarebird"), normalize_term("common")});
  request.k = 1;
  request.use_result_cache = false;
  const auto pruned = searcher.search(request);
  ASSERT_TRUE(pruned.has_value());
  QueryRequest slow = request;
  slow.exhaustive = true;
  const auto full = searcher.search(slow);
  ASSERT_TRUE(full.has_value());
  ASSERT_EQ(pruned.value().hits.size(), full.value().hits.size());
  for (std::size_t i = 0; i < full.value().hits.size(); ++i) {
    EXPECT_EQ(pruned.value().hits[i].doc_id, full.value().hits[i].doc_id);
    EXPECT_EQ(pruned.value().hits[i].score, full.value().hits[i].score);
  }
  const auto after_ranked =
      searcher.metrics().snapshot().counter("search_blocks_skipped_total");
  EXPECT_GT(after_ranked, 0u) << "ranked pruning never skipped a block";

  // The conjunctive cursor intersection skips the same way: the rare
  // driver makes the common follower leap whole blocks.
  QueryRequest conj;
  conj.query = Query::conjunction({normalize_term("rarebird"), normalize_term("common")});
  conj.k = 5;
  ASSERT_TRUE(searcher.search(conj).has_value());
  EXPECT_GT(searcher.metrics().snapshot().counter("search_blocks_skipped_total"),
            after_ranked)
      << "conjunctive intersection never skipped a block";
}

}  // namespace
}  // namespace hetindex
