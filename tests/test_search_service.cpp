// Search-serving tests (docs/SERVING.md): ranked-result equivalence
// between the Block-Max MaxScore executor and the exhaustive baseline on
// randomized corpora (batch and live backends; tests/test_block_max.cpp
// extends this across merges), the per-snapshot collection-stats cache
// (the recompute counter must stay flat across queries), per-class
// lookup/score timings, result-cache hits and implicit invalidation across
// snapshot changes, admission control (shed when the queue saturates,
// reject when a deadline expires while queued), cursor score bounds
// through merges, and searches racing live flush/compaction (the TSan
// tier-1 leg runs this file).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <random>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "core/hetindex.hpp"

namespace hetindex {
namespace {

using namespace std::chrono_literals;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("hetindex_serve_" + tag + "_" + std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

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

/// Random mixed-frequency term sets drawn from the index dictionary, the
/// query workload of every equivalence test. Seeded so failures reproduce.
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

std::vector<std::string> batch_vocabulary(const InvertedIndex& index) {
  std::vector<std::string> vocab;
  vocab.reserve(index.term_count());
  index.for_each_term([&vocab](std::string_view term) { vocab.emplace_back(term); });
  return vocab;
}

/// MaxScore pruning must be invisible: identical docs, identical order,
/// bit-identical scores (both engines sum the same contributions in the
/// same order).
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
      EXPECT_EQ(a.value().hits[i].doc_id, b.value().hits[i].doc_id)
          << "rank " << i << " k=" << k;
      EXPECT_EQ(a.value().hits[i].score, b.value().hits[i].score)
          << "rank " << i << " k=" << k;
    }
  }
}

// ---------------------------------------- MaxScore == exhaustive baseline

class BatchServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_dir_ = new TempDir("corpus");
    index_dir_ = new TempDir("index");
    const auto corpus = make_corpus(corpus_dir_->path(), 512 << 10, 0xBEEF);
    IndexBuilder builder;
    builder.parsers(2).cpu_indexers(2).emit_segment(true);
    builder.build(corpus.files, index_dir_->path());
  }
  static void TearDownTestSuite() {
    delete corpus_dir_;
    delete index_dir_;
    corpus_dir_ = index_dir_ = nullptr;
  }
  static inline TempDir* corpus_dir_ = nullptr;
  static inline TempDir* index_dir_ = nullptr;
};

TEST_F(BatchServeFixture, MaxScoreMatchesExhaustiveOnRandomQueries) {
  const auto index = InvertedIndex::open(index_dir_->path(), {}).value();
  const auto docs = DocMap::open(doc_map_path(index_dir_->path()));
  const auto searcher_ptr = Searcher::open(SearchSource::batch(index, docs)).value();
  const Searcher& searcher = *searcher_ptr;
  const auto queries = sample_queries(batch_vocabulary(index), 40, 1);
  for (const std::size_t k : {1u, 3u, 10u, 100u}) {
    expect_identical_rankings(searcher, queries, k);
  }
}

TEST_F(BatchServeFixture, MaxScoreMatchesExhaustiveOnRunFiles) {
  // The run-file backend serves decoded cursors, whose bounds come from a
  // scan of the list — pruning must stay exact there too.
  const auto index = InvertedIndex::open(index_dir_->path(), {IndexBackend::kRuns}).value();
  const auto docs = DocMap::open(doc_map_path(index_dir_->path()));
  const auto searcher_ptr = Searcher::open(SearchSource::batch(index, docs)).value();
  const Searcher& searcher = *searcher_ptr;
  expect_identical_rankings(searcher, sample_queries(batch_vocabulary(index), 20, 2),
                            10);
}

TEST_F(BatchServeFixture, ConjunctiveCursorsMatchDecodedIntersection) {
  // The cursor-driven intersection must agree with the boolean operators
  // over fully decoded lists — same docs, same summed tfs.
  const auto index = InvertedIndex::open(index_dir_->path(), {}).value();
  const auto docs = DocMap::open(doc_map_path(index_dir_->path()));
  const auto searcher_ptr = Searcher::open(SearchSource::batch(index, docs)).value();
  const Searcher& searcher = *searcher_ptr;
  const auto queries = sample_queries(batch_vocabulary(index), 10, 3);
  for (const auto& terms : queries) {
    std::optional<QueryPostings> joint;
    bool all_present = true;
    for (const auto& term : terms) {
      auto p = index.lookup(term);
      if (!p.has_value()) {
        all_present = false;
        break;
      }
      joint = joint ? postings_and(*joint, p.value()) : std::move(p);
    }
    QueryRequest conj;
    conj.query = Query::conjunction(terms);
    conj.k = static_cast<std::size_t>(index.term_count());  // no truncation
    const auto response = searcher.search(conj);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response.value().hits.size(),
              all_present && joint ? joint->doc_ids.size() : 0u);
  }
}

TEST(LiveServe, MaxScoreMatchesExhaustiveAcrossFlushAndCompaction) {
  TempDir corpus_dir("lcorpus");
  TempDir live_dir("llive");
  const auto corpus = make_corpus(corpus_dir.path(), 256 << 10, 0xF00D);
  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  auto writer = IndexWriter::open(live_dir.path(), opts);
  ASSERT_TRUE(writer.has_value());
  auto w = std::move(writer).value();
  std::mt19937 rng(7);
  for (const auto& doc : corpus.docs) {
    w.add_document(doc.url, doc.body);
    if (rng() % 11 == 0) w.flush();
  }
  w.flush();

  std::vector<std::string> vocab;
  const auto collect = [&vocab](const LiveSnapshot& snap) {
    vocab.clear();
    snap.for_each_term([&](std::string_view term) {
      vocab.emplace_back(term);
      return true;
    });
  };

  {  // multi-segment snapshot: per-segment skip rows bound the union
    const auto snap = w.snapshot();
    ASSERT_GT(snap->segments().size(), 1u);
    collect(*snap);
    const auto searcher_ptr = Searcher::open(SearchSource::snapshot(snap)).value();
    const Searcher& searcher = *searcher_ptr;
    expect_identical_rankings(searcher, sample_queries(vocab, 25, 4), 10);
  }

  w.compact_now();  // merged segments: skip rows carried without decode
  const auto snap = w.snapshot();
  collect(*snap);
  const auto searcher_ptr = Searcher::open(SearchSource::snapshot(snap)).value();
  const Searcher& searcher = *searcher_ptr;
  expect_identical_rankings(searcher, sample_queries(vocab, 25, 5), 10);
}

// ------------------------------------------------- per-snapshot statistics

TEST_F(BatchServeFixture, CollectionStatsComputedOncePerSnapshot) {
  const auto index = InvertedIndex::open(index_dir_->path(), {}).value();
  const auto docs = DocMap::open(doc_map_path(index_dir_->path()));
  const auto searcher_ptr = Searcher::open(SearchSource::batch(index, docs)).value();
  const Searcher& searcher = *searcher_ptr;
  const auto queries = sample_queries(batch_vocabulary(index), 25, 6);
  for (const auto& terms : queries) {
    QueryRequest request;
    request.query = Query::bag(terms);
    request.use_result_cache = false;
    ASSERT_TRUE(searcher.search(request).has_value());
  }
  const auto snapshot = searcher.metrics().snapshot();
  EXPECT_EQ(snapshot.counter("search_queries_total"), queries.size());
  // The regression probe: N/avgdl were hoisted out of the per-query path.
  EXPECT_EQ(snapshot.counter("search_stats_recomputes_total"), 1u);
}

TEST(LiveServe, StatsRecomputeOnlyOnSnapshotChange) {
  TempDir corpus_dir("scorpus");
  TempDir live_dir("slive");
  const auto corpus = make_corpus(corpus_dir.path(), 64 << 10, 0xABBA);
  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  opts.parser.record_positions = true;  // phrase/NEAR classes below
  auto w = IndexWriter::open(live_dir.path(), opts).value();
  for (std::size_t i = 0; i < corpus.docs.size() / 2; ++i) {
    w.add_document(corpus.docs[i].url, corpus.docs[i].body);
  }
  w.flush();

  const auto searcher_ptr =
      Searcher::open(SearchSource::live([&w] { return w.snapshot(); })).value();
  const Searcher& searcher = *searcher_ptr;
  std::vector<std::string> terms;
  w.snapshot()->for_each_term([&terms](std::string_view t) {
    terms.emplace_back(t);
    return terms.size() < 2;
  });
  ASSERT_EQ(terms.size(), 2u);
  QueryRequest request;
  request.query = Query::term(terms[0]);
  request.use_result_cache = false;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(searcher.search(request).has_value());
  EXPECT_EQ(searcher.metrics().snapshot().counter("search_stats_recomputes_total"), 1u);

  // Every query class reports where its time went: opening cursors counts
  // as lookup, and the two layers fit inside the total.
  for (const Query& query : {Query::bag(terms), Query::conjunction(terms),
                             Query::disjunction(terms), Query::phrase(terms),
                             Query::near(terms, 3)}) {
    QueryRequest timed;
    timed.query = query;
    timed.use_result_cache = false;
    const auto r = searcher.search(timed);
    ASSERT_TRUE(r.has_value()) << r.error().to_string();
    const auto& t = r.value().timings;
    const char* klass = query_class_name(query.query_class());
    EXPECT_GT(t.lookup_seconds, 0.0) << klass;
    EXPECT_LE(t.lookup_seconds + t.score_seconds, t.total_seconds) << klass;
  }
  EXPECT_EQ(searcher.metrics().snapshot().counter("search_stats_recomputes_total"), 1u);

  for (std::size_t i = corpus.docs.size() / 2; i < corpus.docs.size(); ++i) {
    w.add_document(corpus.docs[i].url, corpus.docs[i].body);
  }
  w.flush();  // new snapshot id → exactly one more recompute
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(searcher.search(request).has_value());
  EXPECT_EQ(searcher.metrics().snapshot().counter("search_stats_recomputes_total"), 2u);
}

// -------------------------------------------------------- result caching

TEST(LiveServe, ResultCacheHitsAndInvalidatesAcrossSnapshots) {
  TempDir corpus_dir("ccorpus");
  TempDir live_dir("clive");
  const auto corpus = make_corpus(corpus_dir.path(), 64 << 10, 0xCAC8E);
  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  auto w = IndexWriter::open(live_dir.path(), opts).value();
  for (const auto& doc : corpus.docs) w.add_document(doc.url, doc.body);
  w.flush();

  const auto searcher_ptr =
      Searcher::open(SearchSource::live([&w] { return w.snapshot(); })).value();
  const Searcher& searcher = *searcher_ptr;
  QueryRequest request;
  // Found only in the doc added later.
  request.query = Query::disjunction({"zebrasafari"});

  const auto miss = searcher.search(request);
  ASSERT_TRUE(miss.has_value());
  EXPECT_FALSE(miss.value().from_cache);
  EXPECT_TRUE(miss.value().hits.empty());

  const auto hit = searcher.search(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit.value().from_cache);
  EXPECT_EQ(hit.value().snapshot_id, miss.value().snapshot_id);

  // New snapshot: same query must re-execute (key embeds the snapshot id)
  // and see the new document — the cache invalidates implicitly.
  w.add_document("http://x/new", "zebrasafari zebrasafari");
  w.flush();
  const auto fresh = searcher.search(request);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_FALSE(fresh.value().from_cache);
  EXPECT_NE(fresh.value().snapshot_id, miss.value().snapshot_id);
  ASSERT_EQ(fresh.value().hits.size(), 1u);

  const auto snapshot = searcher.metrics().snapshot();
  EXPECT_EQ(snapshot.counter("search_result_cache_hits_total"), 1u);
  EXPECT_EQ(snapshot.counter("search_result_cache_misses_total"), 2u);

  // Opting out never reads nor fills the cache.
  request.use_result_cache = false;
  const auto bypass = searcher.search(request);
  ASSERT_TRUE(bypass.has_value());
  EXPECT_FALSE(bypass.value().from_cache);
  EXPECT_EQ(searcher.metrics().snapshot().counter("search_result_cache_hits_total"), 1u);
}

// ------------------------------------------------ deadlines and admission

TEST_F(BatchServeFixture, ExpiredDeadlineRejectsBeforeExecution) {
  const auto index = InvertedIndex::open(index_dir_->path(), {}).value();
  const auto docs = DocMap::open(doc_map_path(index_dir_->path()));
  const auto searcher_ptr = Searcher::open(SearchSource::batch(index, docs)).value();
  const Searcher& searcher = *searcher_ptr;
  QueryRequest request;
  request.query = Query::term(batch_vocabulary(index).front());
  const auto result =
      searcher.search(request, std::chrono::steady_clock::now() - 1ms);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kDeadlineExceeded);
}

TEST_F(BatchServeFixture, MidExecutionDeadlineDegradesAndSkipsCache) {
  const auto index = InvertedIndex::open(index_dir_->path(), {}).value();
  const auto docs = DocMap::open(doc_map_path(index_dir_->path()));
  const auto searcher_ptr = Searcher::open(SearchSource::batch(index, docs)).value();
  const Searcher& searcher = *searcher_ptr;
  const auto vocab = batch_vocabulary(index);
  QueryRequest request;
  std::vector<std::string> many_terms;
  for (std::size_t i = 0; i < 32 && i < vocab.size(); ++i) {
    many_terms.push_back(vocab[i]);
  }
  request.query = Query::bag(std::move(many_terms));
  request.exhaustive = true;  // degrades between terms
  // A razor-thin deadline lands in one of three places depending on
  // timing; every landing must be handled. Retry until we see the
  // mid-execution one (practically immediate).
  bool saw_degraded = false;
  for (int attempt = 0; attempt < 200 && !saw_degraded; ++attempt) {
    const auto result =
        searcher.search(request, std::chrono::steady_clock::now() + 20us);
    if (!result.has_value()) {
      EXPECT_EQ(result.error().code, ErrorCode::kDeadlineExceeded);
      continue;
    }
    saw_degraded = result.value().degraded();
  }
  if (!saw_degraded) GTEST_SKIP() << "machine too fast to catch mid-execution";
  // Degraded answers must never be replayed: the follow-up identical
  // query (no deadline) re-executes and completes.
  const auto followup = searcher.search(request);
  ASSERT_TRUE(followup.has_value());
  EXPECT_FALSE(followup.value().from_cache);
  EXPECT_FALSE(followup.value().degraded());
  EXPECT_GT(searcher.metrics().snapshot().counter("search_degraded_total"), 0u);
}

TEST(Admission, SaturatedQueueShedsAndQueuedDeadlineRejects) {
  TempDir corpus_dir("acorpus");
  TempDir live_dir("alive");
  const auto corpus = make_corpus(corpus_dir.path(), 32 << 10, 0xADA);
  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  auto w = IndexWriter::open(live_dir.path(), opts).value();
  for (const auto& doc : corpus.docs) w.add_document(doc.url, doc.body);
  w.flush();
  const auto snap = w.snapshot();
  std::string term;
  snap->for_each_term([&term](std::string_view t) {
    term = std::string(t);
    return false;
  });

  // The provider doubles as a brake: the first query blocks inside the
  // worker until the gate opens, pinning the single executor thread so
  // the queue saturates deterministically.
  std::binary_semaphore gate(0);
  auto searcher = Searcher::open(SearchSource::live([&gate, snap] {
                    gate.acquire();
                    gate.release();  // stay open for every later query
                    return snap;
                  })).value();
  SearchServiceOptions service_opts;
  service_opts.threads = 1;
  service_opts.queue_capacity = 1;
  SearchService service(std::move(searcher), service_opts);

  QueryRequest request;
  request.query = Query::term(term);
  auto blocked = service.submit(request);           // popped, blocks in provider
  while (service.queue_depth() != 0) std::this_thread::sleep_for(100us);

  QueryRequest queued = request;
  queued.timeout = 1ms;                             // expires while queued
  auto waiting = service.submit(queued);            // fills the queue

  auto shed = service.submit(request);              // queue full → shed now
  ASSERT_EQ(shed.wait_for(0s), std::future_status::ready);
  const auto shed_result = shed.get();
  ASSERT_FALSE(shed_result.has_value());
  EXPECT_EQ(shed_result.error().code, ErrorCode::kOverloaded);

  std::this_thread::sleep_for(5ms);                 // let the queued deadline lapse
  gate.release();                                   // open the brake

  const auto first = blocked.get();
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first.value().degraded());             // no timeout on the first

  const auto expired = waiting.get();
  ASSERT_FALSE(expired.has_value());
  EXPECT_EQ(expired.error().code, ErrorCode::kDeadlineExceeded);

  const auto snapshot = service.metrics().snapshot();
  EXPECT_EQ(snapshot.counter("search_requests_total"), 3u);
  EXPECT_EQ(snapshot.counter("search_shed_total"), 1u);
  EXPECT_EQ(snapshot.counter("search_deadline_rejected_total"), 1u);
}

TEST(Facade, DoclessSearcherServesBooleanButRejectsRanked) {
  TempDir corpus_dir("dcorpus");
  TempDir index_dir("dindex");
  const auto corpus = make_corpus(corpus_dir.path(), 32 << 10, 0xD0C);
  IndexBuilder builder;
  builder.parsers(1).cpu_indexers(1).emit_segment(true);
  builder.build(corpus.files, index_dir.path());
  const auto index = InvertedIndex::open(index_dir.path(), {}).value();
  const auto searcher_ptr = Searcher::open(SearchSource::batch(index)).value();
  const Searcher& searcher = *searcher_ptr;  // no DocMap

  QueryRequest request;
  request.query = Query::disjunction({batch_vocabulary(index).front()});
  const auto boolean = searcher.search(request);
  ASSERT_TRUE(boolean.has_value());
  EXPECT_FALSE(boolean.value().hits.empty());

  request.query = Query::bag({batch_vocabulary(index).front()});
  const auto ranked = searcher.search(request);
  ASSERT_FALSE(ranked.has_value());
  EXPECT_EQ(ranked.error().code, ErrorCode::kInvalidArgument);

  request.query = Query();
  const auto empty = searcher.search(request);
  ASSERT_FALSE(empty.has_value());
  EXPECT_EQ(empty.error().code, ErrorCode::kInvalidArgument);
}

// --------------------------------------------------- cursor score bounds

TEST(ScoreBounds, CursorMaxTfSurvivesMergesAndMatchesTrueMaxima) {
  TempDir corpus_dir("mcorpus");
  TempDir live_dir("mlive");
  const auto corpus = make_corpus(corpus_dir.path(), 128 << 10, 0x3A6);
  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  auto w = IndexWriter::open(live_dir.path(), opts).value();
  std::mt19937 rng(13);
  for (const auto& doc : corpus.docs) {
    w.add_document(doc.url, doc.body);
    if (rng() % 9 == 0) w.flush();
  }
  w.flush();

  const auto check_bounds = [](const LiveSnapshot& snap) {
    std::size_t checked = 0;
    snap.for_each_term([&](std::string_view term) {
      const auto cursor = snap.open_cursor(term);
      EXPECT_NE(cursor, nullptr) << term;
      const auto postings = snap.lookup(term);
      EXPECT_TRUE(postings.has_value()) << term;
      if (cursor && postings) {
        const auto truth =
            *std::max_element(postings->tfs.begin(), postings->tfs.end());
        EXPECT_EQ(cursor->max_tf(), truth) << term;  // §III.F: max of per-input maxima
      }
      return ++checked < 300;  // spot-check; the corpus has thousands
    });
    EXPECT_GT(checked, 0u);
  };
  const auto multi = w.snapshot();
  ASSERT_GT(multi->segments().size(), 1u);
  check_bounds(*multi);

  w.compact_now();
  const auto merged = w.snapshot();
  ASSERT_LT(merged->segments().size(), multi->segments().size());
  check_bounds(*merged);
}

// -------------------------------- searches racing flushes and compaction

TEST(Concurrency, SearchesRaceLiveFlushAndCompaction) {
  TempDir corpus_dir("rcorpus");
  TempDir live_dir("rlive");
  const auto corpus = make_corpus(corpus_dir.path(), 256 << 10, 0x7ACE);
  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = true;  // merges race the searches too
  opts.merge_factor = 2;
  opts.tier_base_bytes = 8 << 10;
  auto w = IndexWriter::open(live_dir.path(), opts).value();

  // Seed enough documents that early queries have something to rank.
  const std::size_t seed_docs = corpus.docs.size() / 4;
  for (std::size_t i = 0; i < seed_docs; ++i) {
    w.add_document(corpus.docs[i].url, corpus.docs[i].body);
  }
  w.flush();
  std::vector<std::string> vocab;
  w.snapshot()->for_each_term([&vocab](std::string_view term) {
    vocab.emplace_back(term);
    return vocab.size() < 64;
  });
  ASSERT_FALSE(vocab.empty());

  auto searcher =
      Searcher::open(SearchSource::live([&w] { return w.snapshot(); })).value();
  SearchServiceOptions service_opts;
  service_opts.threads = 3;
  service_opts.queue_capacity = 32;
  SearchService service(searcher, service_opts);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::jthread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(100 + c);
      while (!done.load(std::memory_order_relaxed)) {
        QueryRequest request;
        std::vector<std::string> pair = {vocab[rng() % vocab.size()],
                                         vocab[rng() % vocab.size()]};
        switch (rng() % 3) {
          case 0: request.query = Query::bag(std::move(pair)); break;
          case 1: request.query = Query::conjunction(std::move(pair)); break;
          default: request.query = Query::disjunction(std::move(pair)); break;
        }
        request.k = 5;
        // Alternate direct facade calls and pooled submissions so both
        // paths race the writer.
        const auto result = (rng() & 1) ? searcher->search(request)
                                        : service.search(request);
        if (result.has_value()) {
          answered.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_EQ(result.error().code, ErrorCode::kOverloaded);
        }
      }
    });
  }

  std::mt19937 rng(0xF1);
  for (std::size_t i = seed_docs; i < corpus.docs.size(); ++i) {
    w.add_document(corpus.docs[i].url, corpus.docs[i].body);
    if (rng() % 13 == 0) w.flush();
  }
  w.flush();
  w.compact_now();
  done.store(true, std::memory_order_relaxed);
  clients.clear();  // join

  EXPECT_GT(answered.load(), 0u);
  const auto final_snap = w.snapshot();
  EXPECT_EQ(final_snap->doc_count(), corpus.docs.size());
  // Post-race sanity: ranked answers still match the exhaustive engine.
  std::vector<std::vector<std::string>> queries;
  for (std::size_t i = 0; i + 1 < vocab.size() && queries.size() < 5; i += 2) {
    queries.push_back({vocab[i], vocab[i + 1]});
  }
  const auto fresh = Searcher::open(SearchSource::snapshot(final_snap)).value();
  expect_identical_rankings(*fresh, queries, 10);
}

}  // namespace
}  // namespace hetindex
