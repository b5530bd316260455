// Sharded serving-cluster tests (docs/CLUSTER.md): the partitioners'
// closed-form placement algebra, and the router's headline guarantee — a
// cluster's merged top-k is bit-identical to a single-node build of the
// union corpus, for every partition strategy, every query mode, both
// executors, across interleaved flushes, deletes, updates, memtable-resident
// documents and full compaction. Plus the failure half of the contract:
// replica failover behind an unchanged answer, whole-shard outages degrading
// to well-formed kShardPartial responses, shedding classified kShedPartial
// with demotion, reopen recovery of the global id sequence from shard
// widths, and CLUSTER meta validation. The final test races router queries
// against live mutation (the TSan tier-1 leg runs this file).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/hetindex.hpp"
#include "io/env.hpp"

namespace hetindex {
namespace {

using namespace std::chrono_literals;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("hetindex_cluster_" + tag + "_" + std::to_string(counter_++)))
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

// --------------------------------------------------- partitioner algebra

void expect_partitioner_closed_forms(const Partitioner& part, std::uint32_t total) {
  // Round trip + per-shard monotonicity: within a shard, ascending local
  // ids must map to ascending globals (the tie-break translation pillar).
  std::vector<std::uint32_t> last_global(part.shards(), 0);
  std::vector<bool> seen(part.shards(), false);
  std::vector<std::uint64_t> counts(part.shards(), 0);
  for (std::uint32_t g = 0; g < total; ++g) {
    const std::uint32_t s = part.doc_shard(g);
    ASSERT_LT(s, part.shards());
    const std::uint32_t local = part.local_doc(g);
    EXPECT_EQ(part.global_doc(s, local), g);
    if (seen[s]) {
      EXPECT_GT(g, last_global[s]);
    }
    seen[s] = true;
    last_global[s] = g;
    ++counts[s];
  }
  for (std::uint32_t s = 0; s < part.shards(); ++s) {
    if (part.replicates_documents()) {
      EXPECT_EQ(part.expected_shard_docs(s, total), total);
    } else {
      EXPECT_EQ(part.expected_shard_docs(s, total), counts[s])
          << "shard " << s << " total " << total;
    }
  }
}

TEST(Partitioner, DocumentClosedForms) {
  for (const std::uint32_t shards : {1u, 2u, 3u, 5u}) {
    const auto part = make_partitioner(PartitionStrategy::kDocument, shards);
    for (const std::uint32_t total : {0u, 1u, 7u, 64u, 1000u}) {
      expect_partitioner_closed_forms(*part, total);
    }
    EXPECT_FALSE(part->replicates_documents());
    EXPECT_FALSE(part->term_shard("anything").has_value());
  }
}

TEST(Partitioner, BlockClosedForms) {
  for (const std::uint32_t shards : {1u, 2u, 3u}) {
    for (const std::uint32_t block : {1u, 4u, 128u}) {
      const auto part = make_partitioner(PartitionStrategy::kBlock, shards, block);
      // Totals straddling block boundaries, including a partial tail block.
      for (const std::uint32_t total :
           {0u, 1u, block, block * shards, block * shards + 3, 1000u}) {
        expect_partitioner_closed_forms(*part, total);
      }
    }
  }
}

TEST(Partitioner, TermOwnershipIsStableAndLocalIsGlobal) {
  const auto part = make_partitioner(PartitionStrategy::kTerm, 4);
  EXPECT_TRUE(part->replicates_documents());
  for (std::uint32_t g = 0; g < 100; ++g) {
    EXPECT_EQ(part->doc_shard(g), 0u);
    EXPECT_EQ(part->local_doc(g), g);
    EXPECT_EQ(part->global_doc(2, g), g);
  }
  const auto owner = part->term_shard("zebra");
  ASSERT_TRUE(owner.has_value());
  EXPECT_LT(*owner, 4u);
  EXPECT_EQ(part->term_shard("zebra"), owner);  // deterministic
  expect_partitioner_closed_forms(*part, 64);
}

TEST(Partitioner, StrategyNamesRoundTrip) {
  for (const auto s : {PartitionStrategy::kDocument, PartitionStrategy::kTerm,
                       PartitionStrategy::kBlock}) {
    EXPECT_EQ(parse_partition_strategy(partition_strategy_name(s)), s);
  }
  EXPECT_FALSE(parse_partition_strategy("bogus").has_value());
}

// -------------------------------------------- cluster vs union twin stack

/// The cluster under test and its oracle: a single-node writer fed the
/// exact same operation sequence, so global id spaces coincide and every
/// query must come back bit-identical through the router.
struct TwinStack {
  std::unique_ptr<TempDir> corpus_dir;
  std::unique_ptr<TempDir> cluster_dir;
  std::unique_ptr<TempDir> union_dir;
  std::optional<Cluster> cluster;
  std::optional<IndexWriter> unioned;
  std::vector<std::string> vocab;
  std::vector<std::uint32_t> live_ids;
  Corpus corpus;
  std::size_t next_doc = 0;
};

IndexWriterOptions twin_writer_options() {
  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;  // explicit flush only — twins stay aligned
  opts.background_compaction = false;
  return opts;
}

/// Feeds `count` documents through both sides with interleaved flushes,
/// deletes and updates; asserts the cluster assigns exactly the union's ids.
void twin_ingest(TwinStack& stack, std::size_t count, std::uint32_t seed) {
  std::mt19937 rng(seed);
  auto& cluster = *stack.cluster;
  auto& unioned = *stack.unioned;
  const std::size_t stop = std::min(stack.corpus.docs.size(), stack.next_doc + count);
  for (; stack.next_doc < stop; ++stack.next_doc) {
    const auto& doc = stack.corpus.docs[stack.next_doc];
    const std::uint32_t got = cluster.add_document(doc.url, doc.body);
    const std::uint32_t want = unioned.add_document(doc.url, doc.body);
    ASSERT_EQ(got, want);
    stack.live_ids.push_back(got);
    const auto roll = rng() % 29;
    if (roll == 0 && !stack.live_ids.empty()) {  // delete a random live doc
      const std::size_t victim = rng() % stack.live_ids.size();
      const std::uint32_t id = stack.live_ids[victim];
      ASSERT_TRUE(cluster.delete_document(id).has_value());
      ASSERT_TRUE(unioned.delete_document(id).has_value());
      stack.live_ids.erase(stack.live_ids.begin() +
                           static_cast<std::ptrdiff_t>(victim));
    } else if (roll == 1 && !stack.live_ids.empty()) {  // update in place
      const std::size_t victim = rng() % stack.live_ids.size();
      const std::uint32_t id = stack.live_ids[victim];
      const auto& body = stack.corpus.docs[rng() % stack.corpus.docs.size()].body;
      const auto a = cluster.update_document(id, doc.url, body);
      const auto b = unioned.update_document(id, doc.url, body);
      ASSERT_TRUE(a.has_value());
      ASSERT_TRUE(b.has_value());
      ASSERT_EQ(a.value(), b.value());
      stack.live_ids[victim] = a.value();
    } else if (roll == 2) {  // segment boundary on both sides
      ASSERT_TRUE(cluster.flush().has_value());
      ASSERT_TRUE(unioned.flush().has_value());
    }
  }
}

TwinStack make_twins(PartitionStrategy strategy, std::uint32_t shards,
                     std::uint32_t replicas, std::uint32_t seed,
                     std::size_t ingest = 10000, bool positional = false) {
  TwinStack stack;
  stack.corpus_dir = std::make_unique<TempDir>("corpus");
  stack.cluster_dir = std::make_unique<TempDir>("cluster");
  stack.union_dir = std::make_unique<TempDir>("union");
  stack.corpus = make_corpus(stack.corpus_dir->path(), 64 << 10, seed);

  IndexWriterOptions wopts = twin_writer_options();
  wopts.parser.record_positions = positional;
  ClusterOptions copts;
  copts.strategy = strategy;
  copts.shards = shards;
  copts.replicas = replicas;
  copts.block_docs = 8;  // small blocks so several land on every shard
  copts.writer = wopts;
  stack.cluster.emplace(Cluster::open(stack.cluster_dir->path(), copts).value());
  stack.unioned.emplace(IndexWriter::open(stack.union_dir->path(), wopts).value());

  twin_ingest(stack, ingest, seed ^ 0x5EED);
  [&] {
    ASSERT_TRUE(stack.cluster->flush().has_value());
    ASSERT_TRUE(stack.unioned->flush().has_value());
  }();

  stack.unioned->snapshot()->for_each_term([&stack](std::string_view term) {
    stack.vocab.emplace_back(term);
    return true;
  });
  return stack;
}

/// The headline assertion: same docs, same order, bit-identical scores —
/// every mode, both ranked executors. `fanout` is the exact shard count a
/// complete scatter must report (document/block); nullopt for the term
/// strategy, where shards_total counts only the query's owner shards.
void expect_bit_identical(const SearchBackend& router, const SearchBackend& oracle,
                          const std::vector<std::vector<std::string>>& queries,
                          std::optional<std::uint32_t> fanout) {
  struct Variant {
    Query (*make)(std::vector<std::string>);
    bool exhaustive;
  };
  const Variant variants[] = {{&Query::bag, false},
                              {&Query::bag, true},
                              {&Query::conjunction, false},
                              {&Query::disjunction, false}};
  for (const auto& terms : queries) {
    for (const auto& v : variants) {
      QueryRequest request;
      request.query = v.make(terms);
      request.exhaustive = v.exhaustive;
      request.k = 10;
      request.use_result_cache = false;
      const auto a = router.search(request);
      const auto b = oracle.search(request);
      ASSERT_TRUE(a.has_value()) << a.error().to_string();
      ASSERT_TRUE(b.has_value()) << b.error().to_string();
      EXPECT_EQ(a.value().degradation, Degradation::kComplete);
      if (fanout.has_value()) {
        EXPECT_EQ(a.value().shards_total, *fanout);
      } else {
        EXPECT_GE(a.value().shards_total, 1u);
      }
      EXPECT_EQ(a.value().shards_answered, a.value().shards_total);
      const char* klass = query_class_name(request.query.query_class());
      EXPECT_EQ(a.value().query_class(), request.query.query_class());
      ASSERT_EQ(a.value().hits.size(), b.value().hits.size())
          << klass << (v.exhaustive ? "/exhaustive" : "");
      for (std::size_t i = 0; i < a.value().hits.size(); ++i) {
        EXPECT_EQ(a.value().hits[i].doc_id, b.value().hits[i].doc_id)
            << klass << " rank " << i;
        EXPECT_EQ(a.value().hits[i].score, b.value().hits[i].score)
            << klass << " rank " << i;
      }
    }
  }
}

class ClusterEquivalence : public ::testing::TestWithParam<PartitionStrategy> {};

TEST_P(ClusterEquivalence, BitIdenticalToUnionAcrossMutationsAndCompaction) {
  auto stack = make_twins(GetParam(), 3, 1, 0xC1A0);
  const auto router = stack.cluster->make_router();
  const auto oracle =
      Searcher::open(SearchSource::live(
                         [w = &*stack.unioned] { return w->snapshot(); }))
          .value();
  const auto queries = sample_queries(stack.vocab, 20, 11);
  const std::optional<std::uint32_t> fanout =
      GetParam() == PartitionStrategy::kTerm ? std::nullopt
                                             : std::optional<std::uint32_t>(3);

  expect_bit_identical(*router, *oracle, queries, fanout);

  // Memtable-resident documents: ingest more WITHOUT flushing — the stats
  // probe and both executors must see them identically on both sides.
  twin_ingest(stack, 40, 0xFEED);
  expect_bit_identical(*router, *oracle, queries, fanout);

  // Full physical compaction on both sides (never one side only: compaction
  // reclaims tombstoned postings, so raw dfs — and with them the scores —
  // are only comparable when both sides are at the same reclaim state).
  ASSERT_TRUE(stack.cluster->flush().has_value());
  ASSERT_TRUE(stack.unioned->flush().has_value());
  ASSERT_TRUE(stack.cluster->compact_now().has_value());
  ASSERT_TRUE(stack.unioned->compact_now().has_value());
  expect_bit_identical(*router, *oracle, queries, fanout);
}

TEST_P(ClusterEquivalence, PhraseAndNearBitIdenticalToUnionOracle) {
  // Positional twins: every partition strategy must answer phrase and
  // NEAR queries exactly like a single-node build of the union corpus —
  // document/block shards verify locally (each shard holds its docs'
  // positions whole), the term strategy fetches owner lists and verifies
  // centrally at the router.
  auto stack = make_twins(GetParam(), 3, 1, 0xFA5E, 10000, /*positional=*/true);
  const auto router = stack.cluster->make_router();
  const auto oracle =
      Searcher::open(SearchSource::live(
                         [w = &*stack.unioned] { return w->snapshot(); }))
          .value();

  // Operand pairs: adjacent tokens from real documents (likely matches)
  // interleaved with random vocabulary draws (mostly misses).
  std::mt19937 rng(0x9A5E);
  const auto adjacent_pair = [&]() -> std::vector<std::string> {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto& body = stack.corpus.docs[rng() % stack.corpus.docs.size()].body;
      std::vector<std::string> tokens;
      std::string token;
      for (const char c : body) {
        if (c == ' ' || c == '\n' || c == '\t') {
          if (!token.empty()) tokens.push_back(std::move(token));
          token.clear();
        } else {
          token += c;
        }
      }
      if (!token.empty()) tokens.push_back(std::move(token));
      if (tokens.size() < 2) continue;
      const std::size_t at = rng() % (tokens.size() - 1);
      const auto a = normalize_term(tokens[at]);
      const auto b = normalize_term(tokens[at + 1]);
      if (!a.empty() && !b.empty()) return {a, b};
    }
    return {stack.vocab[rng() % stack.vocab.size()],
            stack.vocab[rng() % stack.vocab.size()]};
  };

  std::size_t matched = 0;
  for (int i = 0; i < 36; ++i) {
    std::vector<std::string> terms =
        i % 2 == 0 ? adjacent_pair()
                   : std::vector<std::string>{stack.vocab[rng() % stack.vocab.size()],
                                              stack.vocab[rng() % stack.vocab.size()]};
    Query query;
    switch (i % 3) {
      case 0: query = Query::phrase(terms); break;
      case 1: query = Query::near(terms, 1 + i % 4); break;
      default:
        // Mixed conjunction: phrase constraint plus a plain term.
        query = Query::and_of({Query::phrase(terms),
                               Query::term(stack.vocab[rng() % stack.vocab.size()])});
        break;
    }
    QueryRequest request;
    request.query = query;
    request.k = 20;
    request.use_result_cache = false;
    const auto a = router->search(request);
    const auto b = oracle->search(request);
    ASSERT_TRUE(a.has_value()) << a.error().to_string();
    ASSERT_TRUE(b.has_value()) << b.error().to_string();
    EXPECT_EQ(a.value().degradation, Degradation::kComplete);
    EXPECT_EQ(a.value().query_class(), query.query_class());
    ASSERT_EQ(a.value().hits.size(), b.value().hits.size()) << query.to_string();
    for (std::size_t r = 0; r < a.value().hits.size(); ++r) {
      EXPECT_EQ(a.value().hits[r].doc_id, b.value().hits[r].doc_id)
          << query.to_string() << " rank " << r;
      EXPECT_EQ(a.value().hits[r].score, b.value().hits[r].score)
          << query.to_string() << " rank " << r;
    }
    matched += a.value().hits.size();
  }
  EXPECT_GT(matched, 0u);  // half the workload comes from real adjacencies
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ClusterEquivalence,
                         ::testing::Values(PartitionStrategy::kDocument,
                                           PartitionStrategy::kTerm,
                                           PartitionStrategy::kBlock),
                         [](const auto& info) {
                           return std::string(partition_strategy_name(info.param));
                         });

// ------------------------------------------------------- failure handling

TEST(ClusterFailover, DownReplicaFailsOverBehindUnchangedAnswers) {
  auto stack = make_twins(PartitionStrategy::kDocument, 3, 2, 0xFA11);
  const auto router = stack.cluster->make_router();
  const auto oracle =
      Searcher::open(SearchSource::live(
                         [w = &*stack.unioned] { return w->snapshot(); }))
          .value();

  // First replica of one shard drops dead; the router must retry its peer
  // within the same query and still return complete, bit-identical answers.
  stack.cluster->shard(1).replica(0).set_down(true);
  expect_bit_identical(*router, *oracle,
                       sample_queries(stack.vocab, 10, 21), 3);
  const auto snapshot = router->metrics().snapshot();
  EXPECT_GE(snapshot.counter("cluster_failovers_total"), 1u);
  EXPECT_GE(snapshot.counter("cluster_shard_down_total"), 1u);
  EXPECT_EQ(snapshot.counter("cluster_partial_responses_total"), 0u);

  // Recovery: the replica comes back and is served to again eventually
  // (demotion lapses are time-based; correctness must not depend on which
  // replica answers).
  stack.cluster->shard(1).replica(0).set_down(false);
  expect_bit_identical(*router, *oracle, sample_queries(stack.vocab, 5, 22), 3);
}

TEST(ClusterFailover, WholeShardOutageDegradesToShardPartialWithinDeadline) {
  auto stack = make_twins(PartitionStrategy::kDocument, 3, 1, 0x0D0A);
  const auto router = stack.cluster->make_router();
  stack.cluster->shard(0).replica(0).set_down(true);

  QueryRequest request;
  request.query = Query::bag(sample_queries(stack.vocab, 1, 31)[0]);
  request.k = 10;
  request.use_result_cache = false;
  request.timeout = 500ms;

  const auto started = std::chrono::steady_clock::now();
  const auto response = router->search(request);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_TRUE(response.has_value()) << response.error().to_string();
  EXPECT_EQ(response.value().degradation, Degradation::kShardPartial);
  EXPECT_EQ(response.value().shards_total, 3u);
  EXPECT_EQ(response.value().shards_answered, 2u);
  EXPECT_LT(elapsed, 500ms);  // a down shard fails fast, never eats the budget
  EXPECT_GE(router->metrics().snapshot().counter("cluster_partial_responses_total"),
            1u);

  // The strict flavor: partial answers refused outright.
  RouterOptions strict;
  strict.allow_partial = false;
  const auto strict_router = stack.cluster->make_router(strict);
  const auto refused = strict_router->search(request);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().code, ErrorCode::kUnavailable);
}

TEST(ClusterFailover, SheddingClassifiesShedPartialAndDemotes) {
  auto stack = make_twins(PartitionStrategy::kDocument, 2, 1, 0x5ED);
  const auto router = stack.cluster->make_router();
  stack.cluster->shard(1).replica(0).force_shed(true);

  QueryRequest request;
  request.query = Query::bag(sample_queries(stack.vocab, 1, 41)[0]);
  request.use_result_cache = false;

  for (int i = 0; i < 2; ++i) {  // two failures inside the window → demotion
    const auto response = router->search(request);
    ASSERT_TRUE(response.has_value()) << response.error().to_string();
    EXPECT_EQ(response.value().degradation, Degradation::kShedPartial);
    EXPECT_EQ(response.value().shards_answered, 1u);
    EXPECT_EQ(response.value().shards_total, 2u);
  }
  const auto snapshot = router->metrics().snapshot();
  EXPECT_GE(snapshot.counter("cluster_shard_sheds_total"), 2u);
  EXPECT_GE(snapshot.counter("cluster_replica_demotions_total"), 1u);
}

TEST(ClusterFailover, TermOwnerDownDropsUnavailableLeaves) {
  // Term partitioning with one owner shard down: each unavailable-leaf rule
  // of the shared executor, checked against the union oracle answering the
  // query with the dropped parts already removed.
  auto stack = make_twins(PartitionStrategy::kTerm, 3, 1, 0x7D0, 10000, /*positional=*/true);
  const auto router = stack.cluster->make_router();
  const auto oracle =
      Searcher::open(SearchSource::live(
                         [w = &*stack.unioned] { return w->snapshot(); }))
          .value();
  // Frequent terms first, so the reduced queries still match documents.
  const auto snap = stack.unioned->snapshot();
  std::vector<std::pair<std::size_t, std::string>> by_df;
  for (const auto& t : stack.vocab) by_df.emplace_back(snap->lookup(t)->doc_ids.size(), t);
  std::sort(by_df.begin(), by_df.end(), std::greater<>());
  const std::string down = by_df[0].second;
  const std::uint32_t down_shard = *router->partitioner().term_shard(down);
  std::vector<std::string> up;
  for (const auto& entry : by_df) {
    if (up.size() < 2 && *router->partitioner().term_shard(entry.second) != down_shard) {
      up.push_back(entry.second);
    }
  }
  ASSERT_EQ(up.size(), 2u);
  stack.cluster->shard(down_shard).replica(0).set_down(true);

  struct Case {
    Query routed;
    std::optional<Query> expected;  // nullopt: nothing can match
    const char* rule;
  };
  const Case cases[] = {
      {Query::conjunction({up[0], down}), Query::conjunction({up[0]}),
       "AND drops the leaf"},
      {Query::disjunction({up[0], down}), Query::disjunction({up[0]}),
       "OR drops the leaf"},
      {Query::and_of({Query::term(up[0]), Query::phrase({up[1], down})}),
       Query::conjunction({up[0]}), "PHRASE with the leaf is dropped whole"},
      {Query::and_of({Query::term(up[0]), Query::near({down, up[1]}, 4)}),
       Query::conjunction({up[0]}), "NEAR with the leaf is dropped whole"},
      {Query::and_of({Query::term(up[0]),
                      Query::or_of({Query::term(down), Query::phrase({down, up[1]})})}),
       Query::conjunction({up[0]}), "a group with every operand dropped is dropped"},
      {Query::phrase({up[0], down}), std::nullopt, "an unavailable root matches nothing"},
  };
  for (const auto& c : cases) {
    QueryRequest request;
    request.query = c.routed;
    request.k = 50;
    request.use_result_cache = false;
    const auto got = router->search(request);
    ASSERT_TRUE(got.has_value()) << c.rule << ": " << got.error().to_string();
    EXPECT_EQ(got.value().degradation, Degradation::kShardPartial) << c.rule;
    if (!c.expected.has_value()) {
      EXPECT_TRUE(got.value().hits.empty()) << c.rule;
      continue;
    }
    request.query = *c.expected;
    const auto want = oracle->search(request);
    ASSERT_TRUE(want.has_value()) << c.rule;
    EXPECT_FALSE(want.value().hits.empty()) << c.rule;
    ASSERT_EQ(got.value().hits.size(), want.value().hits.size()) << c.rule;
    for (std::size_t i = 0; i < want.value().hits.size(); ++i) {
      EXPECT_EQ(got.value().hits[i].doc_id, want.value().hits[i].doc_id) << c.rule;
      EXPECT_EQ(got.value().hits[i].score, want.value().hits[i].score) << c.rule;
    }
  }
}

TEST(ClusterRouter, RejectsCallerSuppliedScatterStats) {
  auto stack = make_twins(PartitionStrategy::kDocument, 2, 1, 0x5CA7);
  const auto router = stack.cluster->make_router();
  QueryRequest request;
  request.query = Query::term(stack.vocab.front());
  request.scatter = std::make_shared<ScatterStats>();
  const auto response = router->search(request);
  ASSERT_FALSE(response.has_value());
  EXPECT_EQ(response.error().code, ErrorCode::kInvalidArgument);
}

// --------------------------------------------------- durability / reopen

TEST(ClusterReopen, RecoversGlobalSequenceFromShardWidths) {
  for (const auto strategy :
       {PartitionStrategy::kDocument, PartitionStrategy::kTerm,
        PartitionStrategy::kBlock}) {
    auto stack = make_twins(strategy, 3, 1, 0x09EA);
    const std::uint64_t total = stack.cluster->total_docs();
    const std::string dir = stack.cluster->dir();
    EXPECT_TRUE(Cluster::is_cluster_dir(dir));
    stack.cluster.reset();  // close every shard writer

    ClusterOptions copts;  // defaults defer to the CLUSTER meta on disk
    copts.writer = twin_writer_options();
    auto reopened = Cluster::open(dir, copts);
    ASSERT_TRUE(reopened.has_value()) << reopened.error().to_string();
    EXPECT_EQ(reopened.value().total_docs(), total);
    EXPECT_EQ(reopened.value().partitioner().strategy(), strategy);
    EXPECT_EQ(reopened.value().shard_count(), 3u);

    // The recovered sequence keeps assigning the union's ids.
    stack.cluster.emplace(std::move(reopened).value());
    twin_ingest(stack, 30, 0xAF7E);
    ASSERT_TRUE(stack.cluster->flush().has_value());
    ASSERT_TRUE(stack.unioned->flush().has_value());
    const auto router = stack.cluster->make_router();
    const auto oracle =
        Searcher::open(SearchSource::live(
                           [w = &*stack.unioned] { return w->snapshot(); }))
            .value();
    expect_bit_identical(*router, *oracle, sample_queries(stack.vocab, 8, 51),
                         strategy == PartitionStrategy::kTerm
                             ? std::nullopt
                             : std::optional<std::uint32_t>(3));
  }
}

TEST(ClusterReopen, RefusesTamperedMetaAndMismatchedTopology) {
  auto stack = make_twins(PartitionStrategy::kBlock, 2, 1, 0x7A3B);
  const std::string dir = stack.cluster->dir();
  stack.cluster.reset();

  {  // explicit topology contradicting the pinned meta
    ClusterOptions wrong;
    wrong.strategy = PartitionStrategy::kBlock;
    wrong.shards = 4;  // on disk: 2
    wrong.writer = twin_writer_options();
    const auto reopened = Cluster::open(dir, wrong);
    ASSERT_FALSE(reopened.has_value());
    EXPECT_EQ(reopened.error().code, ErrorCode::kInvalidArgument);
  }

  {  // garbage meta file
    std::ofstream out(dir + "/CLUSTER", std::ios::binary | std::ios::trunc);
    out << "not a cluster meta\n";
    out.close();
    const auto reopened = Cluster::open(dir, {});
    ASSERT_FALSE(reopened.has_value());
    EXPECT_EQ(reopened.error().code, ErrorCode::kCorrupt);
  }
}

// ------------------------------------------------------ parallel flush

// Cluster::flush runs every shard's flush on its own thread. One shard's
// segment write fails: flush reports that kIo, every other shard commits,
// the failed shard keeps serving its memtable, and a second flush commits
// it. Which shard loses the race to the first write is up to the
// scheduler, so the test finds it from the shards' state.
TEST(ClusterFlush, OneShardFailureIsReportedAndOthersCommit) {
  constexpr std::uint32_t kShards = 4;
  auto stack = make_twins(PartitionStrategy::kDocument, kShards, 1, 0xF1A5, /*ingest=*/0);
  auto& cluster = *stack.cluster;
  for (const auto& doc : stack.corpus.docs) {
    ASSERT_EQ(cluster.add_document(doc.url, doc.body),
              stack.unioned->add_document(doc.url, doc.body));
  }
  for (std::uint32_t s = 0; s < kShards; ++s) {
    ASSERT_GT(cluster.shard(s).writer().buffered_docs(), 0u) << "shard " << s;
  }
  stack.unioned->snapshot()->for_each_term([&stack](std::string_view term) {
    stack.vocab.emplace_back(term);
    return true;
  });
  const auto router = cluster.make_router();
  const auto oracle =
      Searcher::open(SearchSource::live(
                         [w = &*stack.unioned] { return w->snapshot(); }))
          .value();
  const auto queries = sample_queries(stack.vocab, 6, 71);

  {
    io::FaultPlan plan;
    plan.fail_write_at = 1;  // the first segment write, whichever shard issues it
    io::FaultEnv faulty(plan);
    io::ScopedEnv scoped(faulty);
    const auto flushed = cluster.flush();
    ASSERT_FALSE(flushed.has_value());
    EXPECT_EQ(flushed.error().code, ErrorCode::kIo);
  }
  std::uint32_t failed = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const auto& writer = cluster.shard(s).writer();
    if (writer.buffered_docs() != 0) {
      ++failed;
      EXPECT_TRUE(writer.manifest().entries.empty()) << "shard " << s;
    } else {
      EXPECT_EQ(writer.manifest().entries.size(), 1u) << "shard " << s;
    }
  }
  EXPECT_EQ(failed, 1u);
  expect_bit_identical(*router, *oracle, queries, kShards);

  ASSERT_TRUE(cluster.flush().has_value());
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(cluster.shard(s).writer().buffered_docs(), 0u) << "shard " << s;
    EXPECT_EQ(cluster.shard(s).writer().manifest().entries.size(), 1u) << "shard " << s;
  }
  expect_bit_identical(*router, *oracle, queries, kShards);
}

// ------------------------------------------------- queries racing writers

TEST(ClusterRace, RouterQueriesRaceLiveMutation) {
  auto stack = make_twins(PartitionStrategy::kDocument, 2, 1, 0xACE, 60);
  const auto router = stack.cluster->make_router();
  const auto queries = sample_queries(stack.vocab, 8, 61);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::jthread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(200 + c);
      while (!done.load(std::memory_order_relaxed)) {
        QueryRequest request;
        request.query = rng() % 2 == 0
                            ? Query::disjunction(queries[rng() % queries.size()])
                            : Query::bag(queries[rng() % queries.size()]);
        request.use_result_cache = false;
        const auto result = router->search(request);
        // Under concurrent mutation any well-formed outcome is legal; what
        // TSan is here for is the snapshot handoff between router fan-out
        // and writer commits.
        if (result.has_value()) answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // One mutator thread (writers are externally synchronized) drives both
  // twins through adds, deletes, flushes and compaction under fire.
  twin_ingest(stack, 120, 0xBEE);
  ASSERT_TRUE(stack.cluster->flush().has_value());
  ASSERT_TRUE(stack.cluster->compact_now().has_value());
  std::this_thread::sleep_for(50ms);
  done.store(true, std::memory_order_relaxed);
  clients.clear();  // join
  EXPECT_GT(answered.load(), 0u);

  // Post-race: the twins must still agree exactly.
  ASSERT_TRUE(stack.unioned->flush().has_value());
  ASSERT_TRUE(stack.unioned->compact_now().has_value());
  const auto oracle =
      Searcher::open(SearchSource::live(
                         [w = &*stack.unioned] { return w->snapshot(); }))
          .value();
  expect_bit_identical(*router, *oracle, queries, 2);
}

}  // namespace
}  // namespace hetindex
