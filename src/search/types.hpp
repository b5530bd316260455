#pragma once
/// \file types.hpp
/// Value types of the search serving API: one QueryRequest in, one
/// QueryResponse out, whatever the query shape. These replaced the scattered
/// per-style entry points (the since-removed bm25_query and
/// conjunctive_query free functions) — a caller builds a request, hands it
/// to a Searcher or SearchService, and gets back hits plus the execution
/// story (timings, cache provenance, degradation) in one struct.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "postings/ranking.hpp"
#include "search/query_ast.hpp"

namespace hetindex {

/// How complete a response is. PR 4 conflated every partial answer in one
/// `degraded` bool; the cluster tier needs to distinguish "the deadline cut
/// execution short" from "a shard shed" from "a shard was unreachable", so
/// the flag became this enum.
enum class Degradation {
  kComplete,         ///< the full answer
  kDeadlinePartial,  ///< deadline hit mid-execution: best candidates so far
  kShedPartial,      ///< cluster: unanswered shards shed under load
  kShardPartial,     ///< cluster: a shard was down or timed out past failover
};

/// Stable lowercase identifier for logs and CLI output.
constexpr const char* degradation_name(Degradation d) {
  switch (d) {
    case Degradation::kComplete: return "complete";
    case Degradation::kDeadlinePartial: return "deadline_partial";
    case Degradation::kShedPartial: return "shed_partial";
    case Degradation::kShardPartial: return "shard_partial";
  }
  return "unknown";
}

/// Global collection statistics a ShardRouter injects into a shard-local
/// sub-request so BM25 scores computed on one shard are bit-identical to a
/// single-node build of the union corpus: idf needs the global df and N,
/// the length normalization needs the global avgdl. All three are exact
/// integer aggregates (avgdl is the one division), so every shard derives
/// the same doubles the union index would.
struct ScatterStats {
  std::uint64_t n_docs = 0;            ///< live documents, cluster-wide
  double avgdl = 0;                    ///< global mean tokens per live doc
  /// Raw df per query leaf term, parallel to Query::collect_terms() order.
  std::vector<std::uint64_t> term_dfs;
};

/// One query. The AST (`query`) is the request surface: build it with
/// parse_query("fast \"inverted files\" AND gpu") or the Query factories.
/// Leaf terms must already be normalized (parse_query normalizes for you;
/// the factories don't — see normalize_term); duplicates are honored, not
/// deduplicated — a repeated term scores twice, matching the historical
/// bm25_query behaviour.
struct QueryRequest {
  /// The structured query; an empty Query is rejected (kInvalidArgument).
  Query query;
  std::size_t k = 10;
  /// Execution budget; zero means no deadline. The clock starts when the
  /// request enters the system (SearchService::submit), so queue wait
  /// counts against it. A deadline that expires before execution rejects
  /// with kDeadlineExceeded; one that hits mid-execution degrades to an
  /// approximate top-k (QueryResponse::degraded).
  std::chrono::microseconds timeout{0};
  Bm25Params bm25;  ///< ranked (bag/term root) queries only
  /// Forces the exhaustive scorer (full decode + hash-map accumulation)
  /// instead of the Block-Max MaxScore early-termination executor. The two
  /// return identical rankings; exhaustive exists as the correctness
  /// baseline (the equivalence suite diffs the two bit-for-bit).
  bool exhaustive = false;
  /// Opt out of the query-result cache.
  bool use_result_cache = true;
  /// Router-supplied global stats for ranked sub-requests (see
  /// ScatterStats). Null for ordinary single-node queries. Requests
  /// carrying scatter stats bypass the result cache — the stats are not
  /// part of the cache key, and a cached local-stats answer would be wrong.
  std::shared_ptr<const ScatterStats> scatter;
};

/// Where the wall time of one request went, in seconds.
struct QueryTimings {
  double total_seconds = 0;   ///< entry to response
  double lookup_seconds = 0;  ///< opening cursors / fetching postings lists
  double score_seconds = 0;   ///< cursor draining, scoring, ranking
};

/// One answered query.
struct QueryResponse {
  std::vector<ScoredDoc> hits;  ///< ranked per query class, at most k
  QueryTimings timings;
  /// How complete the answer is (see Degradation). Anything but kComplete
  /// means hits are a valid but possibly incomplete subset; degraded
  /// responses are never cached.
  Degradation degradation = Degradation::kComplete;
  [[nodiscard]] bool degraded() const { return degradation != Degradation::kComplete; }
  /// The class the query executed as (derived from the AST by the backend
  /// that answered) — lets callers bucket latency per class without
  /// re-deriving it from the request.
  [[nodiscard]] QueryClass query_class() const { return classified; }
  QueryClass classified = QueryClass::kRanked;  ///< set by the backend
  bool from_cache = false;  ///< served verbatim from the result cache
  /// Identity of the snapshot that answered (0 for a batch index; 0 for a
  /// cluster response, which merges many snapshots).
  std::uint64_t snapshot_id = 0;
  /// Cluster provenance: shards that contributed vs. shards asked. 0/0
  /// means the response did not pass through a router.
  std::uint32_t shards_answered = 0;
  std::uint32_t shards_total = 0;
};

}  // namespace hetindex
