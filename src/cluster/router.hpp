#pragma once
/// \file router.hpp
/// ShardRouter — scatter-gather serving over N shards behind the same
/// SearchBackend interface a single Searcher implements (docs/CLUSTER.md).
///
/// Ranked queries over document/block partitions run a two-phase protocol
/// that keeps cluster results bit-identical to a single-node build of the
/// union corpus:
///
///   1. stats phase   every shard is probed for its exact-integer stats
///                    (live docs, token sum, raw df per term); the router
///                    sums them and derives ONE global (N, avgdl, df) set —
///                    the same integers the union index would compute.
///   2. execute phase the request fans out with those ScatterStats
///                    attached; each shard scores its own documents with
///                    global weights (pruned or exhaustive, both exact) and
///                    returns its local top-k; the router translates local
///                    ids through the Partitioner's closed form and merges
///                    by (score desc, global id asc) — the union's exact
///                    order, because every global top-k doc is in its own
///                    shard's top-k and the id mapping is monotone.
///
/// Term-partitioned clusters route differently: each query leaf term's
/// postings are fetched from the shard owning hash(term) — one whole-list
/// fetch per distinct AST leaf, in Query::collect_terms() order — and the
/// router evaluates centrally on the same executors a Searcher uses, over
/// decoded cursors on the fetched lists: Block-Max MaxScore for a ranked
/// root (per-shard partial score sums would not re-add bit-identically,
/// whole postings lists do), and the cursor-tree executor
/// (search/executor.hpp) for boolean/positional roots. Fetched lists carry
/// positions, so phrase/NEAR verification runs at the router. A leaf whose
/// owner did not answer is "unavailable": an AND or OR drops it, a
/// PHRASE/NEAR holding it drops the whole constraint, a ranked root scores
/// without it — and the response is flagged kShardPartial.
///
/// Document/block partitions need no special phrase handling: every doc's
/// postings (and positions) live whole on its shard, so each shard
/// verifies phrase/NEAR locally over the fanned-out AST and the merged
/// (score desc, global id asc) order equals the union index's.
///
/// Deadlines are budgeted: the stats phase gets stats_budget_fraction of
/// the remaining budget, the execute fan-out shard_budget_fraction of what
/// is left (the remainder is the merge reserve). A shard that misses its
/// slice is dropped and the response degrades to a partial
/// (kShardPartial / kShedPartial, with shards_answered < shards_total)
/// instead of blowing the caller's deadline.
///
/// Failover: replicas are tried in health order. A replica that fails
/// `demote_after_failures` times within `failure_window` is demoted for
/// `demotion_backoff` — the router prefers its peers until the backoff
/// lapses (a fully-demoted shard is still probed, so recovery needs no
/// side channel). Down/shed replicas fail fast and the router retries the
/// peer within the same query; a timed-out replica already consumed the
/// shard's budget, so its demotion redirects the next query instead.

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "cluster/partitioner.hpp"
#include "cluster/shard.hpp"
#include "search/backend.hpp"

namespace hetindex {

struct RouterOptions {
  /// Fraction of the remaining budget granted to the ranked stats phase.
  double stats_budget_fraction = 0.35;
  /// Fraction of the post-stats budget granted to the shard fan-out; the
  /// rest is reserved for translation + merge.
  double shard_budget_fraction = 0.85;
  /// Health policy: demote a replica after this many failures...
  std::uint32_t demote_after_failures = 2;
  /// ...within this window...
  std::chrono::milliseconds failure_window{5000};
  /// ...for this long (peers are preferred until it lapses).
  std::chrono::milliseconds demotion_backoff{2000};
  /// When false, any unanswered shard fails the whole query with
  /// kUnavailable instead of returning a flagged partial.
  bool allow_partial = true;
};

class ShardRouter final : public SearchBackend {
 public:
  /// `shards` and `partitioner` must describe the same cluster (the
  /// Partitioner's shard count must equal shards.size()).
  ShardRouter(std::vector<std::shared_ptr<Shard>> shards,
              std::shared_ptr<const Partitioner> partitioner,
              RouterOptions options = {});
  ~ShardRouter() override;

  using SearchBackend::search;
  [[nodiscard]] Expected<QueryResponse> search(
      const QueryRequest& request,
      std::optional<std::chrono::steady_clock::time_point> deadline) const override;

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const Partitioner& partitioner() const { return *partitioner_; }

  /// cluster_* instruments: cluster_queries_total,
  /// cluster_shard_timeouts_total, cluster_shard_sheds_total,
  /// cluster_shard_down_total, cluster_failovers_total,
  /// cluster_replica_demotions_total, cluster_partial_responses_total,
  /// plus stats/total latency histograms (docs/OBSERVABILITY.md).
  [[nodiscard]] const obs::MetricsRegistry& metrics() const override { return *metrics_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() override { return *metrics_; }

 private:
  struct Instruments;
  enum class FailureKind { kTimeout, kShed, kDown };
  struct ReplicaHealth {
    std::deque<std::chrono::steady_clock::time_point> failures;
    std::chrono::steady_clock::time_point demoted_until{};
  };
  /// Per-shard outcome of one fan-out.
  struct ShardState {
    bool answered = false;
    FailureKind failure = FailureKind::kDown;
    QueryResponse response;
  };

  [[nodiscard]] Expected<QueryResponse> scatter_search(
      const QueryRequest& request,
      std::optional<std::chrono::steady_clock::time_point> deadline) const;
  [[nodiscard]] Expected<QueryResponse> term_routed_search(
      const QueryRequest& request,
      std::optional<std::chrono::steady_clock::time_point> deadline) const;

  /// Replica indices of `shard` in health order: non-demoted first (by
  /// index), then demoted (earliest-recovering first) so a fully-demoted
  /// shard still gets probed.
  [[nodiscard]] std::vector<std::size_t> replica_order(std::uint32_t shard) const;
  void record_failure(std::uint32_t shard, std::size_t replica, FailureKind kind) const;
  void record_success(std::uint32_t shard, std::size_t replica) const;

  [[nodiscard]] Expected<ShardStatsProbe> probe_with_failover(
      std::uint32_t shard, const std::vector<std::string>& terms,
      std::optional<std::chrono::steady_clock::time_point> deadline) const;
  [[nodiscard]] Expected<std::shared_ptr<const QueryPostings>> fetch_with_failover(
      std::uint32_t shard, const std::string& term,
      std::optional<std::chrono::steady_clock::time_point> deadline) const;

  /// Failure taxonomy by error code; classify_and_count also bumps the
  /// per-kind cluster_* counter (one bump per failed replica call).
  [[nodiscard]] static FailureKind classify(const Error& error);
  FailureKind classify_and_count(const Error& error) const;

  std::vector<std::shared_ptr<Shard>> shards_;
  std::shared_ptr<const Partitioner> partitioner_;
  RouterOptions options_;

  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<Instruments> ins_;

  mutable std::mutex health_mu_;
  mutable std::vector<std::vector<ReplicaHealth>> health_;  // [shard][replica]
};

}  // namespace hetindex
