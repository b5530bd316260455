#pragma once
/// \file searcher.hpp
/// The one query facade. A Searcher binds a corpus view — a batch
/// InvertedIndex + DocMap, a pinned LiveSnapshot, or a provider that
/// follows a live writer — and answers QueryRequests of every Query AST
/// shape (search/query_ast.hpp) through the SearchBackend interface.
/// Two executors, picked by the root operator:
///
///   term / bag root    ranked BM25 top-k: Block-Max MaxScore over lazy
///                      block cursors (search/topk.hpp), or the exhaustive
///                      decode-and-accumulate oracle when the request asks
///   any other root     the cursor-tree executor (search/executor.hpp):
///                      AND / OR / PHRASE / NEAR at any nesting depth
///
/// Shared across requests:
///
///   collection stats   N and avgdl computed once per snapshot (guarded by
///                      a snapshot-id check, not per query — the
///                      search_stats_recomputes_total counter proves it)
///   finished results   sharded LRU keyed on (snapshot id, normalized
///                      query); never stores degraded responses
///
/// Construction goes through one factory: `Searcher::open(SearchSource)`
/// returning Expected — the SearchSource factories name the corpus view
/// (`batch`, `snapshot`, `live`). The former constructor overloads (and
/// their deprecation shims) are gone; open() is the only entry point.
///
/// Snapshot changes invalidate nothing explicitly: keys embed the snapshot
/// id, so stale entries simply stop being reachable and age out.
///
/// Thread safety: search() is const and safe to call concurrently from any
/// number of threads — SearchService runs a pool of them against one
/// Searcher. The Searcher is immovable (instruments and caches are
/// address-stable for the service's lifetime).

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>

#include "live/segment_set.hpp"
#include "obs/metrics.hpp"
#include "postings/doc_map.hpp"
#include "postings/query.hpp"
#include "search/backend.hpp"
#include "search/cache.hpp"
#include "search/topk.hpp"
#include "search/types.hpp"
#include "util/error.hpp"

namespace hetindex {

/// Source of the current snapshot for a live-following Searcher; typically
/// `[&writer] { return writer.snapshot(); }`. Must be callable from any
/// thread.
using SnapshotFn = std::function<std::shared_ptr<const LiveSnapshot>()>;

/// Names the corpus view a Searcher serves. Value type handed to
/// Searcher::open(); exactly one factory below applies.
class SearchSource {
 public:
  /// A batch index + doc map (every query mode). Both references must
  /// outlive the Searcher.
  [[nodiscard]] static SearchSource batch(const InvertedIndex& index, const DocMap& docs);
  /// A batch index with no doc map: boolean modes only — ranked requests
  /// report kInvalidArgument (BM25 needs document lengths).
  [[nodiscard]] static SearchSource batch(const InvertedIndex& index);
  /// One pinned live snapshot (held alive by the Searcher).
  [[nodiscard]] static SearchSource snapshot(std::shared_ptr<const LiveSnapshot> snap);
  /// Follows a live index: every search() resolves the provider, so
  /// queries always see the latest committed snapshot and caches roll over
  /// with the snapshot id.
  [[nodiscard]] static SearchSource live(SnapshotFn provider);

 private:
  friend class Searcher;
  SearchSource() = default;

  const InvertedIndex* index_ = nullptr;
  const DocMap* docs_ = nullptr;
  SnapshotFn provider_;
  bool null_source_ = false;  ///< snapshot(nullptr)/live(nullptr): open() refuses
};

struct SearcherOptions {
  std::size_t result_cache_entries = 1024;  ///< finished queries retained
  std::size_t cache_shards = 8;             ///< lock granularity of the cache
};

class Searcher : public SearchBackend {
 public:
  /// The one way to build a Searcher: bind a SearchSource. kInvalidArgument
  /// when the source holds a null snapshot or provider function. A live
  /// provider is never invoked here — it may legitimately block until
  /// serving starts; resolving null at query time simply serves nothing.
  /// Returns a shared_ptr because every downstream consumer (SearchService,
  /// ShardReplica) shares ownership.
  [[nodiscard]] static Expected<std::shared_ptr<Searcher>> open(
      SearchSource source, SearcherOptions options = {});
  ~Searcher() override;

  Searcher(const Searcher&) = delete;
  Searcher& operator=(const Searcher&) = delete;

  using SearchBackend::search;  // the one-argument convenience entry

  /// Answers one request against an absolute deadline that may predate
  /// this call — SearchService passes the deadline computed at submit time
  /// so queue wait counts against the budget. The root of `request.query`
  /// picks the executor; the response's `classified` reports the derived
  /// QueryClass. Errors: kInvalidArgument (empty
  /// query, malformed scatter stats, phrase/NEAR over a non-positional
  /// index, ranked without a DocMap), kDeadlineExceeded (expired on
  /// entry).
  [[nodiscard]] Expected<QueryResponse> search(
      const QueryRequest& request,
      std::optional<std::chrono::steady_clock::time_point> deadline) const override;

  /// search_* instruments: queries/degraded/cache hit-miss counters,
  /// per-stage latency histograms, stats-recompute counter. SearchService
  /// adds its admission metrics to this same registry.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const override { return *metrics_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() override { return *metrics_; }

 private:
  struct Instruments;
  /// Collection statistics of one snapshot, shared by concurrent queries.
  struct Stats {
    std::uint64_t snapshot_id = 0;
    std::uint64_t n_docs = 0;
    double avgdl = 0;
    DocLengthIndex lengths;
    std::shared_ptr<const LiveSnapshot> pin;  ///< keeps doc maps alive
  };

  Searcher(SearchSource source, SearcherOptions options);

  [[nodiscard]] std::shared_ptr<const Stats> stats_for(
      const std::shared_ptr<const LiveSnapshot>& snap, std::uint64_t snapshot_id) const;
  [[nodiscard]] std::unique_ptr<PostingsCursor> open_term_cursor(
      const std::shared_ptr<const LiveSnapshot>& snap, const std::string& term,
      bool with_positions = false) const;
  /// The term's Bloom rejection chain over the bound view; empty (never
  /// rejects) on a run-file batch index.
  [[nodiscard]] BloomChain term_bloom_chain(
      const std::shared_ptr<const LiveSnapshot>& snap, const std::string& term) const;

  // Exactly one source is active: (index_, docs_) or provider_.
  const InvertedIndex* index_ = nullptr;
  const DocMap* docs_ = nullptr;
  SnapshotFn provider_;

  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<Instruments> ins_;

  mutable std::shared_mutex stats_mu_;
  mutable std::shared_ptr<const Stats> stats_;  // current snapshot's stats

  mutable ShardedLruCache<std::string, std::shared_ptr<const std::vector<ScoredDoc>>>
      result_cache_;
};

}  // namespace hetindex
