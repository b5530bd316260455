#include "search/searcher.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>
#include <vector>

#include "live/tombstones.hpp"
#include "postings/cursor.hpp"
#include "search/executor.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace hetindex {

/// Resolved once at construction; the per-query cost is atomic adds and
/// histogram buckets (the ReadInstruments pattern of postings/query.cpp).
struct Searcher::Instruments {
  obs::Counter& queries;
  obs::Counter& degraded;
  obs::Counter& result_hits;
  obs::Counter& result_misses;
  obs::Counter& stats_recomputes;
  obs::Counter& blocks_skipped;
  obs::Counter& blooms_rejected;
  obs::Histo& total_micros;
  obs::Histo& lookup_micros;
  obs::Histo& score_micros;

  explicit Instruments(obs::MetricsRegistry& m)
      : queries(m.counter("search_queries_total")),
        degraded(m.counter("search_degraded_total")),
        result_hits(m.counter("search_result_cache_hits_total")),
        result_misses(m.counter("search_result_cache_misses_total")),
        stats_recomputes(m.counter("search_stats_recomputes_total")),
        blocks_skipped(m.counter("search_blocks_skipped_total")),
        blooms_rejected(m.counter("search_blooms_rejected_total")),
        total_micros(m.histogram("search_total_micros", 0.0, 16384.0, 64)),
        lookup_micros(m.histogram("search_lookup_micros", 0.0, 16384.0, 64)),
        score_micros(m.histogram("search_score_micros", 0.0, 16384.0, 64)) {}
};

namespace {

/// Cache key: snapshot id prefix + payload. \x1e/\x1f are unit separators
/// that cannot appear in normalized terms.
std::string snapshot_key(std::uint64_t snapshot_id, std::string_view payload) {
  std::string key = std::to_string(snapshot_id);
  key += '\x1e';
  key += payload;
  return key;
}

/// Normalized query string: every request field that affects the answer,
/// plus the canonical AST text (Query::to_string preserves operator
/// structure, term order, and multiplicity — duplicates score twice, so
/// they are part of the identity). The root operator is keyed explicitly
/// because a single-child AND/OR prints as its bare child yet ranks by
/// summed tf, not BM25 — the text alone would collide with the ranked form.
std::string normalize_query(const Query& query, const QueryRequest& request) {
  char params[64];
  std::snprintf(params, sizeof(params), "%zu|%.17g|%.17g|%d|%d", request.k,
                request.bm25.k1, request.bm25.b, request.exhaustive ? 1 : 0,
                query.empty() ? -1 : static_cast<int>(query.root().op));
  std::string norm(params);
  norm += '\x1f';
  norm += query.to_string();
  return norm;
}

bool past(const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  return deadline && std::chrono::steady_clock::now() >= *deadline;
}

}  // namespace

SearchSource SearchSource::batch(const InvertedIndex& index, const DocMap& docs) {
  SearchSource source;
  source.index_ = &index;
  source.docs_ = &docs;
  return source;
}

SearchSource SearchSource::batch(const InvertedIndex& index) {
  SearchSource source;
  source.index_ = &index;
  return source;
}

SearchSource SearchSource::snapshot(std::shared_ptr<const LiveSnapshot> snap) {
  SearchSource source;
  if (snap == nullptr) {
    source.null_source_ = true;
    return source;
  }
  source.provider_ = [pinned = std::move(snap)] { return pinned; };
  return source;
}

SearchSource SearchSource::live(SnapshotFn provider) {
  SearchSource source;
  if (provider == nullptr) {
    source.null_source_ = true;
    return source;
  }
  source.provider_ = std::move(provider);
  return source;
}

Expected<std::shared_ptr<Searcher>> Searcher::open(SearchSource source,
                                                   SearcherOptions options) {
  if (source.null_source_) {
    return Error{ErrorCode::kInvalidArgument,
                 "SearchSource requires a non-null snapshot or provider"};
  }
  // The provider is deliberately NOT probed here: live providers may block
  // or become valid only once serving starts (tests gate them on
  // semaphores). A provider resolving null at query time serves nothing.
  // Not make_shared: the binding constructor is private.
  return std::shared_ptr<Searcher>(new Searcher(std::move(source), options));
}

Searcher::Searcher(SearchSource source, SearcherOptions options)
    : index_(source.index_),
      docs_(source.docs_),
      provider_(std::move(source.provider_)),
      metrics_(std::make_unique<obs::MetricsRegistry>()),
      ins_(std::make_unique<Instruments>(*metrics_)),
      result_cache_(options.result_cache_entries, options.cache_shards) {
  HET_CHECK_MSG(!source.null_source_, "Searcher requires a non-null snapshot source");
}

Searcher::~Searcher() = default;

std::shared_ptr<const Searcher::Stats> Searcher::stats_for(
    const std::shared_ptr<const LiveSnapshot>& snap, std::uint64_t snapshot_id) const {
  {
    std::shared_lock lock(stats_mu_);
    if (stats_ != nullptr && stats_->snapshot_id == snapshot_id) return stats_;
  }
  std::unique_lock lock(stats_mu_);
  if (stats_ != nullptr && stats_->snapshot_id == snapshot_id) return stats_;

  // First query against this snapshot pays the stats walk; everyone after
  // reads the shared copy. The recompute counter is the regression probe
  // for "stats are per-snapshot, not per-query".
  ins_->stats_recomputes.add();
  auto stats = std::make_shared<Stats>();
  stats->snapshot_id = snapshot_id;
  if (snap != nullptr) {
    // Live collection stats: doc_count() and average_doc_tokens() both
    // exclude tombstoned docs and include the memtable, so BM25 sees the
    // collection exactly as a fresh batch build of the survivors would.
    stats->n_docs = snap->doc_count();
    stats->avgdl = std::max(snap->average_doc_tokens(), 1e-9);
    stats->lengths.add_snapshot(*snap);
    stats->pin = snap;
  } else {
    stats->n_docs = docs_->doc_count();
    stats->avgdl = std::max(docs_->average_doc_tokens(), 1e-9);
    stats->lengths.add_range(docs_->base(), docs_->doc_count(), docs_);
  }
  stats_ = std::move(stats);
  return stats_;
}

std::unique_ptr<PostingsCursor> Searcher::open_term_cursor(
    const std::shared_ptr<const LiveSnapshot>& snap, const std::string& term,
    bool with_positions) const {
  return snap != nullptr ? snap->open_cursor(term, with_positions)
                         : index_->open_cursor(term, with_positions);
}

BloomChain Searcher::term_bloom_chain(const std::shared_ptr<const LiveSnapshot>& snap,
                                      const std::string& term) const {
  return snap != nullptr ? snap->bloom_chain(term) : index_->bloom_chain(term);
}

Expected<QueryResponse> Searcher::search(
    const QueryRequest& request,
    std::optional<std::chrono::steady_clock::time_point> deadline) const {
  const WallTimer total_timer;
  const Query& query = request.query;
  if (query.empty()) {
    return Error{ErrorCode::kInvalidArgument, "query has no terms"};
  }
  if (past(deadline)) {
    return Error{ErrorCode::kDeadlineExceeded, "deadline expired before execution"};
  }
  ins_->queries.add();

  const auto snap = provider_ ? provider_() : nullptr;
  const std::uint64_t snapshot_id = snap != nullptr ? snap->snapshot_id() : 0;
  // The live tier's delete filter: lookups and cursors stay raw (stable
  // df), every candidate-producing path below drops tombstoned docs. The
  // result cache needs no special handling — every delete publishes a new
  // snapshot_id, which is part of every cache key.
  const TombstoneSet* excluded = snap != nullptr ? snap->tombstones() : nullptr;

  QueryResponse response;
  response.snapshot_id = snapshot_id;
  response.classified = query.query_class();

  // Scatter-stat sub-requests bypass the result cache entirely: the
  // injected global stats are not part of the cache key, so a cached
  // local-stats answer (or caching a global-stats one) would alias wrong
  // results across the two worlds.
  const bool cacheable = request.use_result_cache && request.scatter == nullptr;
  const std::string norm = normalize_query(query, request);
  const std::string result_key = snapshot_key(snapshot_id, norm);
  if (cacheable) {
    if (auto cached = result_cache_.get(result_key)) {
      ins_->result_hits.add();
      response.hits = **cached;
      response.from_cache = true;
      response.timings.total_seconds = total_timer.seconds();
      ins_->total_micros.add(response.timings.total_seconds * 1e6);
      return response;
    }
    ins_->result_misses.add();
  }

  const QueryNode& root = query.root();
  if (root.op == QueryOp::kTerm || root.op == QueryOp::kBag) {
    // Ranked bag-of-words: BM25 top-k over the leaf terms (a kBag root
    // only ever holds kTerm children).
    const std::vector<std::string> terms = query.collect_terms();
    if (snap == nullptr && docs_ == nullptr) {
      return Error{ErrorCode::kInvalidArgument,
                   "ranked queries require a DocMap (BM25 needs document lengths)"};
    }
    // Router-injected global stats (ScatterStats) override the local
    // collection view wherever N, df, or avgdl enters a score — document
    // lengths stay local (each shard owns its docs). A term absent
    // locally simply contributes nothing, exactly as in the union index.
    const ScatterStats* scatter = request.scatter.get();
    if (scatter != nullptr && scatter->term_dfs.size() != terms.size()) {
      return Error{ErrorCode::kInvalidArgument,
                   "scatter stats must carry one df per query term"};
    }
    const auto stats = stats_for(snap, snapshot_id);
    const std::uint64_t n_docs = scatter != nullptr ? scatter->n_docs : stats->n_docs;
    const double avgdl =
        scatter != nullptr ? std::max(scatter->avgdl, 1e-9) : stats->avgdl;
    if (request.exhaustive) {
      // Baseline engine: full decode, hash-map accumulation in query term
      // order — the historical bm25_query, kept as the pruned path's oracle.
      const WallTimer lookup_timer;
      std::vector<std::optional<QueryPostings>> lists;
      lists.reserve(terms.size());
      for (const auto& term : terms) {
        lists.push_back(snap != nullptr ? snap->lookup(term) : index_->lookup(term));
      }
      response.timings.lookup_seconds = lookup_timer.seconds();
      const WallTimer score_timer;
      std::unordered_map<std::uint32_t, double> scores;
      for (std::size_t t = 0; t < terms.size(); ++t) {
        if (past(deadline)) {  // degrade between terms: coarse but exact
          response.degradation = Degradation::kDeadlinePartial;
          break;
        }
        const auto& postings = lists[t];
        if (!postings.has_value() || postings->doc_ids.empty()) continue;
        const double idf = bm25_idf(
            scatter != nullptr ? scatter->term_dfs[t] : postings->doc_ids.size(),
            n_docs);
        for (std::size_t i = 0; i < postings->doc_ids.size(); ++i) {
          const std::uint32_t doc = postings->doc_ids[i];
          if (excluded != nullptr && excluded->contains(doc)) continue;
          const double tf = postings->tfs[i];
          const double dl = stats->lengths.token_count(doc);
          scores[doc] += bm25_contribution(idf, tf, dl, avgdl, request.bm25);
        }
      }
      std::vector<ScoredDoc> ranked;
      ranked.reserve(scores.size());
      for (const auto& [doc, score] : scores) ranked.push_back({doc, score});
      std::sort(ranked.begin(), ranked.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
        if (a.score != b.score) return a.score > b.score;
        return a.doc_id < b.doc_id;
      });
      if (ranked.size() > request.k) ranked.resize(request.k);
      response.hits = std::move(ranked);
      response.timings.score_seconds = score_timer.seconds();
    } else {
      // Pruned engine: lazy block cursors driving Block-Max MaxScore.
      const WallTimer lookup_timer;
      std::vector<TopkTermInput> inputs;
      inputs.reserve(terms.size());
      for (std::size_t t = 0; t < terms.size(); ++t) {
        auto cursor = open_term_cursor(snap, terms[t]);
        if (cursor == nullptr) continue;
        // df from the cursor's skip data — the same integer the decoded
        // list's length would give, so idf matches exhaustive exactly.
        const std::uint64_t df = scatter != nullptr ? scatter->term_dfs[t] : cursor->size();
        inputs.push_back(topk_input(t, std::move(cursor), df, n_docs, request.bm25));
      }
      response.timings.lookup_seconds = lookup_timer.seconds();
      const WallTimer score_timer;
      auto topk = maxscore_topk(std::move(inputs), request.k, request.bm25,
                                stats->lengths, avgdl, deadline, excluded);
      response.hits = std::move(topk.hits);
      if (topk.degraded) response.degradation = Degradation::kDeadlinePartial;
      ins_->blocks_skipped.add(topk.blocks_skipped);
      response.timings.score_seconds = score_timer.seconds();
    }
  } else {
    // Every boolean/positional shape — AND, OR, PHRASE, NEAR, nested to
    // any depth — runs on the cursor-tree executor over index or
    // snapshot cursors, ranked by (tf desc, doc id asc).
    const LeafSource leaves{
        [&](const std::string& term, bool with_positions) {
          ExecLeaf leaf;
          leaf.cursor = open_term_cursor(snap, term, with_positions);
          return leaf;
        },
        [&](const std::string& term) { return term_bloom_chain(snap, term); }};
    auto result = execute_query(root, leaves, request.k, deadline, excluded);
    if (!result.has_value()) return result.error();
    response.hits = std::move(result->hits);
    if (result->degraded) response.degradation = Degradation::kDeadlinePartial;
    ins_->blocks_skipped.add(result->blocks_skipped);
    if (result->blooms_rejected != 0) ins_->blooms_rejected.add(result->blooms_rejected);
    response.timings.lookup_seconds = result->lookup_seconds;
    response.timings.score_seconds = result->score_seconds;
  }
  response.timings.total_seconds = total_timer.seconds();

  if (response.degraded()) ins_->degraded.add();
  ins_->lookup_micros.add(response.timings.lookup_seconds * 1e6);
  ins_->score_micros.add(response.timings.score_seconds * 1e6);
  ins_->total_micros.add(response.timings.total_seconds * 1e6);

  // Degraded answers are timing accidents, not the query's answer — they
  // must never be replayed from the cache.
  if (cacheable && !response.degraded()) {
    result_cache_.put(result_key,
                      std::make_shared<const std::vector<ScoredDoc>>(response.hits));
  }
  return response;
}

}  // namespace hetindex
