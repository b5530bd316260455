#include "cluster/router.hpp"

#include <algorithm>
#include <future>
#include <unordered_map>
#include <utility>

#include "search/executor.hpp"
#include "search/topk.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace hetindex {

struct ShardRouter::Instruments {
  obs::Counter& queries;
  obs::Counter& shard_timeouts;
  obs::Counter& shard_sheds;
  obs::Counter& shard_down;
  obs::Counter& failovers;
  obs::Counter& demotions;
  obs::Counter& partials;
  obs::Histo& stats_micros;
  obs::Histo& total_micros;

  explicit Instruments(obs::MetricsRegistry& m)
      : queries(m.counter("cluster_queries_total")),
        shard_timeouts(m.counter("cluster_shard_timeouts_total")),
        shard_sheds(m.counter("cluster_shard_sheds_total")),
        shard_down(m.counter("cluster_shard_down_total")),
        failovers(m.counter("cluster_failovers_total")),
        demotions(m.counter("cluster_replica_demotions_total")),
        partials(m.counter("cluster_partial_responses_total")),
        stats_micros(m.histogram("cluster_stats_micros", 0.0, 16384.0, 64)),
        total_micros(m.histogram("cluster_total_micros", 0.0, 16384.0, 64)) {}
};

namespace {

using Clock = std::chrono::steady_clock;
using Deadline = std::optional<Clock::time_point>;

bool past(const Deadline& deadline) {
  return deadline && Clock::now() >= *deadline;
}

/// Sub-deadline: now + fraction of the remaining budget. No deadline stays
/// no deadline.
Deadline carve(const Deadline& deadline, double fraction) {
  if (!deadline) return std::nullopt;
  const auto now = Clock::now();
  if (now >= *deadline) return now;
  const auto remaining =
      std::chrono::duration_cast<std::chrono::nanoseconds>(*deadline - now);
  return now + std::chrono::nanoseconds(
                   static_cast<std::int64_t>(
                       static_cast<double>(remaining.count()) * fraction));
}

/// The union index's exact result order: score desc, global doc id asc.
void merge_hits(std::vector<ScoredDoc>& hits, std::size_t k) {
  std::sort(hits.begin(), hits.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  });
  if (hits.size() > k) hits.resize(k);
}

}  // namespace

ShardRouter::ShardRouter(std::vector<std::shared_ptr<Shard>> shards,
                         std::shared_ptr<const Partitioner> partitioner,
                         RouterOptions options)
    : shards_(std::move(shards)),
      partitioner_(std::move(partitioner)),
      options_(options),
      metrics_(std::make_unique<obs::MetricsRegistry>()),
      ins_(std::make_unique<Instruments>(*metrics_)) {
  HET_CHECK_MSG(!shards_.empty(), "ShardRouter requires at least one shard");
  HET_CHECK_MSG(partitioner_ != nullptr, "ShardRouter requires a partitioner");
  HET_CHECK_MSG(partitioner_->shards() == shards_.size(),
                "partitioner shard count must match the shard set");
  health_.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    health_[s].resize(shards_[s]->replica_count());
  }
}

ShardRouter::~ShardRouter() = default;

std::vector<std::size_t> ShardRouter::replica_order(std::uint32_t shard) const {
  const auto now = Clock::now();
  std::vector<std::size_t> healthy;
  std::vector<std::size_t> demoted;
  {
    std::lock_guard lock(health_mu_);
    for (std::size_t r = 0; r < health_[shard].size(); ++r) {
      (health_[shard][r].demoted_until <= now ? healthy : demoted).push_back(r);
    }
    std::sort(demoted.begin(), demoted.end(), [&](std::size_t a, std::size_t b) {
      return health_[shard][a].demoted_until < health_[shard][b].demoted_until;
    });
  }
  healthy.insert(healthy.end(), demoted.begin(), demoted.end());
  return healthy;
}

void ShardRouter::record_failure(std::uint32_t shard, std::size_t replica,
                                 FailureKind) const {
  const auto now = Clock::now();
  std::lock_guard lock(health_mu_);
  auto& h = health_[shard][replica];
  h.failures.push_back(now);
  while (!h.failures.empty() && h.failures.front() < now - options_.failure_window) {
    h.failures.pop_front();
  }
  if (h.failures.size() >= options_.demote_after_failures) {
    h.demoted_until = now + options_.demotion_backoff;
    h.failures.clear();
    ins_->demotions.add();
  }
}

void ShardRouter::record_success(std::uint32_t shard, std::size_t replica) const {
  std::lock_guard lock(health_mu_);
  auto& h = health_[shard][replica];
  h.failures.clear();
  h.demoted_until = {};  // an answer IS the health check
}

ShardRouter::FailureKind ShardRouter::classify(const Error& error) {
  switch (error.code) {
    case ErrorCode::kOverloaded: return FailureKind::kShed;
    case ErrorCode::kDeadlineExceeded: return FailureKind::kTimeout;
    default: return FailureKind::kDown;
  }
}

ShardRouter::FailureKind ShardRouter::classify_and_count(const Error& error) const {
  const FailureKind kind = classify(error);
  switch (kind) {
    case FailureKind::kShed: ins_->shard_sheds.add(); break;
    case FailureKind::kTimeout: ins_->shard_timeouts.add(); break;
    case FailureKind::kDown: ins_->shard_down.add(); break;
  }
  return kind;
}

Expected<ShardStatsProbe> ShardRouter::probe_with_failover(
    std::uint32_t shard, const std::vector<std::string>& terms,
    const Deadline deadline) const {
  const auto order = replica_order(shard);
  Error last{ErrorCode::kUnavailable, "no replica tried"};
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (past(deadline)) {
      ins_->shard_timeouts.add();
      return Error{ErrorCode::kDeadlineExceeded, "stats budget exhausted"};
    }
    if (i > 0) ins_->failovers.add();
    auto probe = shards_[shard]->replica(order[i]).probe_stats(terms);
    if (probe) {
      record_success(shard, order[i]);
      return probe;
    }
    last = probe.error();
    record_failure(shard, order[i], classify_and_count(last));
  }
  return last;
}

Expected<std::shared_ptr<const QueryPostings>> ShardRouter::fetch_with_failover(
    std::uint32_t shard, const std::string& term, const Deadline deadline) const {
  const auto order = replica_order(shard);
  Error last{ErrorCode::kUnavailable, "no replica tried"};
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (past(deadline)) {
      ins_->shard_timeouts.add();
      return Error{ErrorCode::kDeadlineExceeded, "fetch budget exhausted"};
    }
    if (i > 0) ins_->failovers.add();
    auto postings = shards_[shard]->replica(order[i]).fetch_postings(term);
    if (postings) {
      record_success(shard, order[i]);
      return postings;
    }
    last = postings.error();
    record_failure(shard, order[i], classify_and_count(last));
  }
  return last;
}

Expected<QueryResponse> ShardRouter::search(const QueryRequest& request,
                                            const Deadline deadline) const {
  if (request.query.empty()) {
    return Error{ErrorCode::kInvalidArgument, "query has no terms"};
  }
  if (request.scatter != nullptr) {
    return Error{ErrorCode::kInvalidArgument,
                 "scatter stats are router-internal; do not set them on a "
                 "cluster request"};
  }
  if (past(deadline)) {
    return Error{ErrorCode::kDeadlineExceeded, "deadline expired before fan-out"};
  }
  ins_->queries.add();
  return partitioner_->strategy() == PartitionStrategy::kTerm
             ? term_routed_search(request, deadline)
             : scatter_search(request, deadline);
}

Expected<QueryResponse> ShardRouter::scatter_search(const QueryRequest& request,
                                                    const Deadline deadline) const {
  const WallTimer total_timer;
  const Query& query = request.query;
  const auto shard_count = static_cast<std::uint32_t>(shards_.size());
  std::vector<ShardState> state(shard_count);
  const QueryClass qclass = query.query_class();

  // Phase 1 (ranked only): aggregate the union corpus's collection stats
  // from exact per-shard integers. A shard that cannot even answer the
  // probe is excluded from the fan-out — its documents are what the
  // partial response is missing. Boolean/positional classes rank by tf,
  // which needs no global stats, so they skip straight to the fan-out.
  std::shared_ptr<ScatterStats> scatter;
  std::vector<bool> eligible(shard_count, true);
  const WallTimer stats_timer;
  if (qclass == QueryClass::kRanked) {
    const std::vector<std::string> terms = query.collect_terms();
    const Deadline stats_deadline = carve(deadline, options_.stats_budget_fraction);
    auto stats = std::make_shared<ScatterStats>();
    stats->term_dfs.assign(terms.size(), 0);
    std::uint64_t token_sum = 0;
    std::uint64_t live_docs = 0;
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      auto probe = probe_with_failover(s, terms, stats_deadline);
      if (!probe) {
        eligible[s] = false;
        state[s].failure = classify(probe.error());
        continue;
      }
      stats->n_docs += probe->n_docs;
      token_sum += probe->token_sum;
      live_docs += probe->live_docs;
      for (std::size_t t = 0; t < terms.size(); ++t) {
        stats->term_dfs[t] += probe->term_dfs[t];
      }
    }
    stats->avgdl = live_docs == 0 ? 0.0
                                  : static_cast<double>(token_sum) /
                                        static_cast<double>(live_docs);
    scatter = std::move(stats);
  }
  ins_->stats_micros.add(stats_timer.seconds() * 1e6);

  // Phase 2: fan out. Every eligible shard's first-choice replica gets the
  // sub-request concurrently (each replica runs its own admission pool);
  // failover retries are sequential per shard, bounded by the same slice.
  // Sub-requests carry the AST: each shard executes the full tree
  // (phrase/NEAR verification included) over its own documents — doc/block
  // partitions hold every doc's postings and positions whole.
  const Deadline exec_deadline = carve(deadline, options_.shard_budget_fraction);
  QueryRequest sub = request;
  sub.timeout = std::chrono::microseconds{0};  // the absolute deadline rules
  sub.use_result_cache = false;  // scatter stats are not in the cache key
  sub.scatter = scatter;

  struct Pending {
    std::future<Expected<QueryResponse>> future;
    std::vector<std::size_t> order;
    std::size_t tried = 0;  // order[tried - 1] is in flight
  };
  std::vector<std::optional<Pending>> pending(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    if (!eligible[s]) continue;
    Pending p;
    p.order = replica_order(s);
    p.future = shards_[s]->replica(p.order[0]).submit(sub, exec_deadline);
    p.tried = 1;
    pending[s] = std::move(p);
  }

  for (std::uint32_t s = 0; s < shard_count; ++s) {
    if (!pending[s]) continue;
    auto& p = *pending[s];
    for (;;) {
      const std::size_t replica = p.order[p.tried - 1];
      if (exec_deadline &&
          p.future.wait_until(*exec_deadline) != std::future_status::ready) {
        // The shard's budget slice is gone — no in-query retry is useful;
        // the recorded failure demotes toward the peer for the next query.
        // The abandoned future is promise-backed: dropping it never blocks.
        ins_->shard_timeouts.add();
        record_failure(s, replica, FailureKind::kTimeout);
        state[s].failure = FailureKind::kTimeout;
        break;
      }
      auto result = p.future.get();
      if (result) {
        record_success(s, replica);
        state[s].answered = true;
        state[s].response = std::move(*result);
        break;
      }
      const FailureKind kind = classify_and_count(result.error());
      record_failure(s, replica, kind);
      state[s].failure = kind;
      if (p.tried < p.order.size() && !past(exec_deadline)) {
        ins_->failovers.add();
        p.future = shards_[s]->replica(p.order[p.tried]).submit(sub, exec_deadline);
        ++p.tried;
        continue;
      }
      break;
    }
  }

  // Gather: translate shard-local ids through the partitioner's closed
  // form and merge into the union order.
  QueryResponse response;
  response.classified = qclass;
  response.shards_total = shard_count;
  bool sub_degraded = false;
  bool all_failures_shed = true;
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    if (!state[s].answered) {
      all_failures_shed = all_failures_shed && state[s].failure == FailureKind::kShed;
      continue;
    }
    ++response.shards_answered;
    sub_degraded = sub_degraded || state[s].response.degraded();
    for (const ScoredDoc& hit : state[s].response.hits) {
      response.hits.push_back({partitioner_->global_doc(s, hit.doc_id), hit.score});
    }
  }
  if (response.shards_answered == 0) {
    return Error{ErrorCode::kUnavailable, "no shard answered the fan-out"};
  }
  if (response.shards_answered < shard_count && !options_.allow_partial) {
    return Error{ErrorCode::kUnavailable,
                 "shard unanswered and partial results are disabled"};
  }
  merge_hits(response.hits, request.k);

  if (response.shards_answered < shard_count) {
    ins_->partials.add();
    response.degradation = all_failures_shed ? Degradation::kShedPartial
                                             : Degradation::kShardPartial;
  } else if (sub_degraded) {
    response.degradation = Degradation::kDeadlinePartial;
  }
  response.timings.lookup_seconds = stats_timer.seconds();  // probe phase
  response.timings.total_seconds = total_timer.seconds();
  response.timings.score_seconds =
      response.timings.total_seconds - response.timings.lookup_seconds;
  ins_->total_micros.add(response.timings.total_seconds * 1e6);
  return response;
}

Expected<QueryResponse> ShardRouter::term_routed_search(const QueryRequest& request,
                                                        const Deadline deadline) const {
  const WallTimer total_timer;
  const Query& query = request.query;
  const Deadline exec_deadline = carve(deadline, options_.shard_budget_fraction);
  const std::vector<std::string> terms = query.collect_terms();

  // Fetch each distinct AST leaf's postings from its owner shard.
  // Duplicated leaves score twice (single-node semantics) but fetch once;
  // lists arrive with positions, so phrase/NEAR constraints verify
  // centrally on the same decoded data a single node would use.
  std::unordered_map<std::string, std::shared_ptr<const QueryPostings>> fetched;
  std::vector<bool> owner_consulted(shards_.size(), false);
  std::vector<bool> owner_answered(shards_.size(), false);
  std::vector<bool> term_ok(terms.size(), false);
  bool any_shed_failure = false;
  bool any_nonshed_failure = false;
  const WallTimer fetch_timer;
  for (std::size_t t = 0; t < terms.size(); ++t) {
    const std::string& term = terms[t];
    const auto it = fetched.find(term);
    if (it != fetched.end()) {
      term_ok[t] = true;
      continue;
    }
    const auto owner = partitioner_->term_shard(term);
    HET_CHECK_MSG(owner.has_value(), "term partitioner must own every term");
    owner_consulted[*owner] = true;
    auto postings = fetch_with_failover(*owner, term, exec_deadline);
    if (!postings) {
      if (postings.error().code == ErrorCode::kOverloaded) {
        any_shed_failure = true;
      } else {
        any_nonshed_failure = true;
      }
      continue;
    }
    owner_answered[*owner] = true;
    fetched.emplace(term, std::move(*postings));
    term_ok[t] = true;
  }

  QueryResponse response;
  response.classified = query.query_class();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (owner_consulted[s]) ++response.shards_total;
    if (owner_answered[s]) ++response.shards_answered;
  }
  const bool all_terms = std::all_of(term_ok.begin(), term_ok.end(),
                                     [](bool ok) { return ok; });
  if (!all_terms && std::none_of(term_ok.begin(), term_ok.end(),
                                 [](bool ok) { return ok; })) {
    return Error{ErrorCode::kUnavailable, "no term owner answered"};
  }
  if (!all_terms && !options_.allow_partial) {
    return Error{ErrorCode::kUnavailable,
                 "term owner unanswered and partial results are disabled"};
  }
  response.timings.lookup_seconds = fetch_timer.seconds();

  // Documents are replicated everywhere; shard 0's committed snapshot is
  // the canonical doc-stats source (storage-level — fault switches model
  // the serving path, not the disk).
  const auto snap = shards_[0]->shared_writer()->snapshot();
  const TombstoneSet* excluded = snap->tombstones();

  const QueryNode& root = query.root();
  if (root.op == QueryOp::kTerm || root.op == QueryOp::kBag) {
    // Central MaxScore over the owner-fetched lists — the Searcher's pruned
    // entry, whose canonical re-sum keeps scores bit-identical to the union
    // index. A term whose owner is down contributes nothing (kShardPartial).
    const WallTimer score_timer;
    DocLengthIndex lengths;
    lengths.add_snapshot(*snap);
    std::vector<TopkTermInput> inputs;
    for (std::size_t t = 0; t < terms.size(); ++t) {
      if (!term_ok[t]) continue;
      const auto& postings = fetched[terms[t]];
      if (postings == nullptr || postings->doc_ids.empty()) continue;
      inputs.push_back(topk_input(t, make_decoded_cursor(postings), postings->doc_ids.size(),
                                  snap->doc_count(), request.bm25));
    }
    auto topk = maxscore_topk(std::move(inputs), request.k, request.bm25, lengths,
                              std::max(snap->average_doc_tokens(), 1e-9), deadline, excluded);
    response.hits = std::move(topk.hits);
    if (topk.degraded) response.degradation = Degradation::kDeadlinePartial;
    response.timings.score_seconds = score_timer.seconds();
  } else {
    // Every other root runs the shared cursor-tree executor over decoded
    // cursors on the fetched lists; a leaf whose owner never answered is
    // "unavailable" and dropped by the executor's rules.
    const auto open = [&](const std::string& term, bool) {
      ExecLeaf leaf;
      const auto it = fetched.find(term);
      if (it == fetched.end()) {
        leaf.unavailable = true;
      } else if (it->second != nullptr && !it->second->doc_ids.empty()) {
        leaf.cursor = make_decoded_cursor(it->second);
      }
      return leaf;
    };
    const LeafSource leaves{open, /*bloom=*/{}};
    auto result = execute_query(root, leaves, request.k, deadline, excluded);
    if (!result.has_value()) return result.error();
    response.hits = std::move(result->hits);
    if (result->degraded) response.degradation = Degradation::kDeadlinePartial;
    response.timings.lookup_seconds += result->lookup_seconds;
    response.timings.score_seconds = result->score_seconds;
  }
  response.timings.total_seconds = total_timer.seconds();

  if (!all_terms) {
    ins_->partials.add();
    response.degradation = (any_shed_failure && !any_nonshed_failure)
                               ? Degradation::kShedPartial
                               : Degradation::kShardPartial;
  }
  ins_->total_micros.add(response.timings.total_seconds * 1e6);
  return response;
}

}  // namespace hetindex
