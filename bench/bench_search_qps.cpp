/// \file bench_search_qps.cpp
/// Serving throughput of the Searcher/SearchService stack (docs/SERVING.md,
/// not a paper table): QPS and latency percentiles versus executor thread
/// count, cold-versus-warm result cache at two cache sizes, the MaxScore
/// executor against the exhaustive baseline, and a mixed-class workload
/// (ranked/AND/phrase/NEAR at fixed ratios) with per-class percentiles.
/// Writes the per-class summary to BENCH_search.json (path overridable via
/// HETINDEX_BENCH_JSON) — scripts/tier1.sh archives it next to the build
/// tree.
///
/// Thread-scaling rows bypass the result cache so every request pays the
/// full lookup+score cost — otherwise the second pass would measure the
/// cache, not the executor.

#include <algorithm>
#include <future>
#include <random>
#include <thread>

#include "bench_common.hpp"
#include "obs/json.hpp"
#include "util/timer.hpp"

using namespace hetindex;
using namespace hetindex::bench;

namespace {

struct Workload {
  std::vector<std::vector<std::string>> queries;
};

Workload make_workload(const InvertedIndex& index, std::size_t count) {
  std::vector<std::string> vocab;
  std::size_t i = 0;
  index.for_each_term([&](std::string_view t) {
    if (i++ % 23 == 0) vocab.emplace_back(t);
  });
  // Heavier-than-interactive queries (many terms, deep k below) so worker
  // execution, not client-side submission, is what the sweep measures.
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> pick(0, vocab.size() - 1);
  std::uniform_int_distribution<std::size_t> arity(4, 8);
  Workload w;
  w.queries.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    std::vector<std::string> terms;
    for (std::size_t t = arity(rng); t > 0; --t) terms.push_back(vocab[pick(rng)]);
    w.queries.push_back(std::move(terms));
  }
  return w;
}

struct RunResult {
  double qps = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  std::uint64_t answered = 0;
};

/// One timed sweep of the workload through a service: `passes` rounds,
/// futures drained in queue-sized windows like a real client would.
RunResult run_workload(SearchService& service, const Workload& workload,
                       std::size_t passes, bool use_result_cache) {
  std::vector<double> latencies;
  latencies.reserve(workload.queries.size() * passes);
  RunResult result;
  std::vector<std::future<Expected<QueryResponse>>> inflight;
  const auto drain = [&] {
    for (auto& fut : inflight) {
      auto r = fut.get();
      if (!r.has_value()) continue;  // shed: counted via metrics below
      ++result.answered;
      latencies.push_back(r.value().timings.total_seconds);
    }
    inflight.clear();
  };
  const WallTimer timer;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (const auto& terms : workload.queries) {
      QueryRequest request;
      request.query = Query::bag(terms);
      request.k = 100;
      request.use_result_cache = use_result_cache;
      inflight.push_back(service.submit(std::move(request)));
      if (inflight.size() >= service.queue_capacity() / 2) drain();
    }
  }
  drain();
  const double wall = timer.seconds();
  result.qps = result.answered / std::max(wall, 1e-9);
  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&](double q) {
    if (latencies.empty()) return 0.0;
    return latencies[std::min(latencies.size() - 1,
                              static_cast<std::size_t>(q * latencies.size()))] *
           1e6;
  };
  result.p50_us = pct(0.50);
  result.p95_us = pct(0.95);
  result.p99_us = pct(0.99);
  return result;
}

}  // namespace

int main() {
  banner("Search serving: QPS and latency under the SearchService pool",
         "serving extension over the §III inverted files (not a paper table)");

  CollectionSpec spec = wikipedia_like();
  spec.total_bytes = static_cast<std::uint64_t>(24.0 * (1 << 20) * scale());
  const auto coll = cached_collection(spec);

  const std::string index_dir = bench_dir() + "/search_qps_idx";
  std::filesystem::remove_all(index_dir);
  IndexBuilder builder;
  builder.parsers(2).cpu_indexers(2).emit_segment(true);
  // The mixed-class section issues phrase/NEAR queries, which need the
  // positional payload; ranked/AND rows are unaffected by carrying it.
  builder.config().parser.record_positions = true;
  const auto report = builder.build(coll.paths(), index_dir);
  const auto index = InvertedIndex::open(index_dir, {}).value();
  const auto docs = DocMap::open(doc_map_path(index_dir));
  std::printf("corpus: %llu docs, %llu terms; %u hardware "
              "threads (thread rows flatten when the pool exceeds them)\n\n",
              static_cast<unsigned long long>(report.documents),
              static_cast<unsigned long long>(report.terms),
              std::thread::hardware_concurrency());

  const auto workload = make_workload(index, 256);
  SearchServiceOptions service_opts;
  service_opts.queue_capacity = 1024;  // benching executors, not admission

  // ---- QPS vs executor threads (result cache bypassed). ----
  std::printf("%-10s %10s %10s %10s %10s\n", "threads", "QPS", "p50 us", "p95 us",
              "p99 us");
  row_sep(54);
  double qps_1 = 0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    auto searcher = Searcher::open(SearchSource::batch(index, docs)).value();
    service_opts.threads = threads;
    SearchService service(searcher, service_opts);
    const auto r = run_workload(service, workload, 4, /*use_result_cache=*/false);
    if (threads == 1) qps_1 = r.qps;
    std::printf("%-10zu %10.0f %10.1f %10.1f %10.1f\n", threads, r.qps, r.p50_us,
                r.p95_us, r.p99_us);
  }

  // ---- Cold vs warm result cache, small and ample capacity. ----
  std::printf("\n%-14s %12s %12s %10s %10s\n", "result cache", "cold QPS",
              "warm QPS", "speedup", "hit rate");
  row_sep(64);
  double warm_speedup = 0;
  for (const std::size_t entries : {64u, 4096u}) {
    SearcherOptions searcher_opts;
    searcher_opts.result_cache_entries = entries;
    auto searcher =
        Searcher::open(SearchSource::batch(index, docs), searcher_opts).value();
    service_opts.threads = 4;
    SearchService service(searcher, service_opts);
    const auto cold = run_workload(service, workload, 1, true);
    const auto before = service.metrics().snapshot();
    const auto warm = run_workload(service, workload, 2, true);
    const auto after = service.metrics().snapshot();
    const double hits =
        static_cast<double>(after.counter("search_result_cache_hits_total") -
                            before.counter("search_result_cache_hits_total"));
    const double rate = hits / std::max<double>(1.0, static_cast<double>(warm.answered));
    if (entries == 4096u) warm_speedup = warm.qps / std::max(cold.qps, 1e-9);
    std::printf("%-14zu %12.0f %12.0f %9.1fx %9.0f%%\n", entries, cold.qps, warm.qps,
                warm.qps / std::max(cold.qps, 1e-9), rate * 100.0);
  }

  // ---- MaxScore early termination vs the exhaustive baseline. ----
  std::printf("\n%-12s %10s %10s %10s\n", "executor", "QPS", "p50 us", "p99 us");
  row_sep(46);
  for (const bool exhaustive : {true, false}) {
    auto searcher = Searcher::open(SearchSource::batch(index, docs)).value();
    service_opts.threads = 1;
    SearchService service(searcher, service_opts);
    std::vector<double> latencies;
    std::uint64_t answered = 0;
    const WallTimer timer;
    for (int pass = 0; pass < 4; ++pass) {
      for (const auto& terms : workload.queries) {
        QueryRequest request;
        request.query = Query::bag(terms);
        request.k = 10;
        request.exhaustive = exhaustive;
        request.use_result_cache = false;
        const auto r = service.search(std::move(request));
        if (!r.has_value()) continue;
        ++answered;
        latencies.push_back(r.value().timings.total_seconds);
      }
    }
    const double wall = timer.seconds();
    std::sort(latencies.begin(), latencies.end());
    const auto pct = [&](double q) {
      return latencies.empty()
                 ? 0.0
                 : latencies[std::min(latencies.size() - 1,
                                      static_cast<std::size_t>(q * latencies.size()))] *
                       1e6;
    };
    std::printf("%-12s %10.0f %10.1f %10.1f\n", exhaustive ? "exhaustive" : "maxscore",
                answered / std::max(wall, 1e-9), pct(0.50), pct(0.99));
  }

  // ---- Mixed query classes: ranked / AND / phrase / NEAR at fixed ratios. ----
  // Operands come from the highest-df stems so the document-level
  // intersections the positional verifier runs behind are non-trivial.
  // Per-class percentiles mirror what the serve verb reports in production;
  // the JSON below archives them for trend tooling.
  std::vector<std::string> frequent;
  index.for_each_term([&frequent](std::string_view t) { frequent.emplace_back(t); });
  std::sort(frequent.begin(), frequent.end(),
            [&index](const auto& a, const auto& b) {
              const auto pa = index.lookup(a), pb = index.lookup(b);
              return (pa ? pa->doc_ids.size() : 0) > (pb ? pb->doc_ids.size() : 0);
            });
  if (frequent.size() > 256) frequent.resize(256);
  std::mt19937 mixed_rng(29);
  std::uniform_int_distribution<std::size_t> pick_frequent(0, frequent.size() - 1);
  const auto draw = [&](std::size_t n) {
    std::vector<std::string> terms;
    for (std::size_t t = 0; t < n; ++t) terms.push_back(frequent[pick_frequent(mixed_rng)]);
    return terms;
  };
  // Fixed ratios per 20 queries: 8 ranked, 5 AND, 4 phrase, 3 NEAR/3.
  std::vector<Query> mixed;
  for (std::size_t q = 0; q < 240; ++q) {
    switch (q % 20) {
      case 0: case 1: case 2: case 3: case 4: case 5: case 6: case 7:
        mixed.push_back(Query::bag(draw(3 + q % 3)));
        break;
      case 8: case 9: case 10: case 11: case 12:
        mixed.push_back(Query::conjunction(draw(2 + q % 2)));
        break;
      case 13: case 14: case 15: case 16:
        mixed.push_back(Query::phrase(draw(2)));
        break;
      default:
        mixed.push_back(Query::near(draw(2), 3));
        break;
    }
  }

  struct ClassRow {
    std::vector<double> lat;
  };
  constexpr std::size_t kClasses = 5;
  ClassRow classes[kClasses];
  std::uint64_t mixed_answered = 0;
  const WallTimer mixed_timer;
  {
    auto searcher = Searcher::open(SearchSource::batch(index, docs)).value();
    service_opts.threads = 4;
    SearchService service(searcher, service_opts);
    for (int pass = 0; pass < 3; ++pass) {
      for (const auto& query : mixed) {
        QueryRequest request;
        request.query = query;
        request.k = 10;
        request.use_result_cache = false;
        const auto r = service.search(std::move(request));
        if (!r.has_value()) continue;
        ++mixed_answered;
        const auto cls = static_cast<std::size_t>(r.value().query_class());
        if (cls < kClasses) classes[cls].lat.push_back(r.value().timings.total_seconds);
      }
    }
  }
  const double mixed_wall = mixed_timer.seconds();
  std::printf("\nmixed workload (8:5:4:3 ranked:AND:phrase:NEAR per 20): %llu "
              "answered, %.0f QPS overall\n",
              static_cast<unsigned long long>(mixed_answered),
              mixed_answered / std::max(mixed_wall, 1e-9));
  std::printf("%-12s %8s %10s %10s\n", "class", "queries", "p50 us", "p99 us");
  row_sep(44);
  std::string json = "{\n  \"bench\": \"search_qps\",\n  \"mixed_classes\": [\n";
  bool first_row = true;
  for (std::size_t c = 0; c < kClasses; ++c) {
    auto& lat = classes[c].lat;
    if (lat.empty()) continue;
    std::sort(lat.begin(), lat.end());
    const auto pc = [&](double q) {
      return lat[std::min(lat.size() - 1, static_cast<std::size_t>(q * lat.size()))] * 1e6;
    };
    const char* name = query_class_name(static_cast<QueryClass>(c));
    std::printf("%-12s %8zu %10.1f %10.1f\n", name, lat.size(), pc(0.50), pc(0.99));
    if (!first_row) json += ",\n";
    first_row = false;
    json += "    {\"class\": \"" + std::string(name) +
            "\", \"count\": " + std::to_string(lat.size()) +
            ", \"p50_us\": " + obs::json_number(pc(0.50)) +
            ", \"p99_us\": " + obs::json_number(pc(0.99)) + "}";
  }
  json += "\n  ]\n}\n";
  const char* out = std::getenv("HETINDEX_BENCH_JSON");
  const std::string json_path = out != nullptr ? out : "BENCH_search.json";
  write_file(json_path, std::vector<std::uint8_t>(json.begin(), json.end()));
  std::printf("\nwrote %s\n", json_path.c_str());

  // Degenerate-measurement guard: the workload issues ranked, AND, phrase
  // and NEAR queries, so an empty bucket for any of them means one whole
  // class silently failed (e.g. a non-positional index erroring phrases).
  for (const QueryClass required :
       {QueryClass::kRanked, QueryClass::kConjunctive, QueryClass::kPhrase,
        QueryClass::kProximity}) {
    if (classes[static_cast<std::size_t>(required)].lat.empty()) {
      std::printf("FAIL: mixed-class workload answered no %s queries\n",
                  query_class_name(required));
      return 1;
    }
  }

  std::printf("\nsingle-thread QPS %.0f; identical rankings across executors is "
              "enforced by tests/test_search_service.cpp; warm-cache speedup %.1fx\n",
              qps_1, warm_speedup);
  return 0;
}
