/// \file hetbench.cpp
/// The hetindex benchmark: one workload per process, inputs generated from
/// --seed, every layer measured from outside through its public calls and
/// the MetricsRegistry snapshots the program already exports.
///
///   hetbench --workload <build_batch|search_mixed|live_churn|cluster_doc4>
///            --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
///
/// Prints every metric as "metric <name> <value> <unit>", then one JSON
/// line {"workload", "seed", "trace", "correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}, "tails": {...}}. An output check
/// that fails prints the failure, reports no metrics and exits 1.
///
/// Untraced runs give the end-to-end numbers. A traced run (--trace 1)
/// also records a span around every call into the program and writes them
/// to <work-dir>/trace-<workload>-<seed>.json; the per-layer numbers, the
/// spans' self times and the tracing overhead come from that run.
///
/// Workloads and their reasons are in README.md beside this file.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "core/hetindex.hpp"
#include "harness.hpp"
#include "text/html_strip.hpp"
#include "text/stopwords.hpp"
#include "text/tokenizer.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace fs = std::filesystem;
using namespace hetindex;
using namespace hetbench;

namespace {

constexpr std::uint64_t kMB = 1ull << 20;
constexpr std::size_t kPoolQueries = 16384;  // distinct queries, > the 1024-entry result cache
constexpr double kPopularitySkew = 0.7;      // Zipf over the query pool
constexpr double kTermSkew = 1.0;            // Zipf over df rank
constexpr std::size_t kCorporaKept = 6;      // generated corpora cached per work dir
constexpr int kSetupRepeats = 9;             // set-up is timed this often; the median is reported

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".hetbench";
};

/// Everything one run measures and checks.
struct Run {
  Args args;
  fs::path dir;  ///< scratch directory of this run, removed at exit
  Tracer tracer;
  Clock::time_point origin = Clock::now();
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, Percentile>> tails;
  std::vector<std::string> failures;
  std::atomic<std::uint64_t> attempted{0};  // caller threads count too
  std::atomic<std::uint64_t> failed{0};

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void operation(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double seconds(double share) const { return std::max(1.0, args.seconds * share); }
  std::string path(const std::string& name) const { return (dir / name).string(); }
};

double ms_since(Clock::time_point t) { return ms_between(t, Clock::now()); }

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

// ------------------------------------------------------------ inputs

struct Corpus {
  std::vector<std::string> paths;
  std::uint64_t raw_bytes = 0;
  std::vector<Document> docs;
};

/// The collection for (preset, size, seed), generated once per work dir and
/// reused by later runs with the same seed. Only the newest few corpora are
/// kept, so the cache stays a few times the corpus size.
Corpus corpus(const Run& run, CollectionSpec spec, std::uint64_t bytes) {
  spec.total_bytes = bytes;
  spec.file_bytes = 4 * kMB;
  spec.seed = run.args.seed;
  const fs::path root = fs::path(run.args.work_dir) / "corpus";
  const fs::path dir = root / (spec.name + "_" + std::to_string(bytes / kMB) + "mb_" +
                               std::to_string(run.args.seed));
  const fs::path stamp = dir / ".complete";
  if (!fs::exists(stamp)) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    generate_collection(spec, dir.string());
    write_file(stamp.string(), {});
  }
  fs::last_write_time(stamp, fs::file_time_type::clock::now());

  std::vector<std::pair<fs::file_time_type, fs::path>> cached;
  for (const auto& e : fs::directory_iterator(root)) {
    const auto s = e.path() / ".complete";
    if (fs::exists(s)) cached.emplace_back(fs::last_write_time(s), e.path());
  }
  std::sort(cached.rbegin(), cached.rend());
  for (std::size_t i = kCorporaKept; i < cached.size(); ++i) fs::remove_all(cached[i].second);

  Corpus c;
  for (std::size_t f = 0;; ++f) {
    const fs::path p = dir / (spec.name + "_" + std::to_string(f) + ".hdc");
    if (!fs::exists(p)) break;
    c.paths.push_back(p.string());
    c.raw_bytes += container_uncompressed_size(p.string());
    for (auto& d : container_read(p.string())) c.docs.push_back(std::move(d));
  }
  return c;
}

/// 16384 distinct queries in the fixed 8:5:4:3 ranked:AND:phrase:NEAR mix
/// (8:5 ranked:AND without positions). Terms are drawn Zipf(1.0) over
/// document-frequency rank, measured on a document sample; phrase and NEAR
/// operands are word pairs that occur next to each other (or two apart)
/// in corpus documents, so they match.
std::vector<Query> query_pool(const Corpus& c, bool html, bool positional, std::uint64_t seed) {
  Rng rng(seed ^ 0x51E7);
  const auto& stop = default_stopwords();
  std::unordered_map<std::string, std::uint32_t> df;
  std::vector<std::pair<std::string, std::string>> adjacent, near;
  for (std::size_t s = 0; s < std::min<std::size_t>(2000, c.docs.size()); ++s) {
    const auto& body = c.docs[rng.below(c.docs.size())].body;
    const auto tokens = tokenize_to_vector(html ? html_strip(body) : body);
    std::set<std::string> seen;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (stop.contains(tokens[i])) continue;
      if (auto stem = normalize_term(tokens[i]); !stem.empty() && seen.insert(stem).second) {
        ++df[stem];
      }
      if (i + 1 < tokens.size() && !stop.contains(tokens[i + 1]) && rng.below(8) == 0) {
        adjacent.emplace_back(tokens[i], tokens[i + 1]);
      }
      if (i + 2 < tokens.size() && !stop.contains(tokens[i + 2]) && rng.below(8) == 0) {
        near.emplace_back(tokens[i], tokens[i + 2]);
      }
    }
  }
  std::vector<std::pair<std::uint32_t, std::string>> ranked;
  for (auto& [term, n] : df) ranked.emplace_back(n, term);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first != b.first ? a.first > b.first
                                                                         : a.second < b.second; });
  ranked.resize(std::min<std::size_t>(ranked.size(), 8192));
  const ZipfSampler term_rank(ranked.size(), kTermSkew);
  const auto draw = [&](std::size_t n) {
    std::vector<std::string> terms;
    while (terms.size() < n) {
      const auto& t = ranked[term_rank(rng) - 1].second;
      if (std::find(terms.begin(), terms.end(), t) == terms.end()) terms.push_back(t);
    }
    return terms;
  };

  std::vector<Query> pool;
  std::set<std::string> distinct;
  for (std::size_t i = 0; pool.size() < kPoolQueries && i < 40 * kPoolQueries; ++i) {
    Query q;
    const std::size_t slot = positional ? i % 20 : i % 13;
    if (slot < 8) {
      q = Query::bag(draw(2 + rng.below(3)));
    } else if (slot < 13) {
      q = Query::conjunction(draw(2));
    } else if (slot < 17) {
      const auto& [a, b] = adjacent[rng.below(adjacent.size())];
      auto parsed = parse_query("\"" + a + " " + b + "\"");
      if (!parsed) continue;
      q = std::move(parsed).value();
    } else {
      const auto& [a, b] = near[rng.below(near.size())];
      auto parsed = parse_query(a + " NEAR/3 " + b);
      if (!parsed) continue;
      q = std::move(parsed).value();
    }
    if (distinct.insert(q.to_string()).second) pool.push_back(std::move(q));
  }
  return pool;
}

// ------------------------------------------------------------ query load

using Backend = std::function<Expected<QueryResponse>(const QueryRequest&)>;

struct QueryOutcome {
  CallTiming t;
  std::size_t query = 0;  ///< index into the pool
  QueryClass cls = QueryClass::kRanked;
  bool ok = false;        ///< answered, complete, every shard answered
  double exec_ms = -1;    ///< the backend's own timings.total_seconds
  std::uint32_t shards_answered = 0;
  Degradation degradation = Degradation::kComplete;
  std::uint64_t mark = 0;  ///< workload value read just before the call
  std::vector<ScoredDoc> hits;
};

QueryRequest request_for(const Query& q, bool use_cache) {
  QueryRequest r;
  r.query = q;
  r.k = 10;
  r.use_result_cache = use_cache;
  return r;
}

/// Open-loop load: `callers` threads share `rate`, each drawing queries by
/// Zipf popularity over the pool. Runs while until(due) holds; `stream`
/// selects an independent query sequence.
std::vector<QueryOutcome> fixed_rate(Run& run, const Backend& backend,
                                     const std::vector<Query>& pool, double rate, int callers,
                                     bool use_cache,
                                     const std::function<bool(Clock::time_point)>& until,
                                     std::uint64_t stream,
                                     const std::function<std::uint64_t()>& mark = {}) {
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::vector<QueryOutcome>> per_caller(static_cast<std::size_t>(callers));
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      Rng rng((run.args.seed * 1000003 + stream) * 64 + static_cast<std::uint64_t>(c));
      const ZipfSampler popularity(pool.size(), kPopularitySkew);
      auto& out = per_caller[static_cast<std::size_t>(c)];
      const auto timings = open_loop(
          rate / callers, static_cast<double>(c) / callers, start, until,
          [&](std::size_t, Clock::time_point) {
            QueryOutcome o;
            o.query = popularity(rng) - 1;
            if (mark) o.mark = mark();
            const auto r = backend(request_for(pool[o.query], use_cache));
            if (r) {
              o.cls = r->query_class();
              o.exec_ms = r->timings.total_seconds * 1e3;
              o.degradation = r->degradation;
              o.shards_answered = r->shards_answered;
              o.ok = !r->degraded() && r->shards_answered == r->shards_total;
              o.hits = r->hits;
            }
            out.push_back(std::move(o));
          });
      for (std::size_t i = 0; i < timings.size(); ++i) out[i].t = timings[i];
    });
  }
  for (auto& t : threads) t.join();

  std::vector<QueryOutcome> all;
  for (auto& v : per_caller) {
    for (auto& o : v) {
      run.operation(o.ok);
      if (run.args.trace) {
        const auto req = run.tracer.new_request();
        const auto root = run.tracer.record("query", 0, req,
                                            o.t.backlogged ? o.t.due : o.t.sent, o.t.done);
        const auto call = run.tracer.record("call", root, req, o.t.sent, o.t.done);
        if (o.exec_ms >= 0) {
          const auto exec = std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::milli>(o.exec_ms));
          run.tracer.record("exec", call, req, std::max(o.t.sent, o.t.done - exec), o.t.done);
        }
      }
      all.push_back(std::move(o));
    }
  }
  return all;
}

std::function<bool(Clock::time_point)> for_seconds(double s) {
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(s));
  return [end](Clock::time_point due) { return due < end; };
}

/// Client-side latency metrics of a fixed-rate phase, plus the per-layer
/// split of each request: the generator's own lateness and the backend's
/// execution time, overall and per query class.
void latency_metrics(Run& run, const std::vector<QueryOutcome>& fixed) {
  std::vector<double> lat, late, exec;
  std::map<QueryClass, std::vector<double>> lat_by, exec_by;
  for (const auto& o : fixed) {
    lat.push_back(o.t.latency_ms());
    late.push_back(o.t.late_ms());
    lat_by[o.cls].push_back(o.t.latency_ms());
    if (o.ok && o.exec_ms >= 0) {
      exec.push_back(o.exec_ms);
      exec_by[o.cls].push_back(o.exec_ms);
    }
  }
  const auto p99 = percentile(lat, 99);
  run.check(supported(p99), "query.p99_ms: fewer than 10 samples beyond p99 (" +
                                std::to_string(p99.samples) + " samples)");
  run.tails.push_back({"query.p99_ms", p99});
  run.metric("query_p50_ms", median(lat), "ms");
  run.metric("query_p90_ms", percentile(lat, 90).value, "ms");
  run.metric("query.p99_ms", p99.value, "ms");
  run.metric("loadgen.late_ms_p99", percentile(late, 99).value, "ms");
  run.metric("search.exec_ms_p50", median(exec), "ms");
  run.metric("search.exec_ms_p99", percentile(exec, 99).value, "ms");
  for (const auto cls : {QueryClass::kRanked, QueryClass::kConjunctive, QueryClass::kPhrase,
                         QueryClass::kProximity}) {
    const std::string name = query_class_name(cls);
    run.metric("search.exec_ms_p50." + name, median(exec_by[cls]), "ms");
    const auto p95 = percentile(lat_by[cls], 95);
    if (supported(p95)) {
      run.metric("query.p95_ms." + name, p95.value, "ms");
      run.tails.push_back({"query.p95_ms." + name, p95});
    }
  }
}

/// Counter totals summed over several registries (one per cluster replica).
std::map<std::string, double> counters(const std::vector<const obs::MetricsRegistry*>& regs) {
  std::map<std::string, double> out;
  for (const auto* r : regs) {
    for (const auto& c : r->snapshot().counters) out[c.name] += static_cast<double>(c.value);
  }
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& name) {
  const auto get = [&](const auto& m) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  return get(after) - get(before);
}

/// Ratios from the Searcher registries (and, in a cluster, the replicas'
/// SearchService admission counters) over a phase.
void searcher_metrics(Run& run, const std::map<std::string, double>& before,
                      const std::map<std::string, double>& after) {
  const auto d = [&](const char* name) { return delta(before, after, name); };
  const double queries = d("search_queries_total");
  run.metric("search.result_cache_hit_ratio",
             ratio(d("search_result_cache_hits_total"),
                   d("search_result_cache_hits_total") + d("search_result_cache_misses_total")),
             "ratio");
  run.metric("search.blocks_skipped_per_query", ratio(d("search_blocks_skipped_total"), queries),
             "count");
  run.metric("search.blooms_rejected_per_query",
             ratio(d("search_blooms_rejected_total"), queries), "count");
  run.metric("search.stats_recomputes_per_query",
             ratio(d("search_stats_recomputes_total"), queries), "count");
  run.metric("search.degraded_ratio", ratio(d("search_degraded_total"), queries), "ratio");
  run.metric("search.shed_ratio",
             ratio(d("search_shed_total") + d("search_deadline_rejected_total"),
                   d("search_requests_total")),
             "ratio");
}

bool same_hits(const std::vector<ScoredDoc>& a, const std::vector<ScoredDoc>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](const auto& x, const auto& y) {
    return x.doc_id == y.doc_id && x.score == y.score;
  });
}

void span_metrics(Run& run) {
  if (!run.args.trace) return;
  const auto self = run.tracer.self_ms();
  for (const char* name : {"query", "call", "exec", "build", "open", "writer.add",
                           "writer.update", "writer.delete", "writer.flush", "writer.compact"}) {
    const auto it = self.find(name);
    if (it != self.end()) run.metric(std::string("span.") + name + ".self_ms_p50",
                                     median(it->second), "ms");
  }
}

// ------------------------------------------------------------ batch build

PipelineReport build(Run& run, PipelineConfig config, const Corpus& c, const std::string& dir,
                     double& wall_s) {
  fs::remove_all(dir);
  config.output_dir = dir;
  PipelineEngine engine(config);
  const auto t0 = Clock::now();
  auto report = engine.build(c.paths);
  const auto t1 = Clock::now();
  wall_s = ms_between(t0, t1) / 1e3;
  if (run.args.trace) run.tracer.record("build", 0, run.tracer.new_request(), t0, t1);
  run.operation(report.ok());
  run.check(report.ok(), "build failed: " + (report.ok() ? "" : report.error->to_string()));
  return report;
}

/// The Fig. 9 / Table VI stage ledger along the critical path (median over
/// builds): sampling, then parsing overlapped with indexing, then the
/// dictionary, segment fold and the residual the stages do not cover.
void pipeline_metrics(Run& run, const std::vector<PipelineReport>& reports) {
  const auto med = [&](const std::function<double(const PipelineReport&)>& f) {
    std::vector<double> v;
    for (const auto& r : reports) v.push_back(f(r));
    return median(v);
  };
  const auto timec = [](const char* name) {
    return [name](const PipelineReport& r) { return r.metrics.time_seconds(name); };
  };
  run.metric("pipeline.total_s", med([](const auto& r) { return r.total_seconds; }), "s");
  run.metric("pipeline.sampling_s", med([](const auto& r) { return r.sampling_seconds; }), "s");
  run.metric("pipeline.parse_index_s", med([](const auto& r) { return r.index_stage_seconds; }),
             "s");
  run.metric("dict.combine_s", med([](const auto& r) { return r.dict_combine_seconds; }), "s");
  run.metric("dict.write_s", med([](const auto& r) { return r.dict_write_seconds; }), "s");
  run.metric("postings.segment_s", med([](const auto& r) { return r.segment_seconds; }), "s");
  run.metric("pipeline.residual_s", med([](const auto& r) {
               return r.total_seconds - r.sampling_seconds - r.index_stage_seconds -
                      r.dict_combine_seconds - r.dict_write_seconds - r.merge_seconds -
                      r.segment_seconds;
             }),
             "s");
  run.metric("io.read_stall_s", med([](const auto& r) { return r.read_stall_seconds; }), "s");
  run.metric("corpus.decompress_busy_s", med(timec("stage_decompress_seconds_total")), "s");
  run.metric("parse.busy_s", med(timec("stage_parse_seconds_total")), "s");
  run.metric("index.cpu_busy_s", med(timec("stage_cpu_index_seconds_total")), "s");
  run.metric("postings.flush_busy_s", med(timec("stage_flush_seconds_total")), "s");
  run.metric("pipeline.reorder_producer_stall_s",
             med(timec("reorder_buffer_producer_stall_seconds_total")), "s");
  run.metric("pipeline.reorder_consumer_stall_s",
             med(timec("reorder_buffer_consumer_stall_seconds_total")), "s");
  run.metric("index.cpu_imbalance", med([](const PipelineReport& r) {
               double max = 0, sum = 0;
               for (std::size_t i = 0; i < r.config.cpu_indexers; ++i) {
                 const double s = r.metrics.time_seconds("indexer_cpu" + std::to_string(i) +
                                                         "_busy_seconds_total");
                 max = std::max(max, s);
                 sum += s;
               }
               return ratio(max * static_cast<double>(r.config.cpu_indexers), sum);
             }),
             "ratio");
  run.metric("dict.terms", med([](const auto& r) { return static_cast<double>(r.terms); }),
             "count");
  run.metric("index.postings", med([](const auto& r) { return static_cast<double>(r.postings); }),
             "count");
  run.metric("postings.segment_bytes",
             med([](const auto& r) { return static_cast<double>(r.segment_bytes); }), "bytes");
}

/// A batch index opened for serving.
struct BatchServe {
  std::optional<InvertedIndex> index;
  std::optional<DocMap> docs;
  std::shared_ptr<Searcher> searcher;
};

std::unique_ptr<BatchServe> open_batch(Run& run, const std::string& dir, double& open_ms) {
  auto s = std::make_unique<BatchServe>();
  const auto t0 = Clock::now();
  auto index = InvertedIndex::open(dir, {});
  const auto t1 = Clock::now();
  open_ms = ms_between(t0, t1);
  if (run.args.trace) run.tracer.record("open", 0, run.tracer.new_request(), t0, t1);
  run.check(index.has_value(), "InvertedIndex::open(" + dir + ") failed");
  if (!index) return nullptr;
  s->index.emplace(std::move(index).value());
  s->docs.emplace(DocMap::open(doc_map_path(dir)));
  s->searcher = Searcher::open(SearchSource::batch(*s->index, *s->docs)).value();
  return s;
}

struct BatchParams {
  CollectionSpec spec;
  bool positional = false;
  bool warmup = false;
  double slice_share = 0.1;  ///< query time per round, as a share of --seconds
};

/// build_batch and search_mixed. The first timed build becomes the serving
/// index; then rounds of (open-loop queries against it, one more timed
/// build, re-opens of the serving index) repeat for --seconds, so builds,
/// set-ups and queries are all sampled across the whole run rather than in
/// one stretch of it.
void batch_workload(Run& run, const BatchParams& p) {
  const Corpus c = corpus(run, p.spec, 16 * kMB);
  PipelineConfig config;
  config.parsers = 2;
  config.cpu_indexers = 2;
  config.gpus = 0;
  config.emit_segment = true;
  config.parser.record_positions = p.positional;

  std::vector<PipelineReport> reports;
  std::vector<double> walls;
  std::vector<std::uint8_t> first_segment;
  const auto timed_build = [&](const std::string& dir) {
    double wall = 0;
    auto report = build(run, config, c, dir, wall);
    if (!report.ok()) return false;
    walls.push_back(wall);
    const auto segment = read_file(IndexLayout::segment_path(dir));
    const auto verified = verify_index(dir);
    run.check(verified.ok, "verify_index(" + dir + ") failed: " +
                               (verified.errors.empty() ? "" : verified.errors.front()));
    if (reports.empty()) {
      first_segment = segment;
    } else {
      run.check(segment == first_segment, dir + "/index.seg differs from the first build's");
    }
    reports.push_back(std::move(report));
    return true;
  };

  const auto start = Clock::now();
  if (p.warmup) {
    double wall = 0;
    build(run, config, c, run.path("warmup"), wall);
    fs::remove_all(run.path("warmup"));
  }
  const std::string serving_dir = run.path("serving");
  if (!timed_build(serving_dir)) return;
  run.metric("index_bytes_ratio",
             static_cast<double>(dir_bytes(serving_dir)) / static_cast<double>(c.raw_bytes),
             "ratio");

  // Set-up: open the built index for serving (InvertedIndex, DocMap, Searcher).
  std::vector<double> setup, open_ms;
  const auto open = [&] {
    double ms = 0;
    const auto t0 = Clock::now();
    auto s = open_batch(run, serving_dir, ms);
    setup.push_back(ms_since(t0) / 1e3);
    open_ms.push_back(ms);
    return s;
  };
  const auto serve = open();
  if (!serve) return;

  const auto pool = query_pool(c, p.spec.html_markup, p.positional, run.args.seed);
  const Backend backend = [&](const QueryRequest& r) { return serve->searcher->search(r); };
  const auto index_before = counters({&serve->index->metrics()});
  const auto search_before = counters({&serve->searcher->metrics()});
  std::vector<QueryOutcome> fixed;
  for (std::uint64_t round = 0; round < 3 || ms_since(start) < run.args.seconds * 1e3;
       ++round) {
    auto slice = fixed_rate(run, backend, pool, 1000, 3, true,
                            for_seconds(run.seconds(p.slice_share)), round);
    fixed.insert(fixed.end(), std::make_move_iterator(slice.begin()),
                 std::make_move_iterator(slice.end()));
    const std::string dir = run.path("build");
    if (!timed_build(dir)) return;
    fs::remove_all(dir);
    for (int i = 0; i < 3; ++i) {
      if (!open()) return;
    }
  }
  const auto index_after = counters({&serve->index->metrics()});
  searcher_metrics(run, search_before, counters({&serve->searcher->metrics()}));
  run.metric("index_mb_s", static_cast<double>(c.raw_bytes) / kMB / median(walls), "MB/s");
  pipeline_metrics(run, reports);
  run.metric("setup_s", median(setup), "s");
  run.metric("postings.open_ms", median(open_ms), "ms");
  latency_metrics(run, fixed);
  run.metric("postings.lookups_per_query",
             ratio(delta(index_before, index_after, "query_lookups_total"),
                   static_cast<double>(fixed.size())),
             "count");

  // Pruned execution must equal the exhaustive scorer bit for bit.
  std::size_t compared = 0;
  for (std::size_t i = 0; i < fixed.size(); i += 64) {
    const auto& o = fixed[i];
    if (!o.ok) continue;
    auto req = request_for(pool[o.query], false);
    req.exhaustive = true;
    const auto oracle = serve->searcher->search(req);
    run.check(oracle.has_value() && same_hits(o.hits, oracle->hits),
              "query " + pool[o.query].to_string() + " differs from the exhaustive scorer");
    ++compared;
  }
  run.check(compared > 0, "no query was compared against the exhaustive scorer");
}

// ------------------------------------------------------------ live churn

/// A live index and a Searcher following its writer.
struct LiveStack {
  std::unique_ptr<IndexWriter> writer;
  std::shared_ptr<Searcher> searcher;

  /// Closes the Searcher before the writer it follows.
  void close() {
    searcher.reset();
    writer.reset();
  }
};

LiveStack open_live(const std::string& dir, const IndexWriterOptions& options) {
  LiveStack s;
  s.writer = std::make_unique<IndexWriter>(IndexWriter::open(dir, options).value());
  IndexWriter* w = s.writer.get();
  s.searcher = Searcher::open(SearchSource::live([w] { return w->snapshot(); })).value();
  return s;
}

/// One writer thread adds the corpus with an update after every 4th add and
/// a delete after every 16th, then flush() and compact_now(), while one
/// caller queries the live index open-loop at 200 QPS. Passes repeat, each
/// into a fresh directory, for most of --seconds.
void live_churn(Run& run) {
  const Corpus c = corpus(run, wikipedia_like(), 8 * kMB);
  const auto pool = query_pool(c, false, true, run.args.seed);
  IndexWriterOptions options;
  options.parser.record_positions = true;

  std::vector<double> setup, mb_s, docs_s, bytes_ratio, add_ms, update_ms, delete_ms, compact_s;
  std::map<std::string, std::pair<std::string, std::vector<double>>> writer_stats;  // unit, values
  std::vector<QueryOutcome> fixed;
  std::map<std::string, double> search_before, search_after;
  LiveStack stack;
  Rng rng(run.args.seed ^ 0x11FE);
  const auto phase_start = Clock::now();
  for (int pass = 0; pass < 2 || ms_since(phase_start) < run.seconds(0.9) * 1e3; ++pass) {
    stack.close();
    fs::remove_all(run.path("live"));
    stack = open_live(run.path("live"), options);
    IndexWriter& w = *stack.writer;
    const auto before = counters({&stack.searcher->metrics()});
    for (const auto& [k, v] : before) search_before[k] += v;

    std::mutex dead_mu;
    std::vector<std::uint32_t> dead;  // deleted or superseded, in order
    std::atomic<bool> stop{false};
    const Backend backend = [&](const QueryRequest& r) { return stack.searcher->search(r); };
    std::vector<QueryOutcome> outcomes;
    std::thread caller([&] {
      outcomes = fixed_rate(
          run, backend, pool, 200, 1, true, [&](Clock::time_point) { return !stop.load(); },
          static_cast<std::uint64_t>(pass), [&] {
            std::scoped_lock lock(dead_mu);
            return static_cast<std::uint64_t>(dead.size());
          });
    });

    const auto op = [&](const char* name, auto&& fn) {
      const auto s = Clock::now();
      fn();
      const auto e = Clock::now();
      if (run.args.trace) run.tracer.record(name, 0, run.tracer.new_request(), s, e);
      return ms_between(s, e);
    };
    std::vector<std::uint32_t> live;
    std::uint64_t ops = 0, input_bytes = 0;
    const auto ingest_start = Clock::now();
    for (std::size_t n = 1; n <= c.docs.size(); ++n) {
      const auto& doc = c.docs[n - 1];
      add_ms.push_back(op("writer.add", [&] {
        live.push_back(w.add_document(doc.url, doc.body));
        run.operation(true);
      }));
      input_bytes += doc.body.size();
      ++ops;
      if (n % 4 == 0) {
        const std::size_t victim = rng.below(live.size());
        const auto& body = c.docs[rng.below(c.docs.size())].body;
        update_ms.push_back(op("writer.update", [&] {
          const auto id = w.update_document(live[victim], doc.url, body);
          run.operation(id.has_value());
          if (!id) return;
          std::scoped_lock lock(dead_mu);
          dead.push_back(live[victim]);
          live[victim] = id.value();
        }));
        input_bytes += body.size();
        ++ops;
      }
      if (n % 16 == 0) {
        const std::size_t victim = rng.below(live.size());
        delete_ms.push_back(op("writer.delete", [&] {
          const auto st = w.delete_document(live[victim]);
          run.operation(st.has_value());
          if (!st) return;
          std::scoped_lock lock(dead_mu);
          dead.push_back(live[victim]);
          live[victim] = live.back();
          live.pop_back();
        }));
        ++ops;
      }
    }
    op("writer.flush", [&] { run.check(w.flush().has_value(), "live flush failed"); });
    compact_s.push_back(op("writer.compact", [&] {
      run.check(w.compact_now().has_value(), "compact_now failed");
    }) / 1e3);
    const double pass_s = ms_since(ingest_start) / 1e3;
    stop = true;
    caller.join();

    mb_s.push_back(static_cast<double>(input_bytes) / kMB / pass_s);
    docs_s.push_back(static_cast<double>(ops) / pass_s);
    const auto snap = w.metrics().snapshot();
    const double flushed = static_cast<double>(snap.counter("live_flushed_bytes_total"));
    const double merged = static_cast<double>(snap.counter("compaction_bytes_written_total"));
    const auto* segments = snap.gauge("live_segments_active");
    for (const auto& [name, unit, value] : std::initializer_list<
             std::tuple<const char*, const char*, double>>{
             {"live.flush_busy_s", "s", snap.time_seconds("live_flush_seconds_total")},
             {"live.compaction_busy_s", "s", snap.time_seconds("compaction_seconds_total")},
             {"live.flushes", "count", static_cast<double>(snap.counter("live_flushes_total"))},
             {"live.compactions", "count", static_cast<double>(snap.counter("compactions_total"))},
             {"live.reclaimed_docs", "count",
              static_cast<double>(snap.counter("compaction_reclaimed_docs_total"))},
             {"live.segments_end", "count",
              segments != nullptr ? static_cast<double>(segments->value) : 0.0},
             {"live.write_amp", "ratio", ratio(flushed + merged, flushed)},
             {"live.bytes_written_per_input_byte", "ratio",
              ratio(flushed + merged, static_cast<double>(input_bytes))}}) {
      writer_stats[name].first = unit;
      writer_stats[name].second.push_back(value);
    }

    // Checks: no response shows a document deleted or superseded before the
    // query was sent, and the writer's live count matches ours.
    std::unordered_map<std::uint32_t, std::size_t> dead_at;
    for (std::size_t i = 0; i < dead.size(); ++i) dead_at.emplace(dead[i], i);
    for (const auto& o : outcomes) {
      for (const auto& h : o.hits) {
        const auto it = dead_at.find(h.doc_id);
        run.check(it == dead_at.end() || it->second >= o.mark,
                  "doc " + std::to_string(h.doc_id) + " returned after it was deleted");
      }
    }
    for (std::size_t i = 0; i < 64 && i < pool.size(); ++i) {
      const auto r = stack.searcher->search(request_for(pool[i * 97 % pool.size()], false));
      run.check(r.has_value(), "post-compaction query failed");
      for (const auto& h : r ? r->hits : std::vector<ScoredDoc>{}) {
        run.check(!dead_at.contains(h.doc_id),
                  "doc " + std::to_string(h.doc_id) + " returned after compaction");
      }
    }
    run.check(w.committed_docs() - w.deleted_docs() == live.size(),
              "committed_docs - deleted_docs = " +
                  std::to_string(w.committed_docs() - w.deleted_docs()) + ", expected " +
                  std::to_string(live.size()));
    const auto after = counters({&stack.searcher->metrics()});
    for (const auto& [k, v] : after) search_after[k] += v;
    fixed.insert(fixed.end(), std::make_move_iterator(outcomes.begin()),
                 std::make_move_iterator(outcomes.end()));

    // Index size once no reader pins a replaced segment any more.
    stack.searcher.reset();
    bytes_ratio.push_back(static_cast<double>(dir_bytes(run.path("live"))) /
                          static_cast<double>(input_bytes));

    // Set-up: reopen the finished index (recovery, segment open) and bind a
    // Searcher to it.
    for (int i = 0; i < kSetupRepeats / 3; ++i) {
      stack.close();
      const auto t0 = Clock::now();
      stack = open_live(run.path("live"), options);
      setup.push_back(ms_since(t0) / 1e3);
    }
  }

  run.metric("setup_s", median(setup), "s");
  run.metric("index_mb_s", median(mb_s), "MB/s");
  run.metric("index_bytes_ratio", median(bytes_ratio), "ratio");
  run.metric("live.ingest_docs_s", median(docs_s), "1/s");
  run.metric("live.add_ms_p50", median(add_ms), "ms");
  run.metric("live.add_ms_p99", percentile(add_ms, 99).value, "ms");
  run.metric("live.update_ms_p50", median(update_ms), "ms");
  run.metric("live.delete_ms_p50", median(delete_ms), "ms");
  run.metric("live.compact_now_s", median(compact_s), "s");
  for (const auto& [name, stat] : writer_stats) run.metric(name, median(stat.second), stat.first);
  latency_metrics(run, fixed);
  searcher_metrics(run, search_before, search_after);
}

// ------------------------------------------------------------ cluster

/// A cluster and the router bound to it.
struct ClusterHandle {
  std::optional<Cluster> cluster;
  std::shared_ptr<ShardRouter> router;

  /// Drops the router before the cluster it routes over.
  void close() {
    router.reset();
    cluster.reset();
  }
};

/// Document-partitioned cluster, 4 shards x 1 replica. The first timed
/// ingest becomes the serving cluster; then rounds of (open-loop queries
/// through ShardRouter::search with the result cache off, one more timed
/// ingest into a scratch cluster, re-opens of it) repeat for --seconds.
void cluster_doc4(Run& run) {
  const Corpus c = corpus(run, wikipedia_like(), 8 * kMB);
  const auto pool = query_pool(c, false, true, run.args.seed);
  ClusterOptions options;
  options.strategy = PartitionStrategy::kDocument;
  options.shards = 4;
  options.replicas = 1;
  options.serving.service.threads = 1;
  options.writer.parser.record_positions = true;

  std::vector<double> setup, add_ms, mb_s, docs_s;
  const auto open = [&](ClusterHandle& h, const std::string& dir) {
    h.close();
    h.cluster.emplace(Cluster::open(dir, options).value());
    h.router = h.cluster->make_router();
  };
  // Ingests the corpus into a fresh cluster; set-up is re-opening it
  // (shard recovery) and binding its router.
  const auto ingest = [&](ClusterHandle& h, const std::string& dir) {
    h.close();
    fs::remove_all(dir);
    open(h, dir);
    const auto t0 = Clock::now();
    for (const auto& doc : c.docs) {
      const auto s = Clock::now();
      (void)h.cluster->add_document(doc.url, doc.body);
      const auto e = Clock::now();
      add_ms.push_back(ms_between(s, e));
      if (run.args.trace) run.tracer.record("writer.add", 0, run.tracer.new_request(), s, e);
      run.operation(true);
    }
    const auto f = Clock::now();
    const auto flushed = h.cluster->flush();
    if (run.args.trace) {
      run.tracer.record("writer.flush", 0, run.tracer.new_request(), f, Clock::now());
    }
    run.operation(flushed.has_value());
    run.check(flushed.has_value(), "cluster flush failed");
    const double ingest_s = ms_since(t0) / 1e3;
    mb_s.push_back(static_cast<double>(c.raw_bytes) / kMB / ingest_s);
    docs_s.push_back(static_cast<double>(c.docs.size()) / ingest_s);
    for (int i = 0; i < 3; ++i) {
      const auto r0 = Clock::now();
      open(h, dir);
      setup.push_back(ms_since(r0) / 1e3);
    }
  };

  const auto start = Clock::now();
  ClusterHandle serving;
  ingest(serving, run.path("cluster"));
  run.metric("index_bytes_ratio",
             static_cast<double>(dir_bytes(run.path("cluster"))) /
                 static_cast<double>(c.raw_bytes),
             "ratio");
  const auto& router = serving.router;
  std::vector<const obs::MetricsRegistry*> replicas;
  for (std::uint32_t s = 0; s < 4; ++s) {
    replicas.push_back(&serving.cluster->shard(s).replica(0).metrics());
  }
  const auto search_before = counters(replicas);
  const auto router_before = counters({&router->metrics()});
  const Backend backend = [&](const QueryRequest& r) { return router->search(r); };
  std::vector<QueryOutcome> fixed;
  for (std::uint64_t round = 0; round < 3 || ms_since(start) < run.args.seconds * 1e3;
       ++round) {
    auto slice =
        fixed_rate(run, backend, pool, 500, 3, false, for_seconds(run.seconds(0.15)), round);
    fixed.insert(fixed.end(), std::make_move_iterator(slice.begin()),
                 std::make_move_iterator(slice.end()));
    ClusterHandle scratch;
    ingest(scratch, run.path("scratch"));
  }
  fs::remove_all(run.path("scratch"));
  searcher_metrics(run, search_before, counters(replicas));
  const auto router_after = counters({&router->metrics()});
  run.metric("setup_s", median(setup), "s");
  run.metric("index_mb_s", median(mb_s), "MB/s");
  run.metric("cluster.ingest_docs_s", median(docs_s), "1/s");
  run.metric("cluster.add_ms_p50", median(add_ms), "ms");
  run.metric("cluster.add_ms_p99", percentile(add_ms, 99).value, "ms");
  run.metric("cluster.partial_ratio",
             ratio(delta(router_before, router_after, "cluster_partial_responses_total"),
                   delta(router_before, router_after, "cluster_queries_total")),
             "ratio");
  run.metric("cluster.failovers",
             delta(router_before, router_after, "cluster_failovers_total"), "count");
  latency_metrics(run, fixed);
  std::vector<double> router_ms;
  for (const auto& o : fixed) {
    router_ms.push_back(o.exec_ms);
    run.check(o.degradation == Degradation::kComplete && o.shards_answered == 4,
              "router response incomplete: " + std::string(degradation_name(o.degradation)) +
                  ", " + std::to_string(o.shards_answered) + "/4 shards");
  }
  run.metric("cluster.router_ms_p50", median(router_ms), "ms");
  run.metric("cluster.router_ms_p99", percentile(router_ms, 99).value, "ms");

  if (run.args.trace) {
    // Replay 1 in 16 queries shard by shard from outside: the stats probe
    // (sequential, as the router runs it), each shard's execution (parallel
    // in the router, so its maximum is on the critical path) and the
    // router's own time; the residual is translation, merge and hand-off.
    std::vector<double> stats_ms, exec_ms, exec_max_ms, residual_ms;
    for (std::size_t i = 0; i < fixed.size(); i += 16) {
      const Query& q = pool[fixed[i].query];
      auto sub = request_for(q, false);
      double stats = 0;
      if (q.query_class() == QueryClass::kRanked) {
        const auto terms = q.collect_terms();
        auto scatter = std::make_shared<ScatterStats>();
        scatter->term_dfs.assign(terms.size(), 0);
        std::uint64_t tokens = 0, docs = 0;
        const auto s0 = Clock::now();
        for (std::uint32_t s = 0; s < 4; ++s) {
          const auto probe = serving.cluster->shard(s).replica(0).probe_stats(terms);
          if (!probe) continue;
          scatter->n_docs += probe->n_docs;
          tokens += probe->token_sum;
          docs += probe->live_docs;
          for (std::size_t t = 0; t < terms.size(); ++t) scatter->term_dfs[t] += probe->term_dfs[t];
        }
        stats = ms_since(s0);
        stats_ms.push_back(stats);
        scatter->avgdl = docs == 0 ? 0.0 : static_cast<double>(tokens) / static_cast<double>(docs);
        sub.scatter = std::move(scatter);
      }
      double slowest = 0;
      for (std::uint32_t s = 0; s < 4; ++s) {
        const auto e0 = Clock::now();
        (void)serving.cluster->shard(s).replica(0).search(sub);
        const double ms = ms_since(e0);
        exec_ms.push_back(ms);
        slowest = std::max(slowest, ms);
      }
      const auto r0 = Clock::now();
      (void)router->search(request_for(q, false));
      const double total = ms_since(r0);
      exec_max_ms.push_back(slowest);
      residual_ms.push_back(total - stats - slowest);
    }
    run.metric("cluster.stats_ms_p50", median(stats_ms), "ms");
    run.metric("cluster.shard_exec_ms_p50", median(exec_ms), "ms");
    const auto p90 = percentile(exec_max_ms, 90);
    run.metric("cluster.shard_exec_ms_max_p90", p90.value, "ms");
    run.tails.push_back({"cluster.shard_exec_ms_max_p90", p90});
    run.metric("cluster.merge_residual_ms_p50", median(residual_ms), "ms");
  }

  // 64 ranked queries must match a single-node writer fed the same
  // documents, bit for bit.
  auto oracle_writer = IndexWriter::open(run.path("oracle"), options.writer).value();
  for (const auto& doc : c.docs) (void)oracle_writer.add_document(doc.url, doc.body);
  run.check(oracle_writer.flush().has_value(), "oracle flush failed");
  const auto oracle =
      Searcher::open(SearchSource::live([w = &oracle_writer] { return w->snapshot(); })).value();
  std::size_t compared = 0;
  for (std::size_t i = 0; i < pool.size() && compared < 64; i += 7) {
    if (pool[i].query_class() != QueryClass::kRanked) continue;
    const auto req = request_for(pool[i], false);
    const auto a = router->search(req);
    const auto b = oracle->search(req);
    run.check(a.has_value() && b.has_value() && same_hits(a->hits, b->hits),
              "cluster differs from the single-node oracle on " + pool[i].to_string());
    ++compared;
  }
  run.check(compared == 64, "fewer than 64 ranked queries compared against the oracle");
}

// ------------------------------------------------------------ main

int usage() {
  std::fprintf(stderr,
               "usage: hetbench --workload <build_batch|search_mixed|live_churn|cluster_doc4>\n"
               "                --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    try {
      if (flag == "--workload") run.args.workload = value;
      else if (flag == "--seed") run.args.seed = std::stoull(value);
      else if (flag == "--seconds") run.args.seconds = std::stod(value);
      else if (flag == "--trace") run.args.trace = value == "1";
      else if (flag == "--work-dir") run.args.work_dir = value;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!(run.args.seconds > 0)) return usage();

  const std::map<std::string, std::function<void(Run&)>> workloads = {
      {"build_batch",
       [](Run& r) {
         BatchParams p;
         p.spec = clueweb_like();
         p.warmup = true;
         p.slice_share = 0.05;
         batch_workload(r, p);
       }},
      {"search_mixed",
       [](Run& r) {
         BatchParams p;
         p.spec = wikipedia_like();
         p.positional = true;
         p.slice_share = 0.15;
         batch_workload(r, p);
       }},
      {"live_churn", live_churn},
      {"cluster_doc4", cluster_doc4},
  };
  const auto it = workloads.find(run.args.workload);
  if (it == workloads.end()) return usage();

  run.dir = fs::path(run.args.work_dir) /
            ("run-" + run.args.workload + "-" + std::to_string(::getpid()));
  fs::remove_all(run.dir);
  fs::create_directories(run.dir);
  it->second(run);
  fs::remove_all(run.dir);

  run.metric("peak_rss_mb", peak_rss_mb(), "MB");
  span_metrics(run);
  if (run.args.trace) {
    run.metric("trace.overhead_pct", run.tracer.spent_ms() / ms_since(run.origin) * 100, "%");
    const auto trace_path = fs::path(run.args.work_dir) /
                            ("trace-" + run.args.workload + "-" +
                             std::to_string(run.args.seed) + ".json");
    const auto json = run.tracer.to_json(run.origin);
    write_file(trace_path.string(), std::vector<std::uint8_t>(json.begin(), json.end()));
    std::printf("trace %s\n", trace_path.string().c_str());
  }

  for (const auto& f : run.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = run.failures.empty();
  JsonObject metrics, tails;
  if (correct) {
    for (const auto& [name, vu] : run.metrics) {
      std::printf("metric %s %.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
      metrics.raw(name, JsonObject().number("value", vu.first).string("unit", vu.second).str());
    }
    for (const auto& [name, p] : run.tails) {
      tails.raw(name, JsonObject()
                          .raw("samples", std::to_string(p.samples))
                          .raw("beyond", std::to_string(p.beyond))
                          .str());
    }
  }
  JsonObject out;
  out.string("workload", run.args.workload)
      .raw("seed", std::to_string(run.args.seed))
      .raw("trace", run.args.trace ? "true" : "false")
      .raw("correct", correct ? "true" : "false")
      .raw("attempted", std::to_string(run.attempted))
      .raw("failed", std::to_string(run.failed))
      .raw("metrics", metrics.str())
      .raw("tails", tails.str());
  std::printf("%s\n", out.str().c_str());
  return correct ? 0 : 1;
}
