/// \file bench_live_ingest.cpp
/// Live-indexing cost model: what does incremental ingestion through
/// IndexWriter cost relative to the one-shot batch pipeline on the same
/// corpus? The paper builds inverted files in bulk; this harness measures
/// the price of giving up bulk construction for freshness — per-document
/// ingest throughput across flush thresholds, flush/compaction counts, the
/// write amplification of the tiered merge policy (bytes rewritten by
/// merges vs bytes flushed), and snapshot query latency against segment
/// counts before and after compaction.
///
/// The second half measures the real-time mutable index: ingest docs/s
/// with and without concurrent memtable search load (reader threads
/// running ranked queries through a snapshot-following Searcher while the
/// writer ingests), each with the writer's split of add_document time
/// (live_add_{normalize,memtable,publish}_seconds_total). Writes a
/// machine-readable summary to BENCH_ingest.json
/// (path overridable via HETINDEX_BENCH_JSON) — scripts/tier1.sh archives
/// it next to the build tree.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "obs/json.hpp"

using namespace hetindex;
using namespace hetindex::bench;

namespace {

std::uint64_t counter_value(const obs::MetricsRegistry& metrics, const char* name) {
  for (const auto& c : metrics.snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double query_micros(const LiveSnapshot& snap, const std::vector<std::string>& terms) {
  WallTimer timer;
  std::size_t hits = 0;
  for (const auto& term : terms) {
    if (snap.lookup(term)) ++hits;
  }
  return terms.empty() ? 0.0 : timer.seconds() * 1e6 / static_cast<double>(terms.size());
}

/// One timed ingest: throughput, the readers' sustained query rate, and
/// the writer's own split of add_document time (normalize, memtable
/// append, snapshot publish).
struct IngestRun {
  double docs_per_s = 0;
  double qps = 0;
  double normalize_s = 0;
  double memtable_s = 0;
  double publish_s = 0;
};

/// One timed ingest of the whole corpus with `search_threads` readers
/// hammering ranked queries against the writer's live snapshots the whole
/// time.
IngestRun ingest_run(const std::vector<Document>& docs, const std::string& dir,
                     const std::vector<std::string>& probes, std::size_t search_threads) {
  std::filesystem::remove_all(dir);
  IndexWriterOptions opts;  // production defaults: auto-flush + background merge
  auto w = IndexWriter::open(dir, opts).value();
  const auto searcher_ptr =
      Searcher::open(SearchSource::live([&w] { return w.snapshot(); })).value();
  const Searcher& searcher = *searcher_ptr;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < search_threads; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<std::uint32_t>(17 * t + 1));
      while (!done.load(std::memory_order_acquire)) {
        QueryRequest req;
        req.query = Query::bag({probes[rng() % probes.size()], probes[rng() % probes.size()]});
        req.k = 10;
        req.use_result_cache = false;  // every query really searches
        if (searcher.search(req).has_value()) {
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  WallTimer timer;
  for (const auto& doc : docs) w.add_document(doc.url, doc.body);
  w.flush();
  const double seconds = timer.seconds();
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  const auto metrics = w.metrics().snapshot();
  return {static_cast<double>(docs.size()) / seconds,
          static_cast<double>(answered.load()) / seconds,
          metrics.time_seconds("live_add_normalize_seconds_total"),
          metrics.time_seconds("live_add_memtable_seconds_total"),
          metrics.time_seconds("live_add_publish_seconds_total")};
}

}  // namespace

int main() {
  banner("Live ingestion — incremental IndexWriter vs one-shot batch build",
         "docs/LIVE_INDEXING.md (extension beyond Wei & JaJa 2011)");

  auto spec = wikipedia_like();
  spec.total_bytes = static_cast<std::uint64_t>(8.0 * scale() * (1 << 20));
  const auto coll = cached_collection(spec);
  std::vector<Document> docs;
  std::uint64_t raw_bytes = 0;
  for (const auto& file : coll.paths()) {
    for (auto& doc : container_read(file)) {
      raw_bytes += doc.body.size();
      docs.push_back(std::move(doc));
    }
  }

  // Batch reference: the paper's pipeline, straight to a serving segment.
  const std::string batch_dir = bench_dir() + "/live_batch";
  std::filesystem::remove_all(batch_dir);
  IndexBuilder builder;
  builder.emit_segment(true);
  const auto batch_report = builder.build(coll.paths(), batch_dir);
  std::printf("\nCorpus: %zu docs, %s raw text\n", docs.size(),
              format_bytes(raw_bytes).c_str());
  std::printf("Batch build: %.2f s (%.1f MB/s), one segment\n",
              batch_report.total_seconds, batch_report.throughput_mb_s());

  // A fixed probe set for snapshot query latency: every 97th term.
  std::vector<std::string> probes;
  {
    const auto batch = InvertedIndex::open(batch_dir, {IndexBackend::kSegment}).value();
    std::size_t i = 0;
    batch.for_each_term([&](std::string_view term) {
      if (i++ % 97 == 0) probes.emplace_back(term);
    });
  }

  struct SweepRow {
    std::uint64_t flush_kb = 0;
    double docs_per_s = 0, write_amp = 0, q_before_us = 0, q_after_us = 0;
    std::uint64_t flushes = 0, merges = 0;
    std::size_t segments = 0;
  };
  std::vector<SweepRow> sweep;

  std::printf("\n%-12s %10s %8s %8s %10s %8s %10s %10s\n", "flush", "docs/s",
              "flushes", "merges", "write-amp", "segs", "q-us/term", "q-us/cpct");
  row_sep(84);
  for (const std::uint64_t flush_kb : {64ull, 256ull, 1024ull}) {
    const std::string dir = bench_dir() + "/live_ingest_" + std::to_string(flush_kb);
    std::filesystem::remove_all(dir);
    IndexWriterOptions opts;
    opts.flush_threshold_bytes = flush_kb << 10;
    auto w = IndexWriter::open(dir, opts).value();
    WallTimer timer;
    for (const auto& doc : docs) w.add_document(doc.url, doc.body);
    w.flush();
    const double ingest_seconds = timer.seconds();
    const double before_us = query_micros(*w.snapshot(), probes);
    w.compact_now();
    const auto snap = w.snapshot();
    const double after_us = query_micros(*snap, probes);

    // Write amplification of the tiered merge policy: every byte a merge
    // rewrites comes on top of the bytes flushes wrote once (1.0 == no
    // merge ever ran).
    const std::uint64_t flushes = counter_value(w.metrics(), "live_flushes_total");
    const std::uint64_t merges = counter_value(w.metrics(), "compactions_total");
    const std::uint64_t flushed = counter_value(w.metrics(), "live_flushed_bytes_total");
    const std::uint64_t merged = counter_value(w.metrics(), "compaction_bytes_written_total");
    const double write_amp =
        flushed == 0 ? 1.0 : static_cast<double>(flushed + merged) / flushed;

    std::printf("%9llu KB %10.0f %8llu %8llu %10.2f %8zu %10.1f %10.1f\n",
                static_cast<unsigned long long>(flush_kb),
                static_cast<double>(docs.size()) / ingest_seconds,
                static_cast<unsigned long long>(flushes),
                static_cast<unsigned long long>(merges), write_amp,
                snap->segment_count(), before_us, after_us);
    sweep.push_back({flush_kb, static_cast<double>(docs.size()) / ingest_seconds,
                     write_amp, before_us, after_us, flushes, merges,
                     snap->segment_count()});
  }

  // Freshness tax: the same ingest with reader threads continuously
  // searching the live snapshots (memtable included) through a follower
  // Searcher. The delta is the cost of serving queries out of the mutable
  // tier while it is being written.
  const IngestRun unloaded_run = ingest_run(docs, bench_dir() + "/live_load_0", probes, 0);
  const std::size_t readers = 2;
  const IngestRun loaded_run = ingest_run(docs, bench_dir() + "/live_load_r", probes, readers);
  const double unloaded = unloaded_run.docs_per_s;
  const double loaded = loaded_run.docs_per_s;
  const double loaded_qps = loaded_run.qps;
  std::printf("\n%-24s %12s %12s %12s %10s %10s %10s\n", "memtable search load", "docs/s",
              "ingest cost", "search qps", "norm s", "memtab s", "publish s");
  row_sep(97);
  std::printf("%-24s %12.0f %12s %12s %10.3f %10.3f %10.3f\n", "none", unloaded, "-", "-",
              unloaded_run.normalize_s, unloaded_run.memtable_s, unloaded_run.publish_s);
  const std::string label = std::to_string(readers) + " reader threads";
  std::printf("%-24s %12.0f %11.1f%% %12.0f %10.3f %10.3f %10.3f\n", label.c_str(), loaded,
              100.0 * (1.0 - loaded / unloaded), loaded_qps, loaded_run.normalize_s,
              loaded_run.memtable_s, loaded_run.publish_s);

  // Machine-readable summary (consumed by CI trend tooling).
  std::string json = "{\n  \"bench\": \"live_ingest\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& r = sweep[i];
    json += "    {\"flush_kb\": " + std::to_string(r.flush_kb) +
            ", \"docs_per_s\": " + obs::json_number(r.docs_per_s) +
            ", \"flushes\": " + std::to_string(r.flushes) +
            ", \"merges\": " + std::to_string(r.merges) +
            ", \"write_amp\": " + obs::json_number(r.write_amp) +
            ", \"segments\": " + std::to_string(r.segments) +
            ", \"query_us_precompact\": " + obs::json_number(r.q_before_us) +
            ", \"query_us_postcompact\": " + obs::json_number(r.q_after_us) + "}";
    json += (i + 1 < sweep.size()) ? ",\n" : "\n";
  }
  json += "  ],\n  \"search_load\": {\"docs_per_s_unloaded\": " +
          obs::json_number(unloaded) +
          ", \"docs_per_s_loaded\": " + obs::json_number(loaded) +
          ", \"reader_threads\": " + std::to_string(readers) +
          ", \"search_qps\": " + obs::json_number(loaded_qps);
  // The writer's add_document split, unloaded then loaded: which part of
  // add_document the readers slow down.
  for (const auto& [name, run] : {std::pair{"unloaded", &unloaded_run},
                                  std::pair{"loaded", &loaded_run}}) {
    json += std::string(", \"add_s_") + name +
            "\": {\"normalize\": " + obs::json_number(run->normalize_s) +
            ", \"memtable\": " + obs::json_number(run->memtable_s) +
            ", \"publish\": " + obs::json_number(run->publish_s) + "}";
  }
  json += "}\n}\n";
  const char* out = std::getenv("HETINDEX_BENCH_JSON");
  const std::string json_path = out != nullptr ? out : "BENCH_ingest.json";
  write_file(json_path, std::vector<std::uint8_t>(json.begin(), json.end()));
  std::printf("\nwrote %s\n", json_path.c_str());

  std::printf("\nIngest throughput rises with the flush threshold (fewer, larger\n"
              "segments to write); query latency falls after compaction as the\n"
              "per-term lookup touches fewer segments.\n");
  bool ok = unloaded > 0 && loaded > 0 && loaded_qps > 0;
  if (!ok) std::printf("FAIL: degenerate measurement (zero throughput)\n");
  return ok ? 0 : 1;
}
