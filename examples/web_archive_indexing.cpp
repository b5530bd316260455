/// \file web_archive_indexing.cpp
/// Domain scenario 1: indexing a web crawl (the paper's ClueWeb09 use
/// case). Demonstrates the full operational surface a search-backend team
/// would touch:
///   - ingesting raw HTML documents into container files,
///   - sizing the worker split (sampling report),
///   - building with the heterogeneous pipeline,
///   - the per-run output layout and doc-ID-range narrowing (§III.F: only
///     the runs that overlap a crawl window hold its postings),
///   - merging partial postings into a monolithic file, and folding them
///     into the single-file serving segment that queries read.
///
///   ./web_archive_indexing [work_dir]

#include <algorithm>
#include <cstdio>

#include "core/hetindex.hpp"

using namespace hetindex;

int main(int argc, char** argv) {
  const std::string work_dir = argc > 1 ? argv[1] : "/tmp/hetindex_web_archive";

  // ---- Ingest: pack crawled pages into compressed container files. Here
  // the "crawl" is synthesized HTML; with real data you would fill
  // Document{url, body} yourself and call container_write per ~1 GB batch.
  auto spec = clueweb_like();
  spec.total_bytes = 8u << 20;
  spec.file_bytes = 1u << 20;
  const auto crawl = generate_collection(spec, work_dir + "/crawl");
  std::printf("crawl: %zu container files, %s compressed / %s raw\n", crawl.files.size(),
              format_bytes(crawl.total_compressed()).c_str(),
              format_bytes(crawl.total_uncompressed()).c_str());

  // ---- Inspect the popularity split before committing to a config
  // (§III.E: popular collections → CPU caches, the long tail → GPUs).
  SamplerConfig sampler;
  const auto sampled = sample_and_split(crawl.paths(), sampler);
  if (!sampled.has_value()) {
    std::fprintf(stderr, "sampling failed: %s\n", sampled.error().to_string().c_str());
    return 1;
  }
  const WorkSplit& split = sampled.value();
  std::uint64_t popular_tokens = 0, total_tokens = 0;
  for (auto c : split.popular) popular_tokens += split.sampled_tokens[c];
  for (auto t : split.sampled_tokens) total_tokens += t;
  std::printf("sampling: %zu popular collections carry %.1f%% of sampled tokens\n",
              split.popular.size(),
              100.0 * static_cast<double>(popular_tokens) /
                  static_cast<double>(total_tokens));

  // ---- Build.
  IndexBuilder builder;
  builder.parsers(2).cpu_indexers(2).gpus(2).merge_output(true).emit_segment(true);
  const auto report = builder.build(crawl.paths(), work_dir + "/index");
  std::printf("build: %llu docs, %llu terms, %zu runs, merge pass %.3f s\n",
              static_cast<unsigned long long>(report.documents),
              static_cast<unsigned long long>(report.terms), report.runs.size(),
              report.merge_seconds);
  std::printf("work split: CPU %llu tokens / GPU %llu tokens (Table V shape)\n",
              static_cast<unsigned long long>(report.cpu_total().tokens),
              static_cast<unsigned long long>(report.gpu_total().tokens));

  // ---- Query a crawl window: it corresponds to a doc-id range, and the
  // run directory's per-run doc ranges say which runs hold its postings.
  const auto index = InvertedIndex::open(work_dir + "/index", {}).value();
  const auto term = normalize_term("contact");
  const std::uint32_t window_lo = 0;
  const std::uint32_t window_hi = report.documents / 4;
  const auto hits = index.lookup_range(term, window_lo, window_hi);
  const auto runs = index_directory_read(IndexLayout::directory_path(work_dir + "/index"));
  // The window starts at doc 0, so a run overlaps it when it starts inside.
  const auto runs_touched = static_cast<std::size_t>(
      std::count_if(runs.begin(), runs.end(), [&](const IndexDirectoryEntry& run) {
        return hits.has_value() && run.min_doc <= window_hi;
      }));
  std::printf("range query '%s' over docs [%u, %u]: %zu hits, touched %zu of %zu runs\n",
              term.c_str(), window_lo, window_hi, hits ? hits->doc_ids.size() : 0,
              runs_touched, runs.size());

  const auto full = index.lookup(term);
  std::printf("full query '%s': %zu hits across the whole crawl\n", term.c_str(),
              full ? full->doc_ids.size() : 0);
  return 0;
}
