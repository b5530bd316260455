/// \file hetindex_cli.cpp
/// Command-line front end — the operational tool a downstream team would
/// actually run. One uniform verb surface:
///
///   hetindex_cli <verb> [positionals] [--flag[ value]...]
///   hetindex_cli <verb> --help        per-verb usage
///
///   generate  synthesize a corpus          (--preset, --mb)
///   build     batch-build an index         (--parsers, --cpus, --gpus, ...;
///             writes the run files and the serving segment index.seg)
///   compact   fold run files into index.seg, or run the live merge policy
///   live      incremental-ingestion demo   (--flush-mb, --merge-factor, ...)
///   cluster   ingest into a sharded serving cluster (--shards, --strategy, ...)
///   query     AND query                    (works on batch, live, cluster dirs)
///   search    query-language search        (--k, --deadline-ms, ...; the
///             arguments form one expression, e.g. 'fast "inverted files"
///             AND gpu' — docs/QUERIES.md)
///   serve     thread-pooled serving bench  (--threads, --queue, --repeat,
///             ...; reports tail latency per query class)
///   phrase    exact-phrase query           (any dir flavor, via the AST)
///   stats     index shape summary          (batch and live dirs)
///   verify    structural index check
///
/// query/search/serve dispatch on the directory flavor automatically: a
/// CLUSTER meta file opens the sharded scatter-gather router
/// (docs/CLUSTER.md), a MANIFEST opens the live snapshot, anything else the
/// batch index's index.seg (a directory holding only run files is refused
/// with a pointer to `compact`) — all behind the same SearchBackend. Open
/// and configuration problems are reported as structured errors
/// (util/error.hpp), never aborts.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/hetindex.hpp"

using namespace hetindex;

namespace {

// ------------------------------------------------------------ arg parsing

/// One accepted flag of a verb; flags are spelled --kebab-case everywhere.
struct FlagSpec {
  const char* name;      ///< without the leading --
  bool takes_value;
  const char* help;
};

/// Uniform per-verb parser: positionals + declared flags + generated
/// --help. Unknown or incomplete flags print usage and fail.
class ArgParser {
 public:
  ArgParser(std::string verb, std::string positional_help, std::vector<FlagSpec> specs)
      : verb_(std::move(verb)),
        positional_help_(std::move(positional_help)),
        specs_(std::move(specs)) {}

  /// Returns false when parsing failed or --help was requested (usage is
  /// already printed; the caller returns the exit code).
  bool parse(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        positionals_.emplace_back(arg);
        continue;
      }
      if (std::strcmp(arg, "--help") == 0) {
        print_usage(stdout);
        help_ = true;
        return false;
      }
      const FlagSpec* spec = nullptr;
      for (const auto& s : specs_) {
        if (std::strcmp(arg + 2, s.name) == 0) spec = &s;
      }
      if (spec == nullptr) {
        std::fprintf(stderr, "unknown flag for '%s': %s\n", verb_.c_str(), arg);
        print_usage(stderr);
        return false;
      }
      if (spec->takes_value) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "flag --%s needs a value\n", spec->name);
          print_usage(stderr);
          return false;
        }
        values_[spec->name] = argv[++i];
      } else {
        values_[spec->name] = "";
      }
    }
    return true;
  }

  void print_usage(std::FILE* out) const {
    std::fprintf(out, "usage: hetindex_cli %s %s", verb_.c_str(), positional_help_.c_str());
    for (const auto& s : specs_) {
      std::fprintf(out, " [--%s%s]", s.name, s.takes_value ? " <v>" : "");
    }
    std::fputc('\n', out);
    for (const auto& s : specs_) {
      std::fprintf(out, "  --%-18s %s\n", s.name, s.help);
    }
  }

  [[nodiscard]] bool help_requested() const { return help_; }
  [[nodiscard]] const std::vector<std::string>& positionals() const { return positionals_; }
  [[nodiscard]] bool has(const std::string& name) const { return values_.count(name) > 0; }
  [[nodiscard]] std::string str(const std::string& name, std::string fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

 private:
  std::string verb_;
  std::string positional_help_;
  std::vector<FlagSpec> specs_;
  std::vector<std::string> positionals_;
  std::map<std::string, std::string> values_;
  bool help_ = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: hetindex_cli <verb> ... (--help on any verb for details)\n"
               "  generate <dir>                synthesize a corpus\n"
               "  build <corpus_dir> <index_dir>  batch-build an index\n"
               "  compact <index_dir>           fold runs into index.seg / merge live segments\n"
               "  live <corpus_dir> <index_dir>   incremental-ingestion demo\n"
               "  cluster <corpus_dir> <cluster_dir>  ingest into a sharded cluster\n"
               "  query <index_dir> <term...>   AND query (batch, live or cluster dir)\n"
               "  search <index_dir> <term...>  ranked / boolean search, with URLs\n"
               "  serve <index_dir> [queries]   thread-pooled serving benchmark\n"
               "  phrase <index_dir> <term...>  adjacent-position phrase query\n"
               "  stats <index_dir>             index shape summary\n"
               "  verify <index_dir>            structural check\n");
  return 2;
}

int report_error(const Error& e) {
  std::fprintf(stderr, "error [%s]: %s\n", error_code_name(e.code), e.message.c_str());
  return 1;
}

bool is_live_dir(const std::string& dir) {
  return std::filesystem::exists(manifest_path(dir));
}

std::vector<std::string> corpus_files(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".hdc") files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;  // empty (callers report it) when dir is missing/unreadable
}

// ------------------------------------------------------------ verbs

int cmd_generate(int argc, char** argv) {
  ArgParser args("generate", "<dir>",
                 {{"preset", true, "clueweb | wikipedia | congress (default wikipedia)"},
                  {"mb", true, "uncompressed corpus size in MB (default 16)"}});
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  if (args.positionals().size() != 1) {
    args.print_usage(stderr);
    return 2;
  }
  const std::string preset = args.str("preset", "wikipedia");
  CollectionSpec spec = preset == "clueweb"    ? clueweb_like()
                        : preset == "congress" ? congress_like()
                                               : wikipedia_like();
  spec.total_bytes = static_cast<std::uint64_t>(args.num("mb", 16) * (1 << 20));
  const auto coll = generate_collection(spec, args.positionals()[0]);
  std::printf("generated %zu files, %s compressed / %s raw, %llu docs\n",
              coll.files.size(), format_bytes(coll.total_compressed()).c_str(),
              format_bytes(coll.total_uncompressed()).c_str(),
              static_cast<unsigned long long>(coll.total_docs()));
  return 0;
}

int cmd_build(int argc, char** argv) {
  ArgParser args("build", "<corpus_dir> <index_dir>",
                 {{"parsers", true, "parser threads (default 2)"},
                  {"cpus", true, "CPU indexers (default 2)"},
                  {"gpus", true, "simulated GPUs (default 2)"},
                  {"positions", false, "record in-document token positions"},
                  {"merge", false, "also merge run files into merged.post"},
                  {"progress", false, "live per-run progress on stderr"},
                  {"metrics", false, "dump Prometheus metrics after the build"},
                  {"report-json", true, "write the build report as JSON"}});
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  if (args.positionals().size() != 2) {
    args.print_usage(stderr);
    return 2;
  }
  IndexBuilder builder;
  builder.parsers(static_cast<std::size_t>(args.num("parsers", 2)))
      .cpu_indexers(static_cast<std::size_t>(args.num("cpus", 2)))
      .gpus(static_cast<std::size_t>(args.num("gpus", 2)))
      .emit_segment(true);  // every serving verb reads index.seg
  if (args.has("positions")) builder.config().parser.record_positions = true;
  if (args.has("merge")) builder.merge_output(true);
  if (args.has("progress")) {
    builder.progress([](const PipelineProgress& p) {
      std::fprintf(stderr, "\rrun %llu/%llu  %llu docs  %.1f MB/s",
                   static_cast<unsigned long long>(p.runs_completed),
                   static_cast<unsigned long long>(p.files_total),
                   static_cast<unsigned long long>(p.documents), p.throughput_mb_s());
      if (p.runs_completed == p.files_total) std::fputc('\n', stderr);
    });
  }
  // Refuse contradictory configurations up front with the full error list
  // instead of aborting mid-build — the same Error type open() reports.
  if (const auto errors = builder.validate(); !errors.empty()) {
    for (const auto& e : errors) {
      std::fprintf(stderr, "config error [%s]: %s\n", error_code_name(e.code),
                   e.message.c_str());
    }
    return 2;
  }
  const auto files = corpus_files(args.positionals()[0]);
  if (files.empty()) {
    std::fprintf(stderr, "no .hdc container files under %s\n",
                 args.positionals()[0].c_str());
    return 1;
  }
  const auto report = builder.build(files, args.positionals()[1]);
  if (!report.ok()) {
    std::fprintf(stderr, "build failed [%s]: %s\n", error_code_name(report.error->code),
                 report.error->message.c_str());
    return 1;
  }
  std::printf("indexed %llu docs / %llu tokens into %llu terms across %zu runs\n",
              static_cast<unsigned long long>(report.documents),
              static_cast<unsigned long long>(report.tokens),
              static_cast<unsigned long long>(report.terms), report.runs.size());
  std::printf("wall %.2f s (%.1f MB/s on this host); CPU/GPU token split %llu / %llu\n",
              report.total_seconds, report.throughput_mb_s(),
              static_cast<unsigned long long>(report.cpu_total().tokens),
              static_cast<unsigned long long>(report.gpu_total().tokens));
  std::printf("segment: %s written in %.2f s\n", format_bytes(report.segment_bytes).c_str(),
              report.segment_seconds);
  const std::string report_json_path = args.str("report-json");
  if (!report_json_path.empty()) {
    std::ofstream out(report_json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", report_json_path.c_str());
      return 1;
    }
    out << report.to_json() << '\n';
    std::printf("report written to %s\n", report_json_path.c_str());
  }
  if (args.has("metrics")) std::fputs(report.metrics.to_prometheus().c_str(), stdout);
  return 0;
}

int cmd_compact(int argc, char** argv) {
  ArgParser args("compact", "<index_dir>", {});
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  if (args.positionals().size() != 1) {
    args.print_usage(stderr);
    return 2;
  }
  const std::string index_dir = args.positionals()[0];
  if (is_live_dir(index_dir)) {
    // Live directory: run the writer's merge policy to completion.
    auto writer = IndexWriter::open(index_dir, {});
    if (!writer.has_value()) return report_error(writer.error());
    auto& w = writer.value();
    const std::size_t before = w.snapshot()->segment_count();
    auto compacted = w.compact_now();
    if (!compacted.has_value()) return report_error(compacted.error());
    std::printf("live compaction: %zu -> %zu segments, %u docs committed\n", before,
                w.snapshot()->segment_count(), w.committed_docs());
    return 0;
  }
  const auto folded = compact_index(index_dir);
  if (!folded.has_value()) return report_error(folded.error());
  const auto& stats = folded.value();
  std::printf("compacted %llu runs into %s: %llu terms, %llu postings, %s -> %s\n",
              static_cast<unsigned long long>(stats.runs),
              IndexLayout::segment_path(index_dir).c_str(),
              static_cast<unsigned long long>(stats.terms),
              static_cast<unsigned long long>(stats.postings),
              format_bytes(stats.input_bytes).c_str(),
              format_bytes(stats.output_bytes).c_str());
  return 0;
}

int cmd_live(int argc, char** argv) {
  ArgParser args("live", "<corpus_dir> <index_dir>",
                 {{"flush-mb", true, "auto-flush threshold in MB (default 1)"},
                  {"merge-factor", true, "segments folded per merge (default 4)"},
                  {"no-compaction", false, "disable the background merge thread"},
                  {"positions", false, "record in-document token positions"},
                  {"delete-every", true, "tombstone every Nth ingested doc (default off)"},
                  {"update-every", true, "re-index every Nth ingested doc in place (default off)"},
                  {"metrics", false, "dump writer metrics at the end"}});
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  if (args.positionals().size() != 2) {
    args.print_usage(stderr);
    return 2;
  }
  IndexWriterOptions opts;
  opts.flush_threshold_bytes =
      static_cast<std::uint64_t>(args.num("flush-mb", 1) * (1 << 20));
  opts.merge_factor = static_cast<std::uint32_t>(args.num("merge-factor", 4));
  opts.background_compaction = !args.has("no-compaction");
  opts.parser.record_positions = args.has("positions");
  auto writer = IndexWriter::open(args.positionals()[1], opts);
  if (!writer.has_value()) return report_error(writer.error());
  auto& w = writer.value();

  const auto files = corpus_files(args.positionals()[0]);
  if (files.empty()) {
    std::fprintf(stderr, "no .hdc container files under %s\n",
                 args.positionals()[0].c_str());
    return 1;
  }
  const auto delete_every = static_cast<std::uint64_t>(args.num("delete-every", 0));
  const auto update_every = static_cast<std::uint64_t>(args.num("update-every", 0));
  WallTimer timer;
  std::uint64_t bytes = 0;
  for (const auto& file : files) {
    for (const auto& doc : container_read(file)) {
      bytes += doc.body.size();
      const std::uint32_t id = w.add_document(doc.url, doc.body);
      // Exercise the mutable-index paths: both commit durably and take
      // effect in the very next snapshot (no flush involved).
      if (delete_every != 0 && id % delete_every == delete_every - 1) {
        auto removed = w.delete_document(id);
        if (!removed.has_value()) return report_error(removed.error());
      } else if (update_every != 0 && id % update_every == update_every - 1) {
        auto replaced = w.update_document(id, doc.url, doc.body);
        if (!replaced.has_value()) return report_error(replaced.error());
      }
    }
    const auto snap = w.snapshot();
    std::fprintf(stderr, "\ringested %s  (%u committed + %u buffered docs, %zu segments)",
                 format_bytes(bytes).c_str(), w.committed_docs(), w.buffered_docs(),
                 snap->segment_count());
  }
  auto flushed = w.flush();
  if (!flushed.has_value()) return report_error(flushed.error());
  auto compacted = w.compact_now();
  if (!compacted.has_value()) return report_error(compacted.error());
  std::fputc('\n', stderr);
  const auto snap = w.snapshot();
  std::printf("live index: %llu live docs (%llu deleted), %llu terms, "
              "%zu segments after compaction, %.1f MB/s ingest\n",
              static_cast<unsigned long long>(snap->doc_count()),
              static_cast<unsigned long long>(snap->deleted_docs()),
              static_cast<unsigned long long>(snap->term_count()),
              snap->segment_count(),
              static_cast<double>(bytes) / (1 << 20) / timer.seconds());
  if (args.has("metrics")) std::fputs(w.metrics().to_prometheus().c_str(), stdout);
  return 0;
}

int cmd_cluster(int argc, char** argv) {
  ArgParser args(
      "cluster", "<corpus_dir> <cluster_dir>",
      {{"shards", true, "shard count (default 2; pinned by the CLUSTER meta)"},
       {"strategy", true, "document | term | block (default document)"},
       {"replicas", true, "serving replicas per shard (default 1)"},
       {"block-docs", true, "docs per placement block, block strategy (default 128)"},
       {"positions", false, "record in-document token positions"},
       {"delete-every", true, "tombstone every Nth ingested doc (default off)"},
       {"metrics", false, "dump the router's cluster_* metrics at the end"}});
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  if (args.positionals().size() != 2) {
    args.print_usage(stderr);
    return 2;
  }
  ClusterOptions opts;
  const auto strategy = parse_partition_strategy(args.str("strategy", "document"));
  if (!strategy) {
    std::fprintf(stderr, "unknown --strategy '%s'\n", args.str("strategy").c_str());
    return 2;
  }
  opts.strategy = *strategy;
  opts.shards = static_cast<std::uint32_t>(args.num("shards", 2));
  opts.replicas = static_cast<std::uint32_t>(args.num("replicas", 1));
  opts.block_docs = static_cast<std::uint32_t>(args.num("block-docs", 128));
  opts.writer.parser.record_positions = args.has("positions");
  auto opened = Cluster::open(args.positionals()[1], opts);
  if (!opened.has_value()) return report_error(opened.error());
  auto& cluster = opened.value();

  const auto files = corpus_files(args.positionals()[0]);
  if (files.empty()) {
    std::fprintf(stderr, "no .hdc container files under %s\n",
                 args.positionals()[0].c_str());
    return 1;
  }
  const auto delete_every = static_cast<std::uint64_t>(args.num("delete-every", 0));
  WallTimer timer;
  std::uint64_t bytes = 0, deleted = 0;
  for (const auto& file : files) {
    for (const auto& doc : container_read(file)) {
      bytes += doc.body.size();
      const std::uint32_t id = cluster.add_document(doc.url, doc.body);
      if (delete_every != 0 && id % delete_every == delete_every - 1) {
        auto removed = cluster.delete_document(id);
        if (!removed.has_value()) return report_error(removed.error());
        ++deleted;
      }
    }
  }
  if (auto flushed = cluster.flush(); !flushed.has_value()) {
    return report_error(flushed.error());
  }
  std::printf("cluster %s: %s strategy, %u shards x %u replicas, "
              "%llu docs (%llu deleted), %.1f MB/s ingest\n",
              cluster.dir().c_str(),
              partition_strategy_name(cluster.partitioner().strategy()),
              cluster.shard_count(), cluster.replica_count(),
              static_cast<unsigned long long>(cluster.total_docs()),
              static_cast<unsigned long long>(deleted),
              static_cast<double>(bytes) / (1 << 20) / timer.seconds());
  for (std::uint32_t s = 0; s < cluster.shard_count(); ++s) {
    const auto snap = cluster.shard(s).writer().snapshot();
    std::printf("  shard-%u: %llu live docs, %llu terms, %zu segments\n", s,
                static_cast<unsigned long long>(snap->doc_count()),
                static_cast<unsigned long long>(snap->term_count()),
                snap->segment_count());
  }
  if (args.has("metrics")) {
    const auto router = cluster.make_router();
    std::fputs(router->metrics().to_prometheus().c_str(), stdout);
  }
  return 0;
}

// ------------------------------------------------------------ searching

/// A SearchBackend plus whatever backing objects must stay alive behind it
/// (heap-allocated so their addresses survive moves of this struct).
struct OpenedBackend {
  std::shared_ptr<InvertedIndex> index;
  std::shared_ptr<DocMap> docs;
  std::shared_ptr<const LiveSnapshot> snapshot;  ///< live dirs only
  std::shared_ptr<Cluster> cluster;              ///< cluster dirs only
  std::shared_ptr<SearchBackend> backend;

  /// Best-effort URL of a hit; empty when no doc map covers it. Cluster
  /// hits carry GLOBAL ids — translate through the partitioner to the
  /// owning shard's local id space.
  [[nodiscard]] std::string url_of(std::uint32_t doc_id) const {
    if (docs != nullptr && docs->contains(doc_id)) return docs->location(doc_id).url;
    if (snapshot != nullptr) {
      const auto loc = snapshot->locate(doc_id);
      if (loc.has_value()) return loc->url;
    }
    if (cluster != nullptr) {
      const auto& part = cluster->partitioner();
      const std::uint32_t shard =
          part.replicates_documents() ? 0u : part.doc_shard(doc_id);
      const auto loc =
          cluster->shard(shard).writer().snapshot()->locate(part.local_doc(doc_id));
      if (loc.has_value()) return loc->url;
    }
    return {};
  }
};

/// One facade for every directory flavor: cluster dirs open the
/// scatter-gather router, live dirs serve their committed snapshot, batch
/// dirs pair the index with its doc map when present.
Expected<OpenedBackend> open_backend(const std::string& dir) {
  OpenedBackend out;
  if (Cluster::is_cluster_dir(dir)) {
    auto cluster = Cluster::open(dir, {});
    if (!cluster.has_value()) return cluster.error();
    out.cluster = std::make_shared<Cluster>(std::move(cluster).value());
    out.backend = out.cluster->make_router();
    return out;
  }
  if (is_live_dir(dir)) {
    auto live = LiveIndex::open(dir);
    if (!live.has_value()) return live.error();
    out.snapshot = live.value().snapshot();
    auto searcher = Searcher::open(SearchSource::snapshot(out.snapshot));
    if (!searcher.has_value()) return searcher.error();
    out.backend = std::move(searcher).value();
    return out;
  }
  auto index = InvertedIndex::open(dir, {});
  if (!index.has_value()) return index.error();
  out.index = std::make_shared<InvertedIndex>(std::move(index).value());
  if (std::filesystem::exists(doc_map_path(dir))) {
    out.docs = std::make_shared<DocMap>(DocMap::open(doc_map_path(dir)));
    auto searcher = Searcher::open(SearchSource::batch(*out.index, *out.docs));
    if (!searcher.has_value()) return searcher.error();
    out.backend = std::move(searcher).value();
  } else {
    // No doc map: boolean modes only.
    auto searcher = Searcher::open(SearchSource::batch(*out.index));
    if (!searcher.has_value()) return searcher.error();
    out.backend = std::move(searcher).value();
  }
  return out;
}

int cmd_query(int argc, char** argv, bool phrase) {
  ArgParser args(phrase ? "phrase" : "query", "<index_dir> <term...>", {});
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  if (args.positionals().size() < 2) {
    args.print_usage(stderr);
    return 2;
  }
  const std::string& dir = args.positionals()[0];
  std::vector<std::string> terms;
  for (std::size_t i = 1; i < args.positionals().size(); ++i) {
    terms.push_back(normalize_term(args.positionals()[i]));
  }

  // Both verbs ride the Query AST through the uniform backend, so phrase
  // works on batch, live, and cluster directories alike.
  auto opened = open_backend(dir);
  if (!opened.has_value()) return report_error(opened.error());
  QueryRequest request;
  request.query =
      phrase ? Query::phrase(std::move(terms)) : Query::conjunction(std::move(terms));
  request.k = 20;
  auto response = opened.value().backend->search(request);
  if (!response.has_value()) return report_error(response.error());
  const auto& hits = response.value().hits;
  if (hits.empty()) {
    std::printf("no results (%s)\n", phrase ? "no document contains the phrase"
                                            : "a term is absent");
    return 0;
  }
  std::printf("top %zu matching documents (%s)\n", hits.size(),
              phrase ? "phrase occurrences" : "summed tf");
  for (const auto& hit : hits) {
    std::printf("  doc %-10u score %.0f\n", hit.doc_id, hit.score);
  }
  return 0;
}

int cmd_search(int argc, char** argv) {
  ArgParser args(
      "search", "<index_dir> <query...>",
      {{"k", true, "results to return (default 10)"},
       {"deadline-ms", true, "per-query deadline in ms (default none)"},
       {"exhaustive", false, "use the exhaustive scorer (no MaxScore)"}});
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  if (args.positionals().size() < 2) {
    args.print_usage(stderr);
    return 2;
  }
  auto opened = open_backend(args.positionals()[0]);
  if (!opened.has_value()) return report_error(opened.error());

  // The query language (docs/QUERIES.md): the remaining arguments joined
  // form one expression, e.g.  search idx 'fast "inverted files" AND gpu'
  std::string text;
  for (std::size_t i = 1; i < args.positionals().size(); ++i) {
    if (!text.empty()) text += ' ';
    text += args.positionals()[i];
  }
  auto parsed = parse_query(text);
  if (!parsed.has_value()) return report_error(parsed.error());
  QueryRequest request;
  request.query = std::move(parsed).value();
  request.k = static_cast<std::size_t>(args.num("k", 10));
  request.exhaustive = args.has("exhaustive");
  if (args.has("deadline-ms")) {
    request.timeout = std::chrono::microseconds(
        static_cast<std::int64_t>(args.num("deadline-ms", 0) * 1000));
  }

  auto response = opened.value().backend->search(request);
  if (!response.has_value()) return report_error(response.error());
  const auto& r = response.value();
  if (r.hits.empty()) {
    std::printf("no results%s%s\n", r.degraded() ? " (partial: " : "",
                r.degraded() ? (std::string(degradation_name(r.degradation)) + ")").c_str()
                             : "");
    return 0;
  }
  for (std::size_t i = 0; i < r.hits.size(); ++i) {
    const std::string url = opened.value().url_of(r.hits[i].doc_id);
    std::printf("%2zu. %-48s  (doc %u, score %.3f)\n", i + 1,
                url.empty() ? "<no doc map>" : url.c_str(), r.hits[i].doc_id,
                r.hits[i].score);
  }
  std::printf("%s %s query in %.2f ms (lookup %.2f, score %.2f)\n",
              r.from_cache ? "served cached" : "executed",
              query_class_name(r.query_class()), r.timings.total_seconds * 1e3,
              r.timings.lookup_seconds * 1e3, r.timings.score_seconds * 1e3);
  if (r.degraded()) {
    std::printf("  [partial: %s]\n", degradation_name(r.degradation));
  }
  if (r.shards_total > 0) {
    std::printf("  shards answered %u/%u\n", r.shards_answered, r.shards_total);
  }
  return 0;
}

int cmd_serve(int argc, char** argv) {
  ArgParser args(
      "serve", "<index_dir> [queries_file]",
      {{"threads", true, "executor threads (default 4)"},
       {"queue", true, "admission queue capacity (default 64)"},
       {"k", true, "results per query (default 10)"},
       {"deadline-ms", true, "per-query deadline in ms (default none)"},
       {"repeat", true, "passes over the query set (default 1)"},
       {"metrics", false, "dump Prometheus metrics at the end"}});
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  if (args.positionals().empty() || args.positionals().size() > 2) {
    args.print_usage(stderr);
    return 2;
  }
  auto opened = open_backend(args.positionals()[0]);
  if (!opened.has_value()) return report_error(opened.error());

  // One query per input line in the query language (docs/QUERIES.md).
  std::vector<Query> queries;
  {
    std::ifstream file;
    const bool from_file =
        args.positionals().size() == 2 && args.positionals()[1] != "-";
    if (from_file) {
      file.open(args.positionals()[1]);
      if (!file) {
        std::fprintf(stderr, "cannot read %s\n", args.positionals()[1].c_str());
        return 1;
      }
    }
    std::istream& in = from_file ? file : std::cin;
    std::string line;
    while (std::getline(in, line)) {
      if (line.find_first_not_of(" \t") == std::string::npos) continue;
      auto parsed = parse_query(line);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "bad query '%s': %s\n", line.c_str(),
                     parsed.error().message.c_str());
        return 1;
      }
      queries.push_back(std::move(parsed).value());
    }
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no queries (one per line; see docs/QUERIES.md)\n");
    return 1;
  }

  SearchServiceOptions options;
  options.threads = static_cast<std::size_t>(args.num("threads", 4));
  options.queue_capacity = static_cast<std::size_t>(args.num("queue", 64));
  SearchService service(opened.value().backend, options);

  QueryRequest proto;
  proto.k = static_cast<std::size_t>(args.num("k", 10));
  if (args.has("deadline-ms")) {
    proto.timeout = std::chrono::microseconds(
        static_cast<std::int64_t>(args.num("deadline-ms", 0) * 1000));
  }

  const std::size_t repeat = std::max<std::size_t>(1, static_cast<std::size_t>(args.num("repeat", 1)));
  // Latencies bucketed by the class the backend reports
  // (QueryResponse::query_class) — tail latency is only meaningful per
  // class when ranked, phrase, and proximity queries share one pool.
  constexpr std::size_t kClasses = 5;
  std::vector<double> latencies;
  std::vector<double> class_latencies[kClasses];
  std::uint64_t answered = 0, shed = 0, rejected = 0;
  // Partial responses by degradation class (kComplete slot stays zero).
  std::uint64_t partials[4] = {0, 0, 0, 0};
  std::uint64_t shards_answered_min = 0, shards_total = 0;
  WallTimer timer;
  // Keep at most one queue's worth of futures in flight: submit until
  // try_push sheds, then drain — the admission queue is the window.
  std::vector<std::future<Expected<QueryResponse>>> inflight;
  const auto drain = [&] {
    for (auto& fut : inflight) {
      auto result = fut.get();
      if (!result.has_value()) {
        if (result.error().code == ErrorCode::kOverloaded) ++shed;
        if (result.error().code == ErrorCode::kDeadlineExceeded) ++rejected;
        continue;
      }
      ++answered;
      const auto& ok = result.value();
      ++partials[static_cast<std::size_t>(ok.degradation)];
      if (ok.shards_total > 0) {
        shards_total = ok.shards_total;
        shards_answered_min = shards_answered_min == 0
                                  ? ok.shards_answered
                                  : std::min<std::uint64_t>(shards_answered_min,
                                                            ok.shards_answered);
      }
      latencies.push_back(ok.timings.total_seconds);
      const auto cls = static_cast<std::size_t>(ok.query_class());
      if (cls < kClasses) class_latencies[cls].push_back(ok.timings.total_seconds);
    }
    inflight.clear();
  };
  for (std::size_t pass = 0; pass < repeat; ++pass) {
    for (const auto& query : queries) {
      QueryRequest request = proto;
      request.query = query;
      inflight.push_back(service.submit(std::move(request)));
      if (inflight.size() >= service.queue_capacity()) drain();
    }
  }
  drain();
  const double wall = timer.seconds();

  const auto pct_of = [](const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const std::size_t i =
        std::min(sorted.size() - 1, static_cast<std::size_t>(q * sorted.size()));
    return sorted[i] * 1e3;
  };
  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&](double q) { return pct_of(latencies, q); };
  std::printf("%llu queries answered in %.2f s  (%.0f QPS, %zu threads)\n",
              static_cast<unsigned long long>(answered), wall,
              answered / std::max(wall, 1e-9), service.threads());
  std::printf("latency ms  p50 %.3f  p95 %.3f  p99 %.3f\n", pct(0.50), pct(0.95),
              pct(0.99));
  for (std::size_t c = 0; c < kClasses; ++c) {
    auto& lat = class_latencies[c];
    if (lat.empty()) continue;
    std::sort(lat.begin(), lat.end());
    std::printf("  %-12s %6zu queries  p50 %.3f  p95 %.3f  p99 %.3f\n",
                query_class_name(static_cast<QueryClass>(c)), lat.size(),
                pct_of(lat, 0.50), pct_of(lat, 0.95), pct_of(lat, 0.99));
  }
  const std::uint64_t degraded = partials[1] + partials[2] + partials[3];
  if (shed + rejected + degraded > 0) {
    std::printf("shed %llu  deadline-rejected %llu  partial %llu "
                "(deadline %llu, shed %llu, shard %llu)\n",
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(degraded),
                static_cast<unsigned long long>(
                    partials[static_cast<std::size_t>(Degradation::kDeadlinePartial)]),
                static_cast<unsigned long long>(
                    partials[static_cast<std::size_t>(Degradation::kShedPartial)]),
                static_cast<unsigned long long>(
                    partials[static_cast<std::size_t>(Degradation::kShardPartial)]));
  }
  if (shards_total > 0) {
    std::printf("cluster: %llu shards, worst response answered %llu/%llu\n",
                static_cast<unsigned long long>(shards_total),
                static_cast<unsigned long long>(shards_answered_min),
                static_cast<unsigned long long>(shards_total));
  }
  if (args.has("metrics")) {
    std::fputs(service.metrics().to_prometheus().c_str(), stdout);
  }
  return 0;
}

int cmd_stats(int argc, char** argv) {
  ArgParser args("stats", "<index_dir>", {});
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  if (args.positionals().size() != 1) {
    args.print_usage(stderr);
    return 2;
  }
  const std::string& dir = args.positionals()[0];
  if (is_live_dir(dir)) {
    auto live = LiveIndex::open(dir);
    if (!live.has_value()) return report_error(live.error());
    const auto snap = live.value().snapshot();
    std::printf("live index: %llu live docs (%llu total, %llu tombstoned), "
                "%llu distinct terms, %zu segments\n",
                static_cast<unsigned long long>(snap->doc_count()),
                static_cast<unsigned long long>(snap->total_docs()),
                static_cast<unsigned long long>(snap->deleted_docs()),
                static_cast<unsigned long long>(snap->term_count()),
                snap->segment_count());
    const auto manifest = manifest_read(dir);
    for (const auto& seg : snap->segments()) {
      std::uint64_t reclaimed = 0;
      if (manifest.has_value()) {
        for (const auto& e : manifest.value().entries) {
          if (e.segment_id == seg->id()) reclaimed = e.reclaimed_docs;
        }
      }
      const std::uint64_t dead =
          snap->tombstones() == nullptr
              ? 0
              : snap->tombstones()->count_in_range(seg->doc_base(), seg->doc_count());
      std::printf("  seg-%04llu: docs [%u, %u), %llu terms, %s, %llu/%llu dead docs reclaimed\n",
                  static_cast<unsigned long long>(seg->id()), seg->doc_base(),
                  seg->doc_base() + seg->doc_count(),
                  static_cast<unsigned long long>(seg->reader().term_count()),
                  format_bytes(seg->reader().file_bytes()).c_str(),
                  static_cast<unsigned long long>(reclaimed),
                  static_cast<unsigned long long>(dead));
    }
    return 0;
  }
  auto opened = InvertedIndex::open(dir, {});
  if (!opened.has_value()) return report_error(opened.error());
  const auto& index = opened.value();
  const auto* seg = index.segment();
  std::printf("segment: %s (%s, %s mapped), %llu terms\n", seg->path().c_str(),
              format_bytes(seg->file_bytes()).c_str(), format_bytes(seg->mapped_bytes()).c_str(),
              static_cast<unsigned long long>(seg->term_count()));
  // Top-10 longest postings lists.
  std::vector<std::pair<std::size_t, std::string>> top;
  index.for_each_term([&](std::string_view term) {
    const auto p = index.lookup(term);
    top.emplace_back(p->doc_ids.size(), std::string(term));
  });
  std::sort(top.rbegin(), top.rend());
  std::printf("most frequent terms:\n");
  for (std::size_t i = 0; i < top.size() && i < 10; ++i) {
    std::printf("  %-20s %zu docs\n", top[i].second.c_str(), top[i].first);
  }
  return 0;
}

int cmd_verify(int argc, char** argv) {
  ArgParser args("verify", "<index_dir>", {});
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  if (args.positionals().size() != 1) {
    args.print_usage(stderr);
    return 2;
  }
  const auto report = verify_index(args.positionals()[0]);
  std::printf("terms %llu, runs %llu, postings %llu, encoded %s\n",
              static_cast<unsigned long long>(report.terms),
              static_cast<unsigned long long>(report.runs),
              static_cast<unsigned long long>(report.postings),
              format_bytes(report.encoded_bytes).c_str());
  if (report.ok) {
    std::printf("index OK\n");
    return 0;
  }
  for (const auto& e : report.errors) std::printf("ERROR: %s\n", e.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "generate") return cmd_generate(argc - 2, argv + 2);
  if (cmd == "build") return cmd_build(argc - 2, argv + 2);
  if (cmd == "compact") return cmd_compact(argc - 2, argv + 2);
  if (cmd == "live") return cmd_live(argc - 2, argv + 2);
  if (cmd == "cluster") return cmd_cluster(argc - 2, argv + 2);
  if (cmd == "query") return cmd_query(argc - 2, argv + 2, false);
  if (cmd == "search") return cmd_search(argc - 2, argv + 2);
  if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
  if (cmd == "phrase") return cmd_query(argc - 2, argv + 2, true);
  if (cmd == "stats") return cmd_stats(argc - 2, argv + 2);
  if (cmd == "verify") return cmd_verify(argc - 2, argv + 2);
  return usage();
}
