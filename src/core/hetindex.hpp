#pragma once
/// \file hetindex.hpp
/// Public facade of the hetindex library — the one header downstream users
/// include. Reproduces "A Fast Algorithm for Constructing Inverted Files on
/// Heterogeneous Platforms" (Wei & JaJa, IPDPS 2011): a pipelined
/// parser/indexer system with a hybrid trie + B-tree dictionary, CPU/GPU
/// work splitting by term popularity, and per-run compressed postings
/// output.
///
/// Everything a downstream caller programs against is re-exported here;
/// examples and tools include only this header. The surface is organised
/// in seven groups:
///   Build        IndexBuilder, PipelineConfig (+validate()), PipelineEngine,
///                PipelineReport / RunRecord, PipelineProgress
///   Observe      obs::MetricsRegistry / MetricsSnapshot / StageSpan — live
///                queue depths, stall times and per-stage rates
///                (docs/OBSERVABILITY.md); PipelineReport::to_json()
///   Query        InvertedIndex (run-file or mmapped-segment backed),
///                boolean/phrase ops, BM25 ranking, DocMap, index
///                verification, the run-file merger, segment compaction
///   Serve        SearchBackend (the serving interface: QueryRequest in,
///                Expected<QueryResponse> out) with its implementations —
///                Searcher (single-node query facade, opened via
///                Searcher::open) and SearchService (thread-pooled
///                concurrent execution with admission control, caching,
///                deadlines; docs/SERVING.md). Requests carry a Query
///                AST — ranked bags, AND/OR trees, exact phrases,
///                NEAR-k proximity — built by parse_query() or the
///                Query:: factories (docs/QUERIES.md)
///   Cluster      the sharded scatter-gather serving tier: Cluster
///                (topology + global-id ingest), Partitioner (document /
///                term / block placement), Shard + ShardReplica, and
///                ShardRouter — a SearchBackend whose merged top-k is
///                bit-identical to a single-node build of the union
///                corpus (docs/CLUSTER.md)
///   Live         IndexWriter (real-time mutable indexing: documents are
///                searchable the moment add_document returns, deletes and
///                updates via tombstones), the searchable Memtable, tiered
///                compaction with physical reclaim, snapshot-isolated reads
///                (LiveSnapshot / LiveIndex; docs/LIVE_INDEXING.md)
///   Corpus       container files, the synthetic collection generator, the
///                sampling-based CPU/GPU work split
///   Evaluate     the DES platform simulator plus the single-node and
///                MapReduce baselines used by the paper's comparisons
///
/// Quick start:
///   hetindex::IndexBuilder builder;                 // paper defaults
///   auto report = builder.build(files, "out_dir");  // construct index
///   auto index = hetindex::InvertedIndex::open("out_dir", {}).value();
///   hetindex::DocMap docs =
///       hetindex::DocMap::open(hetindex::doc_map_path("out_dir"));
///   auto searcher =
///       hetindex::Searcher::open(hetindex::SearchSource::batch(index, docs))
///           .value();
///   hetindex::QueryRequest req;
///   req.query = hetindex::parse_query("parallelism").value();
///   auto response = searcher->search(req);  // Expected<QueryResponse>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

// Build.
#include "pipeline/config.hpp"
#include "pipeline/engine.hpp"
#include "pipeline/report.hpp"

// Observe.
#include "obs/json.hpp"
#include "obs/metrics.hpp"

// Live indexing (docs/LIVE_INDEXING.md).
#include "live/manifest.hpp"
#include "live/memtable.hpp"
#include "live/segment_set.hpp"
#include "live/tombstones.hpp"
#include "live/writer.hpp"

// Query.
#include "postings/boolean_ops.hpp"
#include "postings/doc_map.hpp"
#include "postings/merger.hpp"
#include "postings/query.hpp"
#include "postings/ranking.hpp"
#include "postings/segment.hpp"
#include "postings/verify.hpp"

// Serve (docs/SERVING.md, docs/QUERIES.md).
#include "search/backend.hpp"
#include "search/query_ast.hpp"
#include "search/searcher.hpp"
#include "search/service.hpp"
#include "search/types.hpp"

// Cluster (docs/CLUSTER.md).
#include "cluster/cluster.hpp"
#include "cluster/partitioner.hpp"
#include "cluster/router.hpp"
#include "cluster/shard.hpp"

// Corpus.
#include "corpus/container.hpp"
#include "corpus/synthetic.hpp"
#include "index/sampler.hpp"

// Evaluate.
#include "baseline/baselines.hpp"
#include "mapreduce/mr_indexers.hpp"
#include "mapreduce/remote_lists.hpp"
#include "sim/pipeline_sim.hpp"

// Formatting helpers shared by the CLI/bench output.
#include "util/stats.hpp"

namespace hetindex {

// Observability types, promoted out of the obs:: sub-namespace for
// downstream ergonomics.
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::StageSpan;

/// Applies the parser's term normalization (lowercase, Porter stem) to a
/// query string so lookups match indexed terms.
std::string normalize_term(std::string_view raw);

/// High-level builder over PipelineEngine with ergonomic defaults.
class IndexBuilder {
 public:
  IndexBuilder() = default;
  explicit IndexBuilder(PipelineConfig config) : config_(std::move(config)) {}

  /// Fluent knobs for the common parameters.
  IndexBuilder& parsers(std::size_t m) {
    config_.parsers = m;
    return *this;
  }
  IndexBuilder& cpu_indexers(std::size_t n) {
    config_.cpu_indexers = n;
    return *this;
  }
  IndexBuilder& gpus(std::size_t n) {
    config_.gpus = n;
    return *this;
  }
  IndexBuilder& codec(PostingCodec codec) {
    config_.codec = codec;
    return *this;
  }
  IndexBuilder& merge_output(bool merge) {
    config_.merge_after_build = merge;
    return *this;
  }
  /// Also emit the single-file serving segment (see postings/segment.hpp);
  /// InvertedIndex::open() then serves from it via mmap.
  IndexBuilder& emit_segment(bool emit) {
    config_.emit_segment = emit;
    return *this;
  }
  /// Live-progress hook, called after every completed single run.
  IndexBuilder& progress(std::function<void(const PipelineProgress&)> callback) {
    config_.progress = std::move(callback);
    return *this;
  }
  [[nodiscard]] PipelineConfig& config() { return config_; }

  /// Configuration problems that would make build() abort; empty == valid.
  /// Same structured error type as InvertedIndex::open(dir, OpenOptions).
  [[nodiscard]] std::vector<Error> validate() const { return config_.validate(); }

  /// Builds inverted files for the container files under `output_dir`.
  PipelineReport build(const std::vector<std::string>& files, const std::string& output_dir);

 private:
  PipelineConfig config_;
};

/// Library version.
struct Version {
  static constexpr int major = 1;
  static constexpr int minor = 7;
  static constexpr int patch = 0;
};
std::string version_string();

}  // namespace hetindex
