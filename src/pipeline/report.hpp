#pragma once
/// \file report.hpp
/// Instrumentation produced by a pipeline build. Each "single run" (Fig. 8:
/// one parsed block through pre-processing → parallel indexing →
/// post-processing) yields a RunRecord carrying the measured per-stage
/// work; the DES platform model (src/sim) replays these records on the
/// paper's 8-core + 2-GPU node to regenerate Fig. 10/11 and Tables IV/VI.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gpusim/simt.hpp"
#include "index/indexer.hpp"
#include "obs/metrics.hpp"
#include "pipeline/config.hpp"

namespace hetindex {

/// Measured costs of one single run (one parsed block / source file).
struct RunRecord {
  std::uint64_t run_id = 0;
  std::uint32_t doc_count = 0;
  std::uint64_t compressed_bytes = 0;
  std::uint64_t source_bytes = 0;  ///< uncompressed input represented
  std::uint64_t payload_bytes = 0; ///< parsed-group bytes (pre-proc ships these)
  std::uint64_t tokens = 0;

  // Parse stage (per-block, measured on one host core).
  double read_seconds = 0;        ///< serialized disk section
  double decompress_seconds = 0;  ///< in-memory, parallel across parsers
  double parse_seconds = 0;       ///< steps 2–5

  // Index stage.
  /// Per CPU indexer: thread CPU time of its index_block (work, not wall).
  std::vector<double> cpu_index_seconds;
  std::vector<GpuIndexer::Timing> gpu_timings;  ///< per GPU (simulated)
  /// Post-processing work: every indexer's encode of its own shard (thread
  /// CPU, summed) plus the concatenation and write of the run file.
  double flush_seconds = 0;
};

struct PipelineReport {
  PipelineConfig config;

  /// Cumulative parser time blocked in the §III.F read scheduler: waiting
  /// for the disk plus the serialized whole-file read itself.
  double read_stall_seconds = 0;
  /// Set when the build failed after validation. On a hard sampling or
  /// ingest read error partial run files are removed and aggregate fields
  /// cover only the work completed before the failure; on a failed segment
  /// fold (kIo write/fsync, kCorrupt input) no index.seg is left. Check ok()
  /// before using the output directory.
  std::optional<Error> error;
  [[nodiscard]] bool ok() const { return !error.has_value(); }

  // Table VI rows (measured on this host; see sim/ for platform-modelled
  // equivalents).
  double sampling_seconds = 0;
  double parse_stage_seconds = 0;   ///< wall time of the parser stage
  double index_stage_seconds = 0;   ///< wall time of the indexing stage
  double dict_combine_seconds = 0;
  double dict_write_seconds = 0;
  double merge_seconds = 0;
  double segment_seconds = 0;  ///< emit_segment fold time (0 when disabled)
  double total_seconds = 0;

  std::vector<RunRecord> runs;

  // Table V: lifetime work split.
  std::vector<IndexerWorkStats> cpu_work;
  std::vector<IndexerWorkStats> gpu_work;

  std::uint64_t documents = 0;
  std::uint64_t terms = 0;
  std::uint64_t postings = 0;
  std::uint64_t tokens = 0;
  std::uint64_t uncompressed_bytes = 0;
  std::uint64_t compressed_bytes = 0;
  std::uint64_t segment_bytes = 0;  ///< emitted segment size (0 when disabled)

  /// End-of-build snapshot of the engine's MetricsRegistry. The aggregate
  /// fields above are derived views over the same measurements (the
  /// pipeline_*_total counters equal documents/tokens/postings/bytes); the
  /// snapshot additionally carries queue depths, stall times and per-run
  /// stage statistics that have no RunRecord equivalent.
  obs::MetricsSnapshot metrics;

  /// Full report as a JSON document (schema in docs/OBSERVABILITY.md):
  /// config, per-stage seconds, totals, every RunRecord, the Table V work
  /// split, and the embedded metrics snapshot.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] double throughput_mb_s() const {
    return total_seconds > 0
               ? static_cast<double>(uncompressed_bytes) / (1024.0 * 1024.0) / total_seconds
               : 0.0;
  }
  [[nodiscard]] IndexerWorkStats cpu_total() const {
    IndexerWorkStats t;
    for (const auto& w : cpu_work) t += w;
    return t;
  }
  [[nodiscard]] IndexerWorkStats gpu_total() const {
    IndexerWorkStats t;
    for (const auto& w : gpu_work) t += w;
    return t;
  }
};

}  // namespace hetindex
