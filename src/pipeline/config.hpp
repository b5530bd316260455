#pragma once
/// \file config.hpp
/// Pipeline configuration: the knobs of Fig. 9/10 — number of parallel
/// parsers (M), CPU indexers (N1), GPUs (N2) — plus output and ablation
/// options, configuration validation, and the live-progress hook.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "codec/posting_codecs.hpp"
#include "gpusim/gpu_spec.hpp"
#include "index/sampler.hpp"
#include "parse/parser.hpp"
#include "util/error.hpp"

namespace hetindex {

/// Live build progress handed to PipelineConfig::progress after every
/// completed single run (Fig. 8). All fields are cumulative.
struct PipelineProgress {
  std::uint64_t runs_completed = 0;
  std::uint64_t files_total = 0;  ///< container files in the collection
  std::uint64_t documents = 0;
  std::uint64_t tokens = 0;
  std::uint64_t source_bytes = 0;  ///< uncompressed input indexed so far
  double elapsed_seconds = 0;

  [[nodiscard]] double throughput_mb_s() const {
    return elapsed_seconds > 0
               ? static_cast<double>(source_bytes) / (1024.0 * 1024.0) / elapsed_seconds
               : 0.0;
  }
};

struct PipelineConfig {
  /// M parallel parsers (paper's optimum on 8 cores: 6).
  std::size_t parsers = 2;
  /// N1 CPU indexers (paper's optimum with GPUs: 2).
  std::size_t cpu_indexers = 2;
  /// N2 GPU indexers (0 disables the GPU path entirely).
  std::size_t gpus = 2;
  /// Thread blocks per GPU (§IV.B: 480 is optimal on the C1060).
  std::uint32_t gpu_thread_blocks = 480;
  GpuSpec gpu_spec{};
  /// Postings compression (§III.E: variable-byte by default).
  PostingCodec codec = PostingCodec::kVByte;
  /// B-tree node string caches (ablation hook, §III.B.2).
  bool use_string_cache = true;
  /// Run the <10% post-pass that merges partial postings lists (§III.F).
  bool merge_after_build = false;
  /// Also fold the run files into a single-file serving segment
  /// (`index.seg`, postings/segment.hpp) at finalize — what
  /// InvertedIndex::open serves.
  bool emit_segment = false;
  /// Parsed-block buffers per parser before back-pressure stalls it.
  std::size_t buffers_per_parser = 2;
  SamplerConfig sampler{};
  ParserConfig parser{};
  /// Where run files, dictionary and directory are written.
  std::string output_dir = "hetindex_out";
  /// Optional live-progress hook, invoked from the indexing thread after
  /// every completed single run. Keep it cheap; it runs on the hot path.
  std::function<void(const PipelineProgress&)> progress;

  /// Checks the configuration for contradictions a build cannot survive
  /// (zero parsers, zero indexers, zero back-pressure buffers, GPUs with
  /// zero thread blocks, a degenerate sampler, an empty output dir).
  /// Returns one structured Error (code kInvalidArgument) per problem —
  /// the same error type InvertedIndex::open(dir, OpenOptions) reports —
  /// empty means valid. PipelineEngine::build() calls this first and
  /// refuses invalid configs.
  [[nodiscard]] std::vector<Error> validate() const;
};

}  // namespace hetindex
