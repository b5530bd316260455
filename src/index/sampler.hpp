#pragma once
/// \file sampler.hpp
/// Sampling-based popular/unpopular classification and the CPU/GPU work
/// split of §III.E: popular trie collections (dominated by a few frequent
/// terms — cache-friendly) go to CPU indexers; the long tail of unpopular
/// collections (Zipf flat region — cache-hostile, comparison-parallel) goes
/// to the GPUs. "To determine which collections belong to which group, we
/// extract a sample from the document collection, e.g. 1MB out of every
/// 1GB."

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/document.hpp"
#include "util/error.hpp"

namespace hetindex {

struct SamplerConfig {
  /// Fraction of each file's documents to sample (paper: 1MB / 1GB).
  double sample_fraction = 0.001;
  /// Minimum sampled documents per file regardless of fraction.
  std::uint32_t min_docs_per_file = 4;
  /// Number of popular collections routed to the CPU (§III.E: "there are
  /// relatively very few popular trie collections (around one hundred)").
  std::size_t popular_count = 100;
};

/// The sampling outcome: per-collection token estimates and the resulting
/// popularity partition.
struct WorkSplit {
  /// Collections ranked most-popular-first (size = popular_count or fewer).
  std::vector<std::uint32_t> popular;
  /// Everything else that appeared in the sample. Collections never seen in
  /// the sample are implicitly unpopular (rare terms by construction).
  std::vector<std::uint32_t> unpopular;
  /// Sampled token counts, indexed by trie collection.
  std::vector<std::uint64_t> sampled_tokens;
  double sampling_seconds = 0;

  [[nodiscard]] bool is_popular(std::uint32_t trie_idx) const;
};

/// Raw bytes a file's sample may hold (§III.E: `sample_fraction` of the
/// file's uncompressed payload, at least 64 KiB).
std::uint64_t sample_budget_bytes(std::uint64_t raw_size, const SamplerConfig& config);

/// The sample of one in-memory container file: its leading whole documents
/// until they hold sample_budget_bytes() raw bytes (document_raw_bytes), so
/// at most one document past the budget, and never fewer than
/// min_docs_per_file documents (or the whole file, if it has fewer).
/// kCorrupt when the container header is damaged.
Expected<std::vector<Document>> sample_documents(const std::vector<std::uint8_t>& file_bytes,
                                                 const SamplerConfig& config);

/// Runs the sampling pass over the collection files (inflating only the
/// sampled prefix of each file's documents through the real parse path).
/// Each file is read once through io::read_file_via_env, so a hard read
/// failure is a structured kIo error naming the file, not an abort.
Expected<WorkSplit> sample_and_split(const std::vector<std::string>& files,
                                     const SamplerConfig& config);

/// Splits the popular collections into `n` sets of nearly equal sampled
/// token mass (§III.E: "we split these trie collections into N1 independent
/// sets such that each contains almost the same number of tokens") using
/// greedy longest-processing-time assignment.
std::vector<std::vector<std::uint32_t>> balance_popular(
    const std::vector<std::uint32_t>& popular, const std::vector<std::uint64_t>& tokens,
    std::size_t n);

/// Assigns unpopular collection TC_i to GPU (i mod n) — the paper's static
/// mod split across GPUs.
std::vector<std::vector<std::uint32_t>> split_unpopular_mod(
    const std::vector<std::uint32_t>& unpopular, std::size_t n);

}  // namespace hetindex
