#pragma once
/// \file merger.hpp
/// Combines the per-run partial postings lists of each term into a single
/// contiguous list — the optional post-processing step of §III.F ("we can
/// combine the partial postings lists of each term into a single list in a
/// post-processing step, with an additional cost of less than 10% of the
/// total running time"). The output is a regular run file with
/// run_id = kMergedRunId so the same reader serves both layouts.

#include <cstdint>
#include <string>
#include <vector>

#include "codec/posting_codecs.hpp"
#include "util/error.hpp"

namespace hetindex {

inline constexpr std::uint32_t kMergedRunId = 0xFFFFFFFFu;

struct MergeStats {
  std::uint64_t terms = 0;
  std::uint64_t postings = 0;
  std::uint64_t input_bytes = 0;
  std::uint64_t output_bytes = 0;
};

/// Merges `run_paths` (ascending run order) into `out_path`. Doc IDs must
/// be globally increasing across runs for every key — guaranteed by the
/// pipeline's round-robin buffer consumption and checked here. kCorrupt
/// (writing nothing) on a damaged run file, a codec other than `codec` or
/// doc ranges that overlap across runs; a run file that cannot be read
/// passes its read error through.
Expected<MergeStats> merge_runs(const std::vector<std::string>& run_paths,
                                const std::string& out_path,
                                PostingCodec codec = PostingCodec::kVByte);

}  // namespace hetindex
