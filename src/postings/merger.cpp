#include "postings/merger.hpp"

#include <algorithm>
#include <optional>

#include "postings/run_file.hpp"

namespace hetindex {

Expected<MergeStats> merge_runs(const std::vector<std::string>& run_paths,
                                const std::string& out_path, PostingCodec codec) {
  MergeStats stats;
  std::vector<RunFile> runs;
  runs.reserve(run_paths.size());
  for (const auto& p : run_paths) {
    auto run = RunFile::open(p);
    if (!run.has_value()) return run.error();
    runs.push_back(std::move(run).value());
  }
  std::sort(runs.begin(), runs.end(),
            [](const RunFile& a, const RunFile& b) { return a.run_id() < b.run_id(); });

  // Byte-level merge (the reason §III.F's pass costs <10%): every encoded
  // segment's first doc id is absolute, so partial lists concatenate
  // verbatim — no decode/re-encode. Every run table ascends by key, so a
  // k-way walk over the tables meets each key once, in output order, and
  // takes its segments in ascending run (= global doc) order; table
  // metadata folds from the runs' rows and cross-run doc order is checked
  // from min/max alone.
  for (const auto& run : runs) {
    if (run.codec() != codec) {
      return Error{ErrorCode::kCorrupt, "merge requires a uniform posting codec: run " +
                                            std::to_string(run.run_id())};
    }
  }
  RunFileWriter writer(out_path, kMergedRunId, codec);
  std::vector<std::size_t> at(runs.size(), 0);  // next row of each run's table
  std::vector<std::uint8_t> blob;
  while (true) {
    // K is the run count (a handful), so a linear min-scan beats a heap.
    std::optional<PostingKey> key;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (at[i] < runs[i].table().size() && (!key || runs[i].table()[at[i]].key < *key)) {
        key = runs[i].table()[at[i]].key;
      }
    }
    if (!key) break;
    blob.clear();
    std::uint32_t count = 0, min_doc = 0, max_doc = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (at[i] == runs[i].table().size() || runs[i].table()[at[i]].key != *key) continue;
      const RunTableEntry& e = runs[i].table()[at[i]++];
      if (count != 0 && e.min_doc <= max_doc) {
        return Error{ErrorCode::kCorrupt, "doc ids must be globally increasing across runs: run " +
                                              std::to_string(runs[i].run_id())};
      }
      const auto segment = runs[i].raw_blob(e);
      blob.insert(blob.end(), segment.begin(), segment.end());
      stats.input_bytes += e.bytes;
      if (count == 0) min_doc = e.min_doc;
      max_doc = e.max_doc;
      count += e.count;
    }
    writer.add_raw(*key, blob, count, min_doc, max_doc);
    stats.postings += count;
    ++stats.terms;
  }
  stats.output_bytes = writer.finalize();
  return stats;
}

}  // namespace hetindex
