/// \file bench_ablation_positional.cpp
/// Cost of positional postings (§IV.D: the Ivory comparison "generates
/// positional postings lists, which will add some extra cost but we don't
/// believe this will alter the overall throughput numbers significantly").
/// Builds the same collection with and without positions and compares
/// indexing work, simulated GPU time, run-file sizes and query capability.

#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"
#include "pipeline/engine.hpp"
#include "postings/query.hpp"
#include "postings/segment.hpp"
#include "sim/pipeline_sim.hpp"

using namespace hetindex;
using namespace hetindex::bench;

namespace {

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

}  // namespace

int main() {
  banner("Ablation — positional postings cost", "Wei & JaJa 2011, §IV.D (Ivory footnote)");

  auto spec = clueweb_like(scale());
  spec.total_bytes = static_cast<std::uint64_t>(16.0 * scale() * (1 << 20));
  spec.file_bytes = 2u << 20;
  const auto coll = cached_collection(spec);

  struct Outcome {
    double indexing_seconds;
    double total_seconds;
    std::uint64_t index_bytes;
  };
  PipelineSimulator sim;
  Outcome outcomes[2];
  for (int positional = 0; positional < 2; ++positional) {
    PipelineConfig pc;
    pc.parsers = 2;
    pc.cpu_indexers = 2;
    pc.gpus = 2;
    pc.parser.record_positions = positional != 0;
    const auto denoised = measured_report(coll, pc);  // best-of-2 stage costs
    pc.output_dir = bench_dir() + "/positional_out";
    PipelineEngine engine(pc);
    const auto report = engine.build(coll.paths());  // keeps output on disk
    SimPipelineConfig sc;
    sc.parsers = 6;
    sc.cpu_indexers = 2;
    sc.gpus = 2;
    const auto des = sim.simulate(report.runs, sc);
    outcomes[positional] = {des.indexing_seconds, des.total_seconds,
                            dir_bytes(pc.output_dir)};
    if (positional == 0) std::filesystem::remove_all(pc.output_dir);
  }

  std::printf("\n%-28s %16s %16s\n", "", "doc+tf only", "with positions");
  row_sep(64);
  std::printf("%-28s %16.3f %16.3f\n", "Indexing time (s, DES)",
              outcomes[0].indexing_seconds, outcomes[1].indexing_seconds);
  std::printf("%-28s %16.3f %16.3f\n", "Pipeline total (s, DES)",
              outcomes[0].total_seconds, outcomes[1].total_seconds);
  std::printf("%-28s %16s %16s\n", "Index size on disk",
              format_bytes(outcomes[0].index_bytes).c_str(),
              format_bytes(outcomes[1].index_bytes).c_str());

  const double time_overhead =
      outcomes[1].total_seconds / outcomes[0].total_seconds - 1.0;
  const double size_overhead = static_cast<double>(outcomes[1].index_bytes) /
                                   static_cast<double>(outcomes[0].index_bytes) -
                               1.0;
  std::printf("\nOverheads: time +%.1f%%, index size +%.0f%%\n", time_overhead * 100,
              size_overhead * 100);

  // Demonstrate what the extra bytes buy: a phrase query. The sizes above
  // were taken before this fold, so they count run files only.
  (void)compact_index(bench_dir() + "/positional_out").value();
  const auto index = InvertedIndex::open(bench_dir() + "/positional_out", {}).value();
  std::string first_term;
  index.for_each_term([&](std::string_view term) {
    if (first_term.empty()) first_term = term;
  });
  std::size_t phrase_capable = 0;
  if (!first_term.empty()) {
    const auto p = index.lookup_positional(first_term);
    phrase_capable = p && !p->positions.empty() ? 1 : 0;
  }
  std::filesystem::remove_all(bench_dir() + "/positional_out");

  std::printf("\nShape checks: positional index supports position lookups: %s; time\n"
              "overhead is modest (<35%%, paper: \"won't alter throughput numbers\n"
              "significantly\"): %s; positions measurably grow the index (>5%% — most\n"
              "terms have tf=1, so one extra gap byte per posting; the shared\n"
              "dictionary file dilutes the ratio further): %s\n",
              phrase_capable ? "PASS" : "MISS", time_overhead < 0.35 ? "PASS" : "MISS",
              size_overhead > 0.05 ? "PASS" : "MISS");
  return 0;
}
