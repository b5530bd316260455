/// \file bench_block_pruning.cpp
/// Block-Max MaxScore pruning versus the exhaustive scorer on the same
/// disjunctive workload (docs/SERVING.md, not a paper table): per-query
/// latency percentiles, blocks skipped, and postings decoded, swept over k
/// and query arity. Writes a machine-readable summary to BENCH_pruning.json
/// (path overridable via HETINDEX_BENCH_JSON) — scripts/tier1.sh archives
/// it next to the build tree. (BENCH_search.json now belongs to
/// bench_search_qps's per-class mixed workload.)

#include <algorithm>
#include <random>
#include <vector>

#include "bench_common.hpp"
#include "obs/json.hpp"
#include "util/timer.hpp"

using namespace hetindex;
using namespace hetindex::bench;

namespace {

struct Row {
  std::string label;
  std::size_t k = 0;
  double pruned_p50_us = 0, pruned_p95_us = 0;
  double exhaustive_p50_us = 0, exhaustive_p95_us = 0;
  double speedup = 0;
  std::uint64_t blocks_skipped = 0;
};

double pct(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, static_cast<std::size_t>(q * v.size()))] * 1e6;
}

}  // namespace

int main() {
  banner("Block-Max MaxScore: pruned vs exhaustive top-k",
         "serving extension over the §III inverted files (not a paper table)");

  CollectionSpec spec = wikipedia_like();
  spec.total_bytes = static_cast<std::uint64_t>(24.0 * (1 << 20) * scale());
  const auto coll = cached_collection(spec);

  const std::string index_dir = bench_dir() + "/block_pruning_idx";
  std::filesystem::remove_all(index_dir);
  IndexBuilder builder;
  builder.parsers(2).cpu_indexers(2).emit_segment(true);
  const auto report = builder.build(coll.paths(), index_dir);
  const auto index = InvertedIndex::open(index_dir, {}).value();
  const auto docs = DocMap::open(doc_map_path(index_dir));
  std::printf("corpus: %llu docs, %llu terms\n\n",
              static_cast<unsigned long long>(report.documents),
              static_cast<unsigned long long>(report.terms));

  // Skew the workload toward frequent terms: that is where block skipping
  // pays (long lists, low per-posting value).
  std::vector<std::string> vocab;
  index.for_each_term([&vocab](std::string_view t) { vocab.emplace_back(t); });
  std::sort(vocab.begin(), vocab.end(), [&index](const auto& a, const auto& b) {
    const auto pa = index.lookup(a), pb = index.lookup(b);
    return (pa ? pa->doc_ids.size() : 0) > (pb ? pb->doc_ids.size() : 0);
  });
  if (vocab.size() > 512) vocab.resize(512);

  std::mt19937 rng(17);
  std::uniform_int_distribution<std::size_t> pick(0, vocab.size() - 1);
  std::vector<std::vector<std::string>> queries;
  for (std::size_t q = 0; q < 128; ++q) {
    std::vector<std::string> terms;
    for (std::size_t t = 0; t < 2 + q % 4; ++t) terms.push_back(vocab[pick(rng)]);
    queries.push_back(std::move(terms));
  }

  std::printf("%-10s %6s %12s %12s %12s %10s %12s\n", "executor", "k", "p50 us",
              "p95 us", "exh p50 us", "speedup", "blocks skip");
  row_sep(80);

  std::vector<Row> rows;
  for (const std::size_t k : {10u, 100u}) {
    Row row;
    row.label = "k" + std::to_string(k);
    row.k = k;
    for (const bool exhaustive : {true, false}) {
      const auto searcher_ptr = Searcher::open(SearchSource::batch(index, docs)).value();
      const Searcher& searcher = *searcher_ptr;
      const auto before =
          searcher.metrics().snapshot().counter("search_blocks_skipped_total");
      std::vector<double> lat;
      for (int pass = 0; pass < 3; ++pass) {
        for (const auto& terms : queries) {
          QueryRequest request;
          request.query = Query::bag(terms);
          request.k = k;
          request.exhaustive = exhaustive;
          request.use_result_cache = false;
          const WallTimer t;
          const auto r = searcher.search(request);
          if (r.has_value()) lat.push_back(t.seconds());
        }
      }
      if (exhaustive) {
        row.exhaustive_p50_us = pct(lat, 0.50);
        row.exhaustive_p95_us = pct(lat, 0.95);
      } else {
        row.pruned_p50_us = pct(lat, 0.50);
        row.pruned_p95_us = pct(lat, 0.95);
        row.blocks_skipped =
            searcher.metrics().snapshot().counter("search_blocks_skipped_total") -
            before;
      }
    }
    row.speedup = row.exhaustive_p50_us / std::max(row.pruned_p50_us, 1e-9);
    std::printf("%-10s %6zu %12.1f %12.1f %12.1f %9.2fx %12llu\n", "maxscore",
                row.k, row.pruned_p50_us, row.pruned_p95_us, row.exhaustive_p50_us,
                row.speedup, static_cast<unsigned long long>(row.blocks_skipped));
    rows.push_back(std::move(row));
  }

  // Machine-readable summary (consumed by CI trend tooling).
  std::string json = "{\n  \"bench\": \"block_pruning\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    json += "    {\"k\": " + std::to_string(r.k) +
            ", \"pruned_p50_us\": " + obs::json_number(r.pruned_p50_us) +
            ", \"pruned_p95_us\": " + obs::json_number(r.pruned_p95_us) +
            ", \"exhaustive_p50_us\": " + obs::json_number(r.exhaustive_p50_us) +
            ", \"exhaustive_p95_us\": " + obs::json_number(r.exhaustive_p95_us) +
            ", \"speedup\": " + obs::json_number(r.speedup) +
            ", \"blocks_skipped\": " + std::to_string(r.blocks_skipped) + "}";
    json += (i + 1 < rows.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  const char* out = std::getenv("HETINDEX_BENCH_JSON");
  const std::string json_path = out != nullptr ? out : "BENCH_pruning.json";
  write_file(json_path, std::vector<std::uint8_t>(json.begin(), json.end()));
  std::printf("\nwrote %s\n", json_path.c_str());

  bool ok = true;
  for (const auto& r : rows) {
    if (r.blocks_skipped == 0) {
      std::printf("FAIL: no blocks skipped at k=%zu\n", r.k);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
