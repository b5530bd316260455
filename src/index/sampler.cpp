#include "index/sampler.hpp"

#include <algorithm>
#include <queue>

#include "codec/lz.hpp"
#include "corpus/container.hpp"
#include "dict/trie_table.hpp"
#include "io/env.hpp"
#include "parse/parser.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace hetindex {

bool WorkSplit::is_popular(std::uint32_t trie_idx) const {
  return std::find(popular.begin(), popular.end(), trie_idx) != popular.end();
}

std::uint64_t sample_budget_bytes(std::uint64_t raw_size, const SamplerConfig& config) {
  return std::max<std::uint64_t>(
      64 << 10, static_cast<std::uint64_t>(config.sample_fraction * static_cast<double>(raw_size)));
}

Expected<std::vector<Document>> sample_documents(const std::vector<std::uint8_t>& file_bytes,
                                                 const SamplerConfig& config) {
  if (auto header = container_try_header_doc_count(file_bytes.data(), file_bytes.size());
      !header.has_value()) {
    return header.error();
  }
  const std::uint64_t want =
      sample_budget_bytes(lz_raw_size(file_bytes.data() + 8, file_bytes.size() - 8), config);
  // The LZ frame inflates whole blocks (each CRC-checked), so the prefix
  // holds far more than `want`; keep only the documents the budget covers.
  auto docs = container_sample(file_bytes.data(), file_bytes.size(), want);
  if (docs.size() < config.min_docs_per_file) {
    docs = container_decompress(file_bytes.data(), file_bytes.size());
  }
  std::size_t keep = 0;
  std::uint64_t taken = 0;
  while (keep < docs.size() && (taken < want || keep < config.min_docs_per_file)) {
    taken += document_raw_bytes(docs[keep++]);
  }
  docs.resize(keep);
  return docs;
}

Expected<WorkSplit> sample_and_split(const std::vector<std::string>& files,
                                     const SamplerConfig& config) {
  WallTimer timer;
  WorkSplit split;
  split.sampled_tokens.assign(kTrieCollections, 0);

  Parser parser;
  for (const auto& file : files) {
    // §III.E sampling: inflate only a prefix of each file (e.g. 1MB/1GB),
    // never the whole thing.
    auto read = io::read_file_via_env(file);
    if (!read.has_value()) return read.error();
    auto docs = sample_documents(read.value(), config);
    if (!docs.has_value()) {
      return Error{docs.error().code, docs.error().message + " (" + file + ")"};
    }
    const auto block = parser.parse(docs.value(), 0, 0, 0);
    for (const auto& g : block.groups) split.sampled_tokens[g.trie_idx] += g.tokens;
  }

  // Rank collections by sampled token count; the top popular_count become
  // the CPU's popular set.
  std::vector<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < kTrieCollections; ++i) {
    if (split.sampled_tokens[i] > 0) seen.push_back(i);
  }
  std::sort(seen.begin(), seen.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (split.sampled_tokens[a] != split.sampled_tokens[b])
      return split.sampled_tokens[a] > split.sampled_tokens[b];
    return a < b;
  });
  const std::size_t popular_n = std::min(config.popular_count, seen.size());
  split.popular.assign(seen.begin(), seen.begin() + static_cast<std::ptrdiff_t>(popular_n));
  split.unpopular.assign(seen.begin() + static_cast<std::ptrdiff_t>(popular_n), seen.end());
  std::sort(split.unpopular.begin(), split.unpopular.end());
  split.sampling_seconds = timer.seconds();
  return split;
}

std::vector<std::vector<std::uint32_t>> balance_popular(
    const std::vector<std::uint32_t>& popular, const std::vector<std::uint64_t>& tokens,
    std::size_t n) {
  HET_CHECK(n >= 1);
  // Greedy LPT: biggest collection first onto the lightest set.
  std::vector<std::uint32_t> order = popular;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return tokens.at(a) > tokens.at(b);
  });
  std::vector<std::vector<std::uint32_t>> sets(n);
  using Load = std::pair<std::uint64_t, std::size_t>;  // (mass, set)
  std::priority_queue<Load, std::vector<Load>, std::greater<>> heap;
  for (std::size_t i = 0; i < n; ++i) heap.push({0, i});
  for (const auto idx : order) {
    auto [mass, set] = heap.top();
    heap.pop();
    sets[set].push_back(idx);
    heap.push({mass + tokens.at(idx), set});
  }
  return sets;
}

std::vector<std::vector<std::uint32_t>> split_unpopular_mod(
    const std::vector<std::uint32_t>& unpopular, std::size_t n) {
  HET_CHECK(n >= 1);
  // §III.E: "assigning the trie collection TC_i with index i to the GPU
  // whose index is given by i mod N2".
  std::vector<std::vector<std::uint32_t>> sets(n);
  for (const auto idx : unpopular) sets[idx % n].push_back(idx);
  return sets;
}

}  // namespace hetindex
