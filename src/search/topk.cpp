#include "search/topk.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "live/memtable.hpp"
#include "live/segment_set.hpp"
#include "live/tombstones.hpp"
#include "util/check.hpp"

namespace hetindex {

namespace {

/// Relative pruning slack: a candidate is discarded only when its bound is
/// below theta by more than one part in 10^9 — far beyond any rounding
/// drift a handful of double additions can produce, so a document whose
/// canonical score ties or beats theta always survives to the exact
/// re-score.
constexpr double kPruneSlack = 1.0 - 1e-9;

/// Candidates between deadline checks (a clock read per candidate would
/// dominate short lists).
constexpr std::uint64_t kDeadlineStride = 256;

/// The final ordering: score descending, doc id ascending. Doubles as the
/// heap's "is a better than b" test so ties resolve exactly as the
/// exhaustive scorer's sort does.
bool better(const ScoredDoc& a, const ScoredDoc& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc_id < b.doc_id;
}

}  // namespace

void DocLengthIndex::add_range(std::uint32_t base, std::uint32_t count,
                               const DocMap* map) {
  if (count == 0 || map == nullptr) return;
  HET_CHECK_MSG(ranges_.empty() ||
                    ranges_.back().base + ranges_.back().count <= base,
                "doc-length ranges must be added in ascending disjoint order");
  ranges_.push_back({base, count, map, nullptr});
}

void DocLengthIndex::add_range(std::uint32_t base, std::uint32_t count,
                               const MemtableView* memtable) {
  if (count == 0 || memtable == nullptr) return;
  HET_CHECK_MSG(ranges_.empty() ||
                    ranges_.back().base + ranges_.back().count <= base,
                "doc-length ranges must be added in ascending disjoint order");
  ranges_.push_back({base, count, nullptr, memtable});
}

void DocLengthIndex::add_snapshot(const LiveSnapshot& snap) {
  for (const auto& seg : snap.segments()) {
    const DocMap* map = seg->doc_map();
    if (map != nullptr) add_range(map->base(), map->doc_count(), map);
  }
  const MemtableView* memtable = snap.memtable();
  if (memtable != nullptr) add_range(memtable->doc_base(), memtable->doc_count(), memtable);
}

double DocLengthIndex::token_count(std::uint32_t doc) const {
  // Last range with base <= doc.
  const auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), doc,
      [](std::uint32_t d, const Range& r) { return d < r.base; });
  if (it == ranges_.begin()) return 0.0;
  const Range& r = *(it - 1);
  if (doc - r.base >= r.count) return 0.0;
  if (r.map != nullptr) return r.map->location(doc).token_count;
  return r.memtable->doc_tokens(doc);
}

double bm25_upper_bound(double idf, std::uint32_t max_tf, const Bm25Params& params) {
  if (max_tf == 0) return 0.0;
  // contribution = idf · tf(k1+1) / (tf + k1(1−b) + k1·b·dl/avgdl). The dl
  // term is nonnegative, so dropping it bounds from above; the rest is
  // monotone increasing in tf, so max_tf maximizes it. max(0,·) guards the
  // degenerate b > 1 configuration.
  const double c = std::max(0.0, params.k1 * (1.0 - params.b));
  const double tf = static_cast<double>(max_tf);
  return idf * (tf * (params.k1 + 1.0)) / (tf + c);
}

TopkTermInput topk_input(std::size_t term_index, std::unique_ptr<PostingsCursor> cursor,
                         std::uint64_t df, std::uint64_t n_docs, const Bm25Params& params) {
  TopkTermInput input;
  input.term_index = term_index;
  input.idf = bm25_idf(df, n_docs);
  input.upper_bound = bm25_upper_bound(input.idf, cursor->max_tf(), params);
  input.cursor = std::move(cursor);
  return input;
}

TopkResult maxscore_topk(
    std::vector<TopkTermInput> terms, std::size_t k, const Bm25Params& params,
    const DocLengthIndex& lengths, double avgdl,
    std::optional<std::chrono::steady_clock::time_point> deadline,
    const TombstoneSet* excluded) {
  TopkResult result;
  std::erase_if(terms, [](const TopkTermInput& t) {
    return t.cursor == nullptr || t.cursor->size() == 0;
  });
  if (terms.empty() || k == 0) return result;

  // Ascending upper bound: the non-essential prefix grows from the front.
  std::sort(terms.begin(), terms.end(), [](const TopkTermInput& a, const TopkTermInput& b) {
    if (a.upper_bound != b.upper_bound) return a.upper_bound < b.upper_bound;
    return a.term_index < b.term_index;
  });
  const std::size_t m = terms.size();
  std::vector<double> cum(m);  // cum[i] = bound of lists 0..i combined
  for (std::size_t i = 0; i < m; ++i) {
    cum[i] = terms[i].upper_bound + (i > 0 ? cum[i - 1] : 0.0);
    // Bind idf so cursors can turn block max_tf into block max score.
    terms[i].cursor->set_score_params(terms[i].idf, params);
    // Every list starts essential, so position everyone on its first doc.
    terms[i].cursor->seek(0);
  }

  // Min-heap of the k best seen, ordered by better(): top is the worst
  // incumbent, whose score is the pruning threshold theta.
  const auto worst_first = [](const ScoredDoc& a, const ScoredDoc& b) {
    return better(a, b);
  };
  std::priority_queue<ScoredDoc, std::vector<ScoredDoc>, decltype(worst_first)> heap(
      worst_first);
  double theta = -std::numeric_limits<double>::infinity();

  std::size_t first_essential = 0;  // lists [0, first_essential) are non-essential
  std::vector<std::pair<std::size_t, double>> matched;  // (term_index, tf) per candidate
  std::uint64_t candidates = 0;

  while (first_essential < m) {
    if (deadline && ++candidates % kDeadlineStride == 0 &&
        std::chrono::steady_clock::now() >= *deadline) {
      result.degraded = true;
      break;
    }

    // Next candidate: min current doc across essential lists.
    std::uint32_t d = std::numeric_limits<std::uint32_t>::max();
    bool any = false;
    for (std::size_t i = first_essential; i < m; ++i) {
      const auto& c = *terms[i].cursor;
      if (!c.valid()) continue;
      any = true;
      d = std::min(d, c.docid());
    }
    if (!any) break;

    // Block-max window skip: if even the essential lists' current blocks
    // (plus full credit for every non-essential list) cannot reach theta,
    // no doc up to the nearest essential block boundary can qualify — jump
    // the whole window without decoding it.
    if (heap.size() == k) {
      std::uint32_t min_last = std::numeric_limits<std::uint32_t>::max();
      for (std::size_t i = first_essential; i < m; ++i) {
        const auto& c = *terms[i].cursor;
        if (c.valid()) min_last = std::min(min_last, c.block_last_doc());
      }
      if (min_last < std::numeric_limits<std::uint32_t>::max()) {
        double window_bound = first_essential > 0 ? cum[first_essential - 1] : 0.0;
        for (std::size_t i = first_essential; i < m; ++i) {
          auto& c = *terms[i].cursor;
          // Cursors past the window boundary contribute nothing inside it.
          if (c.valid() && c.docid() <= min_last) window_bound += c.block_max_score();
        }
        if (window_bound < theta * kPruneSlack) {
          for (std::size_t i = first_essential; i < m; ++i) {
            auto& c = *terms[i].cursor;
            if (c.valid() && c.docid() <= min_last) c.seek(min_last + 1);
          }
          continue;  // d <= min_last, so at least one cursor advanced
        }
      }
    }

    // Tombstone filter: a deleted doc is skipped before it is scored, so
    // it can neither surface nor raise theta — candidate selection sees
    // exactly the live documents, on this path and the exhaustive one.
    if (excluded != nullptr && excluded->contains(d)) {
      for (std::size_t i = first_essential; i < m; ++i) {
        auto& c = *terms[i].cursor;
        if (c.valid() && c.docid() == d) c.next();
      }
      continue;
    }

    matched.clear();
    double partial = 0.0;  // running score estimate (pruning only)
    const double dl = lengths.token_count(d);
    for (std::size_t i = first_essential; i < m; ++i) {
      auto& c = *terms[i].cursor;
      if (!c.valid() || c.docid() != d) continue;
      const double tf = c.tf();
      partial += bm25_contribution(terms[i].idf, tf, dl, avgdl, params);
      matched.emplace_back(terms[i].term_index, tf);
      c.next();
    }

    // Probe non-essential lists from the strongest down, abandoning the
    // candidate as soon as even full credit for the rest cannot reach
    // theta. Each probe refines its bound in two steps: first the term's
    // global upper bound (cum), then — after a decode-free shallow seek —
    // the landing block's max score, which often kills the candidate
    // before the block is ever decoded.
    bool viable = true;
    for (std::size_t j = first_essential; j-- > 0;) {
      if (partial + cum[j] < theta * kPruneSlack) {
        viable = false;
        break;
      }
      auto& c = *terms[j].cursor;
      c.shallow_seek(d);
      if (!c.valid()) continue;  // list exhausted; d absent, no contribution
      const double rest = j > 0 ? cum[j - 1] : 0.0;
      if (partial + rest + c.block_max_score() < theta * kPruneSlack) {
        viable = false;
        break;
      }
      c.seek(d);
      if (c.positioned() && c.docid() == d) {
        const double tf = c.tf();
        partial += bm25_contribution(terms[j].idf, tf, dl, avgdl, params);
        matched.emplace_back(terms[j].term_index, tf);
      }
    }
    if (!viable) continue;

    // Canonical re-score: contributions summed in ascending original term
    // index — the exhaustive engine's exact accumulation sequence, so the
    // double that enters the heap is the double exhaustive would produce.
    std::sort(matched.begin(), matched.end());
    double score = 0.0;
    for (const auto& [term_index, tf] : matched) {
      // idf lookup by original index: linear over m terms (m is tiny).
      for (const auto& t : terms) {
        if (t.term_index == term_index) {
          score += bm25_contribution(t.idf, tf, dl, avgdl, params);
          break;
        }
      }
    }
    ++result.docs_scored;

    const ScoredDoc cand{d, score};
    if (heap.size() < k) {
      heap.push(cand);
    } else if (better(cand, heap.top())) {
      heap.pop();
      heap.push(cand);
    } else {
      continue;  // theta unchanged
    }
    if (heap.size() == k) {
      theta = heap.top().score;
      while (first_essential < m && cum[first_essential] < theta * kPruneSlack) {
        ++first_essential;  // grown threshold retires more lists
      }
    }
  }

  result.hits.reserve(heap.size());
  while (!heap.empty()) {
    result.hits.push_back(heap.top());
    heap.pop();
  }
  std::sort(result.hits.begin(), result.hits.end(), better);
  for (const auto& t : terms) result.blocks_skipped += t.cursor->blocks_skipped();
  return result;
}

}  // namespace hetindex
