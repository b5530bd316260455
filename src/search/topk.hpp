#pragma once
/// \file topk.hpp
/// Cursor-based top-k BM25 executor: MaxScore early termination (Turtle &
/// Flood 1995) upgraded with block-max pruning (Ding & Suel 2011) over the
/// PostingsCursor skip data. Terms are ordered by their score upper bound
/// and split into an essential suffix (must be scanned) and a non-essential
/// prefix whose combined bound cannot beat the current k-th score. On top
/// of the list-level split, per-block maxima prune at block granularity:
///   - when even the essential lists' *current blocks* cannot reach theta,
///     the whole doc-id window up to the nearest block boundary is skipped
///     without decoding a posting;
///   - a non-essential probe first shallow-seeks (block pointer only) and
///     abandons the candidate if the landing block's max-score bound —
///     tighter than the term's global bound — cannot close the gap, so the
///     block is never decoded.
///
/// Exactness contract: the executor returns *bit-identical* results to the
/// exhaustive scorer. Two mechanisms make that hold under floating point:
///   1. every candidate inserted into the heap is re-scored canonically —
///      its per-term contributions summed in ascending original-term-index
///      order, the exact accumulation sequence of the exhaustive engine;
///   2. pruning compares against theta scaled by a relative slack, so a
///      bound whose partial sums drifted a few ulps below the canonical
///      value can never wrongly discard a qualifying document.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "postings/cursor.hpp"
#include "postings/query.hpp"
#include "postings/ranking.hpp"

namespace hetindex {

class LiveSnapshot;  // live/segment_set.hpp
class MemtableView;  // live/memtable.hpp
class TombstoneSet;  // live/tombstones.hpp

/// One term's input to the executor. `term_index` is the position in the
/// original request — the canonical accumulation order.
struct TopkTermInput {
  std::size_t term_index = 0;
  std::unique_ptr<PostingsCursor> cursor;  ///< fresh (unpositioned) cursor
  double idf = 0;
  double upper_bound = 0;  ///< max BM25 contribution of this term to any doc
};

/// Per-document token counts of one or more doc ranges, resolved by binary
/// search — the live snapshot's segments each carry their own map, its
/// memtable serves the unflushed tail, the batch index one map at base 0.
class DocLengthIndex {
 public:
  void add_range(std::uint32_t base, std::uint32_t count, const DocMap* map);
  /// The live snapshot's memtable range (docs above every segment).
  void add_range(std::uint32_t base, std::uint32_t count, const MemtableView* memtable);
  /// Every segment's doc map plus the memtable of one live snapshot (the
  /// snapshot must outlive this index).
  void add_snapshot(const LiveSnapshot& snap);
  /// Indexed tokens of `doc`; 0 when no range covers it.
  [[nodiscard]] double token_count(std::uint32_t doc) const;

 private:
  struct Range {
    std::uint32_t base;
    std::uint32_t count;
    const DocMap* map;             ///< exactly one of map/memtable is set
    const MemtableView* memtable;
  };
  std::vector<Range> ranges_;  // ascending base, disjoint
};

/// The BM25 contribution of one (term, doc) pair. This exact expression is
/// shared by the exhaustive scorer, the executor's canonical re-sum, and
/// the bound computation — equivalence depends on everyone computing the
/// same doubles.
inline double bm25_contribution(double idf, double tf, double dl, double avgdl,
                                const Bm25Params& params) {
  const double denom = tf + params.k1 * (1.0 - params.b + params.b * dl / avgdl);
  return idf * (tf * (params.k1 + 1.0)) / denom;
}

/// The largest contribution a term with `max_tf` can make to any document:
/// the document-length term of the denominator is nonnegative, so dropping
/// it bounds from above, and the remainder is monotone increasing in tf.
double bm25_upper_bound(double idf, std::uint32_t max_tf, const Bm25Params& params);

/// One term's MaxScore input: idf from (df, n_docs); the score bound from
/// the cursor's max_tf(). A global (router-injected) df may pair with a
/// local max_tf: contributions use the same idf, so the bound still
/// over-covers and pruning stays exact.
TopkTermInput topk_input(std::size_t term_index, std::unique_ptr<PostingsCursor> cursor,
                         std::uint64_t df, std::uint64_t n_docs, const Bm25Params& params);

struct TopkResult {
  std::vector<ScoredDoc> hits;  ///< score desc, doc id asc, at most k
  bool degraded = false;        ///< deadline expired mid-scan; hits approximate
  std::uint64_t docs_scored = 0;
  std::uint64_t blocks_skipped = 0;  ///< postings blocks passed without decoding
};

/// Runs Block-Max MaxScore over the term cursors. `deadline` (optional)
/// degrades the scan to the best candidates found so far when it expires.
/// `excluded` (optional) drops tombstoned candidates before they are scored
/// or can raise theta — the live tier's delete filter. Cursors stay raw
/// (df and score bounds are computed over all postings, deleted included,
/// on both the exhaustive and pruned paths, so results stay bit-identical).
TopkResult maxscore_topk(
    std::vector<TopkTermInput> terms, std::size_t k, const Bm25Params& params,
    const DocLengthIndex& lengths, double avgdl,
    std::optional<std::chrono::steady_clock::time_point> deadline = std::nullopt,
    const TombstoneSet* excluded = nullptr);

}  // namespace hetindex
