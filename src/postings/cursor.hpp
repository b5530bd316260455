#pragma once
/// \file cursor.hpp
/// The one postings-iteration interface. A PostingsCursor walks a term's
/// postings block by block: document-level next()/seek() decode at most one
/// block at a time, and block-level shallow_seek()/block_max_score() let a
/// Block-Max executor step over whole blocks — bounding and skipping them
/// from the skip table alone, without decoding a posting. Every backend
/// implements it:
///
///   segment          seeks via the segment's skip rows; skipped blocks
///                    are never decoded (the Block-Max fast path)
///   decoded list     run files, positional memtable parts and lists fetched
///                    from other shards: synthetic kPostingsBlockSize-doc
///                    blocks whose maxima are computed lazily — skips save
///                    scoring, not decode
///   memtable         borrowed arena chunks, one block per chunk
///   live snapshot    per-segment cursors chained in doc_base order
///
/// State machine: a cursor starts *shallow* at its first block — block
/// accessors work, docid()/tf() do not until a seek() (or next() after one)
/// *positions* it. shallow_seek() only advances the block pointer and may
/// leave the cursor shallow; seek() always lands positioned (or exhausts).
/// Cursors are single-threaded; create one per query per term.

#include <cstdint>
#include <memory>
#include <vector>

#include "codec/posting_codecs.hpp"
#include "postings/query.hpp"
#include "postings/ranking.hpp"

namespace hetindex {

class PostingsCursor {
 public:
  virtual ~PostingsCursor() = default;

  /// False once every posting (and block) has been consumed or skipped.
  [[nodiscard]] virtual bool valid() const = 0;
  /// True when the cursor sits on a concrete posting — docid()/tf()/next()
  /// require this; a merely shallow cursor must seek() first.
  [[nodiscard]] virtual bool positioned() const = 0;
  [[nodiscard]] virtual std::uint32_t docid() const = 0;
  [[nodiscard]] virtual std::uint32_t tf() const = 0;
  /// Advances one posting, decoding the next block when the current one is
  /// spent. Requires positioned().
  virtual void next() = 0;
  /// Positions on the first posting with doc id >= target (never moves
  /// backwards), skipping intermediate blocks via the skip data and
  /// decoding only the landing block.
  virtual void seek(std::uint32_t target) = 0;

  /// Advances the block pointer to the first block whose last_doc >=
  /// target without decoding anything; the cursor may come out shallow.
  virtual void shallow_seek(std::uint32_t target) = 0;
  /// Largest doc id in the current block. Requires valid().
  [[nodiscard]] virtual std::uint32_t block_last_doc() const = 0;
  /// Largest term frequency in the current block (from the skip table, or
  /// a lazy scan on decoded backends). Requires valid().
  [[nodiscard]] virtual std::uint32_t block_max_tf() = 0;
  /// Postings in the current block. Requires valid().
  [[nodiscard]] virtual std::uint32_t docs_in_block() const = 0;

  /// Appends the current posting's term positions (absolute, ascending
  /// within the document) to `out` and returns true; returns false when
  /// the backend carries no positional payload for this list (then `out`
  /// is untouched) — phrase/NEAR verification degrades to "no positions
  /// available" instead of crashing. Decode is lazy and per block: the
  /// first request inside a block decodes that block's positions once,
  /// later postings in the same block slice the cached payload. Requires
  /// positioned().
  [[nodiscard]] virtual bool current_positions(std::vector<std::uint32_t>& out) {
    (void)out;
    return false;
  }

  /// Total postings in the list (the term's document frequency).
  [[nodiscard]] virtual std::uint64_t size() const = 0;
  /// Largest term frequency anywhere in the list — the tf ingredient of
  /// the term's whole-list BM25 bound (search/topk.hpp). Never below the
  /// true maximum; the memtable's may overshoot by postings above its watermark.
  [[nodiscard]] virtual std::uint32_t max_tf() const = 0;
  /// Largest doc id in the whole list.
  [[nodiscard]] virtual std::uint32_t last_doc() const = 0;
  /// Blocks passed over without ever being decoded/entered — the quantity
  /// behind the search_blocks_skipped_total metric.
  [[nodiscard]] virtual std::uint64_t blocks_skipped() const = 0;

  /// Binds the term's idf + BM25 parameters so block_max_score() can turn
  /// block_max_tf() into a score bound. Call once before pruning.
  void set_score_params(double idf, const Bm25Params& params) {
    idf_ = idf;
    params_ = params;
  }
  /// Upper bound on this term's BM25 contribution within the current
  /// block: bm25_upper_bound(idf, block_max_tf). Requires valid().
  [[nodiscard]] double block_max_score();

 protected:
  double idf_ = 0;
  Bm25Params params_{};
};

/// Cursor over one term's blob in a mapped segment, steered by its skip
/// table rows. `pin` (optional) keeps the mapping alive — live segments
/// pass their shared_ptr, the batch index (whose lifetime the caller
/// guarantees) passes nullptr. `blob`/`entries` must stay valid as long as
/// the cursor lives.
std::unique_ptr<PostingsCursor> make_segment_cursor(
    const std::uint8_t* blob, std::size_t blob_bytes, const PostingBlockEntry* entries,
    std::size_t entry_count, std::shared_ptr<const void> pin);

/// Cursor over an already-decoded list (positional memtable parts,
/// router-fetched lists). Blocks are synthesized every
/// kPostingsBlockSize docs; block maxima are computed on first use.
std::unique_ptr<PostingsCursor> make_decoded_cursor(
    std::shared_ptr<const QueryPostings> postings);

/// Chains per-segment cursors of one live snapshot into a single list.
/// Parts must be non-empty and cover pairwise-disjoint ascending doc-id
/// ranges (the snapshot's doc_base order guarantees this).
std::unique_ptr<PostingsCursor> make_concat_cursor(
    std::vector<std::unique_ptr<PostingsCursor>> parts);

/// One borrowed block of live-memtable postings (live/memtable.hpp):
/// parallel doc/tf arrays in the memtable arena, already clamped to the
/// publishing view's watermark. Declared here (not in live/) so the cursor
/// layer stays free of live-tier includes.
struct MemtableBlockRef {
  const std::uint32_t* docs = nullptr;
  const std::uint32_t* tfs = nullptr;
  std::uint32_t count = 0;     ///< visible postings in this block
  std::uint32_t last_doc = 0;  ///< docs[count - 1]
};

/// Cursor over a memtable term: one block per memtable chunk, block maxima
/// scanned lazily like the decoded backend; `max_tf` is the memtable's
/// running per-term maximum. `pin` keeps the arena the refs point into
/// alive; `blocks` must be non-empty with ascending disjoint doc ranges.
std::unique_ptr<PostingsCursor> make_memtable_cursor(
    std::vector<MemtableBlockRef> blocks, std::uint32_t max_tf,
    std::shared_ptr<const void> pin);

}  // namespace hetindex
