#pragma once
/// \file memtable.hpp
/// The searchable in-memory postings buffer of the live tier
/// (docs/LIVE_INDEXING.md). PR 3's IndexWriter buffered parsed documents in
/// the batch pipeline's dictionary and made them visible only at flush;
/// this replaces that buffer with a memtable that every LiveSnapshot can
/// query directly, so a document is searchable the moment add_document
/// returns — no flush in the visibility path.
///
/// Concurrency model: ONE writer (the IndexWriter, under its own mutex),
/// any number of lock-free readers. All data lives in an append-only Arena
/// — allocation never moves existing bytes, so readers hold raw pointers
/// captured at allocation time and never touch the Arena object itself.
/// Every (doc, tf) slot is written exactly once, with its final tf, before
/// the per-chunk atomic `count` is release-stored; readers acquire-load
/// counts and never look past them. No slot changes after publication.
///
/// "Immutable on publish" is a watermark, not a copy: a MemtableView
/// freezes the finished-document count at construction, and everything
/// below `doc_base + doc_count` was fully written before the snapshot that
/// carries the view was published (the SegmentSet publish/acquire pair
/// provides the happens-before edge). Appends after publish only ever add
/// doc ids at or above the watermark, which every older view ignores.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "postings/cursor.hpp"   // MemtableBlockRef
#include "postings/doc_map.hpp"  // DocLocation
#include "postings/query.hpp"    // QueryPostings
#include "util/arena.hpp"

namespace hetindex {

class MemtableView;

class Memtable {
 public:
  /// \param doc_base   global doc id of the first document added here
  /// \param positional record per-occurrence positions (phrase queries)
  Memtable(std::uint32_t doc_base, bool positional);
  Memtable(const Memtable&) = delete;
  Memtable& operator=(const Memtable&) = delete;

  // --- writer API (externally serialized; the IndexWriter's mutex) ---

  /// Starts the next document and returns its global doc id. `url` is
  /// copied into the arena.
  std::uint32_t begin_document(std::string_view url);
  /// Records `term`'s one posting in the in-progress document: its tf and,
  /// when positional, its `tf` ascending positions (ignored otherwise). At
  /// most one call per term per document — the caller groups occurrences.
  void add_posting(std::string_view term, std::uint32_t tf,
                   std::span<const std::uint32_t> positions);
  /// Completes the in-progress document with its token count. Only after
  /// this does the document count (and thus any later view's watermark)
  /// include it.
  void finish_document(std::uint32_t token_count);

  [[nodiscard]] std::uint32_t doc_base() const { return doc_base_; }
  /// Finished documents (writer thread only — readers use MemtableView).
  [[nodiscard]] std::uint32_t doc_count() const { return doc_count_w_; }
  [[nodiscard]] std::uint64_t token_sum() const { return token_sum_w_; }
  [[nodiscard]] std::uint64_t distinct_terms() const {
    return term_count_w_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t postings() const { return postings_w_; }
  [[nodiscard]] std::size_t bytes_used() const { return arena_.used_bytes(); }
  [[nodiscard]] bool positional() const { return positional_; }

 private:
  friend class MemtableView;

  /// A run of parallel (doc, tf) arrays for one term. `count` publishes
  /// fully written slots; slots beyond it are in flight. Chunks grow
  /// geometrically and are chained via `next` (set once, after the new
  /// chunk is fully initialized).
  struct PostChunk {
    std::atomic<PostChunk*> next{nullptr};
    std::atomic<std::uint32_t> count{0};
    std::uint32_t capacity = 0;
    std::uint32_t* docs = nullptr;
    std::uint32_t* tfs = nullptr;
  };
  /// Occurrence positions for one term, appended in stream order; posting
  /// i of the term owns the next tfs[i] entries.
  struct PosChunk {
    std::atomic<PosChunk*> next{nullptr};
    std::atomic<std::uint32_t> count{0};
    std::uint32_t capacity = 0;
    std::uint32_t* positions = nullptr;
  };
  /// One dictionary entry. Everything a reader dereferences (term bytes,
  /// head chunks) is written before the node is linked into its hash
  /// bucket with a release store. max_tf only grows, so a reader's
  /// (possibly newer-than-watermark) load is always a valid upper bound.
  struct TermNode {
    std::atomic<TermNode*> bucket_next{nullptr};
    const char* term = nullptr;
    std::uint32_t term_len = 0;
    std::atomic<std::uint32_t> max_tf{1};
    PostChunk* head = nullptr;
    PosChunk* pos_head = nullptr;
    // Writer-only tail state.
    PostChunk* tail = nullptr;
    PosChunk* pos_tail = nullptr;

    [[nodiscard]] std::string_view term_view() const { return {term, term_len}; }
  };
  struct DocMeta {
    const char* url = nullptr;
    std::uint32_t url_len = 0;
    std::uint32_t tokens = 0;
  };
  struct DocChunk;

  [[nodiscard]] TermNode* find_node(std::string_view term) const;
  TermNode* insert_node(std::string_view term, std::size_t bucket);
  PostChunk* new_post_chunk(std::uint32_t capacity);
  PosChunk* new_pos_chunk(std::uint32_t capacity);
  void append_positions(TermNode* node, std::span<const std::uint32_t> positions);
  [[nodiscard]] const DocMeta* meta_of(std::uint32_t doc) const;

  // --- reader helpers (limit = absolute doc id watermark, exclusive) ---
  /// Visible = the node has at least one posting below `limit`.
  [[nodiscard]] static bool node_visible(const TermNode* node, std::uint32_t limit);
  /// Appends postings below `limit` (and their positions, when requested
  /// and recorded); returns false when the term has none.
  bool read_postings(std::string_view term, std::uint32_t limit,
                     std::vector<std::uint32_t>& docs,
                     std::vector<std::uint32_t>& tfs,
                     std::vector<std::uint32_t>* positions) const;
  /// Chunk-per-block borrowed refs for the cursor layer, plus the term's
  /// running max tf in `max_tf`; empty = absent.
  [[nodiscard]] std::vector<MemtableBlockRef> cursor_blocks(std::string_view term,
                                                            std::uint32_t limit,
                                                            std::uint32_t& max_tf) const;
  /// Visible term nodes in ascending term order.
  [[nodiscard]] std::vector<const TermNode*> sorted_visible_nodes(std::uint32_t limit) const;

  /// Sized for the vocabulary of a default 4 MB flush (~40k terms), so
  /// chains stay shorter than one node on average.
  static constexpr std::size_t kBuckets = 1u << 16;
  static constexpr std::uint32_t kDocChunkCap = 256;
  static constexpr std::uint32_t kDocDirSlots = 8192;  // 2M docs per memtable
  static constexpr std::uint32_t kFirstPostCap = 8;
  static constexpr std::uint32_t kMaxPostCap = 512;
  static constexpr std::uint32_t kFirstPosCap = 16;
  static constexpr std::uint32_t kMaxPosCap = 1024;

  Arena arena_;
  const std::uint32_t doc_base_;
  const bool positional_;
  std::unique_ptr<std::atomic<TermNode*>[]> buckets_;
  std::unique_ptr<std::atomic<DocChunk*>[]> doc_dir_;

  // Writer-only counters; views copy them (on the writer thread) and the
  // snapshot publish makes the copies visible to readers.
  std::uint32_t doc_count_w_ = 0;
  std::uint32_t current_doc_ = 0;
  bool in_document_ = false;
  std::uint64_t token_sum_w_ = 0;
  // Atomic (relaxed) unlike its siblings: readers load it as a reserve()
  // hint in sorted_visible_nodes while the writer keeps inserting.
  std::atomic<std::uint64_t> term_count_w_{0};
  std::uint64_t postings_w_ = 0;
};

/// An immutable view of a Memtable at a published watermark. Construct on
/// the writer thread (it copies the writer-side counters), then share
/// freely: every reader method only sees documents below the watermark.
class MemtableView {
 public:
  explicit MemtableView(std::shared_ptr<const Memtable> mt);

  [[nodiscard]] std::uint32_t doc_base() const { return mt_->doc_base(); }
  [[nodiscard]] std::uint32_t doc_count() const { return doc_count_; }
  /// First doc id beyond the view (the watermark).
  [[nodiscard]] std::uint32_t doc_limit() const { return mt_->doc_base() + doc_count_; }
  /// Sum of token counts over the view's documents (collection stats).
  [[nodiscard]] std::uint64_t token_sum() const { return token_sum_; }
  [[nodiscard]] bool positional() const { return mt_->positional(); }

  /// Appends the term's postings (raw — tombstones are the search layer's
  /// concern, like LiveSnapshot::lookup). False when absent from the view.
  bool lookup(std::string_view term, QueryPostings& out) const;
  /// Block cursor over the term's postings (raw, like lookup()); nullptr
  /// when absent. Borrows the arena's chunks and pins the arena; its
  /// max_tf() is the term's running maximum, which may overshoot by
  /// postings above the watermark but never undershoots. `with_positions`
  /// materializes a positional decoded cursor instead: position chunks do
  /// not align with posting chunks, so borrowed refs cannot carry them.
  [[nodiscard]] std::unique_ptr<PostingsCursor> open_cursor(std::string_view term,
                                                            bool with_positions) const;
  /// Token count of a document in [doc_base, doc_limit).
  [[nodiscard]] std::uint32_t doc_tokens(std::uint32_t doc) const;
  /// Doc metadata, shaped like a DocMap row. Memtable docs have no segment
  /// yet: file_seq is 0 and local_id is the offset from doc_base.
  [[nodiscard]] std::optional<DocLocation> locate(std::uint32_t doc) const;
  /// Visible terms in ascending order.
  void for_each_term(const std::function<void(std::string_view)>& fn) const;
  [[nodiscard]] std::vector<std::string> terms_with_prefix(std::string_view prefix,
                                                           std::size_t limit) const;
  [[nodiscard]] std::uint64_t term_count() const;

  /// Flush-side enumeration (writer thread): sorted terms with their full
  /// postings, scratch vectors reused across terms.
  void for_each_term_postings(
      const std::function<void(std::string_view term,
                               const std::vector<std::uint32_t>& docs,
                               const std::vector<std::uint32_t>& tfs,
                               const std::vector<std::uint32_t>& positions)>& fn) const;

 private:
  std::shared_ptr<const Memtable> mt_;
  std::uint32_t doc_count_;
  std::uint64_t token_sum_;
};

}  // namespace hetindex
