#pragma once
/// \file segment_set.hpp
/// Snapshot-isolated multi-segment read path of the live indexing layer
/// (docs/LIVE_INDEXING.md). The committed segment set is published as an
/// immutable LiveSnapshot behind one atomic shared_ptr: a reader grabs the
/// pointer once and then works against frozen state with no further
/// synchronization — flushes and compactions swap in a new snapshot but
/// never touch a published one. A segment replaced by compaction is marked
/// obsolete and its files are unlinked when the last snapshot holding it
/// drops — readers mid-query keep a valid mapping for as long as they hold
/// the snapshot.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "live/manifest.hpp"
#include "live/memtable.hpp"
#include "live/tombstones.hpp"
#include "postings/doc_map.hpp"
#include "postings/query.hpp"
#include "postings/segment.hpp"
#include "util/error.hpp"

namespace hetindex {

class PostingsCursor;  // postings/cursor.hpp

/// One committed segment plus its doc map. Shared by every snapshot that
/// includes it; destruction unlinks the files once compaction has marked
/// it obsolete.
class LiveSegment {
 public:
  /// Opens seg-<id>.seg (+ sibling doc map when present) under `dir`.
  static Expected<std::shared_ptr<LiveSegment>> open(const std::string& dir,
                                                     std::uint64_t segment_id,
                                                     std::uint32_t doc_base,
                                                     std::uint32_t doc_count);
  ~LiveSegment();

  LiveSegment(const LiveSegment&) = delete;
  LiveSegment& operator=(const LiveSegment&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] std::uint32_t doc_base() const { return doc_base_; }
  [[nodiscard]] std::uint32_t doc_count() const { return doc_count_; }
  [[nodiscard]] const SegmentReader& reader() const { return reader_; }
  [[nodiscard]] const DocMap* doc_map() const {
    return doc_map_ ? &*doc_map_ : nullptr;
  }
  /// Marks the backing files for deletion when the last reference drops
  /// (called by compaction after the replacement commit).
  void mark_obsolete() { obsolete_.store(true, std::memory_order_release); }

 private:
  LiveSegment(std::uint64_t id, std::uint32_t doc_base, std::uint32_t doc_count,
              SegmentReader reader, std::optional<DocMap> doc_map,
              std::string seg_path, std::string map_path);

  std::uint64_t id_;
  std::uint32_t doc_base_;
  std::uint32_t doc_count_;
  SegmentReader reader_;
  std::optional<DocMap> doc_map_;
  std::string seg_path_;
  std::string map_path_;
  std::atomic<bool> obsolete_{false};
};

/// An immutable view of the live index: the committed segment set (ordered
/// by doc_base), plus the searchable memtable view holding documents not
/// yet flushed, plus the tombstone set naming deleted doc ids. Safe to
/// share across threads without locks; all queries are const.
///
/// Tombstones are a *search-layer* filter: lookup()/open_cursor() stay raw
/// (unfiltered) so a term's document frequency is one well-defined number
/// regardless of execution path — the Searcher applies the filter at
/// candidate generation. doc_count()/average_doc_tokens()/locate() are the
/// exceptions: they describe the live collection, so they exclude deleted
/// docs (collection stats must match what ranking can return).
class LiveSnapshot {
 public:
  explicit LiveSnapshot(std::vector<std::shared_ptr<LiveSegment>> segments,
                        std::shared_ptr<const MemtableView> memtable = nullptr,
                        std::shared_ptr<const TombstoneSet> tombstones = nullptr);

  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] const std::vector<std::shared_ptr<LiveSegment>>& segments() const {
    return segments_;
  }
  /// The unflushed in-memory documents; nullptr when the memtable was
  /// empty at publish time (or the snapshot came from LiveIndex::open,
  /// which only ever sees committed state).
  [[nodiscard]] const MemtableView* memtable() const { return memtable_.get(); }
  /// Deleted doc ids; nullptr when no delete was ever committed.
  [[nodiscard]] const TombstoneSet* tombstones() const { return tombstones_.get(); }
  [[nodiscard]] bool is_deleted(std::uint32_t doc_id) const {
    return tombstones_ != nullptr && tombstones_->contains(doc_id);
  }

  /// LIVE documents: committed + memtable, minus tombstoned ids.
  [[nodiscard]] std::uint64_t doc_count() const { return total_docs_ - deleted_docs_; }
  /// Width of the snapshot's doc id space (committed + memtable, deleted
  /// ids included — ids never shift).
  [[nodiscard]] std::uint64_t total_docs() const { return total_docs_; }
  /// Tombstoned ids within this snapshot's doc id space.
  [[nodiscard]] std::uint64_t deleted_docs() const { return deleted_docs_; }

  /// Process-unique identity of this snapshot, assigned at construction
  /// from a monotone counter. The search layer keys its caches on it:
  /// unlike the snapshot's address (which malloc can reuse — the ABA
  /// hazard), an id is never handed out twice, so a stale cache entry can
  /// never alias a new snapshot. A compaction that reproduces identical
  /// content still gets a fresh id — a harmless cold cache, never a wrong
  /// answer.
  [[nodiscard]] std::uint64_t snapshot_id() const { return snapshot_id_; }

  /// Exact integer ingredients of avgdl: total indexed tokens and document
  /// count over LIVE docs (segments + memtable, tombstoned excluded). The
  /// cluster router sums these across shards before the one division, so
  /// the global avgdl is bit-identical to a single-node build of the union
  /// corpus — per-shard doubles would not re-aggregate exactly.
  struct TokenStats {
    std::uint64_t token_sum = 0;
    std::uint64_t live_docs = 0;
  };
  [[nodiscard]] TokenStats token_stats() const;

  /// Mean indexed tokens per LIVE document (BM25's avgdl): segment doc
  /// maps plus the memtable, excluding tombstoned docs; 0 when nothing
  /// carries token counts.
  [[nodiscard]] double average_doc_tokens() const;

  /// Postings of `term` across every segment plus the memtable, globally
  /// doc-id sorted (all parts hold disjoint ascending doc ranges, memtable
  /// last). RAW — tombstoned docs included; the search layer filters.
  /// nullopt when no part knows the term.
  [[nodiscard]] std::optional<QueryPostings> lookup(std::string_view term) const;

  /// Block-level cursor over `term` across every segment plus the
  /// memtable, globally doc-id ordered; nullptr when no part knows the
  /// term. RAW, like lookup() — so size() (the df) agrees between the
  /// pruned and exhaustive executors. Segments serve zero-copy block
  /// cursors (each pinning its segment); the memtable serves borrowed
  /// block refs pinning the arena.
  ///
  /// `with_positions` asks for current_positions() support on every part:
  /// segment cursors serve positions natively (lazy per-block re-decode);
  /// the memtable part is materialized as a positional decoded cursor
  /// (its position chunks do not align with posting chunk boundaries, so
  /// borrowed block refs cannot carry them).
  [[nodiscard]] std::unique_ptr<PostingsCursor> open_cursor(
      std::string_view term, bool with_positions = false) const;

  /// The term's Bloom rejection chain across this snapshot's segments
  /// (postings/bloom.hpp): one link per segment, in ascending doc order. A
  /// segment holding no list for the term rejects every doc it covers; the
  /// memtable range is uncovered and passes. Borrows the snapshot; must
  /// not outlive it.
  [[nodiscard]] BloomChain bloom_chain(std::string_view term) const;

  /// Range-narrowed lookup: segments whose doc range misses
  /// [min_doc, max_doc] are skipped entirely (the §III.F narrowing applied
  /// at segment granularity). `segments_touched` (optional out) reports how
  /// many segments were actually decoded.
  [[nodiscard]] std::optional<QueryPostings> lookup_range(
      std::string_view term, std::uint32_t min_doc, std::uint32_t max_doc,
      std::size_t* segments_touched = nullptr) const;

  /// Union of the segments' and memtable's prefix matches, deduplicated,
  /// sorted.
  [[nodiscard]] std::vector<std::string> terms_with_prefix(std::string_view prefix) const;

  /// fn(term) for every distinct term across segments and memtable,
  /// lexicographic order (k-way cursor merge with dedup); return false to
  /// stop early.
  void for_each_term(const std::function<bool(std::string_view)>& fn) const;

  /// Distinct terms across segments and memtable (k-way merged count).
  [[nodiscard]] std::uint64_t term_count() const;

  /// Location of a global doc id, resolved through the owning segment's
  /// doc map or the memtable. nullopt when no part covers the id, the
  /// owning segment has no map, or the doc is tombstoned (a deleted doc
  /// has no live location).
  [[nodiscard]] std::optional<DocLocation> locate(std::uint32_t doc_id) const;

 private:
  std::vector<std::shared_ptr<LiveSegment>> segments_;  // ascending doc_base
  std::shared_ptr<const MemtableView> memtable_;        // nullptr = empty
  std::shared_ptr<const TombstoneSet> tombstones_;      // nullptr = none
  std::uint64_t total_docs_ = 0;    // id-space width (committed + memtable)
  std::uint64_t deleted_docs_ = 0;  // tombstoned ids below total_docs_
  std::uint64_t snapshot_id_ = 0;
};

/// Publication point between the writer and readers: a slot holding the
/// current snapshot, guarded by a micro-spinlock that is held only for the
/// duration of a shared_ptr copy or swap (a few atomic refcount ops) —
/// never across flush, merge, or any I/O, so readers are never blocked
/// behind writer work. This is the same technique libstdc++ uses inside
/// std::atomic<std::shared_ptr> (which is not lock-free either), except
/// the reader path here unlocks with release order: GCC 12's
/// _Sp_atomic::load() unlocks relaxed, which leaves the reader's critical
/// section unordered against the next publish in the C++ memory model —
/// a formal data race that ThreadSanitizer (correctly) reports.
class SegmentSet {
 public:
  SegmentSet() : current_(std::make_shared<const LiveSnapshot>(
                     std::vector<std::shared_ptr<LiveSegment>>{})) {}

  /// The current committed view. The returned snapshot stays valid (files
  /// included) for as long as the pointer is held.
  [[nodiscard]] std::shared_ptr<const LiveSnapshot> snapshot() const {
    lock();
    auto copy = current_;
    unlock();
    return copy;
  }

  /// Swaps in a new committed view (writer side only). The previous
  /// snapshot's refcount drop (and any segment file reclamation it
  /// triggers) happens after the slot is unlocked.
  void publish(std::shared_ptr<const LiveSnapshot> next) {
    lock();
    current_.swap(next);
    unlock();
  }

 private:
  void lock() const {
    while (busy_.exchange(1, std::memory_order_acquire) != 0) {
    }
  }
  void unlock() const { busy_.store(0, std::memory_order_release); }

  std::shared_ptr<const LiveSnapshot> current_;
  mutable std::atomic<unsigned> busy_{0};
};

/// Read-only view of a live index directory — the serving-process
/// counterpart of IndexWriter (which owns the directory for writing).
/// Opens the committed manifest and serves its snapshot; reopen() picks up
/// later commits.
class LiveIndex {
 public:
  /// Opens the committed state of `dir`. kNotFound when no manifest exists.
  static Expected<LiveIndex> open(const std::string& dir);

  /// The committed snapshot this index was opened against.
  [[nodiscard]] std::shared_ptr<const LiveSnapshot> snapshot() const { return snap_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  explicit LiveIndex(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  std::shared_ptr<const LiveSnapshot> snap_;
};

/// Opens every segment of `m` under `dir`, loads the committed tombstone
/// generation (kCorrupt if the manifest names one that cannot be read —
/// a committed delete must never silently resurrect), and freezes them
/// into a snapshot. Shared by IndexWriter::open and LiveIndex::open; the
/// memtable is by definition empty here (it never survives a reopen).
Expected<std::shared_ptr<const LiveSnapshot>> snapshot_from_manifest(
    const std::string& dir, const Manifest& m);

}  // namespace hetindex
