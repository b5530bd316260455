#pragma once
/// \file writer.hpp
/// Live mutable indexing (docs/LIVE_INDEXING.md): an LSM-style writer on
/// top of the batch pipeline's components. Documents stream through the
/// batch parser's tokenizer, stemmer and stop list in one pass per token
/// (Parser::for_each_term) into a searchable in-memory memtable
/// (live/memtable.hpp) that every published snapshot carries — a document
/// is queryable the moment add_document returns, no flush in the
/// visibility path. flush() freezes the memtable into one numbered
/// immutable segment (SegmentWriter format, absolute doc ids) plus a
/// per-segment doc map, and commits it by atomically rewriting the
/// MANIFEST. A background thread applies a tiered merge policy, folding
/// same-tier runs of adjacent segments into one (merge_segments): each
/// term's parts decode into one list that is re-blocked through
/// SegmentWriter::add_postings, the routine flush and the batch fold use,
/// and every merge drops the postings of deleted documents on the way.
///
/// Deletes and updates: delete_document records the doc id in an immutable
/// tombstone bitmap (live/tombstones.hpp), persisted write-ahead as a
/// CRC-guarded sidecar the MANIFEST names by generation. Postings are
/// never touched in place — the search layer filters tombstoned candidates
/// until compaction rewrites the affected segments and physically drops
/// them. update_document is delete + re-add under one lock: the new
/// revision gets a fresh doc id (ids never shift).
///
/// Readers are never blocked: every commit publishes a new immutable
/// LiveSnapshot behind an atomic pointer (segment_set.hpp); queries run
/// against whatever snapshot they grabbed, and replaced segments are
/// unlinked only when the last holder lets go.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "live/manifest.hpp"
#include "live/segment_set.hpp"
#include "obs/metrics.hpp"
#include "parse/parser.hpp"
#include "util/error.hpp"

namespace hetindex {

struct IndexWriterOptions {
  /// Auto-flush once this many raw document bytes are buffered. 0 disables
  /// auto-flush (explicit flush() only — what the equivalence tests use).
  std::uint64_t flush_threshold_bytes = 4ull << 20;
  /// Fold this many adjacent same-tier segments per merge (LSM fan-in).
  std::uint32_t merge_factor = 4;
  /// Segment-size boundary of tier 0; tier n covers sizes up to
  /// tier_base_bytes << n. Merged output typically lands one tier up.
  std::uint64_t tier_base_bytes = 64ull << 10;
  /// Run the merge policy on a background thread after every flush. When
  /// false, compaction runs only via compact_now().
  bool background_compaction = true;
  PostingCodec codec = PostingCodec::kVByte;
  ParserConfig parser;
};

/// Single-writer ingestion handle over a live index directory. One writer
/// owns the directory; any number of threads may query concurrently via
/// snapshot(). The writer itself is externally synchronized (one thread,
/// or callers lock) — like the paper's pipeline, parsing/indexing state is
/// shared-nothing per owner.
class IndexWriter {
 public:
  /// Opens (or creates) the live directory `dir`. Recovers to the last
  /// committed manifest: stray segment/tombstone files from a crashed
  /// commit — on disk but not named by the manifest — are removed, as is
  /// any MANIFEST.tmp left mid-rename. Tombstones over doc ids that never
  /// made it into a segment are truncated away durably (the docs they
  /// named died with the memtable, and the ids will be reassigned).
  /// kCorrupt when the manifest, a committed segment, or the committed
  /// tombstone generation fails validation.
  static Expected<IndexWriter> open(const std::string& dir, IndexWriterOptions options = {});

  IndexWriter(IndexWriter&&) noexcept;
  IndexWriter& operator=(IndexWriter&&) noexcept;
  /// Stops background compaction. Memtable (unflushed) documents are
  /// dropped — call flush() first to commit them. Committed deletes are
  /// already durable.
  ~IndexWriter();

  /// Parses and indexes one document into the searchable memtable,
  /// assigning the next global doc id, and publishes a snapshot that
  /// includes it — the document is queryable when this returns, before any
  /// flush. May trigger an auto-flush (see flush_threshold_bytes); an
  /// auto-flush I/O failure keeps the memtable intact (counted in
  /// live_flush_failures_total, retried at the next threshold crossing).
  /// Returns the assigned doc id.
  std::uint32_t add_document(const std::string& url, const std::string& body);

  /// Tombstones one document: from the moment this returns OK, no snapshot
  /// taken afterwards returns the doc from any query mode (snapshots taken
  /// before keep their view). Durable before acknowledged — the new
  /// tombstone generation is fsynced and committed via the MANIFEST, so a
  /// committed delete never resurrects across a crash. Idempotent: deleting
  /// an already-deleted id is a no-op (no I/O). kInvalidArgument for a doc
  /// id never assigned; kIo when the commit could not be written (the
  /// committed state is unchanged — retry once the fault clears).
  Status delete_document(std::uint32_t doc_id);
  /// Batch form: one tombstone generation + one manifest commit for the
  /// whole set (all-or-nothing).
  Status delete_documents(const std::vector<std::uint32_t>& ids);

  /// Replaces a document: tombstones `doc_id`, then indexes the new
  /// revision under a fresh doc id (returned). Both steps happen under one
  /// writer lock and the final published snapshot contains the new
  /// revision and not the old; the delete is durable when this returns,
  /// the re-add becomes durable at the next flush (like any add). On
  /// error the old document is untouched.
  Expected<std::uint32_t> update_document(std::uint32_t doc_id, const std::string& url,
                                          const std::string& body);

  /// Freezes the memtable into segment files, commits the manifest, and
  /// publishes the new snapshot. No-op returning 0 when the memtable is
  /// empty; otherwise returns the new segment's id. Kicks the background
  /// compactor. kIo on write/fsync failure: the memtable and the committed
  /// snapshot are untouched, partial segment files are removed, and the
  /// writer stays usable — call flush() again once the fault clears.
  /// Tombstoned documents are flushed as-is (still filtered at search);
  /// compaction reclaims them later.
  Expected<std::uint64_t> flush();

  /// Runs the merge policy to completion on the calling thread (flushes
  /// nothing), including physical reclaim: every segment still carrying
  /// tombstoned postings is rewritten without them. Safe alongside
  /// background compaction — merges are serialized internally. kIo when a
  /// merge could not be written durably (the committed set is untouched;
  /// counted in compaction_failures_total).
  Status compact_now();

  /// The current committed view. Lock-free; holding the returned pointer
  /// keeps every segment in it (and its files) alive.
  [[nodiscard]] std::shared_ptr<const LiveSnapshot> snapshot() const;

  /// Committed manifest state (copy) — what a reopen would serve.
  [[nodiscard]] Manifest manifest() const;

  /// Documents committed to segments (excludes the memtable).
  [[nodiscard]] std::uint32_t committed_docs() const;
  /// Documents sitting in the searchable memtable (flushed by the next
  /// flush()). Unlike the pre-memtable writer these are already visible
  /// to queries.
  [[nodiscard]] std::uint32_t buffered_docs() const;
  /// Tombstoned doc ids committed so far (segment + memtable docs alike).
  [[nodiscard]] std::uint64_t deleted_docs() const;

  [[nodiscard]] const std::string& dir() const;

  /// Writer metrics: live_flushes_total, live_documents_total,
  /// live_flushed_bytes_total, live_flush_seconds_total, compactions_total,
  /// compaction_bytes_written_total, compaction_seconds_total,
  /// compaction_reclaimed_docs_total, live_segments_active,
  /// snapshot_refcount, the add-path split (live_add_normalize_seconds_total,
  /// live_add_memtable_seconds_total, live_add_publish_seconds_total), the
  /// memtable gauges (live_memtable_docs,
  /// live_memtable_bytes, live_memtable_terms), the mutation set
  /// (live_deletes_total, live_updates_total, live_deleted_docs,
  /// live_delete_failures_total), plus the durability set —
  /// live_flush_failures_total, compaction_failures_total,
  /// recovery_dropped_files_total (io_retries_total and
  /// fsync_failures_total live in io::io_metrics()).
  [[nodiscard]] const obs::MetricsRegistry& metrics() const;

 private:
  struct State;
  explicit IndexWriter(std::unique_ptr<State> state);

  std::unique_ptr<State> state_;
};

}  // namespace hetindex
