#pragma once
/// \file manifest.hpp
/// The commit record of a live index directory (docs/LIVE_INDEXING.md).
/// A live directory holds numbered immutable segments (`seg-0001.seg`,
/// each with a sibling doc map) plus one MANIFEST file naming the committed
/// segment set. The manifest is the only mutable file and the single
/// source of truth: a segment not listed in it does not exist, no matter
/// what is on disk.
///
/// Commits are atomic: the new manifest is written to MANIFEST.tmp, synced,
/// then renamed over MANIFEST — readers either see the old committed set or
/// the new one, never a torn state. A CRC32 footer rejects partially
/// written manifests, so a crash at any point leaves the previous commit
/// intact (the crash-recovery test exercises exactly this window).

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace hetindex {

/// One committed segment. `doc_count` is the width of the segment's doc id
/// range — tombstoned ids stay counted here (ids never shift), the live
/// count is derived by subtracting the tombstone bitmap.
struct ManifestEntry {
  std::uint64_t segment_id = 0;   ///< file number (seg-<id>.seg)
  std::uint32_t doc_base = 0;     ///< first global doc id in the segment
  std::uint32_t doc_count = 0;
  std::uint64_t term_count = 0;
  std::uint64_t file_bytes = 0;   ///< segment file size at commit time
  /// Tombstoned docs already physically absent from this segment's
  /// postings (dropped by the merge that wrote it). The segment still
  /// carries dead postings when count_in_range(doc_base, doc_count)
  /// exceeds this — the compactor's reclaim trigger. Format v1 manifests
  /// read as 0.
  std::uint64_t reclaimed_docs = 0;
};

/// The committed state of a live index directory. Entries are kept in
/// ascending doc_base order — which is also segment-age order, because doc
/// ids only grow.
struct Manifest {
  std::uint64_t next_segment_id = 1;  ///< next file number to allocate
  std::uint32_t next_doc_id = 0;      ///< next global doc id to assign
  /// Committed tombstone sidecar generation (tomb-<gen>.tmb, live/
  /// tombstones.hpp); 0 = no deletes ever committed. The sidecar is written
  /// durably before the manifest commit that names it, so a committed
  /// generation is always readable — anything else is kCorrupt.
  std::uint64_t tombstone_gen = 0;
  std::uint64_t tombstone_docs = 0;  ///< deleted ids in that generation
  std::vector<ManifestEntry> entries;
};

/// `<dir>/MANIFEST`.
std::string manifest_path(const std::string& dir);
/// `<dir>/seg-<id>.seg` (zero-padded to keep directory listings sorted).
std::string live_segment_path(const std::string& dir, std::uint64_t segment_id);
/// `<dir>/seg-<id>.docmap`.
std::string live_docmap_path(const std::string& dir, std::uint64_t segment_id);

/// Reads the committed manifest. A missing file reports kNotFound (a fresh
/// directory, not an error for the writer); a bad magic, version or CRC
/// kCorrupt. Both format versions are accepted: v1 (pre-tombstone) entries
/// read with tombstone_gen/reclaimed_docs of 0; writes always emit v2.
Expected<Manifest> manifest_read(const std::string& dir);

/// Atomically and durably commits `m`: write MANIFEST.tmp, fsync it,
/// rename over MANIFEST, fsync the directory (docs/DURABILITY.md). Without
/// the first fsync a crash after the rename can surface a zero-length or
/// torn manifest; without the second the rename itself may be lost. kIo on
/// failure — the previous commit stays intact and no MANIFEST.tmp remains.
Status manifest_write(const std::string& dir, const Manifest& m);

}  // namespace hetindex
