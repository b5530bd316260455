#pragma once
/// \file segment.hpp
/// Immutable single-file index segments — the serving-time counterpart of
/// the build-time run files. The paper's pipeline ends at "combine
/// dictionary + write run files" (§III.F); a segment packs that whole
/// output into one checksummed artifact so a serving process opens the
/// index with one mmap and no eager decode:
///
///   header      magic, version (2), codec, block geometry, section offsets
///   term dict   front-coded blocks (codec/front_coding scheme) of K terms;
///               each block stores its first term verbatim so a sparse
///               in-memory block index can hold zero-copy string_views
///               into the mapping
///   table       one fixed-width row per term, in term order:
///               offset/bytes/count/min_doc/max_doc of its postings blob
///               and the number of its skip rows
///   skip rows   one row per encoded postings block, in term then blob
///               order: bytes/last_doc/count/max_tf — enough to seek and
///               to bound BM25 contributions without decoding the block
///   blooms      one Bloom filter per skip row (postings/bloom.hpp), sized
///               from the row's count alone
///   blob area   the concatenated compressed postings lists; each term's
///               list is a run of self-describing blocks of ≤128 docs, every
///               block's first doc id absolute (the §III.F merge property)
///   footer      total size + CRC32 of everything before it
///
/// Every writer cuts each term's blocks once, from the whole list
/// (SegmentWriter::add_postings): the build fold, the memtable flush and
/// the live merge (merge_segments) alike, so a segment depends only on its
/// postings, never on how they were cut into runs or flushes.
///
/// A SegmentReader is immutable after open and keeps no per-lookup state,
/// so any number of threads may share one instance with no locking.
/// Exact byte layout: docs/INDEX_FORMAT.md.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "codec/posting_codecs.hpp"
#include "dict/dictionary.hpp"
#include "io/mmap_file.hpp"
#include "postings/run_file.hpp"
#include "util/error.hpp"
#include "util/page_allocator.hpp"

namespace hetindex {

class TombstoneSet;

/// Terms per front-coded dictionary block. Small enough that a lookup
/// scans a handful of suffixes, large enough that the in-memory block
/// index stays ~1/16th of the term count.
inline constexpr std::uint32_t kSegmentTermsPerBlock = 16;

/// Builds one segment file in memory and writes it out on finalize().
/// Terms must arrive in strictly increasing lexicographic order with their
/// final (fully merged) postings.
class SegmentWriter {
 public:
  SegmentWriter(std::string path, PostingCodec codec,
                std::uint32_t terms_per_block = kSegmentTermsPerBlock);

  /// Appends one term from its decoded list (`docs` ascending; `positions`
  /// empty for a plain list): the one routine the build fold, the memtable
  /// flush and the live merge write through. It cuts ≤ kPostingsBlockSize-doc
  /// blocks, encodes them with this writer's codec and takes one skip row
  /// and one Bloom filter per block.
  void add_postings(std::string_view term, std::span<const std::uint32_t> docs,
                    std::span<const std::uint32_t> tfs,
                    std::span<const std::uint32_t> positions = {});

  /// Moves every term of `other` (same codec and block geometry, terms
  /// sorting after this writer's) here, section by section, with the bytes
  /// adding them one by one would give: only table rows' blob offsets shift.
  /// This writer must hold whole dictionary blocks, so `other`'s first term
  /// stays a verbatim block leader. `other` is consumed.
  void append(SegmentWriter&& other);

  /// Writes header + sections + CRC footer durably (write + fsync via the
  /// io::Env seam, bounded retry on transient faults). Returns total bytes
  /// written, or kIo with no partial file left behind.
  Expected<std::uint64_t> finalize();

  [[nodiscard]] std::uint64_t term_count() const { return term_count_; }

 private:
  std::string path_;
  PostingCodec codec_;
  std::uint32_t terms_per_block_;
  std::uint64_t term_count_ = 0;
  std::uint32_t block_fill_ = 0;
  std::string prev_term_;
  std::uint32_t min_doc_ = 0xFFFFFFFFu;
  std::uint32_t max_doc_ = 0;
  // Page-backed: writers run on worker threads (the range-parallel fold,
  // parallel shard flushes), and each section can reach megabytes.
  PageBytes dict_;
  PageBytes table_;
  PageBytes skip_;
  PageBytes blooms_;
  PageBytes blobs_;
  bool finalized_ = false;
};

/// Shared-nothing reader over one mapped segment. All accessors are const
/// and touch only immutable state + call-local scratch, so one instance
/// serves concurrent readers without locks.
class SegmentReader {
 public:
  /// Maps and validates `path`: footer magic, size, CRC32 of the whole
  /// file, header magic/version, section bounds, the front-coded
  /// dictionary, and every table row against its skip rows and filters. A
  /// missing file reports kNotFound, a failed checksum or structural check
  /// kCorrupt, an unknown version or codec kUnsupported (a format-v1 file
  /// names `hetindex_cli compact` as its upgrade). Corrupt bytes never reach a
  /// decoder: every later accessor walks only offsets validated here.
  static Expected<SegmentReader> try_open(const std::string& path);

  /// One postings table row, resolved against the mapping.
  struct PostingsMeta {
    std::uint64_t offset = 0;  ///< into the blob area
    std::uint32_t bytes = 0;
    std::uint32_t count = 0;
    std::uint32_t min_doc = 0;
    std::uint32_t max_doc = 0;
  };

  /// Ordinal of `term` in the sorted term dictionary; nullopt when absent.
  /// Cost: binary search over the sparse block index + a scan of at most
  /// terms_per_block front-coded suffixes.
  [[nodiscard]] std::optional<std::uint64_t> find(std::string_view term) const;

  /// The postings table row of term `ordinal` (< term_count()).
  [[nodiscard]] PostingsMeta meta(std::uint64_t ordinal) const;

  /// Lazily decodes the blob behind `m` straight out of the mapping,
  /// appending to the output vectors (positions only when the index was
  /// built positionally and `positions` is non-null).
  void decode(const PostingsMeta& m, std::vector<std::uint32_t>& doc_ids,
              std::vector<std::uint32_t>& tfs,
              std::vector<std::uint32_t>* positions = nullptr) const;

  /// The skip rows of term `ordinal`, in blob order (offsets relative to
  /// its blob).
  [[nodiscard]] std::span<const PostingBlockEntry> skip_rows(std::uint64_t ordinal) const;

  /// False ⇒ `doc` is definitely not in term `ordinal`'s list: it lies past
  /// the list's last doc, or the filter of the one block that could hold it
  /// (the first whose last_doc >= doc) rejects it.
  [[nodiscard]] bool may_contain(std::uint64_t ordinal, std::uint32_t doc) const;

  /// The raw encoded bytes behind `m`, straight out of the mapping (valid
  /// while the reader lives): back-to-back self-describing blocks that
  /// block cursors decode in place, one skip row at a time.
  [[nodiscard]] std::pair<const std::uint8_t*, std::size_t> raw_blob(
      const PostingsMeta& m) const;

  /// Pull-style iterator over the term dictionary in lexicographic order —
  /// the building block of multi-segment k-way merges (for_each_term is
  /// push-style and cannot interleave several segments).
  class TermCursor {
   public:
    explicit TermCursor(const SegmentReader& reader);
    /// False once every term has been consumed.
    [[nodiscard]] bool valid() const { return ordinal_ < reader_->term_count_; }
    /// Current term (materialized; stable until next()).
    [[nodiscard]] const std::string& term() const { return term_; }
    [[nodiscard]] std::uint64_t ordinal() const { return ordinal_; }
    [[nodiscard]] SegmentReader::PostingsMeta meta() const {
      return reader_->meta(ordinal_);
    }
    void next();

   private:
    const SegmentReader* reader_;
    std::uint64_t ordinal_ = 0;
    std::string term_;
    std::size_t pos_ = 0;  ///< into the dict section, after the current term
  };

  /// All terms starting with `prefix`, lexicographic order (materialized —
  /// front-coded terms have no contiguous bytes to view).
  [[nodiscard]] std::vector<std::string> terms_with_prefix(std::string_view prefix) const;

  /// fn(term, ordinal) over every term in order; return false to stop
  /// early. The string_view is only valid during the call.
  void for_each_term(
      const std::function<bool(std::string_view, std::uint64_t)>& fn) const;

  [[nodiscard]] std::uint64_t term_count() const { return term_count_; }
  [[nodiscard]] PostingCodec codec() const { return codec_; }
  [[nodiscard]] std::uint32_t min_doc() const { return min_doc_; }
  [[nodiscard]] std::uint32_t max_doc() const { return max_doc_; }
  /// Total file size on disk.
  [[nodiscard]] std::uint64_t file_bytes() const { return file_.size(); }
  /// Bytes served by a live mapping (0 when the pread fallback engaged).
  [[nodiscard]] std::uint64_t mapped_bytes() const {
    return file_.is_mapped() ? file_.size() : 0;
  }
  [[nodiscard]] const std::string& path() const { return file_.path(); }

 private:
  /// Sparse block index entry: zero-copy view of the block's first term
  /// (stored verbatim in the file) + where its coded suffixes start.
  struct Block {
    std::string_view first;
    std::size_t coded_pos = 0;  ///< into the dict section, after the first term
    std::uint64_t base = 0;     ///< ordinal of the first term
  };

  [[nodiscard]] const std::uint8_t* dict_data() const { return file_.data() + dict_off_; }
  /// Decodes the next front-coded term at `pos` into `cur`.
  void next_term(std::string& cur, std::size_t& pos) const;
  /// fn(term, ordinal) from the start of block `block_idx` onwards.
  void scan_from_block(
      std::size_t block_idx,
      const std::function<bool(std::string_view, std::uint64_t)>& fn) const;

  MmapFile file_;
  PostingCodec codec_ = PostingCodec::kVByte;
  std::uint32_t terms_per_block_ = kSegmentTermsPerBlock;
  std::uint64_t term_count_ = 0;
  std::uint32_t min_doc_ = 0;
  std::uint32_t max_doc_ = 0;
  std::uint64_t dict_off_ = 0, dict_bytes_ = 0;
  std::uint64_t table_off_ = 0, table_bytes_ = 0;
  std::uint64_t blob_off_ = 0, blob_bytes_ = 0;
  std::uint64_t bloom_off_ = 0;
  std::vector<Block> blocks_;
  std::vector<PostingBlockEntry> rows_;     ///< every skip row, term order
  std::vector<std::uint64_t> term_rows_;    ///< per-term start into rows_ (+ end)
  std::vector<std::uint64_t> row_filters_;  ///< per-row start into the bloom section (+ end)
};

/// What a segment build folded together.
struct SegmentBuildStats {
  std::uint64_t terms = 0;
  std::uint64_t postings = 0;
  std::uint64_t runs = 0;          ///< run files folded
  std::uint64_t input_bytes = 0;   ///< encoded blob bytes read from runs
  std::uint64_t output_bytes = 0;  ///< segment file size
};

/// Folds the given run files into `<dir>/index.seg` using the already
/// loaded dictionary entries (sorted by term) — the writer path shared by
/// PipelineEngine (entries still in memory at finalize) and compact_index
/// (entries re-read from disk). Each term's run parts decode in run order
/// into one list that SegmentWriter::add_postings re-blocks (§III.F
/// post-processing), so the file does not depend on where the runs were
/// cut. Dictionary ranges fold in parallel into the same bytes as a serial
/// fold. Errors, each leaving no file: kCorrupt naming the file when a run
/// file is damaged (RunFile::open) or the runs disagree on codec or doc
/// order, kCorrupt when a dictionary term has no postings in any run, kIo
/// when the segment cannot be written durably.
Expected<SegmentBuildStats> build_segment_from_runs(
    const std::string& dir, const std::vector<DictionaryEntry>& entries,
    const std::vector<IndexDirectoryEntry>& directory);

/// Reads dictionary + run directory under `dir` and compacts the run files
/// into `<dir>/index.seg`. Run files are left in place: they stay the
/// build-time interchange format (and the merger's input) — which is what
/// makes this the upgrade path for batch indexes from older segment
/// formats. Errors as build_segment_from_runs, plus dictionary_read's and
/// index_directory_read's (kCorrupt naming a damaged file).
Expected<SegmentBuildStats> compact_index(const std::string& dir);

/// What a segment-to-segment merge wrote.
struct SegmentMergeStats {
  std::uint64_t terms = 0;         ///< terms in the output
  std::uint64_t output_bytes = 0;  ///< merged segment file size
};

/// Merges already-built segments into one new segment at `out_path`, the
/// one compaction of the live tier (docs/LIVE_INDEXING.md). Terms stream
/// through a k-way cursor merge; each term's parts decode in input order
/// into one list, postings of documents in `dead` (may be null) drop out
/// with their positions, and SegmentWriter::add_postings re-blocks the
/// survivors with `codec`. A term whose every posting is dead vanishes.
/// The inputs may use any codecs, and a term keeps its positions only when
/// every part carries them and `codec` can hold them (kBitPacked cannot).
/// Inputs must be given in ascending doc-id order. Errors, each leaving no
/// output file: kCorrupt when a term's doc ranges overlap or descend
/// across inputs, kIo when the output cannot be written durably.
Expected<SegmentMergeStats> merge_segments(const std::vector<const SegmentReader*>& inputs,
                                           const TombstoneSet* dead, PostingCodec codec,
                                           const std::string& out_path);

}  // namespace hetindex
