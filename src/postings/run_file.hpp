#pragma once
/// \file run_file.hpp
/// Per-run postings output files (§III.F): each single run produces one
/// file whose header is a mapping table from (shard, handle) — the pointer
/// stored in the dictionary — to the location/length of the compressed
/// partial postings list inside the file. Each entry also records the
/// doc-ID range it covers, enabling the paper's "faster search when
/// narrowed down to a range of document IDs" benefit. The table ascends by
/// (shard, handle): both writers emit it that way, RunFileWriter checks it
/// and RunFile::open rejects a table that breaks it, so a lookup is a
/// binary search and merges walk tables in step.

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "codec/posting_codecs.hpp"
#include "postings/postings_store.hpp"
#include "util/error.hpp"

namespace hetindex {

/// Key of a postings list within a run: which shard's store and which
/// handle inside that store.
struct PostingKey {
  std::uint32_t shard;
  std::uint32_t handle;

  /// (shard, handle) lexicographic: the order of every run table.
  auto operator<=>(const PostingKey&) const = default;
};

/// One mapping-table row.
struct RunTableEntry {
  PostingKey key;
  std::uint64_t offset;  ///< byte offset of the encoded list in the blob area
  std::uint32_t bytes;   ///< encoded length
  std::uint32_t count;   ///< number of postings
  std::uint32_t min_doc;
  std::uint32_t max_doc;
};

/// Builds one run file in memory and writes it out on finalize().
class RunFileWriter {
 public:
  RunFileWriter(std::string path, std::uint32_t run_id,
                PostingCodec codec = PostingCodec::kVByte);

  /// Appends one term's partial postings list (already globally-doc-id'd,
  /// strictly increasing). Empty lists are skipped. Keys must ascend across
  /// add_list/add_raw calls.
  void add_list(PostingKey key, const PostingsList& list);

  /// Appends pre-encoded segments verbatim (the §III.F merge pass: partial
  /// lists concatenate byte-wise because every segment's first doc id is
  /// absolute). Caller supplies the already-known table metadata.
  void add_raw(PostingKey key, std::span<const std::uint8_t> encoded,
               std::uint32_t count, std::uint32_t min_doc, std::uint32_t max_doc);

  /// Writes header + mapping table + blobs. Returns total bytes written.
  std::uint64_t finalize();

  [[nodiscard]] std::uint32_t run_id() const { return run_id_; }
  [[nodiscard]] std::size_t list_count() const { return table_.size(); }

 private:
  std::string path_;
  std::uint32_t run_id_;
  PostingCodec codec_;
  std::vector<RunTableEntry> table_;
  std::vector<std::uint8_t> blobs_;
  bool finalized_ = false;
};

/// Memory-resident reader of a run file.
class RunFile {
 public:
  /// Loads and checks `path`. kCorrupt naming the file on a bad magic, a
  /// truncated file, a table whose keys do not strictly ascend or whose rows
  /// point outside the blob area, or a blob CRC mismatch; the env's read
  /// error (kNotFound, kIo) when the file cannot be read.
  static Expected<RunFile> open(const std::string& path);

  [[nodiscard]] std::uint32_t run_id() const { return run_id_; }
  [[nodiscard]] PostingCodec codec() const { return codec_; }
  [[nodiscard]] const std::vector<RunTableEntry>& table() const { return table_; }
  /// Overall doc-id range covered by this run (for range narrowing).
  [[nodiscard]] std::uint32_t min_doc() const { return min_doc_; }
  [[nodiscard]] std::uint32_t max_doc() const { return max_doc_; }

  /// Decodes the (possibly multi-segment) list for `key`; returns false
  /// when the run has no postings for it. Appends to the output vectors.
  /// `positions` (optional) receives in-doc token positions when the run
  /// was built positionally.
  bool fetch(PostingKey key, std::vector<std::uint32_t>& doc_ids,
             std::vector<std::uint32_t>& tfs,
             std::vector<std::uint32_t>* positions = nullptr) const;

  /// `key`'s table row (binary search); nullptr when absent.
  [[nodiscard]] const RunTableEntry* entry(PostingKey key) const;
  /// Raw encoded bytes of a table row's list (for byte-level merging),
  /// viewed in place: valid while this RunFile lives.
  [[nodiscard]] std::span<const std::uint8_t> raw_blob(const RunTableEntry& entry) const;

 private:
  std::uint32_t run_id_ = 0;
  PostingCodec codec_ = PostingCodec::kVByte;
  std::uint32_t min_doc_ = 0;
  std::uint32_t max_doc_ = 0;
  std::vector<RunTableEntry> table_;
  std::vector<std::uint8_t> blobs_;
};

/// The auxiliary "mapping of document IDs to output file names" of §III.F:
/// a directory of run files with their doc ranges, written next to the
/// dictionary.
struct IndexDirectoryEntry {
  std::string file;
  std::uint32_t run_id;
  std::uint32_t min_doc;
  std::uint32_t max_doc;
};

void index_directory_write(const std::string& path,
                           const std::vector<IndexDirectoryEntry>& entries);
/// Loads a directory written by index_directory_write: kCorrupt naming the
/// file when it is damaged, kNotFound when it is missing.
Expected<std::vector<IndexDirectoryEntry>> index_directory_read(const std::string& path);

}  // namespace hetindex
