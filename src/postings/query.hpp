#pragma once
/// \file query.hpp
/// Read path over a built index. Two backends share one interface:
///
///   run files   every `run_*.post` loaded into memory, terms resolved via
///               the dictionary — the build-time view, and still the §III.F
///               per-run layout whose doc-ID-range narrowing only touches
///               runs overlapping the query range
///   segment     one mmapped `index.seg` (see postings/segment.hpp) with
///               zero-copy terms and per-lookup lazy decode — the serving
///               view produced by emit_segment or compact_index()
///
/// open() auto-detects (segment preferred when present). Both backends are
/// safe for concurrent readers: the segment keeps no per-lookup state, and
/// read-path metrics go to lock-free/lightly-locked obs instruments.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dict/dictionary.hpp"
#include "obs/metrics.hpp"
#include "postings/bloom.hpp"
#include "postings/run_file.hpp"
#include "postings/segment.hpp"
#include "util/error.hpp"

namespace hetindex {

class PostingsCursor;  // postings/cursor.hpp

/// Canonical on-disk layout of an index directory.
struct IndexLayout {
  static std::string dictionary_path(const std::string& dir) { return dir + "/dictionary.bin"; }
  static std::string directory_path(const std::string& dir) { return dir + "/runs.dir"; }
  static std::string run_path(const std::string& dir, std::uint32_t run_id) {
    return dir + "/run_" + std::to_string(run_id) + ".post";
  }
  static std::string merged_path(const std::string& dir) { return dir + "/merged.post"; }
  static std::string segment_path(const std::string& dir) { return dir + "/index.seg"; }
};

/// A decoded postings list. `positions` is filled only by positional
/// lookups over positional indexes: posting i owns the next tfs[i]
/// entries.
struct QueryPostings {
  std::vector<std::uint32_t> doc_ids;
  std::vector<std::uint32_t> tfs;
  std::vector<std::uint32_t> positions;
};

/// Which backend InvertedIndex::open() should serve from.
enum class IndexBackend {
  kAuto,     ///< segment when `index.seg` exists, else run files
  kRuns,     ///< force the run-file backend (dictionary + runs in memory)
  kSegment,  ///< force the mmapped-segment backend
};

/// Options for InvertedIndex::open(). An aggregate so call sites can spell
/// the default as `open(dir, {})` and a forced backend as
/// `open(dir, {IndexBackend::kRuns})`.
struct OpenOptions {
  IndexBackend backend = IndexBackend::kAuto;
};

/// Queryable view of an index directory (run-file or segment backed).
class InvertedIndex {
 public:
  /// Opens `dir` with the requested backend. Missing index files report
  /// ErrorCode::kNotFound, a failed segment checksum or structural check
  /// kCorrupt, an unknown segment version or codec kUnsupported — instead
  /// of aborting, so callers can fall back or surface the message. (Deep
  /// corruption inside the run-file loaders still hard-fails; the CRC'd
  /// segment is the backend with end-to-end soft validation.)
  static Expected<InvertedIndex> open(const std::string& dir, const OpenOptions& options);

  InvertedIndex(InvertedIndex&&) noexcept;
  InvertedIndex& operator=(InvertedIndex&&) noexcept;
  ~InvertedIndex();

  /// Full postings list of `term` (stemmed form); nullopt when the term is
  /// not in the dictionary.
  [[nodiscard]] std::optional<QueryPostings> lookup(std::string_view term) const;

  /// Block-level cursor over `term`'s postings (see postings/cursor.hpp);
  /// nullptr when the term is unknown. Segment-backed this is a zero-copy
  /// blob cursor steered by the segment's skip rows that decodes only the
  /// blocks it lands on (and serves positions per block on demand); the
  /// run-file backend wraps a decoded list, positional when
  /// `with_positions` asks for current_positions() support. The cursor
  /// borrows the index — it must not outlive this object.
  [[nodiscard]] std::unique_ptr<PostingsCursor> open_cursor(
      std::string_view term, bool with_positions = false) const;

  /// Like lookup() but also decodes in-document token positions (empty
  /// when the index was not built with record_positions).
  [[nodiscard]] std::optional<QueryPostings> lookup_positional(std::string_view term) const;

  /// Postings restricted to doc ids in [min_doc, max_doc]; only blobs whose
  /// doc ranges overlap are decoded. `runs_touched` (optional out) reports
  /// how many run files (or, segment-backed, whether the term's blob) were
  /// actually read — the quantity the §III.F range-narrowing claim is
  /// about.
  [[nodiscard]] std::optional<QueryPostings> lookup_range(
      std::string_view term, std::uint32_t min_doc, std::uint32_t max_doc,
      std::size_t* runs_touched = nullptr) const;

  /// All dictionary terms starting with `prefix`, in lexicographic order —
  /// a by-product of the sorted dictionary (and of the trie + B-tree
  /// in-order layout that produced it). Useful for query expansion and
  /// spell-out tooling.
  [[nodiscard]] std::vector<std::string> terms_with_prefix(std::string_view prefix) const;

  /// fn(term) over every dictionary term in lexicographic order. The view
  /// is only valid during the call (segment terms are decoded on the fly).
  void for_each_term(const std::function<void(std::string_view)>& fn) const;

  /// The term's Bloom rejection chain (postings/bloom.hpp): empty — never
  /// rejects — on the run-file backend. The chain borrows this index and
  /// must not outlive it.
  [[nodiscard]] BloomChain bloom_chain(std::string_view term) const;

  /// True when serving from a compacted segment.
  [[nodiscard]] bool segment_backed() const { return segment_ != nullptr; }
  /// The underlying segment reader; nullptr when run-file backed.
  [[nodiscard]] const SegmentReader* segment() const { return segment_.get(); }

  /// Raw dictionary entries — run-file backend only (the segment never
  /// materializes them); hard-fails otherwise. Prefer for_each_term().
  [[nodiscard]] const std::vector<DictionaryEntry>& entries() const;
  /// Loaded run files (0 when segment-backed).
  [[nodiscard]] std::size_t run_count() const { return runs_.size(); }
  [[nodiscard]] std::uint64_t term_count() const;

  /// Read-path metrics: query_lookups_total, query_lookup_misses_total,
  /// query_postings_decoded_total, query_bytes_decoded_total,
  /// segment_bytes_mapped, query_lookup_micros.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct ReadInstruments;

  InvertedIndex();
  [[nodiscard]] const DictionaryEntry* find_entry(std::string_view term) const;
  [[nodiscard]] std::optional<QueryPostings> lookup_impl(std::string_view term,
                                                         bool positional) const;

  std::unique_ptr<obs::MetricsRegistry> metrics_;  // stable instrument addresses
  std::unique_ptr<ReadInstruments> ins_;
  std::vector<DictionaryEntry> entries_;  // sorted by term (run-file backend)
  std::vector<RunFile> runs_;             // ascending run id (run-file backend)
  std::unique_ptr<SegmentReader> segment_;
};

}  // namespace hetindex
