#pragma once
/// \file query.hpp
/// Read path over a built index: one mmapped `index.seg` (see
/// postings/segment.hpp) with zero-copy terms and per-lookup lazy decode —
/// the serving view produced by emit_segment or compact_index(). The
/// per-run files of §III.F are the build's output and the fold's input;
/// they are not served.
///
/// Safe for concurrent readers: the segment keeps no per-lookup state, and
/// read-path metrics go to lock-free/lightly-locked obs instruments.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "postings/bloom.hpp"
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

/// Options for InvertedIndex::open(). Empty: it goes once the benchmark
/// harness (hetbench/) stops passing `open(dir, {})`.
struct OpenOptions {};

/// Queryable view of an index directory's `index.seg`.
class InvertedIndex {
 public:
  /// Maps `dir`/index.seg. A missing segment reports ErrorCode::kNotFound
  /// naming `hetindex_cli compact <dir>` (the fold that turns a directory
  /// of run files into a segment), a failed checksum or structural check
  /// kCorrupt, an unknown segment version or codec kUnsupported — never an
  /// abort, and never a read of the run files or dictionary.bin.
  static Expected<InvertedIndex> open(const std::string& dir, const OpenOptions& options);

  InvertedIndex(InvertedIndex&&) noexcept;
  InvertedIndex& operator=(InvertedIndex&&) noexcept;
  ~InvertedIndex();

  /// Full postings list of `term` (stemmed form); nullopt when the term is
  /// not in the dictionary.
  [[nodiscard]] std::optional<QueryPostings> lookup(std::string_view term) const;

  /// Block-level cursor over `term`'s postings (see postings/cursor.hpp);
  /// nullptr when the term is unknown. A zero-copy blob cursor steered by
  /// the segment's skip rows that decodes only the blocks it lands on (and
  /// serves positions per block on demand, whatever `with_positions`
  /// says). The cursor borrows the index — it must not outlive this
  /// object.
  [[nodiscard]] std::unique_ptr<PostingsCursor> open_cursor(
      std::string_view term, bool with_positions = false) const;

  /// Like lookup() but also decodes in-document token positions (empty
  /// when the index was not built with record_positions).
  [[nodiscard]] std::optional<QueryPostings> lookup_positional(std::string_view term) const;

  /// Postings restricted to doc ids in [min_doc, max_doc]; the term's blob
  /// is decoded only when its doc range overlaps. `runs_touched` (optional
  /// out) reports whether it was read (0 or 1).
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

  /// The term's Bloom rejection chain (postings/bloom.hpp). The chain
  /// borrows this index and must not outlive it.
  [[nodiscard]] BloomChain bloom_chain(std::string_view term) const;

  /// The underlying segment reader.
  [[nodiscard]] const SegmentReader* segment() const { return segment_.get(); }

  [[nodiscard]] std::uint64_t term_count() const { return segment_->term_count(); }

  /// Read-path metrics: query_lookups_total, query_lookup_misses_total,
  /// query_postings_decoded_total, query_bytes_decoded_total,
  /// segment_bytes_mapped, query_lookup_micros.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct ReadInstruments;

  InvertedIndex();
  [[nodiscard]] std::optional<QueryPostings> lookup_impl(std::string_view term,
                                                         bool positional) const;

  std::unique_ptr<obs::MetricsRegistry> metrics_;  // stable instrument addresses
  std::unique_ptr<ReadInstruments> ins_;
  std::unique_ptr<SegmentReader> segment_;
};

}  // namespace hetindex
