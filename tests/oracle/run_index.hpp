#pragma once
/// \file run_index.hpp
/// Test-side reader of an index directory's per-run files (§III.F): the
/// dictionary plus every run listed in `runs.dir`, all loaded into memory.
/// It answers from the build's own output, so tests diff the serving
/// segment (InvertedIndex) against it, and it keeps the paper's doc-ID
/// range narrowing measurable: lookup_range() reads only the runs whose
/// doc range overlaps the query's.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dict/dictionary.hpp"
#include "postings/query.hpp"
#include "postings/run_file.hpp"

namespace hetindex::oracle {

class RunIndex {
 public:
  /// Loads `dir`/dictionary.bin and every run in `dir`/runs.dir. Aborts on
  /// a missing or malformed file (the run-file loaders hard-fail).
  static RunIndex open(const std::string& dir);

  /// Full postings list of `term`, concatenated across runs in run-id
  /// order; nullopt when the term is not in the dictionary.
  [[nodiscard]] std::optional<QueryPostings> lookup(std::string_view term) const;
  /// Like lookup() but also decodes positions (empty when the index was
  /// built without record_positions).
  [[nodiscard]] std::optional<QueryPostings> lookup_positional(std::string_view term) const;
  /// Postings with doc ids in [min_doc, max_doc]. Only runs whose doc range
  /// overlaps are read; `runs_touched` (optional out) counts them.
  [[nodiscard]] std::optional<QueryPostings> lookup_range(
      std::string_view term, std::uint32_t min_doc, std::uint32_t max_doc,
      std::size_t* runs_touched = nullptr) const;

  /// Dictionary entries, sorted by term.
  [[nodiscard]] const std::vector<DictionaryEntry>& entries() const { return entries_; }
  [[nodiscard]] std::uint64_t term_count() const { return entries_.size(); }
  [[nodiscard]] std::size_t run_count() const { return runs_.size(); }

 private:
  [[nodiscard]] const DictionaryEntry* find(std::string_view term) const;
  [[nodiscard]] std::optional<QueryPostings> fetch_all(std::string_view term,
                                                       bool positional) const;

  std::vector<DictionaryEntry> entries_;  // sorted by term
  std::vector<RunFile> runs_;             // ascending run id
};

}  // namespace hetindex::oracle
