#include "oracle/run_index.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hetindex::oracle {

RunIndex RunIndex::open(const std::string& dir) {
  RunIndex idx;
  idx.entries_ = dictionary_read(IndexLayout::dictionary_path(dir));
  HET_CHECK_MSG(std::is_sorted(idx.entries_.begin(), idx.entries_.end(),
                               [](const DictionaryEntry& a, const DictionaryEntry& b) {
                                 return a.term < b.term;
                               }),
                "dictionary file must be sorted by term");
  const auto directory = index_directory_read(IndexLayout::directory_path(dir));
  idx.runs_.reserve(directory.size());
  for (const auto& e : directory) idx.runs_.push_back(RunFile::open(dir + "/" + e.file));
  std::sort(idx.runs_.begin(), idx.runs_.end(),
            [](const RunFile& a, const RunFile& b) { return a.run_id() < b.run_id(); });
  return idx;
}

const DictionaryEntry* RunIndex::find(std::string_view term) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), term,
      [](const DictionaryEntry& e, std::string_view t) { return e.term < t; });
  if (it == entries_.end() || it->term != term) return nullptr;
  return &*it;
}

std::optional<QueryPostings> RunIndex::fetch_all(std::string_view term, bool positional) const {
  const DictionaryEntry* entry = find(term);
  if (entry == nullptr) return std::nullopt;
  QueryPostings out;
  for (const auto& run : runs_) {
    run.fetch({entry->shard, entry->handle}, out.doc_ids, out.tfs,
              positional ? &out.positions : nullptr);
  }
  return out;
}

std::optional<QueryPostings> RunIndex::lookup(std::string_view term) const {
  return fetch_all(term, /*positional=*/false);
}

std::optional<QueryPostings> RunIndex::lookup_positional(std::string_view term) const {
  return fetch_all(term, /*positional=*/true);
}

std::optional<QueryPostings> RunIndex::lookup_range(std::string_view term,
                                                    std::uint32_t min_doc,
                                                    std::uint32_t max_doc,
                                                    std::size_t* runs_touched) const {
  if (runs_touched) *runs_touched = 0;
  const DictionaryEntry* entry = find(term);
  if (entry == nullptr) return std::nullopt;
  QueryPostings raw;
  for (const auto& run : runs_) {
    if (run.max_doc() < min_doc || run.min_doc() > max_doc) continue;  // range narrowing
    if (runs_touched) ++*runs_touched;
    run.fetch({entry->shard, entry->handle}, raw.doc_ids, raw.tfs);
  }
  QueryPostings out;
  for (std::size_t i = 0; i < raw.doc_ids.size(); ++i) {
    if (raw.doc_ids[i] >= min_doc && raw.doc_ids[i] <= max_doc) {
      out.doc_ids.push_back(raw.doc_ids[i]);
      out.tfs.push_back(raw.tfs[i]);
    }
  }
  return out;
}

}  // namespace hetindex::oracle
