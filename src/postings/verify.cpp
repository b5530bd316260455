#include "postings/verify.hpp"

#include <algorithm>
#include <map>

#include "dict/dictionary.hpp"
#include "dict/trie_table.hpp"
#include "postings/query.hpp"
#include "postings/run_file.hpp"

namespace hetindex {

VerifyReport verify_index(const std::string& dir) {
  VerifyReport report;

  // ---- Dictionary.
  const auto read_entries = dictionary_read(IndexLayout::dictionary_path(dir));
  if (!read_entries.has_value()) {
    report.fail(read_entries.error().to_string());
    return report;
  }
  const auto& entries = read_entries.value();
  report.terms = entries.size();
  std::map<std::pair<std::uint32_t, std::uint32_t>, const DictionaryEntry*> by_key;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    if (i > 0 && !(entries[i - 1].term < e.term)) {
      report.fail("dictionary terms not sorted/unique at '" + e.term + "'");
    }
    if (trie_index(e.term) != e.trie_idx) {
      report.fail("term '" + e.term + "' stored under wrong trie collection");
    }
    if (!by_key.emplace(std::make_pair(e.shard, e.handle), &e).second) {
      report.fail("duplicate postings key for term '" + e.term + "'");
    }
  }

  // ---- Run directory + run files.
  auto read_dir = index_directory_read(IndexLayout::directory_path(dir));
  if (!read_dir.has_value()) {
    report.fail(read_dir.error().to_string());
    return report;
  }
  auto dir_entries = std::move(read_dir).value();
  std::sort(dir_entries.begin(), dir_entries.end(),
            [](const IndexDirectoryEntry& a, const IndexDirectoryEntry& b) {
              return a.run_id < b.run_id;
            });
  report.runs = dir_entries.size();

  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> last_doc;  // key → max doc
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> posting_count;
  bool all_runs_read = true;
  for (const auto& de : dir_entries) {
    // A missing file is kNotFound, a damaged one kCorrupt (blob CRC checked here).
    const auto opened = RunFile::open(dir + "/" + de.file);
    if (!opened.has_value()) {
      report.fail(opened.error().message);
      all_runs_read = false;
      continue;
    }
    const RunFile& run = opened.value();
    if (run.run_id() != de.run_id) {
      report.fail(de.file + ": run id mismatch with directory");
    }
    if (!run.table().empty() &&
        (run.min_doc() < de.min_doc || run.max_doc() > de.max_doc)) {
      report.fail(de.file + ": doc range exceeds directory entry");
    }
    for (const auto& te : run.table()) {
      const auto key = std::make_pair(te.key.shard, te.key.handle);
      if (!by_key.contains(key)) {
        report.fail(de.file + ": table entry with no dictionary term");
        continue;
      }
      std::vector<std::uint32_t> ids, tfs, positions;
      run.fetch(te.key, ids, tfs, &positions);
      report.postings += ids.size();
      report.encoded_bytes += te.bytes;
      if (ids.size() != te.count) {
        report.fail(de.file + ": decoded count mismatch");
        continue;
      }
      if (ids.empty()) {
        report.fail(de.file + ": empty encoded list");
        continue;
      }
      if (ids.front() != te.min_doc || ids.back() != te.max_doc) {
        report.fail(de.file + ": entry min/max doc mismatch");
      }
      for (std::size_t i = 1; i < ids.size(); ++i) {
        if (ids[i - 1] >= ids[i]) {
          report.fail(de.file + ": postings not strictly doc-sorted");
          break;
        }
      }
      std::uint64_t tf_sum = 0;
      for (const auto tf : tfs) {
        if (tf == 0) {
          report.fail(de.file + ": zero term frequency");
          break;
        }
        tf_sum += tf;
      }
      if (!positions.empty()) {
        if (positions.size() != tf_sum) {
          report.fail(de.file + ": position count does not match term frequencies");
        } else {
          // Positions must be non-decreasing within each posting's slice.
          std::size_t cursor = 0;
          for (const auto tf : tfs) {
            for (std::uint32_t k = 1; k < tf; ++k) {
              if (positions[cursor + k] < positions[cursor + k - 1]) {
                report.fail(de.file + ": positions decrease within a document");
                break;
              }
            }
            cursor += tf;
          }
        }
      }
      const auto it = last_doc.find(key);
      if (it != last_doc.end() && ids.front() <= it->second) {
        report.fail(de.file + ": doc ids overlap an earlier run for the same term");
      }
      last_doc[key] = ids.back();
      posting_count[key] += ids.size();
    }
  }

  // ---- Every term must have postings (a dictionary entry with none means
  // a lost list). Skipped when a run could not be read: its terms would
  // each repeat that one error.
  if (!all_runs_read) return report;
  for (const auto& [key, entry] : by_key) {
    if (posting_count.find(key) == posting_count.end()) {
      report.fail("term '" + entry->term + "' has no postings in any run");
    }
  }
  return report;
}

}  // namespace hetindex
