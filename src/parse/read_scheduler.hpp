#pragma once
/// \file read_scheduler.hpp
/// Step 1 of the parser (Fig. 3) plus the disk-access discipline of §III.F:
/// "To avoid several parsers from trying to read from the same disk at the
/// same time, a scheduler is used to organize the reads of the different
/// parsers, one at a time." The discipline is kept literally: a parser
/// claims the next file and reads it whole while holding the disk, through
/// the Env seam (io::read_file_via_env), so fault injection sees every
/// ingest byte. Files are handed out strictly in collection order with the
/// global doc-ID base assigned at claim time, so downstream postings stay
/// globally sorted and the index output does not depend on which parser
/// read which file. Decompression happens *after* the full file is in
/// memory and outside the disk section (§IV.A's second scheme, the one the
/// paper chooses).
///
/// Read errors are structured (`Expected`), never aborts: a transient fault
/// is retried a bounded number of times inside the read (counted in
/// io_retries_total); a hard fault is returned once at its file and then
/// sticks — every later next() returns the same Error so all parsers drain.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "corpus/document.hpp"
#include "util/error.hpp"

namespace hetindex {

/// One scheduled read: a fully decompressed file plus its identity.
struct ScheduledRead {
  std::uint64_t seq = 0;            ///< file index in collection order
  std::uint32_t doc_id_base = 0;    ///< global doc id of the file's doc 0
  std::vector<Document> docs;
  std::uint64_t compressed_bytes = 0;
  std::uint64_t uncompressed_bytes = 0;
  double read_seconds = 0;        ///< the whole-file read itself
  double disk_wait_seconds = 0;   ///< parser time in next() before bytes (queue + read)
  double decompress_seconds = 0;  ///< in-memory decompression (parallel)
};

class ReadScheduler {
 public:
  explicit ReadScheduler(std::vector<std::string> files);

  /// Thread-safe. Claims the next file (in collection order), reads it
  /// under the disk lock, then decompresses it on the calling thread.
  /// Outer nullopt = collection exhausted; an Error is a hard read failure
  /// (sticky — every subsequent call returns it too, so all parser threads
  /// wind down).
  Expected<std::optional<ScheduledRead>> next();

  [[nodiscard]] std::size_t file_count() const { return files_.size(); }
  /// Total docs handed out so far (== next doc_id_base).
  [[nodiscard]] std::uint32_t docs_assigned() const;
  /// Cumulative parser time blocked in next() before its bytes arrived:
  /// waiting for the disk plus the read itself.
  [[nodiscard]] double read_stall_seconds() const;

 private:
  std::vector<std::string> files_;

  /// The single disk; also guards the claim counter, doc bases, stall
  /// total and sticky error, which only change while a file is claimed.
  mutable std::mutex disk_mutex_;
  std::size_t next_file_ = 0;
  std::uint32_t next_doc_base_ = 0;
  double read_stall_seconds_ = 0;
  std::optional<Error> error_;  ///< sticky hard failure
};

}  // namespace hetindex
