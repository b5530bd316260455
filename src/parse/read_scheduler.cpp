#include "parse/read_scheduler.hpp"

#include "corpus/container.hpp"
#include "io/env.hpp"
#include "util/timer.hpp"

namespace hetindex {

ReadScheduler::ReadScheduler(std::vector<std::string> files) : files_(std::move(files)) {}

Expected<std::optional<ScheduledRead>> ReadScheduler::next() {
  ScheduledRead result;
  std::vector<std::uint8_t> compressed;
  {
    // Serialized disk section: claim the next file and read it while
    // holding the disk — the paper's one-at-a-time discipline. The time
    // queueing for the disk plus the read itself is parser stall.
    WallTimer wait_timer;
    std::scoped_lock disk(disk_mutex_);
    // The sticky error is what drains every parser thread once any one of
    // them has hit a hard read failure.
    if (error_.has_value()) return Error(*error_);
    if (next_file_ >= files_.size()) return std::optional<ScheduledRead>(std::nullopt);
    result.seq = next_file_++;

    WallTimer t;
    auto data = io::read_file_via_env(files_[result.seq]);
    result.read_seconds = t.seconds();
    if (!data.has_value()) {
      error_ = data.error();
      return Error(*error_);
    }
    compressed = std::move(data).value();
    result.compressed_bytes = compressed.size();
    // Doc-ID bases are assigned in claim order, so they stay monotone in seq.
    auto count = container_try_header_doc_count(compressed.data(), compressed.size());
    if (!count.has_value()) {
      error_ = count.error();
      error_->message += " (" + files_[result.seq] + ")";
      return Error(*error_);
    }
    result.doc_id_base = next_doc_base_;
    next_doc_base_ += count.value();
    result.disk_wait_seconds = wait_timer.seconds();
    read_stall_seconds_ += result.disk_wait_seconds;
  }

  WallTimer t;
  result.docs = container_decompress(compressed.data(), compressed.size());
  result.decompress_seconds = t.seconds();
  std::uint64_t raw = 0;
  for (const auto& d : result.docs) raw += d.body.size() + d.url.size() + 8;
  result.uncompressed_bytes = raw + 8;
  return std::optional<ScheduledRead>(std::move(result));
}

std::uint32_t ReadScheduler::docs_assigned() const {
  std::scoped_lock disk(disk_mutex_);
  return next_doc_base_;
}

double ReadScheduler::read_stall_seconds() const {
  std::scoped_lock disk(disk_mutex_);
  return read_stall_seconds_;
}

}  // namespace hetindex
