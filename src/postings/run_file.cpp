#include "postings/run_file.hpp"

#include <algorithm>
#include <limits>

#include "io/env.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"

namespace hetindex {
namespace {
constexpr std::uint32_t kRunMagic = 0x4E555248;  // "HRUN"
constexpr std::uint32_t kDirMagic = 0x52494448;  // "HDIR"
}  // namespace

RunFileWriter::RunFileWriter(std::string path, std::uint32_t run_id, PostingCodec codec)
    : path_(std::move(path)), run_id_(run_id), codec_(codec) {}

void RunFileWriter::add_list(PostingKey key, const PostingsList& list) {
  HET_CHECK(!finalized_);
  if (list.empty()) return;
  // Blocked like every encoded list, but only this run's part of the list:
  // the segment fold decodes the parts and re-blocks the whole list
  // (SegmentWriter::add_postings), so no run cut shows in index.seg.
  const auto encoded = encode_postings_blocked(codec_, list.doc_ids, list.tfs, list.positions);
  add_raw(key, encoded, static_cast<std::uint32_t>(list.size()), list.doc_ids.front(),
          list.doc_ids.back());
}

void RunFileWriter::add_raw(PostingKey key, std::span<const std::uint8_t> encoded,
                            std::uint32_t count, std::uint32_t min_doc,
                            std::uint32_t max_doc) {
  HET_CHECK(!finalized_);
  if (encoded.empty() || count == 0) return;
  HET_CHECK_MSG(table_.empty() || table_.back().key < key,
                "run table keys must ascend by (shard, handle)");
  RunTableEntry entry;
  entry.key = key;
  entry.offset = blobs_.size();
  entry.bytes = static_cast<std::uint32_t>(encoded.size());
  entry.count = count;
  entry.min_doc = min_doc;
  entry.max_doc = max_doc;
  table_.push_back(entry);
  blobs_.insert(blobs_.end(), encoded.begin(), encoded.end());
}

std::uint64_t RunFileWriter::finalize() {
  HET_CHECK(!finalized_);
  finalized_ = true;
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(kRunMagic);
  w.u32(run_id_);
  w.u8(static_cast<std::uint8_t>(codec_));
  std::uint32_t min_doc = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t max_doc = 0;
  for (const auto& e : table_) {
    min_doc = std::min(min_doc, e.min_doc);
    max_doc = std::max(max_doc, e.max_doc);
  }
  if (table_.empty()) min_doc = 0;
  w.u32(min_doc);
  w.u32(max_doc);
  w.u32(static_cast<std::uint32_t>(table_.size()));
  w.u64(blobs_.size());
  w.u32(crc32(blobs_.data(), blobs_.size()));
  for (const auto& e : table_) {
    w.u32(e.key.shard);
    w.u32(e.key.handle);
    w.u64(e.offset);
    w.u32(e.bytes);
    w.u32(e.count);
    w.u32(e.min_doc);
    w.u32(e.max_doc);
  }
  w.bytes(blobs_.data(), blobs_.size());
  write_file(path_, out);
  return out.size();
}

Expected<RunFile> RunFile::open(const std::string& path) {
  auto read = io::env().read_file(path);
  if (!read.has_value()) return read.error();
  const auto data = std::move(read).value();
  const auto corrupt = [&path](const char* what) -> Expected<RunFile> {
    return Error{ErrorCode::kCorrupt, "run file " + path + ": " + what};
  };
  constexpr std::size_t kHeaderBytes = 4 + 4 + 1 + 4 + 4 + 4 + 8 + 4;
  constexpr std::size_t kRowBytes = 32;
  if (data.size() < kHeaderBytes) return corrupt("truncated header");
  ByteReader r(data);
  if (r.u32() != kRunMagic) return corrupt("not a hetindex run file (bad magic)");
  RunFile rf;
  rf.run_id_ = r.u32();
  rf.codec_ = static_cast<PostingCodec>(r.u8());
  rf.min_doc_ = r.u32();
  rf.max_doc_ = r.u32();
  const std::uint32_t count = r.u32();
  const std::uint64_t blob_bytes = r.u64();
  const std::uint32_t blob_crc = r.u32();
  if (r.remaining() / kRowBytes < count ||
      r.remaining() - std::size_t{count} * kRowBytes != blob_bytes) {
    return corrupt("table or blob area does not match the file size");
  }
  rf.table_.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto& e = rf.table_[i];
    e.key.shard = r.u32();
    e.key.handle = r.u32();
    e.offset = r.u64();
    e.bytes = r.u32();
    e.count = r.u32();
    e.min_doc = r.u32();
    e.max_doc = r.u32();
    if (i > 0 && !(rf.table_[i - 1].key < e.key)) {
      return corrupt("table keys do not ascend");
    }
    if (e.offset > blob_bytes || e.bytes > blob_bytes - e.offset) {
      return corrupt("table row points outside the blob area");
    }
  }
  rf.blobs_.resize(blob_bytes);
  r.bytes(rf.blobs_.data(), blob_bytes);
  if (crc32(rf.blobs_.data(), rf.blobs_.size()) != blob_crc) {
    return corrupt("blob checksum mismatch");
  }
  return rf;
}

bool RunFile::fetch(PostingKey key, std::vector<std::uint32_t>& doc_ids,
                    std::vector<std::uint32_t>& tfs,
                    std::vector<std::uint32_t>* positions) const {
  const auto* e = entry(key);
  if (e == nullptr) return false;
  const auto blob = raw_blob(*e);
  // A merged blob is a byte-wise concatenation of self-describing blocks;
  // decode them all (a single-block blob is the degenerate case).
  std::size_t pos = 0;
  while (pos < blob.size()) {
    pos += decode_postings(blob.data(), blob.size(), doc_ids, tfs, positions, pos);
  }
  return true;
}

const RunTableEntry* RunFile::entry(PostingKey key) const {
  const auto it = std::lower_bound(
      table_.begin(), table_.end(), key,
      [](const RunTableEntry& e, const PostingKey& k) { return e.key < k; });
  return it == table_.end() || it->key != key ? nullptr : &*it;
}

std::span<const std::uint8_t> RunFile::raw_blob(const RunTableEntry& e) const {
  HET_CHECK(e.offset <= blobs_.size() && e.bytes <= blobs_.size() - e.offset);
  return {blobs_.data() + e.offset, e.bytes};
}

void index_directory_write(const std::string& path,
                           const std::vector<IndexDirectoryEntry>& entries) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(kDirMagic);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.str(e.file);
    w.u32(e.run_id);
    w.u32(e.min_doc);
    w.u32(e.max_doc);
  }
  write_file(path, out);
}

Expected<std::vector<IndexDirectoryEntry>> index_directory_read(const std::string& path) {
  auto read = io::env().read_file(path);
  if (!read.has_value()) return read.error();
  const auto data = std::move(read).value();
  const auto corrupt = [&path](const char* what) {
    return Error{ErrorCode::kCorrupt, "run directory " + path + ": " + what};
  };
  ByteReader r(data);
  if (r.remaining() < 8 || r.u32() != kDirMagic) {
    return corrupt("not a hetindex run directory (bad magic)");
  }
  // An entry is at least its name length and three u32 fields.
  constexpr std::size_t kMinEntryBytes = 16;
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / kMinEntryBytes) return corrupt("count runs past the end of the file");
  std::vector<IndexDirectoryEntry> entries(count);
  for (auto& e : entries) {
    // The name's length, the name and three u32 fields must all fit.
    if (r.remaining() < kMinEntryBytes) return corrupt("entry runs past the end of the file");
    const std::uint32_t name_bytes = r.u32();
    if (name_bytes > r.remaining() - 12) return corrupt("entry runs past the end of the file");
    e.file.resize(name_bytes);
    r.bytes(e.file.data(), name_bytes);
    e.run_id = r.u32();
    e.min_doc = r.u32();
    e.max_doc = r.u32();
  }
  return entries;
}

}  // namespace hetindex
