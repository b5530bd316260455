#include "postings/segment.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <thread>

#include "codec/front_coding.hpp"
#include "io/env.hpp"
#include "live/tombstones.hpp"
#include "postings/bloom.hpp"
#include "postings/query.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/thread_pool.hpp"

namespace hetindex {
namespace {

constexpr std::uint32_t kSegmentMagic = 0x47455348;        // "HSEG"
constexpr std::uint32_t kSegmentFooterMagic = 0x544F4F46;  // "FOOT"
constexpr std::uint32_t kSegmentVersion = 2;
constexpr std::size_t kHeaderBytes = 112;
constexpr std::size_t kFooterBytes = 16;
constexpr std::size_t kTableRowBytes = 28;
constexpr std::size_t kSkipRowBytes = 16;
/// Dictionary ranges a build fold splits into. Fixed rather than derived
/// from the host, so every machine runs (and every test exercises) the same
/// range join; the pool spreads them over min(cores, ranges) threads.
constexpr std::size_t kFoldRanges = 16;

}  // namespace

SegmentWriter::SegmentWriter(std::string path, PostingCodec codec,
                             std::uint32_t terms_per_block)
    : path_(std::move(path)), codec_(codec), terms_per_block_(terms_per_block) {
  HET_CHECK_MSG(terms_per_block_ >= 1, "segment block size must be >= 1");
}

void SegmentWriter::add_postings(std::string_view term, std::span<const std::uint32_t> docs,
                                 std::span<const std::uint32_t> tfs,
                                 std::span<const std::uint32_t> positions) {
  HET_CHECK(!finalized_);
  HET_CHECK_MSG(term_count_ == 0 || prev_term_ < term,
                "segment terms must be sorted and unique");
  HET_CHECK_MSG(!docs.empty(), "segment terms must have postings");
  std::vector<PostingBlockEntry> rows;
  const auto blob = encode_postings_blocked(codec_, docs, tfs, positions, &rows);
  HET_CHECK(blob.size() <= 0xFFFFFFFFull && docs.size() <= 0xFFFFFFFFull);

  // One skip row and one Bloom filter per block. Row offsets are not
  // stored: the reader re-derives them from the sizes.
  BasicByteWriter sw(skip_);
  std::size_t at = 0;
  for (const PostingBlockEntry& row : rows) {
    sw.u32(row.bytes);
    sw.u32(row.last_doc);
    sw.u32(row.count);
    sw.u32(row.max_tf);
    append_bloom_filter(docs.data() + at, row.count, blooms_);
    at += row.count;
  }
  const std::uint32_t min_doc = docs.front();
  const std::uint32_t max_doc = docs.back();

  BasicByteWriter tw(table_);
  tw.u64(blobs_.size());
  tw.u32(static_cast<std::uint32_t>(blob.size()));
  tw.u32(static_cast<std::uint32_t>(docs.size()));
  tw.u32(min_doc);
  tw.u32(max_doc);
  tw.u32(static_cast<std::uint32_t>(rows.size()));
  blobs_.insert(blobs_.end(), blob.begin(), blob.end());

  BasicByteWriter dw(dict_);
  if (block_fill_ == 0) {
    // Block leader: stored verbatim so the reader's block index can point a
    // string_view straight at the mapping.
    dw.u32(static_cast<std::uint32_t>(term.size()));
    dw.bytes(term.data(), term.size());
  } else {
    const std::size_t shared = common_prefix_length(prev_term_, term);
    vbyte_encode(shared, dict_);
    vbyte_encode(term.size() - shared, dict_);
    dw.bytes(term.data() + shared, term.size() - shared);
  }
  block_fill_ = (block_fill_ + 1) % terms_per_block_;

  prev_term_.assign(term);
  min_doc_ = std::min(min_doc_, min_doc);
  max_doc_ = std::max(max_doc_, max_doc);
  ++term_count_;
}

void SegmentWriter::append(SegmentWriter&& other) {
  HET_CHECK(!finalized_ && !other.finalized_);
  HET_CHECK_MSG(codec_ == other.codec_ && terms_per_block_ == other.terms_per_block_,
                "appended segment writers must share codec and block geometry");
  other.finalized_ = true;  // consumed: its sections move here
  if (other.term_count_ == 0) return;
  HET_CHECK_MSG(block_fill_ == 0, "segment append must start at a dictionary block boundary");
  // `other`'s dictionary opens with a block leader: u32 length + verbatim bytes.
  std::uint32_t first_len = 0;
  std::memcpy(&first_len, other.dict_.data(), 4);
  const std::string_view first(reinterpret_cast<const char*>(other.dict_.data() + 4), first_len);
  HET_CHECK_MSG(term_count_ == 0 || prev_term_ < first, "segment terms must be sorted and unique");

  // Table rows are the one section that points into another: shift each
  // row's leading u64 blob offset by the blob bytes already held here.
  const std::uint64_t shift = blobs_.size();
  for (std::size_t row = 0; row < other.table_.size(); row += kTableRowBytes) {
    std::uint64_t offset = 0;
    std::memcpy(&offset, other.table_.data() + row, 8);
    offset += shift;
    std::memcpy(other.table_.data() + row, &offset, 8);
  }
  for (auto [to, from] : {std::pair{&dict_, &other.dict_}, std::pair{&table_, &other.table_},
                          std::pair{&skip_, &other.skip_}, std::pair{&blooms_, &other.blooms_},
                          std::pair{&blobs_, &other.blobs_}}) {
    to->insert(to->end(), from->begin(), from->end());
    PageBytes().swap(*from);  // release `other`'s copy now
  }
  term_count_ += other.term_count_;
  block_fill_ = other.block_fill_;
  prev_term_ = std::move(other.prev_term_);
  min_doc_ = std::min(min_doc_, other.min_doc_);
  max_doc_ = std::max(max_doc_, other.max_doc_);
}

Expected<std::uint64_t> SegmentWriter::finalize() {
  HET_CHECK(!finalized_);
  finalized_ = true;

  std::vector<std::uint8_t> header;
  header.reserve(kHeaderBytes);
  ByteWriter w(header);
  w.u32(kSegmentMagic);
  w.u32(kSegmentVersion);
  w.u8(static_cast<std::uint8_t>(codec_));
  w.u8(0);   // reserved
  w.u16(0);  // reserved
  w.u32(terms_per_block_);
  w.u64(term_count_);
  w.u32(term_count_ == 0 ? 0 : min_doc_);
  w.u32(term_count_ == 0 ? 0 : max_doc_);
  // Sections back to back, each as (offset, bytes).
  const PageBytes* sections[] = {&dict_, &table_, &skip_, &blooms_, &blobs_};
  std::uint64_t at = kHeaderBytes;
  for (const auto* section : sections) {
    w.u64(at);
    w.u64(section->size());
    at += section->size();
  }
  HET_CHECK(header.size() == kHeaderBytes);

  // The file goes out straight from the section buffers: no second copy of
  // the segment in memory. The CRC chains over the same bytes in order.
  std::uint32_t crc = crc32(header.data(), header.size());
  for (const auto* section : sections) crc = crc32(section->data(), section->size(), crc);
  const std::uint64_t total = at + kFooterBytes;
  std::vector<std::uint8_t> footer;
  ByteWriter fw(footer);
  fw.u64(total);
  fw.u32(crc);
  fw.u32(kSegmentFooterMagic);
  std::vector<std::span<const std::uint8_t>> parts{header};
  for (const auto* section : sections) parts.emplace_back(*section);
  parts.emplace_back(footer);
  // Durable before anything references it: a manifest must never commit a
  // segment whose bytes could still be lost to a crash.
  auto written = io::durable_write_file(path_, parts);
  if (!written.has_value()) return written.error();
  return total;
}

Expected<SegmentReader> SegmentReader::try_open(const std::string& path) {
  const auto corrupt = [&path](const char* what) {
    return Error{ErrorCode::kCorrupt, std::string(what) + ": " + path};
  };
  if (!file_exists(path)) {
    return Error{ErrorCode::kNotFound, "cannot open segment file: " + path};
  }
  SegmentReader r;
  auto file = MmapFile::try_open(path);
  if (!file.has_value()) return file.error();
  r.file_ = std::move(file).value();
  const std::uint8_t* data = r.file_.data();
  const std::size_t n = r.file_.size();
  if (n < 8 + kFooterBytes) return corrupt("segment file too small (truncated?)");

  // Footer first: it guards everything else, including the header.
  ByteReader fr(data + (n - kFooterBytes), kFooterBytes);
  const std::uint64_t total = fr.u64();
  const std::uint32_t crc = fr.u32();
  if (fr.u32() != kSegmentFooterMagic) return corrupt("bad segment footer magic");
  if (total != n) return corrupt("segment file truncated (size mismatch with footer)");
  if (crc32(data, n - kFooterBytes) != crc) {
    return corrupt("segment file corruption (crc mismatch)");
  }

  ByteReader h(data, n - kFooterBytes);
  if (h.u32() != kSegmentMagic) return corrupt("not a hetindex segment file");
  const std::uint32_t version = h.u32();
  if (version == 1) {
    return Error{ErrorCode::kUnsupported,
                 "segment format v1 is no longer served (v2 stores the skip table and "
                 "Bloom filters inside the segment); upgrade a batch index with "
                 "`hetindex_cli compact <dir>`, which re-folds index.seg from its run "
                 "files: " +
                     path};
  }
  if (version != kSegmentVersion) {
    return Error{ErrorCode::kUnsupported, "unsupported segment version: " + path};
  }
  if (n < kHeaderBytes + kFooterBytes) return corrupt("segment file too small (truncated?)");
  const std::uint8_t codec_byte = h.u8();
  if (codec_byte > static_cast<std::uint8_t>(PostingCodec::kBitPacked)) {
    return Error{ErrorCode::kUnsupported, "unknown segment posting codec: " + path};
  }
  r.codec_ = static_cast<PostingCodec>(codec_byte);
  h.skip(3);  // reserved
  r.terms_per_block_ = h.u32();
  if (r.terms_per_block_ < 1) return corrupt("segment block size must be >= 1");
  r.term_count_ = h.u64();
  r.min_doc_ = h.u32();
  r.max_doc_ = h.u32();
  // Sections must sit back to back from the header to the footer; each
  // size is bounded first so no sum below can wrap.
  const std::uint64_t payload_end = n - kFooterBytes;
  std::uint64_t offsets[5], sizes[5];
  std::uint64_t expect = kHeaderBytes;
  for (int i = 0; i < 5; ++i) {
    offsets[i] = h.u64();
    sizes[i] = h.u64();
    if (offsets[i] != expect || sizes[i] > payload_end - expect) {
      return corrupt("segment section out of bounds");
    }
    expect += sizes[i];
  }
  if (expect != payload_end) return corrupt("segment section out of bounds");
  r.dict_off_ = offsets[0];
  r.dict_bytes_ = sizes[0];
  r.table_off_ = offsets[1];
  r.table_bytes_ = sizes[1];
  r.bloom_off_ = offsets[3];
  r.blob_off_ = offsets[4];
  r.blob_bytes_ = sizes[4];
  if (r.table_bytes_ % kTableRowBytes != 0 || r.table_bytes_ / kTableRowBytes != r.term_count_ ||
      sizes[2] % kSkipRowBytes != 0) {
    return corrupt("segment section out of bounds");
  }

  // One pass over the dictionary builds the sparse block index; term bytes
  // themselves stay in the mapping. Truncated coded terms and shared
  // prefixes longer than the previous term are structural defects of the
  // file — report kCorrupt so TermCursor and find() (which reuse the
  // offsets validated here) never walk past the section.
  const std::uint8_t* dict = r.dict_data();
  std::size_t pos = 0;
  r.blocks_.reserve(static_cast<std::size_t>(
      (r.term_count_ + r.terms_per_block_ - 1) / r.terms_per_block_));
  for (std::uint64_t base = 0; base < r.term_count_; base += r.terms_per_block_) {
    if (pos + 4 > r.dict_bytes_) return corrupt("segment dictionary truncated");
    std::uint32_t first_len = 0;
    std::memcpy(&first_len, dict + pos, 4);
    pos += 4;
    if (first_len > r.dict_bytes_ - pos) return corrupt("segment dictionary truncated");
    Block b;
    b.first = std::string_view(reinterpret_cast<const char*>(dict + pos), first_len);
    pos += first_len;
    b.coded_pos = pos;
    b.base = base;
    std::uint64_t prev_len = first_len;
    const std::uint64_t in_block = std::min<std::uint64_t>(r.terms_per_block_,
                                                           r.term_count_ - base);
    for (std::uint64_t i = 1; i < in_block; ++i) {
      std::uint64_t shared = 0, suffix = 0;
      if (!vbyte_try_decode(dict, r.dict_bytes_, pos, shared) ||
          !vbyte_try_decode(dict, r.dict_bytes_, pos, suffix) || suffix > r.dict_bytes_ - pos) {
        return corrupt("segment dictionary truncated");
      }
      if (shared > prev_len) return corrupt("segment dictionary shared prefix too long");
      pos += suffix;
      prev_len = shared + suffix;
    }
    r.blocks_.push_back(b);
  }
  if (pos != r.dict_bytes_) return corrupt("segment dictionary truncated");

  // One pass over the table and the skip rows: every term's rows must tile
  // its blob in doc order and agree with its table row, the blobs must
  // tile the blob area, and the filters sized from the rows must fill the
  // bloom section exactly. A cursor then never meets a row it cannot trust.
  ByteReader table(data + r.table_off_, r.table_bytes_);
  ByteReader skip(data + offsets[2], sizes[2]);
  r.rows_.reserve(static_cast<std::size_t>(sizes[2] / kSkipRowBytes));
  r.term_rows_.reserve(static_cast<std::size_t>(r.term_count_ + 1));
  r.row_filters_.reserve(r.rows_.capacity() + 1);
  r.term_rows_.push_back(0);
  r.row_filters_.push_back(0);
  std::uint64_t blob_at = 0, filter_at = 0;
  for (std::uint64_t ord = 0; ord < r.term_count_; ++ord) {
    const std::uint64_t offset = table.u64();
    const std::uint32_t bytes = table.u32();
    const std::uint32_t count = table.u32();
    const std::uint32_t min_doc = table.u32();
    const std::uint32_t max_doc = table.u32();
    const std::uint32_t n_rows = table.u32();
    if (offset != blob_at || bytes == 0 || n_rows == 0 || min_doc > max_doc ||
        n_rows > skip.remaining() / kSkipRowBytes) {
      return corrupt("segment table row inconsistent");
    }
    std::uint64_t row_bytes = 0, row_docs = 0;
    for (std::uint32_t i = 0; i < n_rows; ++i) {
      PostingBlockEntry row;
      row.offset = row_bytes;
      row.bytes = skip.u32();
      row.last_doc = skip.u32();
      row.count = skip.u32();
      row.max_tf = skip.u32();
      const bool ascends =
          i == 0 ? row.last_doc >= min_doc : row.last_doc > r.rows_.back().last_doc;
      if (row.bytes == 0 || row.count == 0 || row.max_tf == 0 || !ascends) {
        return corrupt("segment skip rows inconsistent");
      }
      row_bytes += row.bytes;
      row_docs += row.count;
      filter_at += bloom_filter_bytes(row.count);
      r.rows_.push_back(row);
      r.row_filters_.push_back(filter_at);
    }
    if (row_bytes != bytes || row_docs != count || r.rows_.back().last_doc != max_doc) {
      return corrupt("segment skip rows disagree with the table");
    }
    r.term_rows_.push_back(r.rows_.size());
    blob_at += bytes;
  }
  if (blob_at != r.blob_bytes_ || skip.remaining() != 0 || filter_at != sizes[3]) {
    return corrupt("segment sections disagree with the table");
  }
  return r;
}

void SegmentReader::next_term(std::string& cur, std::size_t& pos) const {
  const std::uint8_t* dict = dict_data();
  const std::uint64_t shared = vbyte_decode(dict, dict_bytes_, pos);
  const std::uint64_t suffix = vbyte_decode(dict, dict_bytes_, pos);
  HET_CHECK(shared <= cur.size() && pos + suffix <= dict_bytes_);
  cur.resize(shared);
  cur.append(reinterpret_cast<const char*>(dict + pos), suffix);
  pos += suffix;
}

std::optional<std::uint64_t> SegmentReader::find(std::string_view term) const {
  // Last block whose leader is <= term, then a bounded front-coded scan.
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), term,
      [](std::string_view t, const Block& b) { return t < b.first; });
  if (it == blocks_.begin()) return std::nullopt;
  --it;
  if (it->first == term) return it->base;
  const std::uint64_t in_block = std::min<std::uint64_t>(terms_per_block_,
                                                         term_count_ - it->base);
  std::string cur(it->first);
  std::size_t pos = it->coded_pos;
  for (std::uint64_t i = 1; i < in_block; ++i) {
    next_term(cur, pos);
    if (cur == term) return it->base + i;
    if (cur > term) return std::nullopt;
  }
  return std::nullopt;
}

SegmentReader::PostingsMeta SegmentReader::meta(std::uint64_t ordinal) const {
  HET_CHECK(ordinal < term_count_);
  ByteReader t(file_.data() + table_off_ + ordinal * kTableRowBytes, kTableRowBytes);
  PostingsMeta m;
  m.offset = t.u64();
  m.bytes = t.u32();
  m.count = t.u32();
  m.min_doc = t.u32();
  m.max_doc = t.u32();
  return m;
}

std::span<const PostingBlockEntry> SegmentReader::skip_rows(std::uint64_t ordinal) const {
  HET_CHECK(ordinal < term_count_);
  const auto begin = static_cast<std::size_t>(term_rows_[ordinal]);
  const auto end = static_cast<std::size_t>(term_rows_[ordinal + 1]);
  return {rows_.data() + begin, end - begin};
}

bool SegmentReader::may_contain(std::uint64_t ordinal, std::uint32_t doc) const {
  const auto rows = skip_rows(ordinal);
  // The one block that could hold `doc`: the first whose last_doc >= doc.
  const auto it = std::lower_bound(
      rows.begin(), rows.end(), doc,
      [](const PostingBlockEntry& row, std::uint32_t d) { return row.last_doc < d; });
  if (it == rows.end()) return false;  // past the list's last doc
  const std::uint64_t row = term_rows_[ordinal] + static_cast<std::uint64_t>(it - rows.begin());
  return bloom_may_contain(file_.data() + bloom_off_ + row_filters_[row], it->count, doc);
}

void SegmentReader::decode(const PostingsMeta& m, std::vector<std::uint32_t>& doc_ids,
                           std::vector<std::uint32_t>& tfs,
                           std::vector<std::uint32_t>* positions) const {
  HET_CHECK_MSG(m.offset + m.bytes <= blob_bytes_, "segment blob out of bounds");
  const std::uint8_t* blob = file_.data() + blob_off_ + m.offset;
  // A compacted blob is one or more back-to-back encoded blocks (each a
  // self-describing sub-list starting with an absolute doc id), so they
  // decode in sequence straight out of the mapping.
  std::size_t pos = 0;
  while (pos < m.bytes) pos += decode_postings(blob, m.bytes, doc_ids, tfs, positions, pos);
}

void SegmentReader::scan_from_block(
    std::size_t block_idx,
    const std::function<bool(std::string_view, std::uint64_t)>& fn) const {
  std::string cur;
  for (std::size_t b = block_idx; b < blocks_.size(); ++b) {
    const Block& blk = blocks_[b];
    if (!fn(blk.first, blk.base)) return;
    const std::uint64_t in_block = std::min<std::uint64_t>(terms_per_block_,
                                                           term_count_ - blk.base);
    cur.assign(blk.first);
    std::size_t pos = blk.coded_pos;
    for (std::uint64_t i = 1; i < in_block; ++i) {
      next_term(cur, pos);
      if (!fn(cur, blk.base + i)) return;
    }
  }
}

std::vector<std::string> SegmentReader::terms_with_prefix(std::string_view prefix) const {
  std::vector<std::string> out;
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), prefix,
      [](std::string_view p, const Block& b) { return p < b.first; });
  // The match range can start inside the preceding block (its leader sorts
  // before the prefix but later members may match).
  const std::size_t start = it == blocks_.begin()
                                ? 0
                                : static_cast<std::size_t>(it - blocks_.begin()) - 1;
  scan_from_block(start, [&](std::string_view term, std::uint64_t) {
    const bool matches =
        term.size() >= prefix.size() && term.substr(0, prefix.size()) == prefix;
    if (matches) {
      out.emplace_back(term);
    } else if (term > prefix) {
      return false;  // past the match range in the sorted order
    }
    return true;
  });
  return out;
}

void SegmentReader::for_each_term(
    const std::function<bool(std::string_view, std::uint64_t)>& fn) const {
  scan_from_block(0, fn);
}

std::pair<const std::uint8_t*, std::size_t> SegmentReader::raw_blob(
    const PostingsMeta& m) const {
  HET_CHECK_MSG(m.offset + m.bytes <= blob_bytes_, "segment blob out of bounds");
  return {file_.data() + blob_off_ + m.offset, m.bytes};
}

SegmentReader::TermCursor::TermCursor(const SegmentReader& reader) : reader_(&reader) {
  if (valid()) {
    term_.assign(reader_->blocks_.front().first);
    pos_ = reader_->blocks_.front().coded_pos;
  }
}

void SegmentReader::TermCursor::next() {
  HET_CHECK(valid());
  ++ordinal_;
  if (!valid()) return;
  if (ordinal_ % reader_->terms_per_block_ == 0) {
    // Block boundary: the leader is stored verbatim, not front-coded.
    const Block& blk = reader_->blocks_[ordinal_ / reader_->terms_per_block_];
    term_.assign(blk.first);
    pos_ = blk.coded_pos;
  } else {
    reader_->next_term(term_, pos_);
  }
}

Expected<SegmentMergeStats> merge_segments(const std::vector<const SegmentReader*>& inputs,
                                           const TombstoneSet* dead, PostingCodec codec,
                                           const std::string& out_path) {
  HET_CHECK_MSG(!inputs.empty(), "segment merge requires at least one input");
  // Nothing reaches disk before finalize(); removing `out_path` on every
  // error also clears a stale file an earlier crashed attempt left there.
  const auto fail = [&out_path](Error e) -> Expected<SegmentMergeStats> {
    (void)io::env().remove_file(out_path);
    return e;
  };
  SegmentWriter writer(out_path, codec);

  // K-way cursor merge. K is the merge factor (a handful), so a linear
  // min-scan per output term beats the heap's constant factor.
  std::vector<SegmentReader::TermCursor> cursors;
  cursors.reserve(inputs.size());
  for (const auto* in : inputs) cursors.emplace_back(*in);

  std::vector<std::uint32_t> docs, tfs, positions;
  while (true) {
    const std::string* min_term = nullptr;
    for (const auto& c : cursors) {
      if (c.valid() && (min_term == nullptr || c.term() < *min_term)) {
        min_term = &c.term();
      }
    }
    if (min_term == nullptr) break;
    const std::string term = *min_term;  // cursors advance below; copy first

    // Equal terms decode in input order into one list; doc ranges must
    // ascend across inputs for it to be sorted.
    docs.clear();
    tfs.clear();
    positions.clear();
    for (std::size_t i = 0; i < cursors.size(); ++i) {
      auto& c = cursors[i];
      if (!c.valid() || c.term() != term) continue;
      const auto m = c.meta();
      if (!docs.empty() && m.min_doc <= docs.back()) {
        return fail(Error{ErrorCode::kCorrupt,
                          "segment merge inputs overlap in doc ids at term '" + term +
                              "': " + inputs[i]->path()});
      }
      inputs[i]->decode(m, docs, tfs, &positions);
      c.next();
    }

    // A positional block holds exactly tf positions per posting and a plain
    // one none, so the positions cover the list only when every part
    // carries them; otherwise (and for a codec without positions) the term
    // goes out plain.
    const bool positional =
        codec != PostingCodec::kBitPacked &&
        positions.size() == std::accumulate(tfs.begin(), tfs.end(), std::uint64_t{0});
    if (!positional) positions.clear();

    if (dead != nullptr) {
      // Posting i owns the next tfs[i] positions; compact in place.
      std::size_t kept = 0, pos_in = 0, pos_out = 0;
      for (std::size_t i = 0; i < docs.size(); ++i) {
        const std::uint32_t tf = tfs[i];
        if (!dead->contains(docs[i])) {
          docs[kept] = docs[i];
          tfs[kept] = tf;
          ++kept;
          if (positional) {
            std::copy_n(positions.begin() + static_cast<std::ptrdiff_t>(pos_in), tf,
                        positions.begin() + static_cast<std::ptrdiff_t>(pos_out));
            pos_out += tf;
          }
        }
        pos_in += tf;
      }
      docs.resize(kept);
      tfs.resize(kept);
      positions.resize(pos_out);
      if (docs.empty()) continue;  // every posting was dead: the term vanishes
    }
    writer.add_postings(term, docs, tfs, positions);
  }
  SegmentMergeStats stats;
  stats.terms = writer.term_count();
  auto output_bytes = writer.finalize();
  if (!output_bytes.has_value()) return fail(output_bytes.error());
  stats.output_bytes = output_bytes.value();
  return stats;
}

Expected<SegmentBuildStats> build_segment_from_runs(
    const std::string& dir, const std::vector<DictionaryEntry>& entries,
    const std::vector<IndexDirectoryEntry>& directory) {
  const std::string seg_path = IndexLayout::segment_path(dir);
  // Removing `seg_path` on error also clears a stale file a prior build left.
  const auto fail = [&seg_path](Error e) -> Expected<SegmentBuildStats> {
    (void)io::env().remove_file(seg_path);
    return e;
  };
  std::vector<RunFile> runs;
  runs.reserve(directory.size());
  for (const auto& e : directory) {
    auto run = RunFile::open(dir + "/" + e.file);
    if (!run.has_value()) return fail(run.error());
    runs.push_back(std::move(run).value());
  }
  std::sort(runs.begin(), runs.end(),
            [](const RunFile& a, const RunFile& b) { return a.run_id() < b.run_id(); });
  const PostingCodec codec = runs.empty() ? PostingCodec::kVByte : runs.front().codec();
  for (const auto& run : runs) {
    if (run.codec() != codec) {
      return fail(Error{ErrorCode::kCorrupt,
                        "segment build requires a uniform posting codec: run " +
                            std::to_string(run.run_id()) + " in " + dir});
    }
  }
  HET_CHECK_MSG(std::is_sorted(entries.begin(), entries.end(),
                               [](const DictionaryEntry& a, const DictionaryEntry& b) {
                                 return a.term < b.term;
                               }),
                "segment build requires a sorted dictionary");

  // The §III.F post-processing, driven by the sorted dictionary so terms
  // stream into the writer in final order: per term, decode its run parts
  // in ascending run order (doc order: each part's table min_doc must pass
  // the list so far) into one list, and let add_postings cut the blocks
  // from the whole list.
  //
  // Contiguous dictionary ranges fold into their own writers in parallel.
  // Each range starts on a dictionary block boundary, so its first term is
  // a verbatim block leader and append() joins the parts into exactly the
  // bytes one serial writer would produce.
  const std::size_t blocks =
      (entries.size() + kSegmentTermsPerBlock - 1) / kSegmentTermsPerBlock;
  const std::size_t n_ranges = std::max<std::size_t>(1, std::min(kFoldRanges, blocks));
  struct Part {
    SegmentWriter writer;
    SegmentBuildStats stats;
    std::optional<Error> error;
  };
  std::vector<Part> parts(n_ranges, Part{SegmentWriter(seg_path, codec), {}, {}});
  const auto range_start = [&](std::size_t r) {
    return std::min(entries.size(), r * blocks / n_ranges * kSegmentTermsPerBlock);
  };
  const auto fold_range = [&](std::size_t r) {
    Part& part = parts[r];
    std::vector<std::uint32_t> docs, tfs, positions;
    for (std::size_t t = range_start(r); t < range_start(r + 1); ++t) {
      const DictionaryEntry& de = entries[t];
      const PostingKey key{de.shard, de.handle};
      docs.clear();
      tfs.clear();
      positions.clear();
      for (const auto& run : runs) {
        const RunTableEntry* e = run.entry(key);
        if (e == nullptr) continue;
        if (!docs.empty() && e->min_doc <= docs.back()) {
          part.error = Error{ErrorCode::kCorrupt,
                             "doc ids of term '" + de.term +
                                 "' are not increasing across run files: " + dir};
          return;
        }
        const auto bytes = run.raw_blob(*e);
        for (std::size_t pos = 0; pos < bytes.size();) {
          pos += decode_postings(bytes.data(), bytes.size(), docs, tfs, &positions, pos);
        }
        part.stats.input_bytes += e->bytes;
      }
      if (docs.empty()) {
        part.error = Error{ErrorCode::kCorrupt, "dictionary term '" + de.term +
                                                    "' has no postings in any run file: " + dir};
        return;
      }
      part.writer.add_postings(de.term, docs, tfs, positions);
      part.stats.postings += docs.size();
    }
  };
  ThreadPool(std::min<std::size_t>(n_ranges, std::max(1u, std::thread::hardware_concurrency())))
      .parallel_for(n_ranges, fold_range);

  SegmentBuildStats stats;
  stats.runs = runs.size();
  runs.clear();  // every list is encoded into the parts by now
  SegmentWriter writer(seg_path, codec);
  for (auto& part : parts) {
    if (part.error.has_value()) return fail(*part.error);
    writer.append(std::move(part.writer));
    stats.postings += part.stats.postings;
    stats.input_bytes += part.stats.input_bytes;
  }
  stats.terms = writer.term_count();
  auto output_bytes = writer.finalize();
  if (!output_bytes.has_value()) return fail(output_bytes.error());
  stats.output_bytes = output_bytes.value();
  return stats;
}

Expected<SegmentBuildStats> compact_index(const std::string& dir) {
  const auto entries = dictionary_read(IndexLayout::dictionary_path(dir));
  if (!entries.has_value()) return entries.error();
  const auto directory = index_directory_read(IndexLayout::directory_path(dir));
  if (!directory.has_value()) return directory.error();
  return build_segment_from_runs(dir, entries.value(), directory.value());
}

}  // namespace hetindex
