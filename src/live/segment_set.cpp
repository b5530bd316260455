#include "live/segment_set.hpp"

#include <algorithm>
#include <limits>

#include "io/env.hpp"
#include "postings/cursor.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"

namespace hetindex {

LiveSegment::LiveSegment(std::uint64_t id, std::uint32_t doc_base,
                         std::uint32_t doc_count, SegmentReader reader,
                         std::optional<DocMap> doc_map, std::string seg_path,
                         std::string map_path)
    : id_(id),
      doc_base_(doc_base),
      doc_count_(doc_count),
      reader_(std::move(reader)),
      doc_map_(std::move(doc_map)),
      seg_path_(std::move(seg_path)),
      map_path_(std::move(map_path)) {}

Expected<std::shared_ptr<LiveSegment>> LiveSegment::open(const std::string& dir,
                                                         std::uint64_t segment_id,
                                                         std::uint32_t doc_base,
                                                         std::uint32_t doc_count) {
  std::string seg_path = live_segment_path(dir, segment_id);
  auto reader = SegmentReader::try_open(seg_path);
  if (!reader.has_value()) return reader.error();
  std::string map_path = live_docmap_path(dir, segment_id);
  std::optional<DocMap> map;
  if (file_exists(map_path)) map = DocMap::open(map_path);
  return std::shared_ptr<LiveSegment>(
      new LiveSegment(segment_id, doc_base, doc_count, std::move(reader).value(),
                      std::move(map), std::move(seg_path), std::move(map_path)));
}

LiveSegment::~LiveSegment() {
  if (!obsolete_.load(std::memory_order_acquire)) return;
  // Last reference to a compacted-away segment: reclaim its files — best
  // effort, the manifest no longer names them. Through the Env so the
  // crash harness sees the unlinks in the write trace. The mapping is
  // closed by the member destructors running after this body.
  (void)io::env().remove_file(seg_path_);
  (void)io::env().remove_file(map_path_);
}

namespace {
/// Monotone process-wide snapshot identity; see LiveSnapshot::snapshot_id().
std::atomic<std::uint64_t> g_next_snapshot_id{1};
}  // namespace

LiveSnapshot::LiveSnapshot(std::vector<std::shared_ptr<LiveSegment>> segments,
                           std::shared_ptr<const MemtableView> memtable,
                           std::shared_ptr<const TombstoneSet> tombstones)
    : segments_(std::move(segments)),
      memtable_(std::move(memtable)),
      tombstones_(std::move(tombstones)),
      snapshot_id_(g_next_snapshot_id.fetch_add(1, std::memory_order_relaxed)) {
  std::sort(segments_.begin(), segments_.end(),
            [](const auto& a, const auto& b) { return a->doc_base() < b->doc_base(); });
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (i > 0) {
      const auto& prev = *segments_[i - 1];
      HET_CHECK_MSG(prev.doc_base() + prev.doc_count() <= segments_[i]->doc_base(),
                    "live segments must cover disjoint ascending doc ranges");
    }
    total_docs_ += segments_[i]->doc_count();
  }
  if (memtable_ != nullptr) {
    if (memtable_->doc_count() == 0) {
      memtable_ = nullptr;  // an empty view contributes nothing
    } else {
      HET_CHECK_MSG(segments_.empty() ||
                        segments_.back()->doc_base() + segments_.back()->doc_count() <=
                            memtable_->doc_base(),
                    "memtable doc range must follow every committed segment");
      total_docs_ += memtable_->doc_count();
    }
  }
  if (tombstones_ != nullptr) {
    // Clamp to this snapshot's id space: a tombstone for a memtable doc the
    // writer has assigned but not published here must not skew the count.
    deleted_docs_ = tombstones_->count_below(total_docs_);
  }
}

LiveSnapshot::TokenStats LiveSnapshot::token_stats() const {
  // Exact integer arithmetic throughout (token counts are uint32s; the
  // sums stay far below 2^53): subtracting a reclaimed doc's tokens yields
  // the bit-identical avgdl a fresh build of the survivors would compute.
  TokenStats stats;
  for (const auto& seg : segments_) {
    const DocMap* map = seg->doc_map();
    if (map == nullptr || map->doc_count() == 0) continue;
    stats.token_sum += map->token_sum();
    stats.live_docs += map->doc_count();
    if (tombstones_ != nullptr) {
      tombstones_->for_each_in_range(seg->doc_base(), seg->doc_count(),
                                     [&](std::uint32_t doc) {
                                       if (!map->contains(doc)) return;
                                       stats.token_sum -= map->location(doc).token_count;
                                       --stats.live_docs;
                                     });
    }
  }
  if (memtable_ != nullptr) {
    stats.token_sum += memtable_->token_sum();
    stats.live_docs += memtable_->doc_count();
    if (tombstones_ != nullptr) {
      tombstones_->for_each_in_range(memtable_->doc_base(), memtable_->doc_count(),
                                     [&](std::uint32_t doc) {
                                       stats.token_sum -= memtable_->doc_tokens(doc);
                                       --stats.live_docs;
                                     });
    }
  }
  return stats;
}

double LiveSnapshot::average_doc_tokens() const {
  const TokenStats stats = token_stats();
  return stats.live_docs == 0 ? 0.0
                              : static_cast<double>(stats.token_sum) /
                                    static_cast<double>(stats.live_docs);
}

std::optional<QueryPostings> LiveSnapshot::lookup(std::string_view term) const {
  QueryPostings out;
  bool found = false;
  // Segments are doc_base-ascending and doc-disjoint (memtable docs above
  // them all), so appending per-part results in order yields one globally
  // sorted list.
  for (const auto& seg : segments_) {
    const auto ordinal = seg->reader().find(term);
    if (!ordinal) continue;
    found = true;
    seg->reader().decode(seg->reader().meta(*ordinal), out.doc_ids, out.tfs,
                         &out.positions);
  }
  if (memtable_ != nullptr && memtable_->lookup(term, out)) found = true;
  if (!found) return std::nullopt;
  return out;
}

std::unique_ptr<PostingsCursor> LiveSnapshot::open_cursor(std::string_view term,
                                                          bool with_positions) const {
  std::vector<std::unique_ptr<PostingsCursor>> parts;
  for (const auto& seg : segments_) {
    const auto ordinal = seg->reader().find(term);
    if (!ordinal) continue;
    const auto blob = seg->reader().raw_blob(seg->reader().meta(*ordinal));
    const auto rows = seg->reader().skip_rows(*ordinal);
    // The pin keeps the mapping alive even if compaction obsoletes the
    // segment while a cursor is outstanding. Positions come for free: the
    // segment cursor re-decodes its current block on demand.
    parts.push_back(make_segment_cursor(blob.first, blob.second, rows.data(), rows.size(), seg));
  }
  if (memtable_ != nullptr) {
    if (auto part = memtable_->open_cursor(term, with_positions)) {
      parts.push_back(std::move(part));
    }
  }
  if (parts.empty()) return nullptr;
  if (parts.size() == 1) return std::move(parts.front());
  return make_concat_cursor(std::move(parts));
}

BloomChain LiveSnapshot::bloom_chain(std::string_view term) const {
  BloomChain chain;
  for (const auto& seg : segments_) {
    if (seg->doc_count() == 0) continue;
    chain.add_link({seg->doc_base(), seg->doc_base() + seg->doc_count() - 1, &seg->reader(),
                    seg->reader().find(term)});
  }
  return chain;
}

std::optional<QueryPostings> LiveSnapshot::lookup_range(
    std::string_view term, std::uint32_t min_doc, std::uint32_t max_doc,
    std::size_t* segments_touched) const {
  if (segments_touched) *segments_touched = 0;
  QueryPostings out;
  bool found = false;
  for (const auto& seg : segments_) {
    // Segment-level narrowing first: skip without even a dictionary probe.
    if (seg->doc_count() > 0 &&
        (seg->doc_base() > max_doc || seg->doc_base() + seg->doc_count() - 1 < min_doc)) {
      continue;
    }
    const auto ordinal = seg->reader().find(term);
    if (!ordinal) continue;
    found = true;
    const auto m = seg->reader().meta(*ordinal);
    if (m.max_doc < min_doc || m.min_doc > max_doc) continue;  // per-term narrowing
    if (segments_touched) ++*segments_touched;
    QueryPostings raw;
    seg->reader().decode(m, raw.doc_ids, raw.tfs);
    for (std::size_t i = 0; i < raw.doc_ids.size(); ++i) {
      if (raw.doc_ids[i] >= min_doc && raw.doc_ids[i] <= max_doc) {
        out.doc_ids.push_back(raw.doc_ids[i]);
        out.tfs.push_back(raw.tfs[i]);
      }
    }
  }
  if (!found) return std::nullopt;
  return out;
}

void LiveSnapshot::for_each_term(const std::function<bool(std::string_view)>& fn) const {
  // K-way cursor merge with dedup: a term indexed before and after a flush
  // boundary appears in several segments (and possibly the memtable) but
  // is reported once. The memtable contributes a pre-sorted term list
  // merged in as one more way.
  std::vector<std::string> mem_terms;
  if (memtable_ != nullptr) {
    memtable_->for_each_term([&](std::string_view t) { mem_terms.emplace_back(t); });
  }
  std::size_t mem_at = 0;
  std::vector<SegmentReader::TermCursor> cursors;
  cursors.reserve(segments_.size());
  for (const auto& seg : segments_) cursors.emplace_back(seg->reader());
  while (true) {
    const std::string* min_term = nullptr;
    for (const auto& c : cursors) {
      if (c.valid() && (min_term == nullptr || c.term() < *min_term)) {
        min_term = &c.term();
      }
    }
    if (mem_at < mem_terms.size() &&
        (min_term == nullptr || mem_terms[mem_at] < *min_term)) {
      min_term = &mem_terms[mem_at];
    }
    if (min_term == nullptr) return;
    const std::string term = *min_term;
    if (!fn(term)) return;
    for (auto& c : cursors) {
      while (c.valid() && c.term() == term) c.next();
    }
    if (mem_at < mem_terms.size() && mem_terms[mem_at] == term) ++mem_at;
  }
}

std::uint64_t LiveSnapshot::term_count() const {
  std::uint64_t n = 0;
  for_each_term([&](std::string_view) {
    ++n;
    return true;
  });
  return n;
}

std::vector<std::string> LiveSnapshot::terms_with_prefix(std::string_view prefix) const {
  std::vector<std::string> out;
  for (const auto& seg : segments_) {
    auto part = seg->reader().terms_with_prefix(prefix);
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  if (memtable_ != nullptr) {
    auto part = memtable_->terms_with_prefix(
        prefix, std::numeric_limits<std::size_t>::max());
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<DocLocation> LiveSnapshot::locate(std::uint32_t doc_id) const {
  if (is_deleted(doc_id)) return std::nullopt;
  for (const auto& seg : segments_) {
    const DocMap* map = seg->doc_map();
    if (map != nullptr && map->contains(doc_id)) return map->location(doc_id);
  }
  if (memtable_ != nullptr) return memtable_->locate(doc_id);
  return std::nullopt;
}

Expected<std::shared_ptr<const LiveSnapshot>> snapshot_from_manifest(
    const std::string& dir, const Manifest& m) {
  std::vector<std::shared_ptr<LiveSegment>> segments;
  segments.reserve(m.entries.size());
  for (const auto& e : m.entries) {
    auto seg = LiveSegment::open(dir, e.segment_id, e.doc_base, e.doc_count);
    if (!seg.has_value()) return seg.error();
    segments.push_back(std::move(seg).value());
  }
  std::shared_ptr<const TombstoneSet> tombstones;
  if (m.tombstone_gen != 0) {
    auto set = tombstones_read(dir, m.tombstone_gen);
    if (!set.has_value()) {
      // The manifest committed this generation, so its absence or damage
      // means deletes could resurrect — refuse to serve.
      return Error{ErrorCode::kCorrupt,
                   "committed tombstone generation unreadable: " + set.error().message};
    }
    tombstones = std::make_shared<const TombstoneSet>(std::move(set).value());
  }
  return std::make_shared<const LiveSnapshot>(std::move(segments), nullptr,
                                              std::move(tombstones));
}

Expected<LiveIndex> LiveIndex::open(const std::string& dir) {
  auto manifest = manifest_read(dir);
  if (!manifest.has_value()) return manifest.error();
  auto snap = snapshot_from_manifest(dir, manifest.value());
  if (!snap.has_value()) return snap.error();
  LiveIndex idx(dir);
  idx.snap_ = std::move(snap).value();
  return idx;
}

}  // namespace hetindex
