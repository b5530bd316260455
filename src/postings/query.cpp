#include "postings/query.hpp"

#include <algorithm>

#include "postings/cursor.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace hetindex {

/// One reference per read-path instrument, resolved once at open() so the
/// per-lookup cost is an atomic add or two plus a histogram bucket.
struct InvertedIndex::ReadInstruments {
  obs::Counter& lookups;
  obs::Counter& misses;
  obs::Counter& postings_decoded;
  obs::Counter& bytes_decoded;
  obs::Gauge& bytes_mapped;
  obs::Histo& lookup_micros;

  explicit ReadInstruments(obs::MetricsRegistry& m)
      : lookups(m.counter("query_lookups_total")),
        misses(m.counter("query_lookup_misses_total")),
        postings_decoded(m.counter("query_postings_decoded_total")),
        bytes_decoded(m.counter("query_bytes_decoded_total")),
        bytes_mapped(m.gauge("segment_bytes_mapped")),
        lookup_micros(m.histogram("query_lookup_micros", 0.0, 1024.0, 64)) {}
};

namespace {

/// Feeds the lookup-latency histogram on scope exit (µs).
class LatencyScope {
 public:
  explicit LatencyScope(obs::Histo& hist) : hist_(hist) {}
  LatencyScope(const LatencyScope&) = delete;
  LatencyScope& operator=(const LatencyScope&) = delete;
  ~LatencyScope() { hist_.add(timer_.seconds() * 1e6); }

 private:
  obs::Histo& hist_;
  WallTimer timer_;
};

}  // namespace

InvertedIndex::InvertedIndex()
    : metrics_(std::make_unique<obs::MetricsRegistry>()),
      ins_(std::make_unique<ReadInstruments>(*metrics_)) {}

InvertedIndex::InvertedIndex(InvertedIndex&&) noexcept = default;
InvertedIndex& InvertedIndex::operator=(InvertedIndex&&) noexcept = default;
InvertedIndex::~InvertedIndex() = default;

Expected<InvertedIndex> InvertedIndex::open(const std::string& dir,
                                            const OpenOptions& options) {
  IndexBackend backend = options.backend;
  if (backend == IndexBackend::kAuto) {
    if (file_exists(IndexLayout::segment_path(dir))) {
      backend = IndexBackend::kSegment;
    } else if (file_exists(IndexLayout::dictionary_path(dir))) {
      backend = IndexBackend::kRuns;
    } else {
      return Error{ErrorCode::kNotFound,
                   "no index found under: " + dir + " (neither index.seg nor dictionary.bin)"};
    }
  }

  if (backend == IndexBackend::kSegment) {
    auto segment = SegmentReader::try_open(IndexLayout::segment_path(dir));
    if (!segment.has_value()) return segment.error();
    InvertedIndex idx;
    idx.segment_ = std::make_unique<SegmentReader>(std::move(segment).value());
    idx.ins_->bytes_mapped.set(static_cast<std::int64_t>(idx.segment_->mapped_bytes()));
    return idx;
  }

  // Run-file backend. Presence is the soft-checked part; the loaders keep
  // their hard structural validation (these files carry no CRC).
  if (!file_exists(IndexLayout::dictionary_path(dir))) {
    return Error{ErrorCode::kNotFound,
                 "cannot open index dictionary: " + IndexLayout::dictionary_path(dir)};
  }
  if (!file_exists(IndexLayout::directory_path(dir))) {
    return Error{ErrorCode::kNotFound,
                 "cannot open run directory: " + IndexLayout::directory_path(dir)};
  }
  InvertedIndex idx;
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

const std::vector<DictionaryEntry>& InvertedIndex::entries() const {
  HET_CHECK_MSG(segment_ == nullptr,
                "entries() requires the run-file backend; use for_each_term()");
  return entries_;
}

std::uint64_t InvertedIndex::term_count() const {
  return segment_ != nullptr ? segment_->term_count() : entries_.size();
}

const DictionaryEntry* InvertedIndex::find_entry(std::string_view term) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), term,
      [](const DictionaryEntry& e, std::string_view t) { return e.term < t; });
  if (it == entries_.end() || it->term != term) return nullptr;
  return &*it;
}

std::vector<std::string> InvertedIndex::terms_with_prefix(std::string_view prefix) const {
  if (segment_ != nullptr) return segment_->terms_with_prefix(prefix);
  std::vector<std::string> out;
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), prefix,
      [](const DictionaryEntry& e, std::string_view p) { return e.term < p; });
  for (; it != entries_.end(); ++it) {
    const std::string_view term = it->term;
    if (term.size() < prefix.size() || term.substr(0, prefix.size()) != prefix) break;
    out.emplace_back(term);
  }
  return out;
}

void InvertedIndex::for_each_term(const std::function<void(std::string_view)>& fn) const {
  if (segment_ != nullptr) {
    segment_->for_each_term([&](std::string_view term, std::uint64_t) {
      fn(term);
      return true;
    });
    return;
  }
  for (const auto& e : entries_) fn(e.term);
}

std::optional<QueryPostings> InvertedIndex::lookup_impl(std::string_view term,
                                                        bool positional) const {
  ins_->lookups.add();
  const LatencyScope latency(ins_->lookup_micros);
  QueryPostings out;
  auto* positions = positional ? &out.positions : nullptr;
  if (segment_ != nullptr) {
    const auto ordinal = segment_->find(term);
    if (!ordinal) {
      ins_->misses.add();
      return std::nullopt;
    }
    const auto m = segment_->meta(*ordinal);
    segment_->decode(m, out.doc_ids, out.tfs, positions);
    ins_->postings_decoded.add(m.count);
    ins_->bytes_decoded.add(m.bytes);
    return out;
  }
  const DictionaryEntry* entry = find_entry(term);
  if (entry == nullptr) {
    ins_->misses.add();
    return std::nullopt;
  }
  const PostingKey key{entry->shard, entry->handle};
  for (const auto& run : runs_) run.fetch(key, out.doc_ids, out.tfs, positions);
  ins_->postings_decoded.add(out.doc_ids.size());
  return out;
}

std::optional<QueryPostings> InvertedIndex::lookup(std::string_view term) const {
  return lookup_impl(term, /*positional=*/false);
}

std::unique_ptr<PostingsCursor> InvertedIndex::open_cursor(std::string_view term,
                                                           bool with_positions) const {
  if (segment_ != nullptr) {
    ins_->lookups.add();
    const LatencyScope latency(ins_->lookup_micros);
    const auto ordinal = segment_->find(term);
    if (!ordinal) {
      ins_->misses.add();
      return nullptr;
    }
    const auto blob = segment_->raw_blob(segment_->meta(*ordinal));
    const auto rows = segment_->skip_rows(*ordinal);
    // Zero-copy: decode cost accrues only for the blocks the cursor enters,
    // so nothing is added to the decode counters here.
    return make_segment_cursor(blob.first, blob.second, rows.data(), rows.size(),
                               /*pin=*/nullptr);
  }
  // Run files: serve the identical interface over a decoded list
  // (lookup_impl does the lookup/miss/decode accounting). Positional
  // cursors decode positions with the list.
  auto decoded = lookup_impl(term, /*positional=*/with_positions);
  if (!decoded.has_value() || decoded->doc_ids.empty()) return nullptr;
  return make_decoded_cursor(std::make_shared<const QueryPostings>(std::move(decoded).value()));
}

std::optional<QueryPostings> InvertedIndex::lookup_positional(std::string_view term) const {
  return lookup_impl(term, /*positional=*/true);
}

BloomChain InvertedIndex::bloom_chain(std::string_view term) const {
  BloomChain chain;
  if (segment_ == nullptr) return chain;
  // One segment owns every doc of a batch index, so the single link covers
  // the whole doc-id space.
  chain.add_link({0, 0xFFFFFFFFu, segment_.get(), segment_->find(term)});
  return chain;
}

std::optional<QueryPostings> InvertedIndex::lookup_range(std::string_view term,
                                                         std::uint32_t min_doc,
                                                         std::uint32_t max_doc,
                                                         std::size_t* runs_touched) const {
  ins_->lookups.add();
  const LatencyScope latency(ins_->lookup_micros);
  if (runs_touched) *runs_touched = 0;

  if (segment_ != nullptr) {
    const auto ordinal = segment_->find(term);
    if (!ordinal) {
      ins_->misses.add();
      return std::nullopt;
    }
    QueryPostings out;
    const auto m = segment_->meta(*ordinal);
    // Per-term range narrowing: the table row carries the blob's doc range,
    // so a non-overlapping query skips the decode entirely.
    if (m.max_doc < min_doc || m.min_doc > max_doc) return out;
    if (runs_touched) *runs_touched = 1;
    QueryPostings raw;
    segment_->decode(m, raw.doc_ids, raw.tfs);
    ins_->postings_decoded.add(m.count);
    ins_->bytes_decoded.add(m.bytes);
    for (std::size_t i = 0; i < raw.doc_ids.size(); ++i) {
      if (raw.doc_ids[i] >= min_doc && raw.doc_ids[i] <= max_doc) {
        out.doc_ids.push_back(raw.doc_ids[i]);
        out.tfs.push_back(raw.tfs[i]);
      }
    }
    return out;
  }

  const DictionaryEntry* entry = find_entry(term);
  if (entry == nullptr) {
    ins_->misses.add();
    return std::nullopt;
  }
  QueryPostings raw;
  const PostingKey key{entry->shard, entry->handle};
  for (const auto& run : runs_) {
    if (run.max_doc() < min_doc || run.min_doc() > max_doc) continue;  // range narrowing
    if (runs_touched) ++*runs_touched;
    run.fetch(key, raw.doc_ids, raw.tfs);
  }
  ins_->postings_decoded.add(raw.doc_ids.size());
  QueryPostings out;
  for (std::size_t i = 0; i < raw.doc_ids.size(); ++i) {
    if (raw.doc_ids[i] >= min_doc && raw.doc_ids[i] <= max_doc) {
      out.doc_ids.push_back(raw.doc_ids[i]);
      out.tfs.push_back(raw.tfs[i]);
    }
  }
  return out;
}

}  // namespace hetindex
