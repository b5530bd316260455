#include "live/writer.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/env.hpp"
#include "live/memtable.hpp"
#include "live/tombstones.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace hetindex {
namespace {

/// LSM tier of a segment: tier 0 holds sizes up to tier_base, each next
/// tier doubles the ceiling.
int size_tier(std::uint64_t bytes, std::uint64_t tier_base) {
  int t = 0;
  while (bytes > tier_base) {
    bytes >>= 1;
    ++t;
  }
  return t;
}

/// First window of `merge_factor` adjacent entries worth folding, or
/// {0,0}. Adjacency matters: only doc-contiguous segments may merge, or
/// a term's parts, decoded in input order, would not form one sorted list.
///
/// A window qualifies when the combined bytes land strictly above the
/// deepest input tier — every byte then climbs at least one tier per
/// merge, so a byte is rewritten O(log(total/tier_base)) times over the
/// index's lifetime. All-tier-0 windows are exempt from the climb rule:
/// tiny segments are always worth folding, and such runs collapse to a
/// single entry, so that case terminates too.
std::pair<std::size_t, std::size_t> find_merge_window(
    const std::vector<ManifestEntry>& entries, std::uint32_t merge_factor,
    std::uint64_t tier_base) {
  if (merge_factor < 2 || entries.size() < merge_factor) return {0, 0};
  for (std::size_t start = 0; start + merge_factor <= entries.size(); ++start) {
    std::uint64_t sum = 0;
    int max_tier = 0;
    for (std::size_t i = start; i < start + merge_factor; ++i) {
      sum += entries[i].file_bytes;
      max_tier = std::max(max_tier, size_tier(entries[i].file_bytes, tier_base));
    }
    if (max_tier == 0 || sum > (tier_base << max_tier)) {
      return {start, start + merge_factor};
    }
  }
  return {0, 0};
}

/// One document's distinct terms with their tf and positions: the writer's
/// scratch between the parser's token stream and the memtable, reused
/// across documents so that each term costs one memtable probe per
/// document instead of one per occurrence. An open-addressing table over
/// a term byte buffer; clear() resets only the slots the last document
/// touched.
class DocTermTable {
 public:
  explicit DocTermTable(bool positional) : positional_(positional) {}

  void add(std::string_view term, std::uint32_t position) {
    if ((entries_.size() + 1) * 2 > slots_.size()) grow();
    const std::uint64_t hash = fnv1a(term);
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash & mask;
    std::uint32_t e = slots_[slot];
    while (e != kEmpty && !matches(entries_[e], hash, term)) {
      slot = (slot + 1) & mask;
      e = slots_[slot];
    }
    if (e == kEmpty) {
      e = static_cast<std::uint32_t>(entries_.size());
      slots_[slot] = e;
      entries_.push_back({hash, static_cast<std::uint32_t>(chars_.size()),
                          static_cast<std::uint32_t>(term.size()), 0,
                          static_cast<std::uint32_t>(slot)});
      chars_.insert(chars_.end(), term.begin(), term.end());
    }
    ++entries_[e].tf;
    if (positional_) occurrences_.push_back({e, position});
  }

  /// fn(term, tf, positions) once per distinct term, in first-occurrence
  /// order. Positions are ascending; empty unless positional.
  template <typename Fn>
  void for_each(Fn&& fn) {
    if (positional_) {
      // Counting sort of the occurrences by term: entry e's positions land
      // in [starts_[e], starts_[e] + tf), in stream (= ascending) order.
      starts_.resize(entries_.size());
      std::uint32_t at = 0;
      for (std::size_t e = 0; e < entries_.size(); ++e) {
        starts_[e] = at;
        at += entries_[e].tf;
      }
      positions_.resize(at);
      for (const auto& [e, position] : occurrences_) positions_[starts_[e]++] = position;
    }
    std::uint32_t at = 0;
    for (const Entry& entry : entries_) {
      const std::span<const std::uint32_t> positions =
          positional_ ? std::span<const std::uint32_t>(positions_).subspan(at, entry.tf)
                      : std::span<const std::uint32_t>();
      fn(std::string_view(chars_.data() + entry.offset, entry.len), entry.tf, positions);
      at += entry.tf;
    }
  }

  void clear() {
    for (const Entry& entry : entries_) slots_[entry.slot] = kEmpty;
    entries_.clear();
    chars_.clear();
    occurrences_.clear();
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  struct Entry {
    std::uint64_t hash;
    std::uint32_t offset;  ///< into chars_
    std::uint32_t len;
    std::uint32_t tf;
    std::uint32_t slot;  ///< for clear()
  };
  struct Occurrence {
    std::uint32_t entry;
    std::uint32_t position;
  };

  bool matches(const Entry& entry, std::uint64_t hash, std::string_view term) const {
    return entry.hash == hash && entry.len == term.size() &&
           std::memcmp(chars_.data() + entry.offset, term.data(), term.size()) == 0;
  }

  void grow() {
    slots_.assign(slots_.size() * 2, kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      std::size_t slot = entries_[e].hash & mask;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<std::uint32_t>(e);
      entries_[e].slot = static_cast<std::uint32_t>(slot);
    }
  }

  const bool positional_;
  std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(1024, kEmpty);
  std::vector<Entry> entries_;
  std::vector<char> chars_;
  std::vector<Occurrence> occurrences_;
  std::vector<std::uint32_t> starts_;
  std::vector<std::uint32_t> positions_;
};

}  // namespace

struct IndexWriter::State {
  std::string dir;
  IndexWriterOptions opts;

  obs::MetricsRegistry metrics;
  obs::Counter& flushes = metrics.counter("live_flushes_total");
  obs::Counter& documents = metrics.counter("live_documents_total");
  obs::Counter& flushed_bytes = metrics.counter("live_flushed_bytes_total");
  obs::Counter& deletes = metrics.counter("live_deletes_total");
  obs::Counter& updates = metrics.counter("live_updates_total");
  obs::Counter& compactions = metrics.counter("compactions_total");
  obs::Counter& compaction_bytes = metrics.counter("compaction_bytes_written_total");
  obs::Counter& reclaimed_docs_total = metrics.counter("compaction_reclaimed_docs_total");
  obs::TimeCounter& flush_seconds = metrics.time_counter("live_flush_seconds_total");
  obs::TimeCounter& compaction_seconds = metrics.time_counter("compaction_seconds_total");
  obs::TimeCounter& add_normalize_seconds =
      metrics.time_counter("live_add_normalize_seconds_total");
  obs::TimeCounter& add_memtable_seconds =
      metrics.time_counter("live_add_memtable_seconds_total");
  obs::TimeCounter& add_publish_seconds = metrics.time_counter("live_add_publish_seconds_total");
  obs::Gauge& segments_active = metrics.gauge("live_segments_active");
  obs::Gauge& snapshot_refcount = metrics.gauge("snapshot_refcount");
  obs::Gauge& memtable_docs = metrics.gauge("live_memtable_docs");
  obs::Gauge& memtable_bytes = metrics.gauge("live_memtable_bytes");
  obs::Gauge& memtable_terms = metrics.gauge("live_memtable_terms");
  obs::Gauge& deleted_docs_gauge = metrics.gauge("live_deleted_docs");
  obs::Counter& flush_failures = metrics.counter("live_flush_failures_total");
  obs::Counter& delete_failures = metrics.counter("live_delete_failures_total");
  obs::Counter& compaction_failures = metrics.counter("compaction_failures_total");
  obs::Counter& recovery_dropped = metrics.counter("recovery_dropped_files_total");

  /// Guards the memtable, the tombstone set, the manifest, and commits
  /// (manifest rewrite + snapshot publication). Never held during a
  /// segment merge.
  mutable std::mutex mu;
  Parser parser;
  DocTermTable doc_terms;
  /// The searchable buffer: single writer (this State, under mu), lock-free
  /// readers via the MemtableView each published snapshot carries. Held by
  /// shared_ptr because snapshots (and cursors pinned on them) may outlive
  /// the flush that retires it.
  std::shared_ptr<Memtable> memtable;
  /// Committed tombstones; null until the first delete. Immutable —
  /// every delete batch swaps in a fresh copy-on-write set.
  std::shared_ptr<const TombstoneSet> tombstones;
  std::uint64_t buffered_bytes = 0;  ///< raw body bytes in the memtable
  Manifest manifest;                 ///< committed state
  SegmentSet set;

  /// Serializes merge work (background thread vs compact_now callers).
  std::mutex compaction_mu;
  std::mutex wake_mu;
  std::condition_variable_any wake_cv;
  bool wake = false;
  std::jthread compactor;  ///< last member: joins before the rest dies

  State(std::string d, IndexWriterOptions o)
      : dir(std::move(d)), opts(o), parser(o.parser), doc_terms(o.parser.record_positions) {
    reset_memtable();
  }

  /// Fresh memtable for the next doc range (after open() loads the
  /// manifest, and after every flush). Old memtables stay alive through
  /// the snapshots still viewing them.
  void reset_memtable() {
    memtable = std::make_shared<Memtable>(manifest.next_doc_id, opts.parser.record_positions);
  }

  void kick_compactor() {
    if (!opts.background_compaction) return;
    {
      std::lock_guard wake_lk(wake_mu);
      wake = true;
    }
    wake_cv.notify_one();
  }

  std::uint32_t add_document(const std::string& url, const std::string& body);
  std::uint32_t add_document_locked(const std::string& url, const std::string& body);
  Status delete_documents(const std::vector<std::uint32_t>& ids);
  Status delete_documents_locked(const std::vector<std::uint32_t>& ids);
  Expected<std::uint32_t> update_document(std::uint32_t doc_id, const std::string& url,
                                          const std::string& body);
  Expected<std::uint64_t> flush_locked();
  Status publish_locked();
  Status run_compactions(bool full_reclaim);
  Expected<bool> run_one_compaction(bool full_reclaim);
  /// Removes every on-disk artifact of an uncommitted segment attempt.
  void remove_segment_files(std::uint64_t segment_id) {
    (void)io::env().remove_file(live_segment_path(dir, segment_id));
    (void)io::env().remove_file(live_docmap_path(dir, segment_id));
  }
};

// ---------------------------------------------------------------- open

Expected<IndexWriter> IndexWriter::open(const std::string& dir,
                                        IndexWriterOptions options) {
  std::filesystem::create_directories(dir);
  auto state = std::make_unique<State>(dir, options);

  auto committed = manifest_read(dir);
  if (committed.has_value()) {
    state->manifest = std::move(committed).value();
  } else if (committed.error().code != ErrorCode::kNotFound) {
    return committed.error();  // corrupt manifest: refuse to guess
  }

  // Recovery step 1: a MANIFEST.tmp is a rename that never happened.
  if (io::env().file_exists(manifest_path(dir) + ".tmp")) {
    (void)io::env().remove_file(manifest_path(dir) + ".tmp");
    state->recovery_dropped.add();
  }

  // Recovery step 2: the committed tombstone generation must load — a
  // committed delete never resurrects (kCorrupt otherwise). Bits at or
  // above next_doc_id named memtable documents that died with the crash;
  // those doc ids WILL be reassigned, so truncate the bits away durably
  // before serving, or a reborn id would inherit a stale delete.
  if (state->manifest.tombstone_gen != 0) {
    auto tombs = tombstones_read(dir, state->manifest.tombstone_gen);
    if (!tombs.has_value()) {
      return Error{ErrorCode::kCorrupt, "committed tombstone generation unreadable: " +
                                            tombs.error().message};
    }
    auto full = std::make_shared<const TombstoneSet>(std::move(tombs).value());
    const std::uint64_t durable = full->count_below(state->manifest.next_doc_id);
    if (durable == full->count()) {
      state->tombstones = std::move(full);
    } else {
      std::vector<std::uint32_t> kept;
      kept.reserve(durable);
      full->for_each_in_range(0, state->manifest.next_doc_id,
                              [&](std::uint32_t doc) { kept.push_back(doc); });
      Manifest next = state->manifest;
      std::shared_ptr<const TombstoneSet> truncated;
      if (kept.empty()) {
        next.tombstone_gen = 0;
        next.tombstone_docs = 0;
      } else {
        truncated = TombstoneSet::with(nullptr, kept);
        next.tombstone_gen = state->manifest.tombstone_gen + 1;
        next.tombstone_docs = truncated->count();
        auto written = tombstones_write(dir, next.tombstone_gen, *truncated);
        if (!written.has_value()) return written.error();
      }
      auto recommitted = manifest_write(dir, next);
      if (!recommitted.has_value()) return recommitted.error();
      state->manifest = std::move(next);
      state->tombstones = std::move(truncated);
      state->recovery_dropped.add();
    }
  }

  // Recovery step 3: anything on disk the manifest does not name is a
  // leftover from a crash between a segment write and the manifest rename
  // — drop it. Removals go through the Env so the crash harness sees (and can
  // fault) them, and each one counts in recovery_dropped_files_total.
  std::vector<bool> committed_ids;  // indexed by segment id
  for (const auto& e : state->manifest.entries) {
    if (e.segment_id >= committed_ids.size()) committed_ids.resize(e.segment_id + 1);
    committed_ids[e.segment_id] = true;
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0 && name.find('.') != std::string::npos) {
      const std::uint64_t id = std::strtoull(name.c_str() + 4, nullptr, 10);
      if (id < committed_ids.size() && committed_ids[id]) continue;
      (void)io::env().remove_file(entry.path().string());
      state->recovery_dropped.add();
    } else if (name.rfind("tomb-", 0) == 0) {
      const std::uint64_t gen = std::strtoull(name.c_str() + 5, nullptr, 10);
      if (gen == state->manifest.tombstone_gen) continue;
      (void)io::env().remove_file(entry.path().string());
      state->recovery_dropped.add();
    }
  }

  // The memtable allocated at construction assumed doc base 0; rebase it
  // on the recovered manifest (it is empty — no work is lost).
  state->reset_memtable();

  auto snap = snapshot_from_manifest(dir, state->manifest);
  if (!snap.has_value()) return snap.error();
  state->set.publish(std::move(snap).value());
  state->segments_active.set(static_cast<std::int64_t>(state->manifest.entries.size()));
  state->deleted_docs_gauge.set(
      state->tombstones == nullptr ? 0
                                   : static_cast<std::int64_t>(state->tombstones->count()));

  IndexWriter writer(std::move(state));
  if (options.background_compaction) {
    State* s = writer.state_.get();
    s->compactor = std::jthread([s](std::stop_token st) {
      std::unique_lock lk(s->wake_mu);
      while (true) {
        if (!s->wake_cv.wait(lk, st, [s] { return s->wake; })) return;
        s->wake = false;
        lk.unlock();
        // Failures are absorbed here (counted in compaction_failures_total);
        // the next flush re-kicks the policy, which retries the same window.
        (void)s->run_compactions(/*full_reclaim=*/false);
        lk.lock();
      }
    });
  }
  return writer;
}

IndexWriter::IndexWriter(std::unique_ptr<State> state) : state_(std::move(state)) {}
IndexWriter::IndexWriter(IndexWriter&&) noexcept = default;
IndexWriter& IndexWriter::operator=(IndexWriter&&) noexcept = default;

IndexWriter::~IndexWriter() {
  if (state_ == nullptr) return;
  state_->compactor.request_stop();
  state_->wake_cv.notify_all();
}

// ---------------------------------------------------------------- ingest

std::uint32_t IndexWriter::add_document(const std::string& url, const std::string& body) {
  return state_->add_document(url, body);
}

std::uint32_t IndexWriter::State::add_document(const std::string& url,
                                               const std::string& body) {
  std::lock_guard lk(mu);
  return add_document_locked(url, body);
}

std::uint32_t IndexWriter::State::add_document_locked(const std::string& url,
                                                      const std::string& body) {
  // Normalize: one pass per token, grouped per distinct term. The live and
  // batch paths index the same term stream (DESIGN.md; proved by
  // LiveAddPath.MemtableMatchesBatchParserByteForByte).
  const WallTimer normalize_timer;
  doc_terms.clear();
  const std::uint32_t kept = parser.for_each_term(
      body, [&](std::string_view term, std::uint32_t position) { doc_terms.add(term, position); });
  add_normalize_seconds.add(normalize_timer.seconds());

  // Postings carry absolute doc ids, so segments never renumber: a merge
  // decodes doc-adjacent inputs in order into one sorted list.
  const WallTimer memtable_timer;
  const std::uint32_t doc_id = memtable->begin_document(url);
  doc_terms.for_each([&](std::string_view term, std::uint32_t tf,
                         std::span<const std::uint32_t> positions) {
    memtable->add_posting(term, tf, positions);
  });
  memtable->finish_document(kept);
  buffered_bytes += body.size();
  documents.add();
  add_memtable_seconds.add(memtable_timer.seconds());

  // The document becomes searchable NOW: republish over the same open
  // segments with the memtable watermark advanced past it. Pure in-memory
  // snapshot rebuild — no segment opens, cannot fail.
  const WallTimer publish_timer;
  HET_CHECK(publish_locked().has_value());
  add_publish_seconds.add(publish_timer.seconds());
  if (opts.flush_threshold_bytes > 0 && buffered_bytes >= opts.flush_threshold_bytes) {
    // An auto-flush failure keeps the memtable intact (flush_locked rolls
    // back); the next threshold crossing retries. Counted in
    // live_flush_failures_total — callers wanting the error call flush().
    (void)flush_locked();
  }
  return doc_id;
}

// ---------------------------------------------------------------- mutate

Status IndexWriter::delete_document(std::uint32_t doc_id) {
  return state_->delete_documents({doc_id});
}

Status IndexWriter::delete_documents(const std::vector<std::uint32_t>& ids) {
  return state_->delete_documents(ids);
}

Status IndexWriter::State::delete_documents(const std::vector<std::uint32_t>& ids) {
  std::lock_guard lk(mu);
  return delete_documents_locked(ids);
}

Status IndexWriter::State::delete_documents_locked(const std::vector<std::uint32_t>& ids) {
  const std::uint64_t assigned =
      static_cast<std::uint64_t>(manifest.next_doc_id) + memtable->doc_count();
  for (const std::uint32_t id : ids) {
    if (id >= assigned) {
      return Error{ErrorCode::kInvalidArgument,
                   "delete of unassigned doc id " + std::to_string(id)};
    }
  }
  std::uint64_t newly = 0;
  auto next_set = TombstoneSet::with(tombstones.get(), ids, &newly);
  if (newly == 0) return Unit{};  // all already tombstoned: nothing to commit

  // Write-ahead, like segments: the new generation is durable on disk
  // BEFORE the manifest commit that names it, so a committed delete can
  // never resurrect. On any failure the previous state stays committed.
  const std::uint64_t gen = manifest.tombstone_gen + 1;
  auto fail = [&](Error e) -> Status {
    (void)io::env().remove_file(tombstone_path(dir, gen));
    delete_failures.add();
    return e;
  };
  auto written = tombstones_write(dir, gen, *next_set);
  if (!written.has_value()) return fail(written.error());
  Manifest next = manifest;
  next.tombstone_gen = gen;
  next.tombstone_docs = next_set->count();
  auto recommitted = manifest_write(dir, next);
  if (!recommitted.has_value()) return fail(recommitted.error());

  const std::uint64_t old_gen = manifest.tombstone_gen;
  manifest = std::move(next);
  tombstones = std::move(next_set);
  deletes.add(newly);
  // Same reuse-everything republish as add: cannot fail.
  HET_CHECK(publish_locked().has_value());
  // The superseded generation is garbage — readers hold the decoded bitmap
  // in memory, never the file.
  if (old_gen != 0) (void)io::env().remove_file(tombstone_path(dir, old_gen));
  // Deletes can make a window reclaim-worthy without any flush happening.
  kick_compactor();
  return Unit{};
}

Expected<std::uint32_t> IndexWriter::update_document(std::uint32_t doc_id,
                                                     const std::string& url,
                                                     const std::string& body) {
  return state_->update_document(doc_id, url, body);
}

Expected<std::uint32_t> IndexWriter::State::update_document(std::uint32_t doc_id,
                                                            const std::string& url,
                                                            const std::string& body) {
  std::lock_guard lk(mu);
  // Delete + re-add under one lock: no interleaved writer can observe the
  // gap, and the snapshot published by the re-add carries both effects.
  auto removed = delete_documents_locked({doc_id});
  if (!removed.has_value()) return removed.error();
  updates.add();
  return add_document_locked(url, body);
}

// ---------------------------------------------------------------- flush

Expected<std::uint64_t> IndexWriter::flush() {
  std::lock_guard lk(state_->mu);
  return state_->flush_locked();
}

Expected<std::uint64_t> IndexWriter::State::flush_locked() {
  if (memtable->doc_count() == 0) return std::uint64_t{0};
  const WallTimer timer;

  const std::uint64_t segment_id = manifest.next_segment_id;
  const std::uint32_t doc_base = manifest.next_doc_id;
  HET_CHECK(memtable->doc_base() == doc_base);
  const std::uint32_t flushed_docs = memtable->doc_count();

  // Freeze the memtable at today's watermark and enumerate its terms in
  // sorted order with fully decoded lists. Tombstoned docs flush as-is:
  // the search layer keeps filtering them, compaction reclaims them.
  const MemtableView frozen(memtable);
  SegmentWriter writer(live_segment_path(dir, segment_id), opts.codec);
  frozen.for_each_term_postings([&](std::string_view term,
                                    const std::vector<std::uint32_t>& list_docs,
                                    const std::vector<std::uint32_t>& tfs,
                                    const std::vector<std::uint32_t>& positions) {
    writer.add_postings(term, list_docs, tfs, positions);
  });
  const std::uint64_t term_count = writer.term_count();

  // Any failure from here to the manifest commit rolls back to a clean
  // directory: partial files removed, memtable and committed state
  // untouched, writer still usable. Segment and doc map are both durable
  // (fsynced) BEFORE the commit, so a durable manifest never names data
  // still sitting in the page cache.
  auto fail = [&](Error e) -> Expected<std::uint64_t> {
    remove_segment_files(segment_id);
    flush_failures.add();
    return e;
  };

  auto file_bytes = writer.finalize();
  if (!file_bytes.has_value()) return fail(file_bytes.error());

  std::vector<std::string> urls;
  std::vector<std::uint32_t> doc_tokens;
  urls.reserve(flushed_docs);
  doc_tokens.reserve(flushed_docs);
  for (std::uint32_t doc = doc_base; doc < doc_base + flushed_docs; ++doc) {
    auto loc = frozen.locate(doc);
    HET_CHECK(loc.has_value());
    urls.push_back(std::move(loc->url));
    doc_tokens.push_back(loc->token_count);
  }
  DocMapBuilder maps(doc_base);
  maps.add_file(doc_base, static_cast<std::uint32_t>(segment_id), urls, doc_tokens);
  auto map_written = maps.try_write(live_docmap_path(dir, segment_id));
  if (!map_written.has_value()) return fail(map_written.error());

  // Commit point: manifest rename. A crash before this line leaves stray
  // seg files that the next open() removes; after it, the segment is live.
  Manifest next = manifest;
  next.next_segment_id = segment_id + 1;
  next.next_doc_id = doc_base + flushed_docs;
  next.entries.push_back({segment_id, doc_base, flushed_docs, term_count,
                          file_bytes.value(), /*reclaimed_docs=*/0});
  auto recommitted = manifest_write(dir, next);
  if (!recommitted.has_value()) return fail(recommitted.error());
  manifest = std::move(next);

  // Swap the segment in for the memtable before publishing, so exactly one
  // of the two covers [doc_base, doc_base+flushed_docs) in the new
  // snapshot. The retiring memtable stays alive through older snapshots'
  // views (and any cursors pinning it).
  reset_memtable();
  buffered_bytes = 0;
  auto published = publish_locked();

  flushes.add();
  flushed_bytes.add(file_bytes.value());
  flush_seconds.add(timer.seconds());

  kick_compactor();
  if (!published.has_value()) {
    // The commit is durable — only the in-memory snapshot refresh failed
    // (e.g. the fresh segment would not map). Readers keep the previous
    // snapshot; a reopen serves the new commit.
    return Error{published.error().code,
                 "segment committed but snapshot refresh failed: " +
                     published.error().message};
  }
  return segment_id;
}

/// Rebuilds the published snapshot from the committed manifest + memtable
/// + tombstone set, reusing already-open segments. Caller holds mu. kIo
/// when a freshly committed segment cannot be opened — the previous
/// snapshot stays published. Infallible when every manifest entry is
/// already open (the add/delete republish path).
Status IndexWriter::State::publish_locked() {
  const auto current = set.snapshot();
  std::vector<std::shared_ptr<LiveSegment>> segments;
  segments.reserve(manifest.entries.size());
  for (const auto& e : manifest.entries) {
    std::shared_ptr<LiveSegment> reused;
    for (const auto& seg : current->segments()) {
      if (seg->id() == e.segment_id) {
        reused = seg;
        break;
      }
    }
    if (reused == nullptr) {
      auto opened = LiveSegment::open(dir, e.segment_id, e.doc_base, e.doc_count);
      if (!opened.has_value()) return opened.error();
      reused = std::move(opened).value();
    }
    segments.push_back(std::move(reused));
  }
  // The view freezes the finished-document watermark here, on the writer
  // thread; SegmentSet::publish's release store makes everything below it
  // visible to any thread that acquires the snapshot.
  std::shared_ptr<const MemtableView> view;
  if (memtable->doc_count() > 0) {
    view = std::make_shared<const MemtableView>(memtable);
  }
  snapshot_refcount.set(static_cast<std::int64_t>(current.use_count()));
  set.publish(std::make_shared<const LiveSnapshot>(std::move(segments), std::move(view),
                                                   tombstones));
  segments_active.set(static_cast<std::int64_t>(manifest.entries.size()));
  memtable_docs.set(static_cast<std::int64_t>(memtable->doc_count()));
  memtable_bytes.set(static_cast<std::int64_t>(memtable->bytes_used()));
  memtable_terms.set(static_cast<std::int64_t>(memtable->distinct_terms()));
  deleted_docs_gauge.set(
      tombstones == nullptr ? 0 : static_cast<std::int64_t>(tombstones->count()));
  return Unit{};
}

// ---------------------------------------------------------------- compaction

Status IndexWriter::compact_now() { return state_->run_compactions(/*full_reclaim=*/true); }

Status IndexWriter::State::run_compactions(bool full_reclaim) {
  // Serialized: the background thread and compact_now callers take turns;
  // each pass folds one window, cascading until the tiers are stable.
  std::lock_guard serialize(compaction_mu);
  while (true) {
    auto more = run_one_compaction(full_reclaim);
    if (!more.has_value()) return more.error();
    if (!more.value()) return Unit{};
  }
}

Expected<bool> IndexWriter::State::run_one_compaction(bool full_reclaim) {
  // Pick a window and allocate the output id under mu; the merge itself
  // runs unlocked against immutable inputs.
  std::vector<std::shared_ptr<LiveSegment>> inputs;
  std::uint64_t out_id = 0;
  std::shared_ptr<const TombstoneSet> dead;
  std::uint64_t reclaimed_out = 0;    ///< reclaimed_docs of the output entry
  std::uint64_t newly_reclaimed = 0;  ///< docs this pass physically drops
  {
    std::lock_guard lk(mu);
    auto [begin, end] =
        find_merge_window(manifest.entries, opts.merge_factor, opts.tier_base_bytes);
    if (begin == end && tombstones != nullptr) {
      // No size-tier window — look for a segment worth rewriting purely to
      // reclaim tombstoned docs. Background passes wait until a quarter of
      // the doc range is dead (one delete should not rewrite a big
      // segment); compact_now reclaims everything outstanding.
      for (std::size_t i = 0; i < manifest.entries.size(); ++i) {
        const auto& e = manifest.entries[i];
        const std::uint64_t dead_docs = tombstones->count_in_range(e.doc_base, e.doc_count);
        if (dead_docs <= e.reclaimed_docs) continue;
        if (full_reclaim || (dead_docs - e.reclaimed_docs) * 4 >= e.doc_count) {
          begin = i;
          end = i + 1;
          break;
        }
      }
    }
    if (begin == end) return false;
    const auto snap = set.snapshot();
    std::uint64_t already_reclaimed = 0;
    // Snapshot segments are doc_base-ordered like manifest entries.
    for (std::size_t i = begin; i < end; ++i) {
      HET_CHECK(snap->segments()[i]->id() == manifest.entries[i].segment_id);
      inputs.push_back(snap->segments()[i]);
      const auto& e = manifest.entries[i];
      if (tombstones != nullptr) {
        reclaimed_out += tombstones->count_in_range(e.doc_base, e.doc_count);
      }
      already_reclaimed += e.reclaimed_docs;
    }
    // Every merge reclaims: it drops the postings of every doc tombstoned
    // as of this instant, and the output's reclaimed_docs records that
    // count. Deletes landing during the merge leave the output eligible
    // again.
    newly_reclaimed = reclaimed_out - already_reclaimed;
    dead = tombstones;
    out_id = manifest.next_segment_id++;
  }

  // Any failure before the commit removes the merge output and leaves the
  // committed set untouched; the skipped out_id is harmless (ids just gap).
  auto fail = [&](Error e) -> Expected<bool> {
    remove_segment_files(out_id);
    compaction_failures.add();
    return e;
  };

  const WallTimer timer;
  std::vector<const SegmentReader*> readers;
  readers.reserve(inputs.size());
  for (const auto& seg : inputs) readers.push_back(&seg->reader());
  const auto merged =
      merge_segments(readers, dead.get(), opts.codec, live_segment_path(dir, out_id));
  if (!merged.has_value()) return fail(merged.error());
  const std::uint64_t out_terms = merged.value().terms;
  const std::uint64_t out_bytes = merged.value().output_bytes;

  // Fold the doc maps, preserving per-source spans; ids do not shift (a
  // reclaimed doc keeps its map row — the id stays allocated forever).
  DocMapBuilder maps(inputs.front()->doc_base());
  std::uint32_t doc_count = 0;
  bool have_all_maps = true;
  for (const auto& seg : inputs) {
    doc_count += seg->doc_count();
    if (seg->doc_map() == nullptr) {
      have_all_maps = false;
      continue;
    }
    maps.append(*seg->doc_map());
  }
  if (have_all_maps) {
    auto map_written = maps.try_write(live_docmap_path(dir, out_id));
    if (!map_written.has_value()) return fail(map_written.error());
  }

  // Commit: splice the merged entry over the window. flush() may have
  // appended segments meanwhile, but only this (serialized) code removes
  // entries, so the window is still present, contiguous, by id. The new
  // manifest is built as a candidate and in-memory state only mutates
  // after the commit lands on disk.
  {
    std::lock_guard lk(mu);
    Manifest next = manifest;
    auto& entries = next.entries;
    const auto first = std::find_if(entries.begin(), entries.end(), [&](const auto& e) {
      return e.segment_id == inputs.front()->id();
    });
    HET_CHECK(first != entries.end());
    const auto at = first - entries.begin();
    entries.erase(first, first + static_cast<std::ptrdiff_t>(inputs.size()));
    entries.insert(entries.begin() + at,
                   {out_id, inputs.front()->doc_base(), doc_count, out_terms, out_bytes,
                    reclaimed_out});
    auto recommitted = manifest_write(dir, next);
    if (!recommitted.has_value()) return fail(recommitted.error());
    manifest = std::move(next);
    // Old segments die when the last snapshot holding them drops.
    for (const auto& seg : inputs) seg->mark_obsolete();
    auto published = publish_locked();
    if (!published.has_value()) {
      compaction_failures.add();
      return Error{published.error().code,
                   "merge committed but snapshot refresh failed: " +
                       published.error().message};
    }
  }

  compactions.add();
  compaction_bytes.add(out_bytes);
  if (newly_reclaimed != 0) reclaimed_docs_total.add(newly_reclaimed);
  compaction_seconds.add(timer.seconds());
  return true;
}

// ---------------------------------------------------------------- accessors

std::shared_ptr<const LiveSnapshot> IndexWriter::snapshot() const {
  return state_->set.snapshot();
}

Manifest IndexWriter::manifest() const {
  std::lock_guard lk(state_->mu);
  return state_->manifest;
}

std::uint32_t IndexWriter::committed_docs() const {
  std::lock_guard lk(state_->mu);
  return state_->manifest.next_doc_id;
}

std::uint32_t IndexWriter::buffered_docs() const {
  std::lock_guard lk(state_->mu);
  return state_->memtable->doc_count();
}

std::uint64_t IndexWriter::deleted_docs() const {
  std::lock_guard lk(state_->mu);
  return state_->tombstones == nullptr ? 0 : state_->tombstones->count();
}

const std::string& IndexWriter::dir() const { return state_->dir; }

const obs::MetricsRegistry& IndexWriter::metrics() const { return state_->metrics; }

}  // namespace hetindex
