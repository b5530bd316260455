#include "live/memtable.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace hetindex {

struct Memtable::DocChunk {
  DocMeta docs[kDocChunkCap];
};

Memtable::Memtable(std::uint32_t doc_base, bool positional)
    : arena_(256u << 10),
      doc_base_(doc_base),
      positional_(positional),
      buckets_(new std::atomic<TermNode*>[kBuckets]),
      doc_dir_(new std::atomic<DocChunk*>[kDocDirSlots]) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    buckets_[i].store(nullptr, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kDocDirSlots; ++i) {
    doc_dir_[i].store(nullptr, std::memory_order_relaxed);
  }
}

std::uint32_t Memtable::begin_document(std::string_view url) {
  HET_CHECK(!in_document_);
  const std::uint32_t idx = doc_count_w_;
  HET_CHECK_MSG(idx < kDocDirSlots * kDocChunkCap, "memtable doc directory full");
  const std::uint32_t slot = idx / kDocChunkCap;
  DocChunk* chunk = doc_dir_[slot].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    auto* raw = arena_.pointer(arena_.allocate(sizeof(DocChunk), alignof(DocChunk)));
    chunk = new (raw) DocChunk();
    // Release: a reader's acquire load of the slot must see the zeroed
    // chunk, not uninitialized arena bytes.
    doc_dir_[slot].store(chunk, std::memory_order_release);
  }
  DocMeta& meta = chunk->docs[idx % kDocChunkCap];
  if (!url.empty()) {
    meta.url = reinterpret_cast<const char*>(
        arena_.pointer(arena_.store(url.data(), url.size())));
  }
  meta.url_len = static_cast<std::uint32_t>(url.size());
  current_doc_ = doc_base_ + idx;
  in_document_ = true;
  return current_doc_;
}

void Memtable::finish_document(std::uint32_t token_count) {
  HET_CHECK(in_document_);
  const std::uint32_t idx = doc_count_w_;
  DocChunk* chunk = doc_dir_[idx / kDocChunkCap].load(std::memory_order_relaxed);
  chunk->docs[idx % kDocChunkCap].tokens = token_count;
  token_sum_w_ += token_count;
  in_document_ = false;
  // Only now does the document exist for future views: a view's watermark
  // is the finished count, so a reader never sees half a document.
  ++doc_count_w_;
}

Memtable::PostChunk* Memtable::new_post_chunk(std::uint32_t capacity) {
  auto* raw = arena_.pointer(arena_.allocate(sizeof(PostChunk), alignof(PostChunk)));
  auto* chunk = new (raw) PostChunk();
  chunk->capacity = capacity;
  chunk->docs = reinterpret_cast<std::uint32_t*>(
      arena_.pointer(arena_.allocate(capacity * 4u, alignof(std::uint32_t))));
  chunk->tfs = reinterpret_cast<std::uint32_t*>(
      arena_.pointer(arena_.allocate(capacity * 4u, alignof(std::uint32_t))));
  return chunk;
}

Memtable::PosChunk* Memtable::new_pos_chunk(std::uint32_t capacity) {
  auto* raw = arena_.pointer(arena_.allocate(sizeof(PosChunk), alignof(PosChunk)));
  auto* chunk = new (raw) PosChunk();
  chunk->capacity = capacity;
  chunk->positions = reinterpret_cast<std::uint32_t*>(
      arena_.pointer(arena_.allocate(capacity * 4u, alignof(std::uint32_t))));
  return chunk;
}

Memtable::TermNode* Memtable::find_node(std::string_view term) const {
  const std::size_t bucket = fnv1a(term) & (kBuckets - 1);
  TermNode* node = buckets_[bucket].load(std::memory_order_acquire);
  while (node != nullptr) {
    if (node->term_len == term.size() &&
        std::memcmp(node->term, term.data(), term.size()) == 0) {
      return node;
    }
    node = node->bucket_next.load(std::memory_order_acquire);
  }
  return nullptr;
}

Memtable::TermNode* Memtable::insert_node(std::string_view term, std::size_t bucket) {
  auto* raw = arena_.pointer(arena_.allocate(sizeof(TermNode), alignof(TermNode)));
  auto* node = new (raw) TermNode();
  if (!term.empty()) {
    node->term = reinterpret_cast<const char*>(
        arena_.pointer(arena_.store(term.data(), term.size())));
  }
  node->term_len = static_cast<std::uint32_t>(term.size());
  node->head = node->tail = new_post_chunk(kFirstPostCap);
  if (positional_) node->pos_head = node->pos_tail = new_pos_chunk(kFirstPosCap);
  // Link last, with release: once a reader can reach the node, everything
  // it points at is fully built.
  node->bucket_next.store(buckets_[bucket].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  buckets_[bucket].store(node, std::memory_order_release);
  term_count_w_.fetch_add(1, std::memory_order_relaxed);
  return node;
}

void Memtable::append_positions(TermNode* node, std::span<const std::uint32_t> positions) {
  while (!positions.empty()) {
    PosChunk* tail = node->pos_tail;
    std::uint32_t n = tail->count.load(std::memory_order_relaxed);
    if (n == tail->capacity) {
      PosChunk* grown = new_pos_chunk(std::min(tail->capacity * 2, kMaxPosCap));
      tail->next.store(grown, std::memory_order_release);
      node->pos_tail = grown;
      tail = grown;
      n = 0;
    }
    const auto take = static_cast<std::uint32_t>(
        std::min<std::size_t>(tail->capacity - n, positions.size()));
    std::memcpy(tail->positions + n, positions.data(), take * sizeof(std::uint32_t));
    tail->count.store(n + take, std::memory_order_release);
    positions = positions.subspan(take);
  }
}

void Memtable::add_posting(std::string_view term, std::uint32_t tf,
                           std::span<const std::uint32_t> positions) {
  HET_CHECK(in_document_);
  HET_DCHECK(tf > 0);
  const std::size_t bucket = fnv1a(term) & (kBuckets - 1);
  TermNode* node = buckets_[bucket].load(std::memory_order_relaxed);
  while (node != nullptr &&
         (node->term_len != term.size() ||
          std::memcmp(node->term, term.data(), term.size()) != 0)) {
    node = node->bucket_next.load(std::memory_order_relaxed);
  }
  if (node == nullptr) node = insert_node(term, bucket);
  if (positional_) {
    HET_CHECK(positions.size() == tf);
    append_positions(node, positions);
  }
  if (tf > node->max_tf.load(std::memory_order_relaxed)) {
    node->max_tf.store(tf, std::memory_order_relaxed);
  }
  PostChunk* tail = node->tail;
  std::uint32_t n = tail->count.load(std::memory_order_relaxed);
  HET_DCHECK(n == 0 || tail->docs[n - 1] < current_doc_);  // one posting per doc
  if (n == tail->capacity) {
    PostChunk* grown = new_post_chunk(std::min(tail->capacity * 2, kMaxPostCap));
    tail->next.store(grown, std::memory_order_release);
    node->tail = grown;
    tail = grown;
    n = 0;
  }
  tail->docs[n] = current_doc_;
  tail->tfs[n] = tf;
  tail->count.store(n + 1, std::memory_order_release);
  ++postings_w_;
}

const Memtable::DocMeta* Memtable::meta_of(std::uint32_t doc) const {
  const std::uint32_t idx = doc - doc_base_;
  const DocChunk* chunk = doc_dir_[idx / kDocChunkCap].load(std::memory_order_acquire);
  HET_DCHECK(chunk != nullptr);
  return &chunk->docs[idx % kDocChunkCap];
}

bool Memtable::node_visible(const TermNode* node, std::uint32_t limit) {
  const PostChunk* head = node->head;
  return head->count.load(std::memory_order_acquire) != 0 && head->docs[0] < limit;
}

bool Memtable::read_postings(std::string_view term, std::uint32_t limit,
                             std::vector<std::uint32_t>& docs,
                             std::vector<std::uint32_t>& tfs,
                             std::vector<std::uint32_t>* positions) const {
  const TermNode* node = find_node(term);
  if (node == nullptr || !node_visible(node, limit)) return false;
  std::uint64_t tf_sum = 0;
  for (const PostChunk* chunk = node->head; chunk != nullptr;
       chunk = chunk->next.load(std::memory_order_acquire)) {
    const std::uint32_t n = chunk->count.load(std::memory_order_acquire);
    std::uint32_t i = 0;
    for (; i < n; ++i) {
      // Stop at the watermark: postings at or above it belong to documents
      // this view does not include.
      const std::uint32_t doc = chunk->docs[i];
      if (doc >= limit) break;
      const std::uint32_t tf = chunk->tfs[i];
      docs.push_back(doc);
      tfs.push_back(tf);
      tf_sum += tf;
    }
    if (i < n) break;  // hit the watermark — nothing visible further on
  }
  if (positions != nullptr && positional_) {
    // Visible postings are a prefix of the append stream, so their
    // positions are exactly the first tf_sum entries of the pos chain.
    std::uint64_t remaining = tf_sum;
    for (const PosChunk* chunk = node->pos_head; chunk != nullptr && remaining != 0;
         chunk = chunk->next.load(std::memory_order_acquire)) {
      const std::uint32_t n = chunk->count.load(std::memory_order_acquire);
      const std::uint32_t take =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(n, remaining));
      positions->insert(positions->end(), chunk->positions, chunk->positions + take);
      remaining -= take;
    }
    HET_DCHECK(remaining == 0);
  }
  return true;
}

std::vector<MemtableBlockRef> Memtable::cursor_blocks(std::string_view term,
                                                      std::uint32_t limit,
                                                      std::uint32_t& max_tf) const {
  std::vector<MemtableBlockRef> blocks;
  const TermNode* node = find_node(term);
  if (node == nullptr) return blocks;
  max_tf = node->max_tf.load(std::memory_order_relaxed);
  for (const PostChunk* chunk = node->head; chunk != nullptr;
       chunk = chunk->next.load(std::memory_order_acquire)) {
    const std::uint32_t n = chunk->count.load(std::memory_order_acquire);
    if (n == 0) break;
    std::uint32_t visible = n;
    if (chunk->docs[n - 1] >= limit) {
      visible = static_cast<std::uint32_t>(
          std::lower_bound(chunk->docs, chunk->docs + n, limit) - chunk->docs);
    }
    if (visible == 0) break;
    blocks.push_back(MemtableBlockRef{chunk->docs, chunk->tfs, visible,
                                      chunk->docs[visible - 1]});
    if (visible < n) break;
  }
  return blocks;
}

std::vector<const Memtable::TermNode*> Memtable::sorted_visible_nodes(
    std::uint32_t limit) const {
  std::vector<const TermNode*> nodes;
  // Reserve hint only — the walk below is bounded by each bucket's
  // release-published chain, not by this count.
  nodes.reserve(
      static_cast<std::size_t>(term_count_w_.load(std::memory_order_relaxed)));
  for (std::size_t b = 0; b < kBuckets; ++b) {
    for (const TermNode* node = buckets_[b].load(std::memory_order_acquire);
         node != nullptr; node = node->bucket_next.load(std::memory_order_acquire)) {
      if (node_visible(node, limit)) nodes.push_back(node);
    }
  }
  std::sort(nodes.begin(), nodes.end(), [](const TermNode* a, const TermNode* b) {
    return a->term_view() < b->term_view();
  });
  return nodes;
}

// ---------------------------------------------------------------------------
// MemtableView

MemtableView::MemtableView(std::shared_ptr<const Memtable> mt)
    : mt_(std::move(mt)), doc_count_(mt_->doc_count()), token_sum_(mt_->token_sum()) {}

bool MemtableView::lookup(std::string_view term, QueryPostings& out) const {
  return mt_->read_postings(term, doc_limit(), out.doc_ids, out.tfs,
                            mt_->positional() ? &out.positions : nullptr);
}

std::unique_ptr<PostingsCursor> MemtableView::open_cursor(std::string_view term,
                                                         bool with_positions) const {
  if (with_positions) {
    auto decoded = std::make_shared<QueryPostings>();
    if (!lookup(term, *decoded)) return nullptr;
    return make_decoded_cursor(std::move(decoded));
  }
  std::uint32_t max_tf = 0;
  auto blocks = mt_->cursor_blocks(term, doc_limit(), max_tf);
  if (blocks.empty()) return nullptr;
  // The pin keeps the arena alive past a flush that resets the writer's
  // buffer while this cursor is outstanding.
  return make_memtable_cursor(std::move(blocks), max_tf, mt_);
}

std::uint32_t MemtableView::doc_tokens(std::uint32_t doc) const {
  HET_DCHECK(doc >= doc_base() && doc < doc_limit());
  return mt_->meta_of(doc)->tokens;
}

std::optional<DocLocation> MemtableView::locate(std::uint32_t doc) const {
  if (doc < doc_base() || doc >= doc_limit()) return std::nullopt;
  const auto* meta = mt_->meta_of(doc);
  DocLocation loc;
  loc.url.assign(meta->url, meta->url_len);
  loc.file_seq = 0;  // not yet in a segment
  loc.local_id = doc - doc_base();
  loc.token_count = meta->tokens;
  return loc;
}

void MemtableView::for_each_term(const std::function<void(std::string_view)>& fn) const {
  for (const auto* node : mt_->sorted_visible_nodes(doc_limit())) {
    fn(node->term_view());
  }
}

std::vector<std::string> MemtableView::terms_with_prefix(std::string_view prefix,
                                                         std::size_t limit) const {
  std::vector<std::string> out;
  for (const auto* node : mt_->sorted_visible_nodes(doc_limit())) {
    const std::string_view term = node->term_view();
    if (term.size() >= prefix.size() && term.substr(0, prefix.size()) == prefix) {
      out.emplace_back(term);
      if (out.size() == limit) break;
    }
  }
  return out;
}

std::uint64_t MemtableView::term_count() const {
  std::uint64_t n = 0;
  const std::uint32_t limit = doc_limit();
  for (std::size_t b = 0; b < Memtable::kBuckets; ++b) {
    for (const auto* node = mt_->buckets_[b].load(std::memory_order_acquire);
         node != nullptr; node = node->bucket_next.load(std::memory_order_acquire)) {
      if (Memtable::node_visible(node, limit)) ++n;
    }
  }
  return n;
}

void MemtableView::for_each_term_postings(
    const std::function<void(std::string_view, const std::vector<std::uint32_t>&,
                             const std::vector<std::uint32_t>&,
                             const std::vector<std::uint32_t>&)>& fn) const {
  std::vector<std::uint32_t> docs;
  std::vector<std::uint32_t> tfs;
  std::vector<std::uint32_t> positions;
  const std::uint32_t limit = doc_limit();
  for (const auto* node : mt_->sorted_visible_nodes(limit)) {
    docs.clear();
    tfs.clear();
    positions.clear();
    mt_->read_postings(node->term_view(), limit, docs, tfs,
                       mt_->positional() ? &positions : nullptr);
    fn(node->term_view(), docs, tfs, positions);
  }
}

}  // namespace hetindex
