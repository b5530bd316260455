#include "postings/cursor.hpp"

#include <algorithm>

#include "search/topk.hpp"
#include "util/check.hpp"

namespace hetindex {

double PostingsCursor::block_max_score() {
  return bm25_upper_bound(idf_, block_max_tf(), params_);
}

namespace {

/// Shared block state machine. Subclasses describe their blocks
/// (block_count / meta / max tf) and decode one on demand; the base keeps
/// the shallow/positioned bookkeeping and the skipped-block accounting
/// identical across backends.
class BlockedCursorBase : public PostingsCursor {
 public:
  [[nodiscard]] bool valid() const final { return cur_block_ < n_blocks_; }
  [[nodiscard]] bool positioned() const final { return valid() && deep_; }

  [[nodiscard]] std::uint32_t docid() const final {
    HET_CHECK_MSG(positioned(), "docid() on unpositioned cursor");
    return cur_docs_[in_pos_];
  }

  [[nodiscard]] std::uint32_t tf() const final {
    HET_CHECK_MSG(positioned(), "tf() on unpositioned cursor");
    return cur_tfs_[in_pos_];
  }

  void next() final {
    HET_CHECK_MSG(positioned(), "next() on unpositioned cursor");
    if (++in_pos_ < cur_count_) return;
    // The spent block was decoded, so moving off it is not a skip.
    ++cur_block_;
    deep_ = false;
    in_pos_ = 0;
    if (valid()) enter_block();
  }

  void seek(std::uint32_t target) final {
    if (!valid()) return;
    if (deep_ && cur_docs_[in_pos_] >= target) return;  // never move backwards
    shallow_seek(target);
    if (!valid()) return;
    if (!deep_) enter_block();
    // The landing block's last_doc >= target, so the answer is inside it.
    const auto* begin = cur_docs_;
    const auto* end = cur_docs_ + cur_count_;
    in_pos_ = static_cast<std::size_t>(std::lower_bound(begin, end, target) - begin);
    HET_DCHECK(in_pos_ < cur_count_);
  }

  void shallow_seek(std::uint32_t target) final {
    while (valid() && block_meta(cur_block_).last_doc < target) {
      if (!deep_) ++skipped_;  // passed without ever decoding it
      ++cur_block_;
      deep_ = false;
      in_pos_ = 0;
    }
  }

  [[nodiscard]] std::uint32_t block_last_doc() const final {
    HET_CHECK_MSG(valid(), "block_last_doc() on exhausted cursor");
    return block_meta(cur_block_).last_doc;
  }

  [[nodiscard]] std::uint32_t block_max_tf() final {
    HET_CHECK_MSG(valid(), "block_max_tf() on exhausted cursor");
    return block_max_tf_of(cur_block_);
  }

  [[nodiscard]] std::uint32_t docs_in_block() const final {
    HET_CHECK_MSG(valid(), "docs_in_block() on exhausted cursor");
    return block_meta(cur_block_).count;
  }

  [[nodiscard]] std::uint64_t size() const final { return total_docs_; }
  [[nodiscard]] std::uint32_t max_tf() const final { return list_max_tf_; }

  [[nodiscard]] std::uint32_t last_doc() const final {
    HET_DCHECK(n_blocks_ > 0);
    return block_meta(n_blocks_ - 1).last_doc;
  }

  [[nodiscard]] std::uint64_t blocks_skipped() const final { return skipped_; }

  [[nodiscard]] bool current_positions(std::vector<std::uint32_t>& out) final {
    HET_CHECK_MSG(positioned(), "current_positions() on unpositioned cursor");
    if (pos_block_ != static_cast<std::ptrdiff_t>(cur_block_)) {
      pos_scratch_.clear();
      pos_ok_ = load_block_positions(cur_block_, pos_scratch_);
      pos_block_ = static_cast<std::ptrdiff_t>(cur_block_);
      if (pos_ok_) {
        // Per-posting slice offsets follow from the block's tfs.
        pos_offsets_.assign(cur_count_ + 1, 0);
        for (std::size_t i = 0; i < cur_count_; ++i) {
          pos_offsets_[i + 1] = pos_offsets_[i] + cur_tfs_[i];
        }
        HET_CHECK_MSG(pos_scratch_.size() == pos_offsets_[cur_count_],
                      "positional payload disagrees with block tfs");
      }
    }
    if (!pos_ok_) return false;
    out.insert(out.end(),
               pos_scratch_.begin() + static_cast<std::ptrdiff_t>(pos_offsets_[in_pos_]),
               pos_scratch_.begin() + static_cast<std::ptrdiff_t>(pos_offsets_[in_pos_ + 1]));
    return true;
  }

 protected:
  struct BlockMeta {
    std::uint32_t last_doc = 0;
    std::uint32_t count = 0;
  };

  [[nodiscard]] virtual BlockMeta block_meta(std::size_t block) const = 0;
  [[nodiscard]] virtual std::uint32_t block_max_tf_of(std::size_t block) = 0;
  /// Decodes `block` and points cur_docs_/cur_tfs_ at its postings.
  virtual void load_block(std::size_t block) = 0;
  /// Fills `positions` with the block's concatenated per-posting positions
  /// (absolute, ascending within each posting), or returns false when the
  /// backend carries none. Called only on the currently-loaded block.
  [[nodiscard]] virtual bool load_block_positions(std::size_t block,
                                                  std::vector<std::uint32_t>& positions) {
    (void)block;
    (void)positions;
    return false;
  }

  void enter_block() {
    load_block(cur_block_);
    cur_count_ = block_meta(cur_block_).count;
    deep_ = true;
    in_pos_ = 0;
  }

  // Set once by subclass constructors.
  std::size_t n_blocks_ = 0;
  std::uint64_t total_docs_ = 0;
  std::uint32_t list_max_tf_ = 0;
  // Current-block postings, owned by (or borrowed through) the subclass.
  const std::uint32_t* cur_docs_ = nullptr;
  const std::uint32_t* cur_tfs_ = nullptr;

 private:
  std::size_t cur_block_ = 0;
  std::size_t in_pos_ = 0;
  std::size_t cur_count_ = 0;
  bool deep_ = false;
  std::uint64_t skipped_ = 0;
  // Lazily-decoded positions of one block (the current one, once asked).
  std::ptrdiff_t pos_block_ = -1;
  bool pos_ok_ = false;
  std::vector<std::uint32_t> pos_scratch_;
  std::vector<std::uint64_t> pos_offsets_;
};

/// Blob + skip-table cursor: decodes exactly the blocks it lands on.
class SegmentPostingsCursor final : public BlockedCursorBase {
 public:
  SegmentPostingsCursor(const std::uint8_t* blob, std::size_t blob_bytes,
                        const PostingBlockEntry* entries, std::size_t entry_count,
                        std::shared_ptr<const void> pin)
      : blob_(blob), blob_bytes_(blob_bytes), entries_(entries), pin_(std::move(pin)) {
    n_blocks_ = entry_count;
    for (std::size_t i = 0; i < entry_count; ++i) {
      total_docs_ += entries[i].count;
      list_max_tf_ = std::max(list_max_tf_, entries[i].max_tf);
    }
    docs_scratch_.reserve(kPostingsBlockSize);
    tfs_scratch_.reserve(kPostingsBlockSize);
  }

 protected:
  [[nodiscard]] BlockMeta block_meta(std::size_t block) const override {
    const auto& e = entries_[block];
    return {e.last_doc, e.count};
  }

  [[nodiscard]] std::uint32_t block_max_tf_of(std::size_t block) override {
    return entries_[block].max_tf;
  }

  void load_block(std::size_t block) override {
    const auto& e = entries_[block];
    HET_CHECK_MSG(e.offset + e.bytes <= blob_bytes_, "skip entry outside blob");
    docs_scratch_.clear();
    tfs_scratch_.clear();
    const std::size_t consumed =
        decode_postings(blob_ + e.offset, e.bytes, docs_scratch_, tfs_scratch_);
    HET_CHECK_MSG(consumed == e.bytes && docs_scratch_.size() == e.count,
                  "skip entry disagrees with block payload");
    cur_docs_ = docs_scratch_.data();
    cur_tfs_ = tfs_scratch_.data();
  }

  [[nodiscard]] bool load_block_positions(std::size_t block,
                                          std::vector<std::uint32_t>& positions) override {
    // Re-decode the block with a positions sink. Dedicated scratch: the
    // base still points cur_docs_/cur_tfs_ into the load_block scratch.
    const auto& e = entries_[block];
    pos_docs_scratch_.clear();
    pos_tfs_scratch_.clear();
    const std::size_t consumed = decode_postings(blob_ + e.offset, e.bytes, pos_docs_scratch_,
                                                 pos_tfs_scratch_, &positions);
    HET_CHECK_MSG(consumed == e.bytes, "skip entry disagrees with block payload");
    return !positions.empty();
  }

 private:
  const std::uint8_t* blob_;
  std::size_t blob_bytes_;
  const PostingBlockEntry* entries_;
  std::shared_ptr<const void> pin_;
  std::vector<std::uint32_t> docs_scratch_;
  std::vector<std::uint32_t> tfs_scratch_;
  std::vector<std::uint32_t> pos_docs_scratch_;
  std::vector<std::uint32_t> pos_tfs_scratch_;
};

/// Already-decoded list behind the cursor interface. Blocks are synthetic
/// (every kPostingsBlockSize docs) and maxima are scanned lazily, so skips
/// here save per-document scoring work rather than decode work.
class DecodedPostingsCursor final : public BlockedCursorBase {
 public:
  explicit DecodedPostingsCursor(std::shared_ptr<const QueryPostings> postings)
      : postings_(std::move(postings)) {
    HET_CHECK(postings_ != nullptr);
    HET_CHECK(postings_->doc_ids.size() == postings_->tfs.size());
    total_docs_ = postings_->doc_ids.size();
    n_blocks_ = (total_docs_ + kPostingsBlockSize - 1) / kPostingsBlockSize;
    for (const std::uint32_t tf : postings_->tfs) list_max_tf_ = std::max(list_max_tf_, tf);
    max_tf_cache_.assign(n_blocks_, 0);  // 0 = not yet computed (tfs are >= 1)
  }

 protected:
  [[nodiscard]] BlockMeta block_meta(std::size_t block) const override {
    const std::size_t begin = block * kPostingsBlockSize;
    const std::size_t end = std::min<std::size_t>(begin + kPostingsBlockSize,
                                                  postings_->doc_ids.size());
    return {postings_->doc_ids[end - 1], static_cast<std::uint32_t>(end - begin)};
  }

  [[nodiscard]] std::uint32_t block_max_tf_of(std::size_t block) override {
    std::uint32_t& slot = max_tf_cache_[block];
    if (slot == 0) {
      const std::size_t begin = block * kPostingsBlockSize;
      const std::size_t end = std::min<std::size_t>(begin + kPostingsBlockSize,
                                                    postings_->tfs.size());
      slot = *std::max_element(postings_->tfs.begin() + static_cast<std::ptrdiff_t>(begin),
                               postings_->tfs.begin() + static_cast<std::ptrdiff_t>(end));
    }
    return slot;
  }

  void load_block(std::size_t block) override {
    const std::size_t begin = block * kPostingsBlockSize;
    cur_docs_ = postings_->doc_ids.data() + begin;
    cur_tfs_ = postings_->tfs.data() + begin;
  }

  [[nodiscard]] bool load_block_positions(std::size_t block,
                                          std::vector<std::uint32_t>& positions) override {
    const auto& all = postings_->positions;
    if (all.empty()) return false;
    if (pos_block_starts_.empty()) {
      // One pass over the tfs gives every block's start offset in the flat
      // positions stream (posting i owns tfs[i] entries).
      pos_block_starts_.assign(n_blocks_ + 1, 0);
      std::uint64_t run = 0;
      for (std::size_t i = 0; i < postings_->tfs.size(); ++i) {
        run += postings_->tfs[i];
        pos_block_starts_[i / kPostingsBlockSize + 1] = run;
      }
      HET_CHECK_MSG(pos_block_starts_[n_blocks_] == all.size(),
                    "positional payload disagrees with list tfs");
    }
    positions.insert(
        positions.end(),
        all.begin() + static_cast<std::ptrdiff_t>(pos_block_starts_[block]),
        all.begin() + static_cast<std::ptrdiff_t>(pos_block_starts_[block + 1]));
    return true;
  }

 private:
  std::shared_ptr<const QueryPostings> postings_;
  std::vector<std::uint32_t> max_tf_cache_;
  std::vector<std::uint64_t> pos_block_starts_;
};

/// Borrowed memtable blocks behind the cursor interface. Nothing decodes
/// (the arrays are live uint32s already); block maxima are scanned on
/// first use and cached, exactly like the decoded backend, so Block-Max
/// pruning works on never-flushed documents too.
class MemtablePostingsCursor final : public BlockedCursorBase {
 public:
  MemtablePostingsCursor(std::vector<MemtableBlockRef> blocks, std::uint32_t max_tf,
                         std::shared_ptr<const void> pin)
      : blocks_(std::move(blocks)), pin_(std::move(pin)) {
    n_blocks_ = blocks_.size();
    list_max_tf_ = max_tf;
    for (const auto& b : blocks_) {
      HET_CHECK(b.count > 0);
      total_docs_ += b.count;
    }
    max_tf_cache_.assign(n_blocks_, 0);  // 0 = not yet computed (tfs are >= 1)
  }

 protected:
  [[nodiscard]] BlockMeta block_meta(std::size_t block) const override {
    const auto& b = blocks_[block];
    return {b.last_doc, b.count};
  }

  [[nodiscard]] std::uint32_t block_max_tf_of(std::size_t block) override {
    std::uint32_t& slot = max_tf_cache_[block];
    if (slot == 0) {
      const auto& b = blocks_[block];
      slot = *std::max_element(b.tfs, b.tfs + b.count);
    }
    return slot;
  }

  void load_block(std::size_t block) override {
    cur_docs_ = blocks_[block].docs;
    cur_tfs_ = blocks_[block].tfs;
  }

 private:
  std::vector<MemtableBlockRef> blocks_;
  std::shared_ptr<const void> pin_;
  std::vector<std::uint32_t> max_tf_cache_;
};

/// Ordered chain of disjoint per-segment cursors (live snapshot view).
/// Delegates to the active part; exhausted-part bookkeeping (including
/// skipped blocks in parts jumped over) stays inside the parts themselves.
class ConcatPostingsCursor final : public PostingsCursor {
 public:
  explicit ConcatPostingsCursor(std::vector<std::unique_ptr<PostingsCursor>> parts)
      : parts_(std::move(parts)) {
    for (const auto& p : parts_) {
      HET_CHECK(p != nullptr && p->valid());
      total_docs_ += p->size();
      max_tf_ = std::max(max_tf_, p->max_tf());
    }
  }

  [[nodiscard]] bool valid() const override { return cur_ < parts_.size(); }
  [[nodiscard]] bool positioned() const override {
    return valid() && parts_[cur_]->positioned();
  }
  [[nodiscard]] std::uint32_t docid() const override { return parts_[cur_]->docid(); }
  [[nodiscard]] std::uint32_t tf() const override { return parts_[cur_]->tf(); }
  [[nodiscard]] bool current_positions(std::vector<std::uint32_t>& out) override {
    return parts_[cur_]->current_positions(out);
  }

  void next() override {
    parts_[cur_]->next();
    if (!parts_[cur_]->valid()) {
      ++cur_;
      if (valid()) parts_[cur_]->seek(0);
    }
  }

  void seek(std::uint32_t target) override {
    skip_parts_below(target);
    if (valid()) parts_[cur_]->seek(target);
  }

  void shallow_seek(std::uint32_t target) override {
    skip_parts_below(target);
    if (valid()) parts_[cur_]->shallow_seek(target);
  }

  [[nodiscard]] std::uint32_t block_last_doc() const override {
    return parts_[cur_]->block_last_doc();
  }
  [[nodiscard]] std::uint32_t block_max_tf() override {
    return parts_[cur_]->block_max_tf();
  }
  [[nodiscard]] std::uint32_t docs_in_block() const override {
    return parts_[cur_]->docs_in_block();
  }

  [[nodiscard]] std::uint64_t size() const override { return total_docs_; }
  [[nodiscard]] std::uint32_t max_tf() const override { return max_tf_; }
  [[nodiscard]] std::uint32_t last_doc() const override {
    return parts_.back()->last_doc();
  }

  [[nodiscard]] std::uint64_t blocks_skipped() const override {
    std::uint64_t total = 0;
    for (const auto& p : parts_) total += p->blocks_skipped();
    return total;
  }

 private:
  void skip_parts_below(std::uint32_t target) {
    while (valid() && parts_[cur_]->last_doc() < target) {
      // Drain the part shallowly so its skipped-block count stays honest:
      // every remaining block has last_doc <= part last_doc < target.
      parts_[cur_]->shallow_seek(target);
      HET_DCHECK(!parts_[cur_]->valid());
      ++cur_;
    }
  }

  std::vector<std::unique_ptr<PostingsCursor>> parts_;
  std::size_t cur_ = 0;
  std::uint64_t total_docs_ = 0;
  std::uint32_t max_tf_ = 0;
};

}  // namespace

std::unique_ptr<PostingsCursor> make_segment_cursor(
    const std::uint8_t* blob, std::size_t blob_bytes, const PostingBlockEntry* entries,
    std::size_t entry_count, std::shared_ptr<const void> pin) {
  return std::make_unique<SegmentPostingsCursor>(blob, blob_bytes, entries, entry_count,
                                                 std::move(pin));
}

std::unique_ptr<PostingsCursor> make_decoded_cursor(
    std::shared_ptr<const QueryPostings> postings) {
  return std::make_unique<DecodedPostingsCursor>(std::move(postings));
}

std::unique_ptr<PostingsCursor> make_concat_cursor(
    std::vector<std::unique_ptr<PostingsCursor>> parts) {
  return std::make_unique<ConcatPostingsCursor>(std::move(parts));
}

std::unique_ptr<PostingsCursor> make_memtable_cursor(
    std::vector<MemtableBlockRef> blocks, std::uint32_t max_tf,
    std::shared_ptr<const void> pin) {
  HET_CHECK(!blocks.empty());
  return std::make_unique<MemtablePostingsCursor>(std::move(blocks), max_tf,
                                                  std::move(pin));
}

}  // namespace hetindex
