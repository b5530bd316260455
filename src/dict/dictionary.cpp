#include "dict/dictionary.hpp"

#include <algorithm>

#include "codec/front_coding.hpp"
#include "io/env.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"

namespace hetindex {

DictionaryShard::DictionaryShard(bool use_cache)
    : arena_(std::make_unique<Arena>()), use_cache_(use_cache), roots_(kTrieCollections) {}

BTree& DictionaryShard::tree(std::uint32_t trie_idx) {
  HET_CHECK(trie_idx < kTrieCollections);
  auto& slot = roots_[trie_idx];
  if (!slot) {
    slot = std::make_unique<BTree>(*arena_, use_cache_);
    ++active_;
  }
  return *slot;
}

const BTree* DictionaryShard::tree_if_exists(std::uint32_t trie_idx) const {
  HET_CHECK(trie_idx < kTrieCollections);
  return roots_[trie_idx].get();
}

BTree* DictionaryShard::tree_if_exists(std::uint32_t trie_idx) {
  HET_CHECK(trie_idx < kTrieCollections);
  return roots_[trie_idx].get();
}

BTreeInsertResult DictionaryShard::insert_term(std::string_view term) {
  const std::uint32_t idx = trie_index(term);
  return tree(idx).find_or_insert(trie_suffix(term, idx));
}

const std::uint32_t* DictionaryShard::find_term(std::string_view term) const {
  const std::uint32_t idx = trie_index(term);
  const BTree* t = tree_if_exists(idx);
  return t ? t->find(trie_suffix(term, idx)) : nullptr;
}

void DictionaryShard::for_each_tree(
    const std::function<void(std::uint32_t, const BTree&)>& fn) const {
  for (std::uint32_t i = 0; i < kTrieCollections; ++i) {
    if (roots_[i] && !roots_[i]->empty()) fn(i, *roots_[i]);
  }
}

std::uint64_t DictionaryShard::term_count() const {
  std::uint64_t n = 0;
  for (const auto& t : roots_)
    if (t) n += t->size();
  return n;
}

Dictionary::Dictionary(bool use_cache)
    : use_cache_(use_cache), owner_(kTrieCollections, kUnassigned) {}

std::size_t Dictionary::add_shard() {
  shards_.emplace_back(use_cache_);
  return shards_.size() - 1;
}

void Dictionary::assign(std::uint32_t trie_idx, std::size_t shard_id) {
  HET_CHECK(trie_idx < kTrieCollections && shard_id < shards_.size());
  owner_[trie_idx] = static_cast<std::uint32_t>(shard_id);
}

std::size_t Dictionary::owner(std::uint32_t trie_idx) const {
  HET_CHECK(trie_idx < kTrieCollections);
  const std::uint32_t o = owner_[trie_idx];
  HET_CHECK_MSG(o != kUnassigned, "trie collection has no owning shard");
  return o;
}

BTreeInsertResult Dictionary::insert(std::string_view term) {
  const std::uint32_t idx = trie_index(term);
  std::uint32_t o = owner_[idx];
  if (o == kUnassigned) {
    if (shards_.empty()) add_shard();
    o = 0;
    owner_[idx] = 0;
  }
  return shards_[o].tree(idx).find_or_insert(trie_suffix(term, idx));
}

const std::uint32_t* Dictionary::find(std::string_view term) const {
  const std::uint32_t idx = trie_index(term);
  const std::uint32_t o = owner_[idx];
  if (o == kUnassigned) return nullptr;
  const BTree* t = shards_[o].tree_if_exists(idx);
  return t ? t->find(trie_suffix(term, idx)) : nullptr;
}

std::uint64_t Dictionary::term_count() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s.term_count();
  return n;
}

std::vector<DictionaryEntry> Dictionary::combine() const {
  std::vector<DictionaryEntry> entries;
  entries.reserve(static_cast<std::size_t>(term_count()));
  for (std::size_t sid = 0; sid < shards_.size(); ++sid) {
    shards_[sid].for_each_tree([&](std::uint32_t trie_idx, const BTree& tree) {
      const std::string prefix = trie_prefix(trie_idx);
      tree.for_each([&](std::string_view suffix, std::uint32_t handle) {
        entries.push_back({prefix + std::string(suffix), trie_idx,
                           static_cast<std::uint32_t>(sid), handle});
      });
    });
  }
  std::sort(entries.begin(), entries.end(),
            [](const DictionaryEntry& a, const DictionaryEntry& b) { return a.term < b.term; });
  return entries;
}

namespace {
constexpr std::uint32_t kDictMagic = 0x48444943;  // "CIDH"
}

void dictionary_write(const std::vector<DictionaryEntry>& entries, const std::string& path) {
  // Group the combined (already sorted) entries by collection; inside a
  // collection, terms share the trie prefix so front-coding compresses both
  // the prefix and B-tree-local suffix overlaps.
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(kDictMagic);
  w.u64(entries.size());
  std::size_t i = 0;
  while (i < entries.size()) {
    // Entries with equal trie_idx are contiguous per collection only within
    // the sorted order for indices >= 37 (prefix-grouped); to stay simple
    // and robust we emit maximal runs of equal trie_idx.
    std::size_t j = i;
    while (j < entries.size() && entries[j].trie_idx == entries[i].trie_idx) ++j;
    std::vector<std::string> terms;
    terms.reserve(j - i);
    for (std::size_t k = i; k < j; ++k) terms.push_back(entries[k].term);
    const auto block = front_code(terms);
    w.u32(entries[i].trie_idx);
    w.u32(static_cast<std::uint32_t>(j - i));
    w.u32(static_cast<std::uint32_t>(block.size()));
    w.bytes(block.data(), block.size());
    for (std::size_t k = i; k < j; ++k) {
      w.u32(entries[k].shard);
      w.u32(entries[k].handle);
    }
    i = j;
  }
  write_file(path, out);
}

Expected<std::vector<DictionaryEntry>> dictionary_read(const std::string& path) {
  auto read = io::env().read_file(path);
  if (!read.has_value()) return read.error();
  const auto data = std::move(read).value();
  const auto corrupt = [&path](const char* what) {
    return Error{ErrorCode::kCorrupt, "dictionary file " + path + ": " + what};
  };
  ByteReader r(data);
  if (r.remaining() < 12 || r.u32() != kDictMagic) {
    return corrupt("not a hetindex dictionary file (bad magic)");
  }
  // Every entry carries at least its 8-byte (shard, handle) pair, which
  // bounds each count by the bytes left before anything is allocated.
  const std::uint64_t total = r.u64();
  if (total > r.remaining() / 8) return corrupt("term count runs past the end of the file");
  std::vector<DictionaryEntry> entries;
  entries.reserve(total);
  while (entries.size() < total) {
    if (r.remaining() < 12) return corrupt("collection header runs past the end of the file");
    const std::uint32_t trie_idx = r.u32();
    const std::uint32_t count = r.u32();
    const std::uint32_t block_size = r.u32();
    if (block_size > r.remaining() || count > (r.remaining() - block_size) / 8) {
      return corrupt("collection count runs past the end of the file");
    }
    std::vector<std::uint8_t> block(block_size);
    r.bytes(block.data(), block_size);
    auto terms = front_decode(block, count);
    if (!terms.has_value()) return corrupt("truncated front-coded block");
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::uint32_t shard = r.u32();
      const std::uint32_t handle = r.u32();
      entries.push_back({std::move((*terms)[k]), trie_idx, shard, handle});
    }
  }
  return entries;
}

}  // namespace hetindex
