#pragma once
/// \file dictionary.hpp
/// The full dictionary: the Table I trie table mapping each collection
/// index directly to the root of an independent B-tree (Fig. 2). Shards
/// partition collection ownership across indexers — "every indexer keeps an
/// independent and exclusive part of the global dictionary" (§III.E) — so
/// each shard is single-threaded by construction and needs no locks.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dict/btree.hpp"
#include "dict/trie_table.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"

namespace hetindex {

/// One indexer's exclusive slice of the dictionary: a flat table of
/// kTrieCollections root slots (the paper's trie-as-table) backed by a
/// private arena.
class DictionaryShard {
 public:
  /// \param use_cache forwards to BTree (ablation hook).
  explicit DictionaryShard(bool use_cache = true);

  DictionaryShard(DictionaryShard&&) noexcept = default;
  DictionaryShard& operator=(DictionaryShard&&) noexcept = default;

  /// The B-tree of a collection, created on first use.
  BTree& tree(std::uint32_t trie_idx);
  /// Read-only access; nullptr when the collection has no terms yet.
  [[nodiscard]] const BTree* tree_if_exists(std::uint32_t trie_idx) const;
  [[nodiscard]] BTree* tree_if_exists(std::uint32_t trie_idx);

  /// Inserts a full term (prefix stripping applied internally).
  BTreeInsertResult insert_term(std::string_view term);
  /// Looks up a full term; nullptr when absent.
  [[nodiscard]] const std::uint32_t* find_term(std::string_view term) const;

  /// fn(trie_idx, tree) for every non-empty collection, ascending index.
  void for_each_tree(const std::function<void(std::uint32_t, const BTree&)>& fn) const;

  [[nodiscard]] std::uint64_t term_count() const;
  [[nodiscard]] std::size_t collection_count() const { return active_; }
  [[nodiscard]] const Arena& arena() const { return *arena_; }
  [[nodiscard]] Arena& arena() { return *arena_; }

 private:
  std::unique_ptr<Arena> arena_;  // stable address for BTree back-pointers
  bool use_cache_;
  std::vector<std::unique_ptr<BTree>> roots_;  // the trie table (Fig. 2)
  std::size_t active_ = 0;
};

/// A term enumerated out of a dictionary: full term, owning collection and
/// the opaque postings handle the indexer stored.
struct DictionaryEntry {
  std::string term;
  std::uint32_t trie_idx;
  std::uint32_t shard;   ///< owning shard id (part of the postings key)
  std::uint32_t handle;  ///< opaque postings handle within the shard
};

/// The combined dictionary: shards plus the collection→shard ownership map
/// ("once a trie collection is assigned to a particular indexer, it is
/// bound with this indexer through the program lifetime", §III.E).
class Dictionary {
 public:
  explicit Dictionary(bool use_cache = true);

  /// Adds a shard; returns its id.
  std::size_t add_shard();
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] DictionaryShard& shard(std::size_t i) { return shards_[i]; }
  [[nodiscard]] const DictionaryShard& shard(std::size_t i) const { return shards_[i]; }

  /// Binds a collection to a shard for the dictionary lifetime.
  void assign(std::uint32_t trie_idx, std::size_t shard_id);
  [[nodiscard]] std::size_t owner(std::uint32_t trie_idx) const;

  /// Serial convenience insert (routes through the owning shard; used by
  /// baselines and tests — the pipeline inserts via shards directly).
  BTreeInsertResult insert(std::string_view term);
  /// Cross-shard lookup; nullptr when absent.
  [[nodiscard]] const std::uint32_t* find(std::string_view term) const;

  [[nodiscard]] std::uint64_t term_count() const;

  /// "Dictionary Combine" of Table VI: enumerates all shards into one
  /// lexicographically sorted term list.
  [[nodiscard]] std::vector<DictionaryEntry> combine() const;

 private:
  bool use_cache_;
  std::vector<DictionaryShard> shards_;
  std::vector<std::uint32_t> owner_;  // trie_idx → shard id (or kUnassigned)
  static constexpr std::uint32_t kUnassigned = 0xFFFFFFFFu;
};

/// On-disk dictionary format ("Dictionary Write" of Table VI): per
/// collection, a front-coded suffix block plus the postings handles.
/// `entries` is the combined dictionary, sorted by term (Dictionary::combine()).
void dictionary_write(const std::vector<DictionaryEntry>& entries, const std::string& path);
/// Loads entries written by dictionary_write: kCorrupt naming the file when
/// it is damaged, kNotFound when it is missing.
Expected<std::vector<DictionaryEntry>> dictionary_read(const std::string& path);

}  // namespace hetindex
