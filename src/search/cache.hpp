#pragma once
/// \file cache.hpp
/// Sharded LRU cache behind the Searcher's finished query results.
/// Sharding by key hash keeps the
/// per-shard critical section (a hash probe plus a list splice) from
/// serializing concurrent queries — with S shards, two requests collide
/// only when their keys land in the same shard.
///
/// Invalidation is deliberately absent: keys embed the snapshot id (see
/// LiveSnapshot::snapshot_id), so a snapshot change makes every old entry
/// unreachable and plain LRU pressure evicts the corpses. That trades a
/// little capacity after a flush for zero cross-thread invalidation
/// traffic on the hot path.

#include <cstddef>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace hetindex {

/// Thread-safe LRU map. Values are returned by copy, so V should be cheap
/// to copy — in practice a shared_ptr to immutable data.
template <typename K, typename V, typename Hash = std::hash<K>>
class ShardedLruCache {
 public:
  /// \param capacity total entries across all shards (rounded up to give
  ///        every shard at least one slot).
  /// \param shards   lock granularity; more shards = less contention.
  explicit ShardedLruCache(std::size_t capacity, std::size_t shards = 8)
      : shards_(std::max<std::size_t>(shards, 1)) {
    HET_CHECK(capacity > 0);
    const std::size_t per_shard =
        (capacity + shards_.size() - 1) / shards_.size();
    for (auto& shard : shards_) shard.capacity = per_shard;
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// The cached value, freshened to most-recently-used; nullopt on miss.
  std::optional<V> get(const K& key) {
    Shard& shard = shard_for(key);
    std::scoped_lock lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) return std::nullopt;
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    return it->second->second;
  }

  /// Inserts or overwrites, evicting the least-recently-used entry of the
  /// shard when full.
  void put(const K& key, V value) {
    Shard& shard = shard_for(key);
    std::scoped_lock lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return;
    }
    if (shard.index.size() >= shard.capacity) {
      shard.index.erase(shard.order.back().first);
      shard.order.pop_back();
    }
    shard.order.emplace_front(key, std::move(value));
    shard.index.emplace(key, shard.order.begin());
  }

  /// Entries currently resident (sums shard sizes; racy but monotone-ish —
  /// an observability number, not a synchronization primitive).
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& shard : shards_) {
      std::scoped_lock lock(shard.mu);
      n += shard.index.size();
    }
    return n;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::size_t capacity = 0;
    std::list<std::pair<K, V>> order;  ///< front = most recently used
    std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator, Hash> index;
  };

  Shard& shard_for(const K& key) { return shards_[Hash{}(key) % shards_.size()]; }

  std::vector<Shard> shards_;
};

}  // namespace hetindex
