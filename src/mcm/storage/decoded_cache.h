// A versioned cache of decoded (deserialized) node objects, layered above
// the BufferPool: the pool caches page *bytes*, this caches the C++ object
// those bytes decode to, so repeated traversals of a hot node stop paying
// the page decode on every visit.
//
// Correctness contract:
//
//  - Entries are shared_ptr<const NodeT>: readers on concurrent query
//    threads share one immutable decoded object.
//  - Writers call Invalidate(key) whenever the backing page changes
//    (write-back or free). Invalidation bumps the owning shard's version
//    counter; Insert(key, version, node) only publishes when the shard
//    version still equals the one captured *before* the page bytes were
//    read, so a decode raced by a write can never install a stale object.
//  - The cache is a pure performance layer: a Lookup miss simply decodes
//    from the page as before, and logical access counting stays in the
//    node store, so the paper's I/O cost is untouched.
//
// Sharded like the BufferPool (about one shard per 64 entries, at most 8)
// with a per-shard mutex + LRU, so concurrent readers on different shards
// never contend. Capacity 0 disables the cache (every Lookup misses,
// Insert is a no-op).

#ifndef MCM_STORAGE_DECODED_CACHE_H_
#define MCM_STORAGE_DECODED_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mcm/common/mutex.h"
#include "mcm/common/thread_annotations.h"

namespace mcm {

/// Decoded-cache counters (aggregated over shards).
struct DecodedCacheStats {
  uint64_t hits = 0;           ///< Lookups served from the cache.
  uint64_t misses = 0;         ///< Lookups that must decode from the page.
  uint64_t insertions = 0;     ///< Decoded objects published.
  uint64_t stale_inserts = 0;  ///< Inserts dropped by a version mismatch.
  uint64_t invalidations = 0;  ///< Entries/versions killed by writers.
  uint64_t evictions = 0;      ///< Entries evicted by the LRU.
};

/// LRU cache of immutable decoded nodes keyed by page/node id.
template <typename NodeT>
class DecodedNodeCache {
 public:
  /// `capacity` = max cached objects across all shards; 0 disables the
  /// cache. `num_shards` = 0 picks automatically like the BufferPool.
  explicit DecodedNodeCache(size_t capacity, size_t num_shards = 0)
      : capacity_(capacity) {
    if (num_shards == 0) {
      num_shards = capacity / 64;
      if (num_shards < 1) num_shards = 1;
      if (num_shards > 8) num_shards = 8;
    }
    if (capacity > 0 && num_shards > capacity) num_shards = capacity;
    shards_.reserve(num_shards);
    const size_t base = capacity / num_shards;
    const size_t extra = capacity % num_shards;
    for (size_t s = 0; s < num_shards; ++s) {
      shards_.push_back(std::make_unique<Shard>());
      shards_.back()->capacity = base + (s < extra ? 1 : 0);
    }
  }

  DecodedNodeCache(const DecodedNodeCache&) = delete;
  DecodedNodeCache& operator=(const DecodedNodeCache&) = delete;

  bool enabled() const { return capacity_ > 0; }
  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

  /// Returns the cached decoded node for `key`, or null on a miss.
  std::shared_ptr<const NodeT> Lookup(uint64_t key) {
    Shard& shard = ShardFor(key);
    MutexLock lock(&shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      ++shard.stats.misses;
      return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    ++shard.stats.hits;
    return it->second.node;
  }

  /// Version of the shard owning `key`. Capture this BEFORE reading the
  /// page bytes that will be decoded, and hand it back to Insert().
  uint64_t Version(uint64_t key) {
    Shard& shard = ShardFor(key);
    MutexLock lock(&shard.mu);
    return shard.version;
  }

  /// Publishes a decoded node, unless the shard version moved past
  /// `version` (a writer invalidated while we were decoding — the object
  /// may be stale, so it is dropped).
  void Insert(uint64_t key, uint64_t version,
              std::shared_ptr<const NodeT> node) {
    if (capacity_ == 0) return;
    Shard& shard = ShardFor(key);
    MutexLock lock(&shard.mu);
    if (shard.version != version) {
      ++shard.stats.stale_inserts;
      return;
    }
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      it->second.node = std::move(node);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
      return;
    }
    if (shard.entries.size() >= shard.capacity) {
      if (shard.capacity == 0) return;
      const uint64_t victim = shard.lru.back();
      shard.lru.pop_back();
      shard.entries.erase(victim);
      ++shard.stats.evictions;
    }
    shard.lru.push_front(key);
    shard.entries.emplace(key, Entry{std::move(node), shard.lru.begin()});
    ++shard.stats.insertions;
  }

  /// Drops `key` and bumps the shard version so in-flight decodes of the
  /// old bytes cannot be published. Call on every page write-back or free.
  void Invalidate(uint64_t key) {
    Shard& shard = ShardFor(key);
    MutexLock lock(&shard.mu);
    ++shard.version;
    ++shard.stats.invalidations;
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return;
    shard.lru.erase(it->second.lru_pos);
    shard.entries.erase(it);
  }

  /// Drops every entry and bumps every shard version.
  void Clear() {
    for (auto& shard : shards_) {
      MutexLock lock(&shard->mu);
      ++shard->version;
      shard->entries.clear();
      shard->lru.clear();
    }
  }

  /// Number of cached objects right now (sums over shards).
  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      MutexLock lock(&shard->mu);
      total += shard->entries.size();
    }
    return total;
  }

  /// Aggregated counter snapshot, returned by value.
  DecodedCacheStats stats() const {
    DecodedCacheStats total;
    for (const auto& shard : shards_) {
      MutexLock lock(&shard->mu);
      total.hits += shard->stats.hits;
      total.misses += shard->stats.misses;
      total.insertions += shard->stats.insertions;
      total.stale_inserts += shard->stats.stale_inserts;
      total.invalidations += shard->stats.invalidations;
      total.evictions += shard->stats.evictions;
    }
    return total;
  }

 private:
  struct Entry {
    std::shared_ptr<const NodeT> node;
    std::list<uint64_t>::iterator lru_pos;
  };

  /// One lock domain: a slice of the capacity with its own LRU + version.
  struct Shard {
    mutable Mutex mu;
    size_t capacity = 0;  // Immutable once the cache is constructed.
    uint64_t version MCM_GUARDED_BY(mu) = 0;
    std::unordered_map<uint64_t, Entry> entries MCM_GUARDED_BY(mu);
    std::list<uint64_t> lru MCM_GUARDED_BY(mu);  // Front = most recent.
    DecodedCacheStats stats MCM_GUARDED_BY(mu);
  };

  Shard& ShardFor(uint64_t key) { return *shards_[key % shards_.size()]; }

  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mcm

#endif  // MCM_STORAGE_DECODED_CACHE_H_
