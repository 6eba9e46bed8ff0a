// Node storage backends for the M-tree.
//
// MemoryNodeStore keeps nodes as C++ objects; PagedNodeStore serializes each
// node into one fixed-size page of a PageFile behind an LRU BufferPool, so
// the index is genuinely disk-representable. Both count *logical* node
// accesses identically — that count is the paper's I/O cost — and tests
// assert the two backends produce byte-identical query answers and access
// counts.
//
// A paged query read (ReadShared) is a pool fetch, which costs one pread
// into a reused frame on a miss, plus a decode into a node recycled from
// earlier reads (mtree/node_recycler.h): once the page fits the recycled
// node's buffers, it allocates nothing. Read/ReadTracked, the write path's
// by-value reads, decode into a fresh node.

#ifndef MCM_MTREE_NODE_STORE_H_
#define MCM_MTREE_NODE_STORE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mcm/common/env.h"
#include "mcm/common/query_stats.h"
#include "mcm/mtree/node.h"
#include "mcm/mtree/node_recycler.h"
#include "mcm/obs/metrics.h"
#include "mcm/obs/phase.h"
#include "mcm/obs/trace.h"
#include "mcm/storage/buffer_pool.h"
#include "mcm/storage/decoded_cache.h"
#include "mcm/storage/io_stats.h"
#include "mcm/storage/page_file.h"

namespace mcm {

/// Abstract store of M-tree nodes addressed by NodeId.
template <typename Traits>
class NodeStore {
 public:
  using Node = MTreeNode<Traits>;

  virtual ~NodeStore() = default;

  /// Creates an empty node and returns its id.
  virtual NodeId Allocate() = 0;

  /// Releases a node (after a merge or root collapse).
  virtual void Free(NodeId id) = 0;

  /// Reads node `id`. Counts one logical access.
  virtual Node Read(NodeId id) = 0;

  /// Reads node `id` on behalf of a query, attributing storage-layer
  /// effects (buffer-pool hit/miss, trace events) to `st`. The base
  /// implementation just forwards to Read(): memory-resident stores have
  /// no buffering to report.
  virtual Node ReadTracked(NodeId id, QueryStats* st) {
    (void)st;
    return Read(id);
  }

  /// Reads node `id` as a shared immutable object — the query-path variant
  /// of ReadTracked: stores that keep (or cache) decoded nodes hand out a
  /// shared reference instead of copying the node. Counts one logical
  /// access, exactly like ReadTracked.
  virtual std::shared_ptr<const Node> ReadShared(NodeId id, QueryStats* st) {
    return std::make_shared<const Node>(this->ReadTracked(id, st));
  }

  /// Readahead hint: the traversal is about to visit the `count` nodes in
  /// `ids` (the children of a routing node that survived pruning). Stores
  /// may pull contiguous page runs into their buffer ahead of demand; the
  /// hint must never change query answers or logical access counts — only
  /// the physical read pattern and the buffer hit/miss split. The base
  /// implementation (memory-resident stores) ignores it.
  virtual void Prefetch(const NodeId* ids, size_t count, QueryStats* st) {
    (void)ids;
    (void)count;
    (void)st;
  }

  /// Overwrites node `id`. Does not count as a query access (writes happen
  /// during construction/maintenance, not similarity search).
  virtual void Write(NodeId id, const Node& node) = 0;

  /// Number of live (allocated and not freed) nodes.
  virtual size_t NumNodes() const = 0;

  /// Logical accesses since the last ResetAccessCount(). The counter is a
  /// relaxed atomic so concurrent readers (the batch executor) can share
  /// one store; the total is exact regardless of schedule.
  uint64_t access_count() const {
    return access_count_.load(std::memory_order_relaxed);
  }
  void ResetAccessCount() {
    access_count_.store(0, std::memory_order_relaxed);
  }

 protected:
  void CountAccess() { access_count_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> access_count_{0};
};

/// Heap-resident node store. Nodes live behind shared_ptrs so the query
/// path (ReadShared) hands out references instead of copying; Write
/// replaces the pointer (copy-on-write), so concurrent readers holding the
/// old object keep a consistent snapshot.
template <typename Traits>
class MemoryNodeStore final : public NodeStore<Traits> {
 public:
  using Node = MTreeNode<Traits>;

  NodeId Allocate() override {
    if (!free_.empty()) {
      const NodeId id = free_.back();
      free_.pop_back();
      nodes_[id] = std::make_shared<const Node>();
      live_[id] = true;
      return id;
    }
    nodes_.push_back(std::make_shared<const Node>());
    live_.push_back(true);
    return static_cast<NodeId>(nodes_.size() - 1);
  }

  void Free(NodeId id) override {
    Check(id);
    live_[id] = false;
    nodes_[id] = nullptr;
    free_.push_back(id);
  }

  Node Read(NodeId id) override {
    Check(id);
    this->CountAccess();
    return *nodes_[id];
  }

  std::shared_ptr<const Node> ReadShared(NodeId id,
                                         QueryStats* st) override {
    (void)st;
    Check(id);
    this->CountAccess();
    return nodes_[id];
  }

  void Write(NodeId id, const Node& node) override {
    Check(id);
    nodes_[id] = std::make_shared<const Node>(node);
  }

  size_t NumNodes() const override { return nodes_.size() - free_.size(); }

 private:
  void Check(NodeId id) const {
    if (id >= nodes_.size() || !live_[id]) {
      throw std::out_of_range("MemoryNodeStore: bad node id");
    }
  }

  std::vector<std::shared_ptr<const Node>> nodes_;
  std::vector<bool> live_;
  std::vector<NodeId> free_;
};

/// Page-backed node store: one node per page, LRU-buffered, with an
/// optional decoded-node cache above the pool (storage/decoded_cache.h).
/// The cache defaults to the MCM_NODE_CACHE environment knob (entries; 0 =
/// off, the default, so buffer-pool hit/miss/eviction behavior is exactly
/// the uncached store's unless a caller opts in).
template <typename Traits>
class PagedNodeStore final : public NodeStore<Traits> {
 public:
  using Node = MTreeNode<Traits>;

  /// Creates a store over `file` (owned) with `pool_frames` buffer frames,
  /// `cache_entries` decoded-node slots (-1 = read MCM_NODE_CACHE), and a
  /// readahead window of `readahead` pages per prefetch run (-1 = read
  /// MCM_READAHEAD; 0, the default, disables readahead).
  PagedNodeStore(std::unique_ptr<PageFile> file, size_t pool_frames,
                 int64_t cache_entries = -1, int64_t readahead = -1)
      : file_(std::move(file)),
        pool_(file_.get(), pool_frames),
        cache_(ResolveCacheEntries(cache_entries)),
        readahead_(ResolveReadahead(readahead)) {}

  NodeId Allocate() override {
    PageGuard guard = pool_.NewPage();
    guard.MarkDirty();
    ++num_nodes_;
    // A freshly allocated page is all zeroes, which deserializes as an empty
    // leaf only if we write a valid header; do that now.
    Node empty;
    StoreInto(guard, empty);
    return static_cast<NodeId>(guard.id());
  }

  void Free(NodeId id) override {
    if (cache_.enabled()) cache_.Invalidate(id);
    file_->Free(static_cast<PageId>(id));
    --num_nodes_;
  }

  Node Read(NodeId id) override {
    this->CountAccess();
    PageGuard guard = pool_.Fetch(static_cast<PageId>(id));
    return Node::Deserialize(guard.data(), file_->page_size());
  }

  Node ReadTracked(NodeId id, QueryStats* st) override {
    this->CountAccess();
    const PageGuard guard = FetchTracked(id, st);
    ScopedSpan decode_span(st, QueryPhase::kDecode);
    return Node::Deserialize(guard.data(), file_->page_size());
  }

  /// The query path: decodes into a node recycled from earlier reads
  /// (mtree/node_recycler.h), with or without the decoded-node cache.
  std::shared_ptr<const Node> ReadShared(NodeId id,
                                         QueryStats* st) override {
    this->CountAccess();
    if (cache_.enabled()) {
      if (auto cached = cache_.Lookup(id)) {
        // The decoded object was in memory: attribute a buffered (non-I/O)
        // fetch, same as a pool hit, so per-query accounting still sees one
        // fetch per node visit.
        ++st->buffer_hits;
        if (st->trace != nullptr) st->trace->RecordBufferFetch(id, true);
        if (ObsEnabled()) {
          MetricsRegistry::Global().GetCounter("node_cache.hits").Increment();
        }
        return cached;
      }
      if (ObsEnabled()) {
        MetricsRegistry::Global().GetCounter("node_cache.misses").Increment();
      }
      // Capture the version before touching the page bytes: if a writer
      // invalidates while we decode, Insert drops our (possibly stale)
      // object instead of publishing it.
      const uint64_t version = cache_.Version(id);
      auto decoded = DecodeShared(id, st);
      cache_.Insert(id, version, decoded);
      return decoded;
    }
    return DecodeShared(id, st);
  }

  /// Pulls contiguous runs of the hinted nodes into the buffer pool with
  /// batched sequential reads. Only ascending runs of length >= 2 are worth
  /// a batched read (a single page costs the same either way and would just
  /// bypass demand-fetch accounting), and each run is capped at the
  /// readahead window. No-op unless readahead is enabled.
  void Prefetch(const NodeId* ids, size_t count, QueryStats* st) override {
    if (readahead_ == 0 || count < 2) {
      return;
    }
    ScopedSpan span(st, QueryPhase::kPrefetch);
    size_t i = 0;
    while (i < count) {
      size_t j = i + 1;
      while (j < count && ids[j] == ids[j - 1] + 1 &&
             j - i < readahead_) {
        ++j;
      }
      if (j - i >= 2) {
        pool_.Prefetch(static_cast<PageId>(ids[i]), j - i);
      }
      i = j;
    }
  }

  void Write(NodeId id, const Node& node) override {
    if (cache_.enabled()) cache_.Invalidate(id);
    PageGuard guard = pool_.Fetch(static_cast<PageId>(id));
    StoreInto(guard, node);
  }

  size_t NumNodes() const override { return num_nodes_; }

  /// Restores the live-node count after reopening a saved page file
  /// (see mtree/persist.h).
  void RestoreNodeCount(size_t count) { num_nodes_ = count; }

  /// Writes all dirty pages back to the page file.
  void Flush() { pool_.FlushAll(); }

  BufferPool& pool() { return pool_; }
  PageFile& file() { return *file_; }

  /// The decoded-node cache (disabled unless MCM_NODE_CACHE or the ctor
  /// argument asked for capacity).
  DecodedNodeCache<Node>& node_cache() { return cache_; }

 private:
  static size_t ResolveCacheEntries(int64_t cache_entries) {
    if (cache_entries < 0) {
      cache_entries = GetEnvInt("MCM_NODE_CACHE", 0);
    }
    return cache_entries > 0 ? static_cast<size_t>(cache_entries) : 0;
  }

  static size_t ResolveReadahead(int64_t readahead) {
    if (readahead < 0) {
      readahead = GetEnvInt("MCM_READAHEAD", 0);
    }
    return readahead > 0 ? static_cast<size_t>(readahead) : 0;
  }

  /// Pool fetch + per-query attribution, without the logical access count
  /// (the caller already counted).
  PageGuard FetchTracked(NodeId id, QueryStats* st) {
    bool hit = false;
    PageGuard guard = [&] {
      ScopedSpan page_span(st, QueryPhase::kPageRead);
      return pool_.Fetch(static_cast<PageId>(id), &hit);
    }();
    if (hit) {
      ++st->buffer_hits;
    } else {
      ++st->buffer_misses;
    }
    if (st->trace != nullptr) {
      st->trace->RecordBufferFetch(id, hit);
    }
    return guard;
  }

  /// FetchTracked + decode into a recycled node.
  std::shared_ptr<const Node> DecodeShared(NodeId id, QueryStats* st) {
    const PageGuard guard = FetchTracked(id, st);
    ScopedSpan decode_span(st, QueryPhase::kDecode);
    return recycler_->Decode(guard.data(), file_->page_size());
  }

  // Write path only (construction and maintenance are single-writer; the
  // concurrent batch executor goes through ReadShared exclusively), so the
  // shared scratch buffer needs no lock.
  void StoreInto(PageGuard& guard, const Node& node) {
    scratch_.clear();
    node.Serialize(&scratch_);
    if (scratch_.size() > file_->page_size()) {
      throw std::runtime_error("PagedNodeStore: node exceeds page size");
    }
    scratch_.resize(file_->page_size(), 0);
    std::memcpy(guard.data(), scratch_.data(), scratch_.size());
    guard.MarkDirty();
  }

  std::unique_ptr<PageFile> file_;
  BufferPool pool_;
  std::shared_ptr<NodeRecycler<Node>> recycler_ =
      std::make_shared<NodeRecycler<Node>>();
  DecodedNodeCache<Node> cache_;
  size_t readahead_;  ///< Max pages per prefetch run; 0 = readahead off.
  std::vector<uint8_t> scratch_;
  size_t num_nodes_ = 0;
};

}  // namespace mcm

#endif  // MCM_MTREE_NODE_STORE_H_
