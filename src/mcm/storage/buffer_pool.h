// LRU buffer pool over a PageFile. Index node stores fetch their pages
// through the pool; logical fetches are what the paper counts as I/O cost,
// while pool misses correspond to physical reads.
//
// The pool is safe for concurrent readers (the batch executor's threads):
// frames are partitioned into shards keyed by page id, each shard holding
// its own mutex, LRU list, and counters. Small pools (the default for unit
// tests and tight cost experiments) get exactly one shard, which preserves
// the classic single-LRU eviction order; larger pools auto-shard (about one
// shard per 64 frames, at most 8) so readers on different shards never
// contend. stats() aggregates the per-shard counters into a snapshot
// returned by value.
//
// A miss on a full shard reuses the LRU victim's frame: the victim is
// written back if dirty, its map node and LRU list node are re-keyed to the
// new page, and the page is read straight into its existing buffer. Pinning
// and unpinning move a frame's list node between the LRU list and a list of
// pinned frames. So once a shard is full, a fetch allocates nothing; only
// NewPage zero-fills a frame.

#ifndef MCM_STORAGE_BUFFER_POOL_H_
#define MCM_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mcm/common/mutex.h"
#include "mcm/common/thread_annotations.h"
#include "mcm/storage/page_file.h"

namespace mcm {

/// Buffer pool counters.
struct BufferPoolStats {
  uint64_t fetches = 0;    ///< Logical page requests.
  uint64_t hits = 0;       ///< Requests served from the pool.
  uint64_t misses = 0;     ///< Requests that read from the PageFile.
  uint64_t evictions = 0;  ///< Frames evicted to make room.
  uint64_t flushes = 0;    ///< Dirty pages written back.
  uint64_t prefetch_issued = 0;  ///< Pages loaded ahead of demand.
  uint64_t prefetch_used = 0;    ///< Prefetched pages later fetched.
  uint64_t prefetch_wasted = 0;  ///< Prefetched pages evicted unfetched.
};

class BufferPool;

/// RAII pin on a buffered page. The frame cannot be evicted while at least
/// one PageGuard references it. Call MarkDirty() after mutating data().
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, PageId id, uint8_t* data);
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  /// Mutable page bytes (page_size() of them). Valid while the guard lives.
  uint8_t* data() const { return data_; }
  PageId id() const { return id_; }
  bool valid() const { return pool_ != nullptr; }

  /// Flags the page so it is written back before eviction.
  void MarkDirty();

  /// Releases the pin early.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  uint8_t* data_ = nullptr;
};

/// Fixed-capacity LRU page cache with pin counts, dirty write-back, and
/// sharded locking for concurrent readers.
class BufferPool {
 public:
  /// Creates a pool of `capacity` frames over `file` (not owned).
  /// `num_shards` = 0 picks automatically: one shard per 64 frames,
  /// clamped to [1, 8] — so small pools behave as a single exact LRU.
  BufferPool(PageFile* file, size_t capacity, size_t num_shards = 0);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches page `id`, pinning it in the pool.
  PageGuard Fetch(PageId id);

  /// Fetches page `id` and reports through `*hit` whether this particular
  /// request was served from the pool — the race-free way for a caller to
  /// attribute hit/miss to its own fetch (diffing stats() snapshots is not,
  /// once other threads share the pool).
  PageGuard Fetch(PageId id, bool* hit);

  /// Allocates a fresh page and returns it pinned and zeroed (its frame is
  /// zero-filled even when it reuses an evicted page's buffer).
  PageGuard NewPage();

  /// Readahead: loads whatever pages of [first, first + count) are absent
  /// from the pool, reading each contiguous absent span with one batched
  /// PageFile::ReadRun (one physical read operation per span). Loaded
  /// frames enter the pool unpinned and flagged: a later Fetch of such a
  /// frame counts prefetch_used, an eviction before any fetch counts
  /// prefetch_wasted. Shards whose frames are all pinned are skipped
  /// rather than grown. Returns the number of pages loaded
  /// (prefetch_issued). Never affects Fetch results or logical counts —
  /// only the hit/miss split and the physical read pattern.
  size_t Prefetch(PageId first, size_t count);

  /// Writes back all dirty pages (pinned ones included).
  void FlushAll();

  /// Drops all unpinned frames (after flushing them); used by tests to force
  /// cold reads.
  void EvictAll();

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  size_t num_buffered() const;

  /// Aggregated counter snapshot (sums over shards), returned by value.
  BufferPoolStats stats() const;

  /// Zeroes the counters. Prefer diffing CaptureIoStats (storage/io_stats.h)
  /// snapshots instead: a reset clobbers every concurrent observer's view of
  /// the same pool.
  void ResetStats();
  PageFile* file() const { return file_; }

 private:
  friend class PageGuard;

  struct Frame {
    std::vector<uint8_t> data;
    uint32_t pin_count = 0;
    bool dirty = false;
    bool prefetched = false;  // Loaded by Prefetch, not yet fetched.
    /// This frame's node in Shard::lru (in_lru, exactly when pin_count is
    /// 0) or else in Shard::pinned.
    std::list<PageId>::iterator lru_pos;
    bool in_lru = false;
  };

  /// One lock domain: a slice of the frame capacity with its own LRU.
  struct Shard {
    mutable Mutex mu;
    size_t capacity = 0;  // Immutable once the pool is constructed.
    std::unordered_map<PageId, Frame> frames MCM_GUARDED_BY(mu);
    std::list<PageId> lru MCM_GUARDED_BY(mu);  // Front = most recent;
                                               // only unpinned pages.
    std::list<PageId> pinned MCM_GUARDED_BY(mu);  // Pinned pages, any order.
    BufferPoolStats stats MCM_GUARDED_BY(mu);
  };

  Shard& ShardFor(PageId id) { return *shards_[id % shards_.size()]; }

  void Unpin(PageId id);
  void MarkDirty(PageId id);
  Frame& LoadFrame(Shard& shard, PageId id, bool read_from_file, bool* hit)
      MCM_REQUIRES(shard.mu);
  Frame& InstallFrame(Shard& shard, PageId id) MCM_REQUIRES(shard.mu);
  void Pin(Shard& shard, Frame& frame) MCM_REQUIRES(shard.mu);
  void FlushFrame(Shard& shard, PageId id, Frame& frame)
      MCM_REQUIRES(shard.mu);
  void RetireFrame(Shard& shard, Frame& frame) MCM_REQUIRES(shard.mu);
  void PublishPrefetchObs();

  PageFile* file_;
  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Obs-registry backlog for prefetch_used/wasted events noted under a
  /// shard lock; drained (and forwarded to the metrics registry) at the
  /// next unlocked opportunity so no registry lock nests inside a shard's.
  std::atomic<uint64_t> pending_obs_used_{0};
  std::atomic<uint64_t> pending_obs_wasted_{0};
};

}  // namespace mcm

#endif  // MCM_STORAGE_BUFFER_POOL_H_
