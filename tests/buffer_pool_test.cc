#include "mcm/storage/buffer_pool.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <list>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace mcm {
namespace {

TEST(BufferPool, FetchHitAvoidsPhysicalRead) {
  InMemoryPageFile file(32);
  BufferPool pool(&file, 4);
  const PageId id = file.Allocate();
  { PageGuard g = pool.Fetch(id); }
  { PageGuard g = pool.Fetch(id); }
  EXPECT_EQ(pool.stats().fetches, 2u);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(file.stats().reads, 1u);
}

TEST(BufferPool, DirtyPageWrittenBackOnEviction) {
  InMemoryPageFile file(32);
  BufferPool pool(&file, 1);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  {
    PageGuard g = pool.Fetch(a);
    g.data()[0] = 42;
    g.MarkDirty();
  }
  { PageGuard g = pool.Fetch(b); }  // Evicts a, flushing it.
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_EQ(pool.stats().flushes, 1u);
  std::vector<uint8_t> buf(32, 0);
  file.ReadPage(a, buf.data());
  EXPECT_EQ(buf[0], 42u);
}

TEST(BufferPool, CleanEvictionSkipsWriteBack) {
  InMemoryPageFile file(32);
  BufferPool pool(&file, 1);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  { PageGuard g = pool.Fetch(a); }
  const uint64_t writes_before = file.stats().writes;
  { PageGuard g = pool.Fetch(b); }
  EXPECT_EQ(file.stats().writes, writes_before);
}

TEST(BufferPool, LruEvictsLeastRecentlyUsed) {
  InMemoryPageFile file(32);
  BufferPool pool(&file, 2);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  const PageId c = file.Allocate();
  { PageGuard g = pool.Fetch(a); }
  { PageGuard g = pool.Fetch(b); }
  { PageGuard g = pool.Fetch(a); }  // a is now more recent than b.
  { PageGuard g = pool.Fetch(c); }  // Should evict b.
  pool.ResetStats();
  { PageGuard g = pool.Fetch(a); }
  EXPECT_EQ(pool.stats().hits, 1u);  // a still buffered.
  pool.ResetStats();
  { PageGuard g = pool.Fetch(b); }
  EXPECT_EQ(pool.stats().misses, 1u);  // b was evicted.
}

TEST(BufferPool, PinnedPagesCannotBeEvicted) {
  InMemoryPageFile file(32);
  BufferPool pool(&file, 1);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  PageGuard pinned = pool.Fetch(a);
  EXPECT_THROW(pool.Fetch(b), std::runtime_error);
  pinned.Release();
  EXPECT_NO_THROW(pool.Fetch(b));
}

TEST(BufferPool, NewPageIsPinnedZeroedAndDirty) {
  InMemoryPageFile file(16);
  BufferPool pool(&file, 2);
  PageGuard g = pool.NewPage();
  const PageId id = g.id();
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(g.data()[i], 0u);
  }
  g.data()[3] = 9;
  g.Release();
  pool.FlushAll();
  std::vector<uint8_t> buf(16, 0);
  file.ReadPage(id, buf.data());
  EXPECT_EQ(buf[3], 9u);
}

TEST(BufferPool, GuardMoveTransfersPin) {
  InMemoryPageFile file(16);
  BufferPool pool(&file, 2);
  const PageId a = file.Allocate();
  PageGuard g1 = pool.Fetch(a);
  PageGuard g2 = std::move(g1);
  EXPECT_FALSE(g1.valid());
  EXPECT_TRUE(g2.valid());
  g2.Release();
  // Pin fully released: page evictable again.
  const PageId b = file.Allocate();
  BufferPool tight(&file, 1);
  { PageGuard g = tight.Fetch(a); }
  EXPECT_NO_THROW(tight.Fetch(b));
}

TEST(BufferPool, EvictAllFlushesAndDrops) {
  InMemoryPageFile file(16);
  BufferPool pool(&file, 4);
  const PageId a = file.Allocate();
  {
    PageGuard g = pool.Fetch(a);
    g.data()[0] = 5;
    g.MarkDirty();
  }
  pool.EvictAll();
  EXPECT_EQ(pool.num_buffered(), 0u);
  std::vector<uint8_t> buf(16, 0);
  file.ReadPage(a, buf.data());
  EXPECT_EQ(buf[0], 5u);
  pool.ResetStats();
  { PageGuard g = pool.Fetch(a); }
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPool, RejectsBadConstruction) {
  InMemoryPageFile file(16);
  EXPECT_THROW(BufferPool(nullptr, 4), std::invalid_argument);
  EXPECT_THROW(BufferPool(&file, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Frame reuse: a miss on a full shard reads into the LRU victim's buffer.
// Counters and eviction order must be the classic LRU's.
// ---------------------------------------------------------------------------

/// In-memory page file that logs the ids of page writes, in order.
class RecordingPageFile : public InMemoryPageFile {
 public:
  using InMemoryPageFile::InMemoryPageFile;
  std::vector<PageId> writes;

 protected:
  void DoWrite(PageId id, const uint8_t* data) MCM_REQUIRES(mu_) override {
    writes.push_back(id);
    InMemoryPageFile::DoWrite(id, data);
  }
};

/// Reference LRU: capacity frames, most recent at the front.
struct LruModel {
  size_t capacity;
  std::list<PageId> lru;
  std::set<PageId> dirty;
  BufferPoolStats stats;
  std::vector<PageId> evicted;
  std::vector<PageId> flushed;

  bool Fetch(PageId id, bool make_dirty) {
    ++stats.fetches;
    auto it = std::find(lru.begin(), lru.end(), id);
    const bool hit = it != lru.end();
    if (hit) {
      ++stats.hits;
      lru.erase(it);
    } else {
      ++stats.misses;
      if (lru.size() == capacity) {
        const PageId victim = lru.back();
        lru.pop_back();
        ++stats.evictions;
        evicted.push_back(victim);
        if (dirty.erase(victim) != 0) {
          ++stats.flushes;
          flushed.push_back(victim);
        }
      }
    }
    lru.push_front(id);
    if (make_dirty) dirty.insert(id);
    return hit;
  }
};

TEST(BufferPool, TraceReplayMatchesClassicLru) {
  constexpr size_t kPage = 32;
  RecordingPageFile file(kPage);
  for (int i = 0; i < 8; ++i) file.Allocate();
  BufferPool pool(&file, 4);
  ASSERT_EQ(pool.num_shards(), 1u);
  LruModel model{4, {}, {}, {}, {}, {}};
  uint32_t x = 12345;  // LCG: a fixed pseudo-random trace over 8 pages.
  for (uint32_t i = 0; i < 64; ++i) {
    x = (x * 1103515245u + 12345u) & 0x7fffffffu;
    const PageId id = (x >> 16) % 8;
    const bool make_dirty = i % 4 != 3;
    bool hit = false;
    {
      PageGuard guard = pool.Fetch(id, &hit);
      if (make_dirty) {
        guard.data()[0] = static_cast<uint8_t>(i);
        guard.MarkDirty();
      }
    }
    EXPECT_EQ(hit, model.Fetch(id, make_dirty)) << "access " << i;
  }
  const BufferPoolStats got = pool.stats();
  EXPECT_EQ(got.fetches, model.stats.fetches);
  EXPECT_EQ(got.hits, model.stats.hits);
  EXPECT_EQ(got.misses, model.stats.misses);
  EXPECT_EQ(got.evictions, model.stats.evictions);
  EXPECT_EQ(got.flushes, model.stats.flushes);
  EXPECT_EQ(file.writes, model.flushed);  // Write-back order = eviction order.
  // The counts the single-LRU pool has always produced for this trace.
  EXPECT_EQ(got.hits, 32u);
  EXPECT_EQ(got.misses, 32u);
  EXPECT_EQ(got.evictions, 28u);
  EXPECT_EQ(got.flushes, 26u);
}

TEST(BufferPool, DirtyVictimWrittenBackBeforeItsFrameIsReused) {
  InMemoryPageFile file(32);
  BufferPool pool(&file, 1);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  {
    PageGuard g = pool.Fetch(b);
    std::memset(g.data(), 0xbb, 32);
    g.MarkDirty();
  }
  pool.FlushAll();
  {
    PageGuard g = pool.Fetch(a);
    std::memset(g.data(), 0xaa, 32);
    g.MarkDirty();
  }
  {
    PageGuard g = pool.Fetch(b);  // Reuses a's frame.
    EXPECT_EQ(g.data()[0], 0xbb);
    EXPECT_EQ(g.data()[31], 0xbb);
  }
  std::vector<uint8_t> buf(32, 0);
  file.ReadPage(a, buf.data());
  EXPECT_EQ(buf, std::vector<uint8_t>(32, 0xaa));
}

TEST(BufferPool, NewPageZeroesAReusedFrame) {
  InMemoryPageFile file(32);
  BufferPool pool(&file, 1);
  const PageId a = file.Allocate();
  {
    PageGuard g = pool.Fetch(a);
    std::memset(g.data(), 0x5a, 32);
    g.MarkDirty();
  }
  PageGuard fresh = pool.NewPage();  // Evicts a and takes its buffer.
  EXPECT_NE(fresh.id(), a);
  for (size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(fresh.data()[i], 0u) << "byte " << i;
  }
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_EQ(pool.stats().flushes, 1u);
}

TEST(BufferPool, FailedReadLeavesNoFrameBehind) {
  InMemoryPageFile file(32);
  BufferPool pool(&file, 2);
  const PageId a = file.Allocate();
  { PageGuard g = pool.Fetch(a); }
  EXPECT_THROW(pool.Fetch(7), std::out_of_range);
  EXPECT_EQ(pool.num_buffered(), 1u);
  // The failed page was not cached as a (zero) hit.
  EXPECT_THROW(pool.Fetch(7), std::out_of_range);
  // And a full pool whose victim frame took the failed read stays usable.
  const PageId b = file.Allocate();
  { PageGuard g = pool.Fetch(b); }
  EXPECT_THROW(pool.Fetch(9), std::out_of_range);
  EXPECT_EQ(pool.num_buffered(), 1u);
  { PageGuard g = pool.Fetch(a); }
  { PageGuard g = pool.Fetch(b); }
  EXPECT_EQ(pool.num_buffered(), 2u);
}

TEST(BufferPool, DoubleUnpinDetected) {
  InMemoryPageFile file(16);
  BufferPool pool(&file, 2);
  const PageId a = file.Allocate();
  PageGuard g = pool.Fetch(a);
  g.Release();
  EXPECT_FALSE(g.valid());
  g.Release();  // Second release on an invalid guard is a no-op.
}

TEST(BufferPool, ShardCountDefaults) {
  InMemoryPageFile file(16);
  // Small pools keep one shard (exact single-LRU semantics)...
  EXPECT_EQ(BufferPool(&file, 4).num_shards(), 1u);
  EXPECT_EQ(BufferPool(&file, 63).num_shards(), 1u);
  // ...larger pools auto-shard, capped at 8.
  EXPECT_EQ(BufferPool(&file, 128).num_shards(), 2u);
  EXPECT_EQ(BufferPool(&file, 4096).num_shards(), 8u);
  // Explicit shard counts are honored (but never exceed the capacity).
  EXPECT_EQ(BufferPool(&file, 16, 4).num_shards(), 4u);
  EXPECT_EQ(BufferPool(&file, 2, 8).num_shards(), 2u);
}

TEST(BufferPool, FetchReportsPerRequestHit) {
  InMemoryPageFile file(32);
  BufferPool pool(&file, 4);
  const PageId id = file.Allocate();
  bool hit = true;
  { PageGuard g = pool.Fetch(id, &hit); }
  EXPECT_FALSE(hit);
  { PageGuard g = pool.Fetch(id, &hit); }
  EXPECT_TRUE(hit);
}

TEST(BufferPool, ConcurrentReadStress) {
  constexpr size_t kPageSize = 64;
  constexpr size_t kNumPages = 200;
  constexpr size_t kNumThreads = 4;
  constexpr size_t kFetchesPerThread = 2000;

  InMemoryPageFile file(kPageSize);
  // Seed every page with a recognizable pattern derived from its id.
  std::vector<PageId> ids;
  for (size_t p = 0; p < kNumPages; ++p) {
    const PageId id = file.Allocate();
    std::vector<uint8_t> payload(kPageSize);
    for (size_t b = 0; b < kPageSize; ++b) {
      payload[b] = static_cast<uint8_t>((id * 131 + b) & 0xFF);
    }
    file.WritePage(id, payload.data());
    ids.push_back(id);
  }

  // Multi-shard pool far smaller than the page set, so the stress mixes
  // hits, misses, and evictions across shards.
  BufferPool pool(&file, /*capacity=*/64, /*num_shards=*/4);
  std::atomic<uint64_t> corrupt{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0x9E3779B97F4A7C15ull * (t + 1);
      for (size_t i = 0; i < kFetchesPerThread; ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const PageId id = ids[rng % kNumPages];
        bool hit = false;
        PageGuard guard = pool.Fetch(id, &hit);
        for (size_t b = 0; b < kPageSize; ++b) {
          if (guard.data()[b] !=
              static_cast<uint8_t>((id * 131 + b) & 0xFF)) {
            ++corrupt;
            break;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(corrupt.load(), 0u);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.fetches, kNumThreads * kFetchesPerThread);
  // Every fetch is exactly one hit or one miss, even under contention.
  EXPECT_EQ(stats.hits + stats.misses, stats.fetches);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_LE(pool.num_buffered(), pool.capacity());
  // Nothing was dirtied: evictions must not have written anything back.
  EXPECT_EQ(stats.flushes, 0u);
  EXPECT_EQ(file.stats().writes, kNumPages);
}

}  // namespace
}  // namespace mcm
