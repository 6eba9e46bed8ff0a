#include "mcm/storage/buffer_pool.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "mcm/obs/metrics.h"

namespace mcm {

PageGuard::PageGuard(BufferPool* pool, PageId id, uint8_t* data)
    : pool_(pool), id_(id), data_(data) {}

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_), id_(other.id_), data_(other.data_) {
  other.pool_ = nullptr;
  other.data_ = nullptr;
  other.id_ = kInvalidPageId;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    id_ = other.id_;
    data_ = other.data_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
    other.id_ = kInvalidPageId;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

void PageGuard::MarkDirty() {
  if (pool_ != nullptr) {
    pool_->MarkDirty(id_);
  }
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(id_);
    pool_ = nullptr;
    data_ = nullptr;
    id_ = kInvalidPageId;
  }
}

BufferPool::BufferPool(PageFile* file, size_t capacity, size_t num_shards)
    : file_(file), capacity_(capacity) {
  if (file == nullptr) {
    throw std::invalid_argument("BufferPool: null page file");
  }
  if (capacity == 0) {
    throw std::invalid_argument("BufferPool: capacity must be > 0");
  }
  if (num_shards == 0) {
    num_shards = std::clamp<size_t>(capacity / 64, 1, 8);
  }
  num_shards = std::min(num_shards, capacity);  // Every shard gets a frame.
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // Distribute capacity as evenly as possible; earlier shards take the
    // remainder.
    shard->capacity = capacity / num_shards + (s < capacity % num_shards);
    shards_.push_back(std::move(shard));
  }
}

BufferPool::~BufferPool() {
  // Best effort write-back; errors in destructors cannot be reported.
  try {
    FlushAll();
  } catch (...) {
  }
}

PageGuard BufferPool::Fetch(PageId id) { return Fetch(id, nullptr); }

PageGuard BufferPool::Fetch(PageId id, bool* hit) {
  Shard& shard = ShardFor(id);
  PageGuard guard;
  {
    MutexLock lock(&shard.mu);
    ++shard.stats.fetches;
    Frame& frame = LoadFrame(shard, id, /*read_from_file=*/true, hit);
    guard = PageGuard(this, id, frame.data.data());
  }
  PublishPrefetchObs();  // Outside the shard lock (lock-order discipline).
  return guard;
}

size_t BufferPool::Prefetch(PageId first, size_t count) {
  if (count == 0) {
    return 0;
  }
  // Pass 1: note which pages of the run are absent. Presence can race with
  // concurrent fetches, so the install below re-checks under the lock.
  std::vector<PageId> absent;
  absent.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const PageId id = first + static_cast<PageId>(i);
    Shard& shard = ShardFor(id);
    MutexLock lock(&shard.mu);
    if (shard.frames.find(id) == shard.frames.end()) {
      absent.push_back(id);
    }
  }
  // Pass 2: one batched ReadRun per contiguous absent span (no shard lock
  // held across the physical read), then install each page.
  size_t issued = 0;
  const size_t page_size = file_->page_size();
  std::vector<uint8_t> buf;
  for (size_t i = 0; i < absent.size();) {
    size_t j = i + 1;
    while (j < absent.size() && absent[j] == absent[j - 1] + 1) {
      ++j;
    }
    const size_t run = j - i;
    buf.resize(run * page_size);
    file_->ReadRun(absent[i], run, buf.data());
    for (size_t k = 0; k < run; ++k) {
      const PageId id = absent[i + k];
      Shard& shard = ShardFor(id);
      MutexLock lock(&shard.mu);
      if (shard.frames.find(id) != shard.frames.end()) {
        continue;  // A concurrent Fetch raced the page in; keep its frame.
      }
      if (shard.frames.size() >= shard.capacity && shard.lru.empty()) {
        continue;  // Every frame pinned: readahead never throws, it skips.
      }
      Frame& frame = InstallFrame(shard, id);  // Unpinned, LRU front.
      std::memcpy(frame.data.data(), buf.data() + k * page_size, page_size);
      frame.prefetched = true;
      ++shard.stats.prefetch_issued;
      ++issued;
    }
    i = j;
  }
  if (issued > 0 && ObsEnabled()) {
    MetricsRegistry::Global().GetCounter("prefetch.issued").Increment(issued);
  }
  PublishPrefetchObs();
  return issued;
}

PageGuard BufferPool::NewPage() {
  const PageId id = file_->Allocate();
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu);
  ++shard.stats.fetches;
  Frame& frame =
      LoadFrame(shard, id, /*read_from_file=*/false, /*hit=*/nullptr);
  std::memset(frame.data.data(), 0, frame.data.size());
  frame.dirty = true;
  return PageGuard(this, id, frame.data.data());
}

BufferPool::Frame& BufferPool::LoadFrame(Shard& shard, PageId id,
                                         bool read_from_file, bool* hit) {
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    ++shard.stats.hits;
    if (hit != nullptr) *hit = true;
    Frame& frame = it->second;
    if (frame.prefetched) {
      frame.prefetched = false;
      ++shard.stats.prefetch_used;
      if (ObsEnabled()) {
        pending_obs_used_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    Pin(shard, frame);
    return frame;
  }
  ++shard.stats.misses;
  if (hit != nullptr) *hit = false;
  Frame& frame = InstallFrame(shard, id);
  if (read_from_file) {
    try {
      file_->ReadPage(id, frame.data.data());
    } catch (...) {
      // Leave no frame claiming to hold a page that was never read.
      shard.lru.erase(frame.lru_pos);
      shard.frames.erase(id);
      throw;
    }
  }
  Pin(shard, frame);
  return frame;
}

BufferPool::Frame& BufferPool::InstallFrame(Shard& shard, PageId id) {
  if (shard.frames.size() < shard.capacity) {
    Frame& frame = shard.frames[id];
    frame.data.resize(file_->page_size());
    shard.lru.push_front(id);
    frame.lru_pos = shard.lru.begin();
    frame.in_lru = true;
    return frame;
  }
  if (shard.lru.empty()) {
    throw std::runtime_error("BufferPool: all frames pinned, cannot evict");
  }
  // Reuse the LRU victim's frame: write it back first (a failed write
  // leaves the pool unchanged), then re-key its map and list nodes.
  const PageId victim = shard.lru.back();
  auto it = shard.frames.find(victim);
  FlushFrame(shard, victim, it->second);
  RetireFrame(shard, it->second);
  ++shard.stats.evictions;
  auto node = shard.frames.extract(it);
  node.key() = id;
  Frame& frame = shard.frames.insert(std::move(node)).position->second;
  *frame.lru_pos = id;
  shard.lru.splice(shard.lru.begin(), shard.lru, frame.lru_pos);
  return frame;
}

void BufferPool::Pin(Shard& shard, Frame& frame) {
  if (frame.in_lru) {
    shard.pinned.splice(shard.pinned.begin(), shard.lru, frame.lru_pos);
    frame.in_lru = false;
  }
  ++frame.pin_count;
}

void BufferPool::RetireFrame(Shard& shard, Frame& frame) {
  if (frame.prefetched) {
    frame.prefetched = false;
    ++shard.stats.prefetch_wasted;
    if (ObsEnabled()) {
      pending_obs_wasted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void BufferPool::PublishPrefetchObs() {
  // Every Fetch calls this: load before exchanging, so the common empty
  // backlog (always, with MCM_OBS off) costs no write to a shared line.
  if (pending_obs_used_.load(std::memory_order_relaxed) == 0 &&
      pending_obs_wasted_.load(std::memory_order_relaxed) == 0) {
    return;
  }
  const uint64_t used =
      pending_obs_used_.exchange(0, std::memory_order_relaxed);
  const uint64_t wasted =
      pending_obs_wasted_.exchange(0, std::memory_order_relaxed);
  if (!ObsEnabled()) {
    return;  // Backlog only accumulates under MCM_OBS; drop any remainder.
  }
  auto& registry = MetricsRegistry::Global();
  if (used > 0) {
    registry.GetCounter("prefetch.used").Increment(used);
  }
  if (wasted > 0) {
    registry.GetCounter("prefetch.wasted").Increment(wasted);
  }
}

void BufferPool::Unpin(PageId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end() || it->second.pin_count == 0) {
    throw std::logic_error("BufferPool: unpin of unpinned page");
  }
  Frame& frame = it->second;
  if (--frame.pin_count == 0) {
    shard.lru.splice(shard.lru.begin(), shard.pinned, frame.lru_pos);
    frame.in_lru = true;
  }
}

void BufferPool::MarkDirty(PageId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) {
    throw std::logic_error("BufferPool: MarkDirty of absent page");
  }
  it->second.dirty = true;
}

void BufferPool::FlushFrame(Shard& shard, PageId id, Frame& frame) {
  if (frame.dirty) {
    file_->WritePage(id, frame.data.data());
    frame.dirty = false;
    ++shard.stats.flushes;
  }
}

void BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    for (auto& [id, frame] : shard->frames) {
      FlushFrame(*shard, id, frame);
    }
  }
}

void BufferPool::EvictAll() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    for (auto it = shard->frames.begin(); it != shard->frames.end();) {
      if (it->second.pin_count == 0) {
        RetireFrame(*shard, it->second);
        FlushFrame(*shard, it->first, it->second);
        shard->lru.erase(it->second.lru_pos);
        it = shard->frames.erase(it);
      } else {
        ++it;
      }
    }
  }
}

size_t BufferPool::num_buffered() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->frames.size();
  }
  return total;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total.fetches += shard->stats.fetches;
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.evictions += shard->stats.evictions;
    total.flushes += shard->stats.flushes;
    total.prefetch_issued += shard->stats.prefetch_issued;
    total.prefetch_used += shard->stats.prefetch_used;
    total.prefetch_wasted += shard->stats.prefetch_wasted;
  }
  return total;
}

void BufferPool::ResetStats() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    shard->stats = BufferPoolStats();
  }
}

}  // namespace mcm
