// Disk-page substrate. An M-tree node occupies exactly one fixed-size page;
// the paper's I/O cost is the number of page (node) reads. PageFile is the
// raw store; BufferPool (buffer_pool.h) adds caching on top.

#ifndef MCM_STORAGE_PAGE_FILE_H_
#define MCM_STORAGE_PAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mcm/common/mutex.h"
#include "mcm/common/thread_annotations.h"

namespace mcm {

/// Identifier of a page within a PageFile.
using PageId = uint32_t;

/// Sentinel for "no page".
inline constexpr PageId kInvalidPageId = static_cast<PageId>(-1);

/// Physical I/O counters of a PageFile.
struct PageFileStats {
  /// Physical read *operations*: one per ReadPage call and one per ReadRun
  /// call, however many pages the run covers — so a batched sequential read
  /// of a child run costs one operation where per-page reads cost k.
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allocations = 0;
  /// Pages transferred by read operations (ReadPage adds 1, ReadRun adds
  /// the run length). reads == read_pages exactly when no run reads happen.
  uint64_t read_pages = 0;
  /// Wall-clock nanoseconds spent inside ReadPage/ReadRun. Accumulated only
  /// when MCM_OBS is on (zero otherwise), so the untimed read path is
  /// unchanged.
  uint64_t read_ns = 0;
};

/// Abstract store of fixed-size pages.
///
/// Implementations must support random reads and writes of whole pages.
/// Freed pages are recycled by subsequent allocations. Every public
/// operation is safe to call concurrently, so a PageFile can back a
/// sharded BufferPool whose shards read through it concurrently. An
/// internal mutex guards the counters, the free list and the page count,
/// which a concurrent Allocate grows: a read range-checks and counts under
/// it, then transfers through DoReadRun, which takes the lock only when
/// its backend needs it (StdioPageFile's positional reads share no seek
/// position and run outside it). Pages never shrink or move, so a checked
/// page stays readable. As with any file, a read racing a write of the
/// same page may see parts of both: a caller that writes pages while
/// others read them serializes the two itself.
class PageFile {
 public:
  explicit PageFile(size_t page_size);
  virtual ~PageFile() = default;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Allocates a new (zeroed) page and returns its id.
  PageId Allocate() MCM_EXCLUDES(mu_);

  /// Returns a previously allocated page to the free list.
  void Free(PageId id) MCM_EXCLUDES(mu_);

  /// Reads page `id` into `out` (must hold page_size() bytes): ReadRun of
  /// one page.
  ///
  /// Only the BufferPool (and storage tests) may call this directly: every
  /// index page access must flow through a pool so logical I/O counts stay
  /// exact (enforced by the `no-pagefile-bypass` lint rule).
  void ReadPage(PageId id, uint8_t* out) MCM_EXCLUDES(mu_) {
    ReadRun(id, 1, out);
  }

  /// Reads `count` consecutive pages starting at `first` into `out` (which
  /// must hold count * page_size() bytes) as ONE physical read operation:
  /// `stats().reads` grows by one while `stats().read_pages` grows by
  /// `count`. The file and memory backends transfer the whole run at once
  /// (one pread, one memcpy). Same access policy as ReadPage().
  void ReadRun(PageId first, size_t count, uint8_t* out) MCM_EXCLUDES(mu_);

  /// Writes page_size() bytes from `data` to page `id`. Same access policy
  /// as ReadPage().
  void WritePage(PageId id, const uint8_t* data) MCM_EXCLUDES(mu_);

  size_t page_size() const { return page_size_; }

  /// Number of pages ever allocated (including freed ones).
  size_t num_pages() const MCM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return num_pages_;
  }

  /// Counter snapshot, returned by value (safe under concurrent readers).
  PageFileStats stats() const MCM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }

  /// Zeroes the counters. Prefer diffing CaptureIoStats (storage/io_stats.h)
  /// snapshots instead: a reset clobbers every concurrent observer's view.
  void ResetStats() MCM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    stats_ = PageFileStats();
  }

 protected:
  /// Transfers `count` range-checked pages starting at `first` into `out`.
  /// Called without mu_: a backend whose storage moves under Allocate
  /// takes the lock itself.
  virtual void DoReadRun(PageId first, size_t count, uint8_t* out)
      MCM_EXCLUDES(mu_) = 0;
  virtual void DoWrite(PageId id, const uint8_t* data) MCM_REQUIRES(mu_) = 0;
  virtual void DoExtend(size_t new_num_pages) MCM_REQUIRES(mu_) = 0;

  void CheckId(PageId id) const MCM_REQUIRES(mu_);

  mutable Mutex mu_;  ///< Guards the counters, free list and page count.
  size_t page_size_;  ///< Immutable after construction.
  size_t num_pages_ MCM_GUARDED_BY(mu_) = 0;
  std::vector<PageId> free_list_ MCM_GUARDED_BY(mu_);
  PageFileStats stats_ MCM_GUARDED_BY(mu_);
};

/// Page store backed by heap memory. This is the default store for
/// experiments: node accesses are still counted logically through the
/// buffer pool, without paying real disk latency. Reads copy under mu_,
/// because Allocate resizes (and may move) the backing vector.
class InMemoryPageFile : public PageFile {
 public:
  explicit InMemoryPageFile(size_t page_size);

 protected:
  void DoReadRun(PageId first, size_t count, uint8_t* out)
      MCM_EXCLUDES(mu_) override;
  void DoWrite(PageId id, const uint8_t* data) MCM_REQUIRES(mu_) override;
  void DoExtend(size_t new_num_pages) MCM_REQUIRES(mu_) override;

 private:
  std::vector<uint8_t> data_ MCM_GUARDED_BY(mu_);
};

/// Page store backed by a real file, read and written with one positional
/// syscall per transfer (pread/pwrite on a file descriptor; EINTR and short
/// transfers are retried, end of file throws). Used by the persistence
/// layer. The name predates the descriptor-based implementation, when the
/// file went through stdio; it stays because the layer benchmark
/// (perfbench/) constructs the class by this name and with this
/// constructor, and that directory changes only together with the
/// benchmark.
class StdioPageFile : public PageFile {
 public:
  enum class Mode {
    kCreate,        ///< Create or truncate the file.
    kOpenExisting,  ///< Open a previously written page file; the page count
                    ///< is recovered from the file size.
  };

  /// Opens `path` as a page file in the given mode. Throws
  /// std::runtime_error (closing the file again) when it cannot be opened
  /// or, in kOpenExisting mode, when its size is not a whole number of
  /// pages.
  StdioPageFile(const std::string& path, size_t page_size,
                Mode mode = Mode::kCreate);
  ~StdioPageFile() override;

 protected:
  void DoReadRun(PageId first, size_t count, uint8_t* out)
      MCM_EXCLUDES(mu_) override;
  void DoWrite(PageId id, const uint8_t* data) MCM_REQUIRES(mu_) override;
  void DoExtend(size_t new_num_pages) MCM_REQUIRES(mu_) override;

 private:
  /// Open for the object's lifetime. Reads use it outside mu_; writes and
  /// extensions happen under mu_.
  int fd_ = -1;
};

}  // namespace mcm

#endif  // MCM_STORAGE_PAGE_FILE_H_
