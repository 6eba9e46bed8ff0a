#include "mcm/storage/page_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "mcm/common/clock.h"
#include "mcm/obs/metrics.h"

namespace mcm {

PageFile::PageFile(size_t page_size) : page_size_(page_size) {
  if (page_size == 0) {
    throw std::invalid_argument("PageFile: page size must be > 0");
  }
}

PageId PageFile::Allocate() {
  MutexLock lock(&mu_);
  ++stats_.allocations;
  if (!free_list_.empty()) {
    const PageId id = free_list_.back();
    free_list_.pop_back();
    return id;
  }
  const PageId id = static_cast<PageId>(num_pages_);
  ++num_pages_;
  DoExtend(num_pages_);
  return id;
}

void PageFile::Free(PageId id) {
  MutexLock lock(&mu_);
  CheckId(id);
  free_list_.push_back(id);
}

void PageFile::ReadRun(PageId first, size_t count, uint8_t* out) {
  if (count == 0) {
    return;
  }
  {
    MutexLock lock(&mu_);
    CheckId(first);
    CheckId(first + static_cast<PageId>(count) - 1);
    ++stats_.reads;
    stats_.read_pages += count;
  }
  if (!ObsEnabled()) {
    DoReadRun(first, count, out);
    return;
  }
  const uint64_t start_ns = MonotonicNanos();
  DoReadRun(first, count, out);
  const uint64_t elapsed_ns = MonotonicNanos() - start_ns;
  MutexLock lock(&mu_);
  stats_.read_ns += elapsed_ns;
}

void PageFile::WritePage(PageId id, const uint8_t* data) {
  MutexLock lock(&mu_);
  CheckId(id);
  ++stats_.writes;
  DoWrite(id, data);
}

void PageFile::CheckId(PageId id) const {
  if (id >= num_pages_) {
    throw std::out_of_range("PageFile: page id out of range");
  }
}

InMemoryPageFile::InMemoryPageFile(size_t page_size) : PageFile(page_size) {}

void InMemoryPageFile::DoWrite(PageId id, const uint8_t* data) {
  std::memcpy(data_.data() + static_cast<size_t>(id) * page_size_, data,
              page_size_);
}

void InMemoryPageFile::DoExtend(size_t new_num_pages) {
  data_.resize(new_num_pages * page_size_, 0);
}

void InMemoryPageFile::DoReadRun(PageId first, size_t count, uint8_t* out) {
  MutexLock lock(&mu_);
  std::memcpy(out, data_.data() + static_cast<size_t>(first) * page_size_,
              count * page_size_);
}

namespace {

off_t PageOffset(PageId id, size_t page_size) {
  return static_cast<off_t>(id) * static_cast<off_t>(page_size);
}

/// pread until `bytes` arrived: retries EINTR and short reads, and throws
/// at end of file (a read past the pages the file really holds).
void ReadFully(int fd, uint8_t* out, size_t bytes, off_t offset) {
  while (bytes > 0) {
    const ssize_t n = ::pread(fd, out, bytes, offset);
    if (n > 0) {
      out += n;
      bytes -= static_cast<size_t>(n);
      offset += n;
    } else if (n == 0) {
      throw std::runtime_error("StdioPageFile: read past end of file");
    } else if (errno != EINTR) {
      throw std::runtime_error("StdioPageFile: read failed");
    }
  }
}

/// pwrite until all `bytes` are written; retries EINTR and short writes.
void WriteFully(int fd, const uint8_t* data, size_t bytes, off_t offset) {
  while (bytes > 0) {
    const ssize_t n = ::pwrite(fd, data, bytes, offset);
    if (n > 0) {
      data += n;
      bytes -= static_cast<size_t>(n);
      offset += n;
    } else if (n == 0 || errno != EINTR) {
      throw std::runtime_error("StdioPageFile: write failed");
    }
  }
}

}  // namespace

StdioPageFile::StdioPageFile(const std::string& path, size_t page_size,
                             Mode mode)
    : PageFile(page_size) {
  const int flags = mode == Mode::kCreate ? O_RDWR | O_CREAT | O_TRUNC
                                          : O_RDWR;
  fd_ = ::open(path.c_str(), flags | O_CLOEXEC, 0666);
  if (fd_ < 0) {
    throw std::runtime_error("StdioPageFile: cannot open " + path);
  }
  if (mode == Mode::kOpenExisting) {
    // No destructor runs for a half-built object: close before throwing.
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
      ::close(fd_);
      throw std::runtime_error("StdioPageFile: cannot size " + path);
    }
    const auto bytes = static_cast<size_t>(st.st_size);
    if (bytes % page_size != 0) {
      ::close(fd_);
      throw std::runtime_error(
          "StdioPageFile: file size is not a multiple of the page size");
    }
    num_pages_ = bytes / page_size;
  }
}

StdioPageFile::~StdioPageFile() { ::close(fd_); }

void StdioPageFile::DoWrite(PageId id, const uint8_t* data) {
  WriteFully(fd_, data, page_size_, PageOffset(id, page_size_));
}

void StdioPageFile::DoReadRun(PageId first, size_t count, uint8_t* out) {
  // One positional read for the whole run — the physical win the bulk
  // loader's contiguous child runs are laid out for.
  ReadFully(fd_, out, count * page_size_, PageOffset(first, page_size_));
}

void StdioPageFile::DoExtend(size_t new_num_pages) {
  // The file grows by zero bytes, so reads of fresh pages succeed.
  if (::ftruncate(fd_, static_cast<off_t>(new_num_pages * page_size_)) != 0) {
    throw std::runtime_error("StdioPageFile: extend failed");
  }
}

}  // namespace mcm
