#include "mcm/storage/page_file.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "temp_dir.h"

namespace mcm {
namespace {

class PageFileTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<PageFile> Make(size_t page_size) {
    if (GetParam() == "memory") {
      return std::make_unique<InMemoryPageFile>(page_size);
    }
    return std::make_unique<StdioPageFile>(dir_.File("pages.bin"),
                                           page_size);
  }

  test::ScopedTempDir dir_;
};

TEST_P(PageFileTest, AllocateReadWriteRoundTrip) {
  auto file = Make(64);
  const PageId a = file->Allocate();
  const PageId b = file->Allocate();
  EXPECT_NE(a, b);
  std::vector<uint8_t> data(64, 0xab);
  file->WritePage(a, data.data());
  std::vector<uint8_t> other(64, 0x11);
  file->WritePage(b, other.data());

  std::vector<uint8_t> out(64, 0);
  file->ReadPage(a, out.data());
  EXPECT_EQ(out, data);
  file->ReadPage(b, out.data());
  EXPECT_EQ(out, other);
}

TEST_P(PageFileTest, FreshPagesAreZeroed) {
  auto file = Make(32);
  const PageId id = file->Allocate();
  std::vector<uint8_t> out(32, 0xff);
  file->ReadPage(id, out.data());
  EXPECT_EQ(out, std::vector<uint8_t>(32, 0));
}

TEST_P(PageFileTest, FreeListRecyclesPages) {
  auto file = Make(32);
  const PageId a = file->Allocate();
  file->Allocate();
  file->Free(a);
  const PageId c = file->Allocate();
  EXPECT_EQ(c, a);
  EXPECT_EQ(file->num_pages(), 2u);
}

TEST_P(PageFileTest, OutOfRangeAccessThrows) {
  auto file = Make(32);
  std::vector<uint8_t> buf(32, 0);
  EXPECT_THROW(file->ReadPage(0, buf.data()), std::out_of_range);
  file->Allocate();
  EXPECT_THROW(file->ReadPage(1, buf.data()), std::out_of_range);
  EXPECT_THROW(file->WritePage(5, buf.data()), std::out_of_range);
  EXPECT_THROW(file->Free(9), std::out_of_range);
}

TEST_P(PageFileTest, StatsCountOperations) {
  auto file = Make(32);
  const PageId id = file->Allocate();
  std::vector<uint8_t> buf(32, 1);
  file->WritePage(id, buf.data());
  file->ReadPage(id, buf.data());
  file->ReadPage(id, buf.data());
  EXPECT_EQ(file->stats().allocations, 1u);
  EXPECT_EQ(file->stats().writes, 1u);
  EXPECT_EQ(file->stats().reads, 2u);
  file->ResetStats();
  EXPECT_EQ(file->stats().reads, 0u);
}

TEST_P(PageFileTest, ManyPagesKeepIntegrity) {
  auto file = Make(16);
  std::vector<PageId> ids;
  for (uint8_t i = 0; i < 50; ++i) {
    const PageId id = file->Allocate();
    std::vector<uint8_t> buf(16, i);
    file->WritePage(id, buf.data());
    ids.push_back(id);
  }
  for (uint8_t i = 0; i < 50; ++i) {
    std::vector<uint8_t> buf(16, 0);
    file->ReadPage(ids[i], buf.data());
    EXPECT_EQ(buf[0], i);
    EXPECT_EQ(buf[15], i);
  }
}

TEST_P(PageFileTest, ReadRunMatchesPageReads) {
  constexpr size_t kPage = 64;
  auto file = Make(kPage);
  for (uint8_t i = 0; i < 8; ++i) {
    const PageId id = file->Allocate();
    std::vector<uint8_t> buf(kPage);
    for (size_t b = 0; b < kPage; ++b) {
      buf[b] = static_cast<uint8_t>(i * 31 + b);
    }
    file->WritePage(id, buf.data());
  }
  for (const auto& [first, count] :
       std::vector<std::pair<PageId, size_t>>{{0, 8}, {2, 3}, {7, 1}}) {
    std::vector<uint8_t> run(count * kPage, 0);
    file->ReadRun(first, count, run.data());
    std::vector<uint8_t> pages(count * kPage, 0);
    for (size_t i = 0; i < count; ++i) {
      file->ReadPage(first + static_cast<PageId>(i), pages.data() + i * kPage);
    }
    EXPECT_EQ(run, pages) << "run at " << first << " of " << count;
  }
  EXPECT_THROW(
      {
        std::vector<uint8_t> run(2 * kPage);
        file->ReadRun(7, 2, run.data());
      },
      std::out_of_range);
}

// Reads run outside the file's lock (StdioPageFile) or copy under it
// (InMemoryPageFile, whose vector Allocate may move): either way four
// readers racing a fifth thread that grows the file get every byte back
// and every operation counted once.
TEST_P(PageFileTest, ConcurrentReadsWhileAllocating) {
  constexpr size_t kPage = 64;
  constexpr size_t kPages = 32;
  constexpr size_t kRun = 4;
  constexpr int kReaders = 4;
  constexpr int kRounds = 300;
  constexpr int kAllocations = 200;
  auto file = Make(kPage);
  std::vector<uint8_t> expected(kPages * kPage);
  for (size_t p = 0; p < kPages; ++p) {
    const PageId id = file->Allocate();
    for (size_t b = 0; b < kPage; ++b) {
      expected[p * kPage + b] = static_cast<uint8_t>(p * 7 + b);
    }
    file->WritePage(id, expected.data() + p * kPage);
  }
  file->ResetStats();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint8_t> buf(kRun * kPage);
      for (int r = 0; r < kRounds; ++r) {
        const auto id = static_cast<PageId>((t * 5 + r) % kPages);
        file->ReadPage(id, buf.data());
        if (std::memcmp(buf.data(), expected.data() + id * kPage, kPage) !=
            0) {
          ++mismatches;
        }
        const auto first = static_cast<PageId>((t + r) % (kPages - kRun));
        file->ReadRun(first, kRun, buf.data());
        if (std::memcmp(buf.data(), expected.data() + first * kPage,
                        kRun * kPage) != 0) {
          ++mismatches;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kAllocations; ++i) file->Allocate();
  });
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const PageFileStats stats = file->stats();
  EXPECT_EQ(stats.reads, 2u * kReaders * kRounds);
  EXPECT_EQ(stats.read_pages, (1 + kRun) * kReaders * kRounds);
  EXPECT_EQ(stats.allocations, static_cast<uint64_t>(kAllocations));
  EXPECT_EQ(file->num_pages(), kPages + kAllocations);
}

INSTANTIATE_TEST_SUITE_P(Backends, PageFileTest,
                         ::testing::Values("memory", "stdio"),
                         [](const auto& info) { return info.param; });

TEST(PageFile, ZeroPageSizeRejected) {
  EXPECT_THROW(InMemoryPageFile(0), std::invalid_argument);
}

TEST(StdioPageFile, UnopenablePathThrows) {
  EXPECT_THROW(StdioPageFile("/nonexistent-dir/x/y.bin", 32),
               std::runtime_error);
}

TEST(StdioPageFile, ReopenRecoversPagesAndBytes) {
  test::ScopedTempDir dir;
  const std::string path = dir.File("pages.bin");
  {
    StdioPageFile file(path, 32);
    for (uint8_t i = 0; i < 5; ++i) {
      const PageId id = file.Allocate();
      const std::vector<uint8_t> buf(32, static_cast<uint8_t>(i + 1));
      file.WritePage(id, buf.data());
    }
  }
  StdioPageFile file(path, 32, StdioPageFile::Mode::kOpenExisting);
  ASSERT_EQ(file.num_pages(), 5u);
  std::vector<uint8_t> buf(32, 0);
  file.ReadPage(4, buf.data());
  EXPECT_EQ(buf, std::vector<uint8_t>(32, 5));
}

TEST(StdioPageFile, ReadPastEndOfTruncatedFileThrows) {
  test::ScopedTempDir dir;
  const std::string path = dir.File("pages.bin");
  StdioPageFile file(path, 64);
  for (int i = 0; i < 4; ++i) {
    file.Allocate();
  }
  // Another writer cuts the file to 2.5 pages behind the open page file.
  std::filesystem::resize_file(path, 160);
  std::vector<uint8_t> buf(4 * 64, 0);
  EXPECT_NO_THROW(file.ReadPage(1, buf.data()));
  EXPECT_THROW(file.ReadPage(2, buf.data()), std::runtime_error);
  EXPECT_THROW(file.ReadPage(3, buf.data()), std::runtime_error);
  EXPECT_THROW(file.ReadRun(0, 4, buf.data()), std::runtime_error);
}

size_t OpenDescriptors() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(StdioPageFile, RejectedFileLeavesNoOpenDescriptor) {
  if (!std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "no /proc/self/fd on this platform";
  }
  test::ScopedTempDir dir;
  const std::string path = dir.File("odd.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const std::string bytes(4103, 'x');  // Not a whole number of pages.
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const size_t before = OpenDescriptors();
  for (int i = 0; i < 100; ++i) {
    EXPECT_THROW(
        StdioPageFile(path, 4096, StdioPageFile::Mode::kOpenExisting),
        std::runtime_error);
  }
  EXPECT_EQ(OpenDescriptors(), before);
}

}  // namespace
}  // namespace mcm
