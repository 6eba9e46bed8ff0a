#include "mcm/storage/page_file.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

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

}  // namespace
}  // namespace mcm
