// Per-test private temp directory. Test binaries run side by side (ctest
// -j, and the sanitizer legs build and run the same tests next to the main
// suite), and all of them share ::testing::TempDir(); a fixed file name
// there lets one process overwrite another's file. ScopedTempDir makes a
// fresh mkdtemp directory under ::testing::TempDir() and removes it, files
// included, when it goes out of scope.

#ifndef MCM_TESTS_TEMP_DIR_H_
#define MCM_TESTS_TEMP_DIR_H_

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include <gtest/gtest.h>

namespace mcm {
namespace test {

class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string pattern = ::testing::TempDir() + "/mcm_test_XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("ScopedTempDir: mkdtemp failed for " +
                               pattern);
    }
    path_ = std::move(pattern);
  }

  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

  /// The path of file `name` inside this directory.
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace test
}  // namespace mcm

#endif  // MCM_TESTS_TEMP_DIR_H_
