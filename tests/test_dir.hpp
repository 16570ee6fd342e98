#pragma once

// Per-test scratch directory, so tests that touch the file system stay
// hermetic when ctest runs them in parallel.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace insitu::test {

/// A fresh, empty directory under the system temp directory whose name is
/// unique to the running test (suite, test name, pid). Removed with its
/// contents when the object is destroyed.
class TestDir {
 public:
  TestDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "insitu_" + std::string(info->test_suite_name()) +
                       "." + info->name() + "_" + std::to_string(::getpid());
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized test names contain '/'
    }
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TestDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  /// The directory itself.
  std::string str() const { return path_.string(); }
  /// A path for `name` inside the directory.
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace insitu::test
