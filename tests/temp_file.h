// Test helper: a scratch file named per test and process under
// ::testing::TempDir(), removed when the test ends. ctest runs each case
// as its own process and two build trees may test at once, so a fixed
// name would be shared between them — and rewriting a file another
// process has mapped kills that process with SIGBUS.

#ifndef XSKETCH_TESTS_TEMP_FILE_H_
#define XSKETCH_TESTS_TEMP_FILE_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

namespace xsketch {

class TempFile {
 public:
  // `name` tells a test's files apart; the path adds the test's full
  // name and the process id. Nothing is created until the test writes.
  explicit TempFile(const std::string& name) {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/" + test->test_suite_name() + "." +
            test->name() + "." + std::to_string(::getpid()) + "." + name;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace xsketch

#endif  // XSKETCH_TESTS_TEMP_FILE_H_
