// Scratch directories for tests. gtest_discover_tests registers every TEST
// as its own ctest entry, so `ctest -j` runs tests as parallel processes: a
// directory named after anything shared between them (a fixed string, or
// UnitTest::random_seed(), which is 0 unless tests are shuffled) lets one
// test's TearDown delete a sibling's files mid-run. UniqueTempDir names the
// directory after the running test and the process instead.
#ifndef MICROREC_TESTS_TEMP_DIR_H_
#define MICROREC_TESTS_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

namespace microrec::testutil {

/// `<temp>/<prefix>_<suite>_<test>_<pid>_<n>`, where n counts calls in this
/// process, so no two calls anywhere return the same path. The directory is
/// not created.
inline std::string UniqueTempDir(std::string_view prefix) {
  static std::atomic<uint64_t> calls{0};
  std::string name(prefix);
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name.append("_").append(info->test_suite_name());
    name.append("_").append(info->name());
  }
  name.append("_").append(std::to_string(::getpid()));
  name.append("_").append(std::to_string(calls.fetch_add(1)));
  // Parameterized test names contain '/', which would nest directories.
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace microrec::testutil

#endif  // MICROREC_TESTS_TEMP_DIR_H_
