// Custom main for the fixture-backed test binaries: strips
// --update-golden (see golden.hpp) before gtest sees the command line.
#include <gtest/gtest.h>

#include <cstring>

#include "golden.hpp"
#include "stats/file.hpp"

namespace dq::test {

bool g_update_golden = false;

void expect_golden(const std::string& name, const std::string& fresh) {
  const std::filesystem::path path = golden_dir() / name;
  if (g_update_golden) {
    std::filesystem::create_directories(golden_dir());
    replace_file(path, fresh);
    return;
  }
  ASSERT_TRUE(std::filesystem::exists(path))
      << path << " is missing — run the test binary with --update-golden "
      << "and commit the fixture";
  EXPECT_EQ(fresh, read_file(path))
      << name << " diverged from its fixture. If the change is intended, "
      << "regenerate with --update-golden and commit the diff.";
}

}  // namespace dq::test

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-golden") == 0) {
      dq::test::g_update_golden = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
