#include "stats/file.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdlib>
#include <filesystem>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "stats/parallel.hpp"

namespace dq {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty directory per test, removed afterwards.
class FileIo : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = (fs::path(::testing::TempDir()) / "dq-file-XXXXXX");
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// File names in the directory.
  std::vector<std::string> entries() const {
    std::vector<std::string> names;
    for (const fs::directory_entry& e : fs::directory_iterator(dir_))
      names.push_back(e.path().filename().string());
    return names;
  }

  fs::path dir_;
};

/// The message of what `fn` throws as std::runtime_error ("" if none).
template <typename Fn>
std::string runtime_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(FileIo, ReplaceFileCreatesAndOverwrites) {
  const fs::path path = dir_ / "out.txt";
  replace_file(path, "first version\n");
  EXPECT_EQ(read_file(path), "first version\n");
  replace_file(path, [](std::ostream& os) { os << "second " << 2 << '\n'; });
  EXPECT_EQ(read_file(path), "second 2\n");
  EXPECT_EQ(entries(), std::vector<std::string>{"out.txt"});
}

TEST_F(FileIo, ThrowingWriterKeepsOldBytesAndLeavesNoTempFile) {
  const fs::path path = dir_ / "state.json";
  replace_file(path, "old");
  const auto half_then_throw = [](std::ostream& os) {
    os << std::string(200000, 'x');
    throw std::runtime_error("writer failed halfway");
  };
  EXPECT_EQ(runtime_error_of([&] { replace_file(path, half_then_throw); }),
            "writer failed halfway");
  EXPECT_EQ(read_file(path), "old");
  EXPECT_EQ(entries(), std::vector<std::string>{"state.json"});
}

TEST_F(FileIo, ConcurrentReplacesLeaveOneCompleteVersion) {
  const fs::path path = dir_ / "shared.txt";
  constexpr std::size_t kWriters = 8;
  const auto version = [](std::size_t i) {
    return std::string(100000 + i, static_cast<char>('a' + i));
  };
  parallel_for(kWriters, kWriters, [&](std::size_t i) {
    for (int round = 0; round < 5; ++round) replace_file(path, version(i));
  });
  const std::string bytes = read_file(path);
  bool matches_one = false;
  for (std::size_t i = 0; i < kWriters; ++i)
    matches_one = matches_one || bytes == version(i);
  EXPECT_TRUE(matches_one) << "torn or mixed file of " << bytes.size()
                           << " bytes";
  EXPECT_EQ(entries(), std::vector<std::string>{"shared.txt"});
}

TEST_F(FileIo, FifoIsWrittenInPlace) {
  const fs::path fifo = dir_ / "pipe";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::string received;
  std::thread reader([&] { received = read_file(fifo); });
  EXPECT_NO_THROW(replace_file(fifo, "through the pipe\n"));
  reader.join();
  EXPECT_EQ(received, "through the pipe\n");
  struct stat st {};
  ASSERT_EQ(::lstat(fifo.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
  EXPECT_EQ(entries(), std::vector<std::string>{"pipe"});
}

TEST_F(FileIo, ReadFileThrowsNamingThePath) {
  const fs::path missing = dir_ / "missing.json";
  const std::string missing_error =
      runtime_error_of([&] { read_file(missing); });
  EXPECT_NE(missing_error.find(missing.string()), std::string::npos)
      << missing_error;
  const std::string dir_error = runtime_error_of([&] { read_file(dir_); });
  EXPECT_NE(dir_error.find(dir_.string()), std::string::npos) << dir_error;
}

TEST_F(FileIo, EmptyFileReadsEmpty) {
  const fs::path path = dir_ / "empty";
  replace_file(path, "");
  EXPECT_TRUE(fs::exists(path));
  EXPECT_EQ(read_file(path), "");
}

}  // namespace
}  // namespace dq
