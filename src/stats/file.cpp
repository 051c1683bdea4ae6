#include "stats/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace dq {
namespace {

[[noreturn]] void fail(const char* what, const std::filesystem::path& path,
                       int err) {
  throw std::runtime_error(std::string(what) + " " + path.string() + ": " +
                           std::generic_category().message(err));
}

/// Writes all of `bytes` to `fd`, fsyncs it when `sync`, and closes it:
/// 0, or the first errno.
int write_and_close(int fd, std::string_view bytes, bool sync) noexcept {
  int err = 0;
  while (err == 0 && !bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n >= 0)
      bytes.remove_prefix(static_cast<std::size_t>(n));
    else if (errno != EINTR)
      err = errno;
  }
  if (err == 0 && sync && ::fsync(fd) != 0) err = errno;
  if (::close(fd) != 0 && err == 0) err = errno;
  return err;
}

std::atomic<unsigned long> g_temp_counter{0};

}  // namespace

void replace_file(const std::filesystem::path& path, std::string_view bytes) {
  struct stat st {};
  if (::lstat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_TRUNC | O_CLOEXEC);
    const int err = fd < 0 ? errno : write_and_close(fd, bytes, false);
    if (err != 0) fail("cannot write", path, err);
    return;
  }
  // O_EXCL makes the temp name this writer's own; a stale one is skipped.
  std::string tmp;
  int fd = -1;
  do {
    tmp = path.string() + ".tmp." + std::to_string(::getpid()) + "." +
          std::to_string(g_temp_counter++);
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  } while (fd < 0 && errno == EEXIST);
  if (fd < 0) fail("cannot write", path, errno);
  int err = write_and_close(fd, bytes, /*sync=*/true);
  if (err == 0 && ::rename(tmp.c_str(), path.c_str()) != 0) err = errno;
  if (err != 0) {
    ::unlink(tmp.c_str());
    fail("cannot write", path, err);
  }
  // The rename is durable only once the directory entry is.
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path() : ".";
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  err = dir_fd < 0 ? errno : (::fsync(dir_fd) == 0 ? 0 : errno);
  if (dir_fd >= 0) ::close(dir_fd);
  if (err != 0) fail("cannot sync the directory of", path, err);
}

void replace_file(const std::filesystem::path& path,
                  const std::function<void(std::ostream&)>& write) {
  std::ostringstream os;
  write(os);
  replace_file(path, std::move(os).str());
}

std::string read_file(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail("cannot read", path, errno);
  const struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  std::string bytes;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n == 0) return bytes;
    if (n > 0)
      bytes.append(chunk, static_cast<std::size_t>(n));
    else if (errno != EINTR)
      fail("cannot read", path, errno);
  }
}

}  // namespace dq
