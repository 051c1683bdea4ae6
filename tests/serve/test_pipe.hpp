// A pipe(2) whose read end is a std::istream: the serve tests feed a
// source through it the way a live producer feeds `dqctl serve`.
#pragma once

#include <unistd.h>

#include <cerrno>
#include <ext/stdio_filebuf.h>
#include <istream>
#include <memory>
#include <string_view>
#include <system_error>

namespace dq::serve {

class TestPipe {
 public:
  TestPipe() {
    int fds[2];
    if (::pipe(fds) != 0)
      throw std::system_error(errno, std::generic_category(), "pipe");
    // The filebuf owns the read end and closes it.
    buf_ = std::make_unique<__gnu_cxx::stdio_filebuf<char>>(fds[0],
                                                            std::ios::in);
    in_.rdbuf(buf_.get());
    write_fd_ = fds[1];
  }
  ~TestPipe() { close_writer(); }
  TestPipe(const TestPipe&) = delete;
  TestPipe& operator=(const TestPipe&) = delete;

  std::istream& in() noexcept { return in_; }

  /// Writes all of `bytes` to the pipe.
  void write(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::write(write_fd_, bytes.data(), bytes.size());
      if (n < 0 && errno == EINTR) continue;
      if (n < 0)
        throw std::system_error(errno, std::generic_category(), "write");
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
  }

  /// Closes the write end: the reader sees end of file once it has
  /// read what is left.
  void close_writer() noexcept {
    if (write_fd_ >= 0) ::close(write_fd_);
    write_fd_ = -1;
  }

 private:
  std::unique_ptr<__gnu_cxx::stdio_filebuf<char>> buf_;
  std::istream in_{nullptr};
  int write_fd_ = -1;
};

}  // namespace dq::serve
