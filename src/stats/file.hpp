// The one way the product writes and reads a whole file
// (docs/ROBUSTNESS.md, "Files on disk").
#pragma once

#include <filesystem>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace dq {

/// Replaces the file at `path` atomically and durably: a uniquely named
/// temp file beside it (`<path>.tmp.<pid>.<n>`) is written, flushed to
/// disk and renamed over `path`, and then the directory is flushed. A
/// reader, a concurrent writer, a killed process or an OS crash sees the
/// old file or the new one, never a prefix. A `path` that exists and is
/// not a regular file (a FIFO, or a symlink such as /dev/stdout) is
/// written in place instead. Throws std::runtime_error naming `path` and
/// the OS error; the temp file is removed and the old file kept.
void replace_file(const std::filesystem::path& path, std::string_view bytes);
/// Same, with what `write` puts into the stream. It is collected first,
/// so a `write` that throws touches no file.
void replace_file(const std::filesystem::path& path,
                  const std::function<void(std::ostream&)>& write);

/// The file's bytes ("" when empty). Throws std::runtime_error naming
/// `path` and the OS error when the file cannot be opened or read (a
/// directory cannot be read).
std::string read_file(const std::filesystem::path& path);

}  // namespace dq
