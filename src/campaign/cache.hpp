// Content-addressed on-disk artifact cache: `<dir>/<hash>.json`.
//
// The hash is the job's canonical-config FNV (stats/hash.hpp), so a
// cache hit is exactly "this configuration already ran". Stores go
// through dq::replace_file, so a killed or concurrent campaign, or an
// OS crash, never leaves a truncated artifact behind; loads of missing
// or unreadable files just report a miss and the job re-runs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

namespace dq::campaign {

class ArtifactCache {
 public:
  explicit ArtifactCache(std::filesystem::path dir) : dir_(std::move(dir)) {}

  std::filesystem::path path_for(std::uint64_t hash) const;

  /// Artifact bytes for a hash; nullopt on miss.
  std::optional<std::string> load(std::uint64_t hash) const;

  bool contains(std::uint64_t hash) const;

  /// Atomically and durably writes the artifact (creating the cache
  /// directory on first use). Throws std::runtime_error on I/O failure.
  void store(std::uint64_t hash, const std::string& contents) const;

 private:
  std::filesystem::path dir_;
};

}  // namespace dq::campaign
