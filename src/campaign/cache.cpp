#include "campaign/cache.hpp"

#include <stdexcept>

#include "stats/file.hpp"
#include "stats/hash.hpp"

namespace dq::campaign {

std::filesystem::path ArtifactCache::path_for(std::uint64_t hash) const {
  return dir_ / (hash_hex(hash) + ".json");
}

std::optional<std::string> ArtifactCache::load(std::uint64_t hash) const {
  try {
    return read_file(path_for(hash));
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

bool ArtifactCache::contains(std::uint64_t hash) const {
  std::error_code ec;
  return std::filesystem::exists(path_for(hash), ec);
}

void ArtifactCache::store(std::uint64_t hash,
                          const std::string& contents) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  replace_file(path_for(hash), contents);
}

}  // namespace dq::campaign
