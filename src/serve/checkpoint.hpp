// Serve-layer checkpoints: everything needed to resume a flow stream
// at flow N and produce decisions byte-identical to the uninterrupted
// run (docs/ROBUSTNESS.md).
//
// A checkpoint is one canonical-JSON document, the only serialized
// form of engine state: stream position (flows_ingested, last_time),
// accounting carried into the resumed summary (parse errors + samples,
// time regressions, shed flows, quarantine events), the quarantine
// config it was taken under, the ground-truth label times, and the
// full per-host engine state (plus shared-bitmap block pools) in
// *global order* via quarantine/snapshot.hpp. Because the server
// quiesces all shards and applies pending releases up to last_time
// before gathering, checkpoint bytes are identical at any shard count,
// and a restore may change the shard count freely.
//
// Writes go through dq::replace_file (fsync the file, rename it over
// PATH, fsync the directory), so a crash, even of the OS, leaves the
// previous checkpoint or the new one — never a torn file. Loading
// anything malformed raises CheckpointError, which `dqctl serve
// --restore` turns into a stderr diagnostic and exit 1, never a crash
// or a silent fresh start.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/json.hpp"
#include "quarantine/snapshot.hpp"

namespace dq::serve {

/// Corrupt, truncated, or unreadable checkpoint file/document.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Version history — load refuses anything but the current:
///   1: exact detector backend only.
///   2: quarantine_config gains the "estimator" object (via
///      quarantine::config_to_json) and shared-bitmap runs add an
///      "estimator_store" section with the block pools.
inline constexpr std::uint64_t kCheckpointVersion = 2;

struct CheckpointState {
  std::uint32_t num_hosts = 0;
  /// Flows ingested when the checkpoint was taken; a resuming source
  /// must deliver the stream starting at flow num_flows+1 (synthetic
  /// sources skip there deterministically).
  std::uint64_t flows_ingested = 0;
  /// The router clock (running max of flow times) at the checkpoint;
  /// the resumed run's time-regression clamp continues from it.
  double last_time = 0.0;
  std::uint64_t time_regressions = 0;
  std::uint64_t parse_errors = 0;
  std::vector<std::string> parse_error_samples;
  std::uint64_t shed_flows = 0;
  std::uint64_t quarantine_events = 0;
  /// Canonical JSON of the QuarantineConfig the engines ran under;
  /// restore refuses a mismatch.
  campaign::JsonValue config;
  /// Ground-truth worm onset per global host (-1: benign so far).
  std::vector<double> label_time;
  /// Engine state per global host (quarantine/snapshot.hpp).
  quarantine::HostArrays hosts;
  /// Shared-bitmap block pools, blocks in global order; empty when the
  /// run used the exact backend.
  std::optional<quarantine::StoreArrays> store;

  /// The canonical document (no trailing newline).
  std::string dump() const;
  /// Inverse of dump(), in one pass over `text`: label_time, the host
  /// columns and the block pools decode straight into typed arrays, and
  /// only the small members become a tree. Members may come in any
  /// order; unknown ones are skipped. Throws CheckpointError on anything
  /// malformed or inconsistent, including values a field cannot hold.
  static CheckpointState parse(std::string_view text);
};

/// Serializes `state` and replaces `path` with it atomically and
/// durably (dq::replace_file). Honors the torn_checkpoint failpoint.
/// Throws std::runtime_error on IO failure — failing to persist state
/// is a run failure.
void write_checkpoint_file(const std::string& path,
                           const CheckpointState& state);

/// Reads, parses, and validates a checkpoint. Throws CheckpointError
/// with a one-line diagnostic on unreadable files, bad JSON, version
/// mismatches, or inconsistent contents.
CheckpointState load_checkpoint_file(const std::string& path);

}  // namespace dq::serve
