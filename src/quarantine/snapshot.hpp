// Canonical-JSON encoding of QuarantineEngine state, the per-host and
// per-block sections of serve checkpoints (serve/checkpoint.hpp) —
// the one engine-state document — plus the config and the report
// codecs that serve and the campaign share.
//
// Everything the engine needs to resume a stream mid-flight is plain
// per-host data: the HostRecord state machine (state, strikes,
// offenses, first-event times, quarantine interval bookkeeping) and the
// DetectorState window (index, contact/failure counts, linear-counting
// sketch bitmap, flagged latch), plus — under the shared-bitmap backend
// — each block's window and pool words. The release priority queue is
// *not* serialized — it is derivable: every kQuarantined record
// re-enters the queue at its release_time on restore, and queue
// ordering is fully determined by (time, host) contents.
//
// Encoding is column-oriented (one JSON array per field, hosts in id
// order) through campaign::JsonWriter: insertion-ordered keys,
// shortest-round-trip numbers, no whitespace. Doubles round-trip
// exactly and plain non-negative integers keep full 64-bit precision
// (the sketch bitmap, pool words), so decode → encode reproduces
// identical bytes. Each section has exactly one encoder and one
// decoder; decoders reject values their fields cannot hold instead of
// truncating them.
#pragma once

#include <cstdint>
#include <vector>

#include "campaign/json.hpp"
#include "quarantine/engine.hpp"

namespace dq::quarantine {

/// Canonical JSON of a full QuarantineConfig. Restore paths compare
/// dump() of this against the checkpointed config to refuse resuming
/// under different thresholds (the stream would silently diverge).
campaign::JsonValue config_to_json(const QuarantineConfig& config);

/// Canonical JSON of a QuarantineReport: the `quarantine` object of a
/// serve summary line and of a campaign artifact. report_from_json is
/// its inverse (std::out_of_range on a missing key).
campaign::JsonValue report_to_json(const QuarantineReport& report);
QuarantineReport report_from_json(const campaign::JsonValue& json);

/// Per-host state in host order (the serve layer gathers across shard
/// engines in *global* host order so checkpoint bytes are shard-count
/// independent).
struct HostArrays {
  std::vector<HostRecord> records;
  std::vector<DetectorState> detectors;
};

/// Writes the column-oriented encoding as one object value. Throws
/// std::invalid_argument when the two arrays differ in length.
void write_host_arrays(campaign::JsonWriter& w, const HostArrays& hosts);

/// Inverse of write_host_arrays. Throws std::invalid_argument on
/// missing columns, length mismatches, or values a field cannot hold:
/// u32 counters >= 2^32, a state outside the enum, a window other
/// than -1 or an integer below 2^63, a flag other than 0 or 1.
HostArrays host_arrays_from_json(const campaign::JsonValue& json);

/// Shared-bitmap pool state (EstimatorBackend::kSharedBitmap), blocks
/// in global order: block b's window is window[b] (-1 before its first
/// observation) and its words — both pools, attempts then failures —
/// are pool[b * words_per_block, (b + 1) * words_per_block). Zero-bit
/// counts are derived on restore.
struct StoreArrays {
  std::size_t words_per_block = 0;
  std::vector<std::int64_t> window;
  std::vector<std::uint64_t> pool;
};

void write_store(campaign::JsonWriter& w, const StoreArrays& store);

/// Inverse of write_store. Throws std::invalid_argument on missing
/// fields, inconsistent lengths, or a window other than -1 or an
/// integer below 2^63.
StoreArrays store_arrays_from_json(const campaign::JsonValue& json);

/// Appends block `local` of `store` to `out` as its next global block.
void gather_block(StoreArrays& out, const CompactEstimatorStore& store,
                  std::size_t local);

/// Restores global block `block` of `arrays` into block `local` of
/// `store` (whose words_per_block must match). Throws
/// std::invalid_argument naming the global block when its pool words
/// carry stray bits. Restore block pools *before* per-host detector
/// state: compact host windows are stored relative to their block's
/// window.
void scatter_block(CompactEstimatorStore& store, std::size_t local,
                   const StoreArrays& arrays, std::size_t block);

}  // namespace dq::quarantine
