// Packet-level worm propagation simulator — Section 5.4's experiment
// engine, rebuilt from scratch (the paper used ns-2 as its substrate).
// One engine runs every mechanism at every size, from the 200-node star
// to 10⁶-node graphs, and its output is *byte-identical at any shard
// count*: node state is flat arrays split into contiguous id ranges
// (shards), each owned by one thread during the parallel phases, and
// every random decision a node makes on a tick comes from its own
// counter-based substream, so threading cannot reorder a draw.
//
// One tick (docs/SIMULATOR.md has the full contract):
//   0. serial pre-phase — arm the quarantine, start immunization,
//      release the predator;
//   A. emit (parallel per shard) — quarantine releases, immunization,
//      predator patching, worm / predator / legitimate emission;
//   merge A (serial) — counters and the dark-space alarm, at tick
//      granularity;
//   F. forward (serial; only with a link limiter, the hub cap or a
//      response) — credit accrual, FIFO drains of the links that reached
//      a whole credit, then fresh packets in canonical order (worm,
//      predator, legit; each by ascending source and emission sequence)
//      walk their paths until delivered, queued or dropped;
//   B. apply (parallel per shard) — deliveries take effect in delivery
//      order, so a node infected at tick t first scans at t+1;
//   merge B and record (serial).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/sink.hpp"
#include "quarantine/engine.hpp"
#include "simulator/config.hpp"
#include "simulator/network.hpp"
#include "stats/rng.hpp"
#include "stats/timeseries.hpp"
#include "worm/target_selector.hpp"

namespace dq::sim {

enum class NodeState : std::uint8_t {
  kSusceptible,
  kInfected,   ///< carrying the main worm
  kPredator,   ///< carrying the counter-worm (pre-patch)
  kRemoved,
};

/// Tick-loop telemetry for one run: raw event counters plus wall time
/// per tick phase. Cheap enough to collect unconditionally, and
/// entirely outside the RNG stream, so trajectories are unaffected.
struct PerfCounters {
  std::uint64_t ticks = 0;  ///< step() calls
  /// Packets routed toward a destination: every fresh packet plus
  /// every queue release.
  std::uint64_t packets_forwarded = 0;
  /// Link traversals walked by the forward phase. Runs with nothing in
  /// flight deliver without walking paths and count none.
  std::uint64_t link_hops = 0;
  /// Packets that reached an exhausted limiter and joined its FIFO,
  /// including those the count-don't-store rule never stores.
  std::uint64_t queue_events = 0;
  std::uint64_t queue_releases = 0;  ///< packets popped from a FIFO

  double seconds_emit = 0.0;     ///< pre-phase, phase A and merge A
  double seconds_forward = 0.0;  ///< forward phase
  double seconds_apply = 0.0;    ///< phase B and merge B
  double seconds_record = 0.0;   ///< metric recording

  double total_seconds() const noexcept {
    return seconds_emit + seconds_forward + seconds_apply + seconds_record;
  }

  PerfCounters& operator+=(const PerfCounters& o) noexcept {
    ticks += o.ticks;
    packets_forwarded += o.packets_forwarded;
    link_hops += o.link_hops;
    queue_events += o.queue_events;
    queue_releases += o.queue_releases;
    seconds_emit += o.seconds_emit;
    seconds_forward += o.seconds_forward;
    seconds_apply += o.seconds_apply;
    seconds_record += o.seconds_record;
    return *this;
  }
};

/// Result of a single simulation run.
struct RunResult {
  TimeSeries active_infected;  ///< fraction infected (and not removed)
  TimeSeries ever_infected;    ///< fraction ever infected (Fig. 8's metric)
  TimeSeries removed;          ///< fraction patched/removed
  /// On subnet topologies: fraction of the seed subnet's members ever
  /// infected — the "spread within a subnet" metric of Figures 3(b)/5.
  /// Empty when the topology has no subnets.
  TimeSeries seed_subnet_infected;
  /// Fraction of nodes currently carrying the counter-worm (empty
  /// unless the predator is enabled).
  TimeSeries predator_infected;
  double immunization_start_tick = -1.0;  ///< -1 when never started
  /// Tick at which the dark-space detector raised its alarm (-1 never).
  double detection_tick = -1.0;
  std::uint64_t total_scan_packets = 0;
  std::uint64_t total_queued_packet_events = 0;
  /// Worm packets dropped by blacklists / content filters.
  std::uint64_t worm_packets_dropped = 0;
  std::uint64_t final_ever_infected_count = 0;

  // Legitimate-traffic collateral metrics (when legit.rate_per_node>0).
  std::uint64_t legit_sent = 0;
  std::uint64_t legit_delivered = 0;
  /// Legitimate packets destroyed by a per-source blacklist.
  std::uint64_t legit_dropped = 0;
  /// Mean ticks a delivered legitimate packet spent queued (0 = clean).
  double mean_legit_delay = 0.0;
  double max_legit_delay = 0.0;

  // Dynamic-quarantine outcome (all zero unless quarantine.enabled).
  /// Detection latency / FP rate / penalty report, labeled by each
  /// host's infection tick.
  quarantine::QuarantineReport quarantine;
  /// Worm + predator packets suppressed by quarantine (outbound drops
  /// of isolated hosts, plus inbound scans blocked at an isolated
  /// destination).
  std::uint64_t quarantine_dropped_packets = 0;
  /// Legitimate packets destroyed by quarantine isolation.
  std::uint64_t legit_quarantine_dropped = 0;

  /// Tick-loop counters and per-phase wall time for this run.
  PerfCounters perf;
};

/// One worm outbreak over a shared Network, sharded across threads.
/// Trajectories are a pure function of (network, config) — independent
/// of num_shards and of how the OS schedules the shard threads.
class ShardedSimulation {
 public:
  /// num_shards == 0 picks the hardware concurrency. The network must
  /// outlive the simulation. The sink receives a metrics flush at the
  /// end of run() and, at one shard only, per-event trace records
  /// (obs/events.hpp) as they happen; it never touches the RNG stream,
  /// so trajectories are identical with observability on or off. Pass
  /// it at construction: initial infections fire at tick 0. Throws
  /// std::invalid_argument for an invalid config or for a trace sink
  /// with more than one shard.
  ShardedSimulation(const Network& net, const SimulationConfig& config,
                    std::size_t num_shards = 0, obs::Sink obs = {});

  /// Runs to completion and returns the recorded curves.
  RunResult run();

  /// Single-step interface for tests: state after construction is
  /// tick 0 with initial infections placed. Precondition: tick() <
  /// max_ticks, the condition run() loops on; throws std::logic_error
  /// past it. The run ends at tick ceil(max_ticks), and the forward
  /// phase relies on that: it does not store packets queued behind more
  /// than their link can release by then.
  void step();
  double tick() const noexcept { return tick_; }
  NodeState state(NodeId v) const { return state_.at(v); }
  std::uint64_t ever_infected_count() const noexcept { return ever_count_; }
  std::uint64_t active_infected_count() const noexcept {
    return infected_count_;
  }
  bool host_filtered(NodeId v) const { return filtered_.at(v) != 0; }

  /// Per-tick capacity assigned to a link (0 = unlimited; may be
  /// fractional); exposed so tests can verify the weighting rule.
  double link_capacity(std::size_t link) const {
    return link_capacity_.empty() ? 0.0 : link_capacity_.at(link);
  }

 private:
  enum class PacketKind : std::uint8_t { kWorm, kPredator, kLegit };
  static constexpr std::size_t kKinds = 3;

  /// A fresh packet between phases: only the endpoints travel, since
  /// the path is implied by the network's routing.
  struct Packet {
    NodeId src;
    NodeId dest;
  };

  /// A packet in the forward phase: where it is, where it goes, who
  /// sent it (for blacklisting) and when (for legit-delay accounting).
  struct InFlight {
    NodeId at;
    NodeId dest;
    NodeId src;
    std::uint32_t emit_tick;
    PacketKind kind;
  };

  /// Every limiter's FIFO in one pooled store: site l < num_links is
  /// link l, site num_links the capped hub. Queued packets sit in one
  /// slot vector, each site threads its own through a singly linked
  /// list, and popped slots go on a free list, so a forwarding run
  /// allocates nothing per link and reuses slots as queues churn.
  class FifoStore {
   public:
    /// Empties the store and sizes it for `sites` FIFOs.
    void reset(std::size_t sites);
    std::uint32_t size(std::size_t site) const { return sites_[site].size; }
    void push(std::size_t site, const InFlight& p);
    /// Removes and returns the oldest packet. Precondition: size > 0.
    InFlight pop(std::size_t site);

   private:
    static constexpr std::uint32_t kNil = UINT32_MAX;
    struct Slot {
      InFlight packet;
      std::uint32_t next;
    };
    struct Site {
      std::uint32_t head = kNil;
      std::uint32_t tail = kNil;
      std::uint32_t size = 0;
    };
    std::vector<Slot> slots_;
    std::vector<Site> sites_;
    std::uint32_t free_ = kNil;  ///< head of the free-slot list
  };

  /// Everything one thread owns: a contiguous node range plus the
  /// frontiers, outboxes, quarantine slab, and per-tick counter deltas
  /// that belong to it. No other thread reads or writes any of this
  /// between merge points.
  struct Shard {
    NodeId begin = 0;
    NodeId end = 0;
    /// Active infected nodes in this range, ascending; compacted as
    /// nodes leave kInfected during the emit walk.
    std::vector<NodeId> infected;
    /// Nodes infected during the current phase B, merged into
    /// `infected` (sorted) at the end of the phase.
    std::vector<NodeId> pending;
    /// Predator nodes in this range, ascending, with their pending
    /// batch (same discipline as infected/pending).
    std::vector<NodeId> predators;
    std::vector<NodeId> pending_predators;
    std::vector<NodeId> merge_scratch;
    /// outbox[kind][d]: packets emitted this tick for destination
    /// shard d, when nothing is in flight.
    std::vector<std::vector<Packet>> outbox[kKinds];
    /// fresh[kind]: this tick's packets in emission order, when the
    /// forward phase routes them.
    std::vector<Packet> fresh[kKinds];
    /// Packets the forward phase delivered to this range, in delivery
    /// order.
    std::vector<InFlight> inbox;
    /// Quarantine slab for this range (host h ↦ local index h-begin);
    /// engaged iff config.quarantine.enabled.
    std::optional<quarantine::QuarantineEngine> quarantine;
    /// Immunization walk list (not-yet-removed nodes in this range),
    /// built when immunization starts.
    std::vector<NodeId> alive;

    /// Per-tick deltas, reset in phase A and folded serially in
    /// ascending shard order.
    struct Deltas {
      std::uint64_t scan_packets = 0;
      std::uint64_t sightings = 0;
      std::uint64_t quarantine_dropped = 0;
      std::uint64_t delivered = 0;
      std::uint64_t new_infections = 0;
      std::uint64_t immunized[4] = {};  ///< by NodeState before removal
      std::uint64_t predator_patched = 0;
      std::uint64_t predator_from_susceptible = 0;
      std::uint64_t predator_from_infected = 0;
      std::uint64_t legit_sent = 0;
      std::uint64_t legit_delivered = 0;
      std::uint64_t legit_quarantine_dropped = 0;
      double legit_delay_sum = 0.0;
      double legit_delay_max = 0.0;
    } d;
  };

  void validate_config() const;
  void place_initial_infections();
  void assign_host_filters();
  void assign_link_capacities();
  std::size_t shard_of(NodeId v) const noexcept;
  /// Records a trace event at the current tick (a pointer test when
  /// tracing is off).
  void trace(NodeId id, obs::EventKind kind, std::uint8_t a = 0,
             std::uint8_t b = 0, std::uint64_t value = 0) {
    if (obs_.trace != nullptr) obs_.emit({tick_, id, kind, a, b, value});
  }

  /// Phase A for one shard.
  void phase_emit(Shard& shard, std::uint64_t tick_index);
  void immunize(Shard& shard, std::uint64_t imm_base);
  /// One sender's emission: Poisson(rate) attempts, throttled or
  /// dropped at a quarantined source, address-space misses fed to the
  /// sender's detector, and destinations handed to the outboxes (or
  /// the fresh list). A sparse scanner that no armed detector watches
  /// draws only its Poisson(hits) hits; `hits` is `rate` thinned by
  /// the hit probability.
  template <typename PickDest>
  void emit_from(Shard& shard, NodeId v, PacketKind kind,
                 const PoissonMean& rate, const PoissonMean& hits, Rng& rng,
                 PickDest&& pick);
  void queue_packet(Shard& shard, PacketKind kind, NodeId v, NodeId dest);
  void release_predator();

  /// Forward phase (serial): credit accrual, FIFO drains, then this
  /// tick's fresh packets in canonical order.
  void phase_forward();
  void forward(InFlight p);
  /// Queues a packet at an exhausted link: counted and traced always,
  /// stored only while its link could still release it (see
  /// store_all_parked_).
  void park_link(std::uint32_t link, const InFlight& p);
  void mark_accrual(std::uint32_t link);
  /// True if the active response discards this packet at link l.
  bool response_drops(const InFlight& p, std::size_t link) const;
  /// Feeds one contact into its sender's armed quarantine detector.
  void observe(NodeId host, std::uint64_t key, bool failed);

  /// Phase B for one shard: apply delivered packets, then fold fresh
  /// infections and predator takes into the sorted frontiers.
  void phase_apply(Shard& shard);
  void apply(Shard& shard, PacketKind kind, NodeId dest,
             std::uint32_t emit_tick);

  void record();
  bool saturated() const;
  /// The quarantine report, invariant in the shard count.
  quarantine::QuarantineReport quarantine_report() const;
  void flush_metrics();

  const Network& net_;
  /// net_'s routes, held directly so a hop reads them without going
  /// through the Network.
  const RoutedTopology& topology_;
  SimulationConfig config_;
  obs::Sink obs_;
  worm::TargetSelector selector_;
  /// The run's emission rates, each with its exp(-rate) computed once.
  /// A `*_hit_rate_` is its scan rate times the hit probability.
  PoissonMean worm_rate_;
  PoissonMean worm_hit_rate_;
  PoissonMean filtered_rate_;
  PoissonMean filtered_hit_rate_;
  PoissonMean throttle_rate_;
  PoissonMean predator_rate_;
  PoissonMean predator_hit_rate_;
  PoissonMean legit_rate_;

  // Struct-of-arrays node state.
  std::vector<NodeState> state_;
  std::vector<std::uint8_t> ever_;
  std::vector<std::uint8_t> filtered_;
  std::vector<double> infected_tick_;  ///< -1 when never infected
  std::vector<double> predator_tick_;  ///< empty unless the predator runs

  std::vector<Shard> shards_;
  /// floor(shards · 2³² / num_nodes): shard_of's estimate of v · S / n.
  std::uint64_t shard_scale_ = 0;

  std::uint64_t infected_count_ = 0;
  std::uint64_t ever_count_ = 0;
  std::uint64_t removed_count_ = 0;
  std::uint64_t susceptible_count_ = 0;
  std::uint64_t predator_count_ = 0;
  std::uint64_t detector_sightings_ = 0;

  // Forward-phase state, allocated only when something can be in
  // flight (a link limiter, the hub cap or a response).
  bool forwarding_ = false;
  std::vector<double> link_capacity_;  ///< 0 = unlimited
  std::vector<double> link_credit_;    ///< accumulated allowance
  /// Limited links whose credit sits below their burst cap and must
  /// accrue next tick (flag array mirrors membership).
  std::vector<std::uint32_t> accrual_links_;
  std::vector<char> accrual_flag_;
  /// Queued links that reached a whole credit in this tick's accrual:
  /// the only links whose FIFOs can release this tick.
  std::vector<std::uint32_t> ready_links_;
  std::uint32_t node_cap_used_ = 0;  ///< hub forwards this tick
  FifoStore fifos_;
  /// True when a response or the hub cap can take a released packet
  /// without spending its link's credit: every parked packet is stored.
  /// Otherwise every release spends one credit, so a link releases at
  /// most credit + capacity × (ticks left) packets before the run ends,
  /// and park_link stores none queued behind that many (+1 of slack for
  /// floating-point credit sums).
  bool store_all_parked_ = true;
  double horizon_ = 0.0;  ///< ceil(max_ticks): the run's last tick

  double tick_ = 0.0;
  std::uint64_t tick_index_ = 0;
  bool immunizing_ = false;
  bool quarantine_armed_ = false;
  bool predator_released_ = false;
  double detection_tick_ = -1.0;
  double legit_delay_sum_ = 0.0;
  std::optional<std::size_t> seed_subnet_;
  RunResult result_;
};

}  // namespace dq::sim
