#include "simulator/sharded_sim.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "stats/hash.hpp"
#include "stats/parallel.hpp"
#include "stats/rng.hpp"

namespace dq::sim {

namespace {

// Substream salts: each random purpose gets its own mix64 root (of the
// config seed) so no two purposes ever share a draw.
constexpr std::uint64_t kInitSalt = 0x27d4eb2f165667c5ULL;
constexpr std::uint64_t kFilterSalt = 0x94d049bb133111ebULL;
constexpr std::uint64_t kEmitSalt = 0x9b1a6f0c5d3e2a71ULL;
constexpr std::uint64_t kImmSalt = 0x6c62272e07bb0142ULL;
constexpr std::uint64_t kPredatorSalt = 0x3c6ef372fe94f82bULL;
constexpr std::uint64_t kPredatorSeedSalt = 0xa54ff53a5f1d36f1ULL;
constexpr std::uint64_t kLegitSalt = 0x510e527fade682d1ULL;
// Odd strides decorrelating the tick / node dimensions before the
// mix64 avalanche.
constexpr std::uint64_t kTickStride = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kNodeStride = 0xBF58476D1CE4E5B9ULL;

/// How many fresh packets ahead the forward phase prefetches a route:
/// enough to cover an L3 miss on a large all-pairs table.
constexpr std::size_t kRoutePrefetchDistance = 16;

/// The Rng driving node v's decisions on the tick whose base is
/// `tick_base`. Its stream is a pure function of (seed, purpose, tick,
/// node) — nothing another node or thread does can shift it.
Rng node_rng(std::uint64_t tick_base, NodeId v) {
  return Rng(mix64(tick_base ^ (kNodeStride * (static_cast<std::uint64_t>(v) + 1))));
}

worm::TargetSelector make_selector(const RoutedTopology& topology,
                                   const SimulationConfig& config) {
  const worm::TargetSelectorConfig sc{config.worm.selection,
                                      config.worm.local_bias,
                                      config.worm.hitlist_size};
  const bool subnets = topology.has_subnets();
  return worm::TargetSelector(sc, topology.num_nodes(),
                              subnets ? &topology.subnet_ids() : nullptr,
                              subnets ? &topology.subnet_lists() : nullptr,
                              config.seed ^ 0xd1b54a32d192ed03ULL);
}

}  // namespace

ShardedSimulation::ShardedSimulation(const Network& net,
                                     const SimulationConfig& config,
                                     std::size_t num_shards, obs::Sink obs)
    : net_(net),
      topology_(net.topology()),
      config_(config),
      obs_(obs),
      selector_(make_selector(topology_, config)),
      worm_rate_(config.worm.contact_rate),
      worm_hit_rate_(config.worm.contact_rate * config.worm.hit_probability),
      filtered_rate_(config.worm.filtered_contact_rate),
      filtered_hit_rate_(config.worm.filtered_contact_rate *
                         config.worm.hit_probability),
      throttle_rate_(config.quarantine.policy.throttle_rate),
      predator_rate_(config.predator.contact_rate),
      predator_hit_rate_(config.predator.contact_rate *
                         config.worm.hit_probability),
      legit_rate_(config.legit.rate_per_node) {
  validate_config();

  const std::size_t n = topology_.num_nodes();
  state_.assign(n, NodeState::kSusceptible);
  ever_.assign(n, 0);
  filtered_.assign(n, 0);
  infected_tick_.assign(n, -1.0);
  if (config_.predator.enabled) predator_tick_.assign(n, -1.0);
  susceptible_count_ = n;

  if (num_shards == 0)
    num_shards = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  num_shards = std::min(num_shards, n);
  // The trace ring has one writer: per-event tracing needs one shard
  // (trajectories do not depend on the shard count, so nothing is lost).
  if (obs_.trace != nullptr && num_shards > 1)
    throw std::invalid_argument(
        "ShardedSimulation: a trace sink needs exactly one shard");
  // Under the shared-bitmap quarantine backend, shard boundaries are
  // rounded to estimator-block multiples so a block's bit pool never
  // straddles two engines — shard-local node id v - begin then keeps
  // v's block offset, and per-block state is a pure function of the
  // block's own emission stream, preserving the any-shard-count
  // trajectory invariance. Rounding can empty a shard; such shards
  // carry no quarantine engine (the engine requires >= 1 host).
  const bool block_aligned =
      config_.quarantine.enabled &&
      config_.quarantine.estimator_backend ==
          quarantine::EstimatorBackend::kSharedBitmap;
  const std::size_t bh = config_.quarantine.compact.block_hosts;
  shards_.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    Shard& sh = shards_[s];
    std::size_t begin = s * n / num_shards;
    std::size_t end = (s + 1) * n / num_shards;
    if (block_aligned) {
      begin = std::min(n, (begin + bh / 2) / bh * bh);
      end = s + 1 == num_shards ? n : std::min(n, (end + bh / 2) / bh * bh);
    }
    sh.begin = static_cast<NodeId>(begin);
    sh.end = static_cast<NodeId>(end);
    for (auto& box : sh.outbox) box.resize(num_shards);
    if (config_.quarantine.enabled && sh.end > sh.begin) {
      sh.quarantine.emplace(sh.end - sh.begin, config_.quarantine);
      if (obs_) sh.quarantine->set_obs(obs_);
    }
  }
  shard_scale_ = (static_cast<std::uint64_t>(num_shards) << 32) / n;
  quarantine_armed_ =
      config_.quarantine.enabled && !config_.quarantine.start_on_detection;

  const auto& dep = config_.deployment;
  const bool response = config_.response.kind != ResponseConfig::Kind::kNone;
  forwarding_ = dep.edge_router_limited || dep.backbone_limited ||
                dep.node_forward_cap.has_value() || response;
  store_all_parked_ = dep.node_forward_cap.has_value() || response;
  horizon_ = std::ceil(config_.max_ticks);

  assign_host_filters();
  assign_link_capacities();
  place_initial_infections();
  record();
}

void ShardedSimulation::validate_config() const {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("ShardedSimulation: ") + what);
  };
  const auto& worm_cfg = config_.worm;
  if (worm_cfg.contact_rate <= 0.0) fail("contact rate must be > 0");
  if (worm_cfg.filtered_contact_rate < 0.0 ||
      worm_cfg.filtered_contact_rate > worm_cfg.contact_rate)
    fail("filtered rate must be in [0, contact rate]");
  if (worm_cfg.local_bias < 0.0 || worm_cfg.local_bias > 1.0)
    fail("local bias in [0,1]");
  if (worm_cfg.initial_infected == 0 ||
      worm_cfg.initial_infected >= topology_.num_nodes())
    fail("initial infected in [1, num_nodes)");
  if (worm_cfg.hit_probability <= 0.0 || worm_cfg.hit_probability > 1.0)
    fail("hit probability in (0,1]");
  const auto& dep = config_.deployment;
  if (dep.host_filter_fraction < 0.0 || dep.host_filter_fraction > 1.0)
    fail("host filter fraction in [0,1]");
  if ((dep.edge_router_limited || dep.backbone_limited) &&
      (dep.base_link_capacity <= 0.0 || dep.min_link_capacity <= 0.0))
    fail("limited links need positive base and floor capacities");
  if (dep.node_forward_cap) {
    if (dep.node_forward_cap->first >= topology_.num_nodes())
      fail("node forward cap out of range");
    if (dep.node_forward_cap->second == 0)
      fail("node forward budget must be >= 1");
  }
  const auto& response = config_.response;
  if (response.kind != ResponseConfig::Kind::kNone) {
    if (response.reaction_time < 0.0)
      fail("response reaction time must be >= 0");
    if (response.start_on_detection && !config_.detector.enabled)
      fail("response start_on_detection needs the detector");
  }
  if (config_.quarantine.enabled) {
    config_.quarantine.validate();
    if (config_.quarantine.start_on_detection && !config_.detector.enabled)
      fail("quarantine start_on_detection needs the detector");
  }
  if (config_.detector.enabled) {
    if (config_.detector.observe_probability <= 0.0 ||
        config_.detector.observe_probability > 1.0)
      fail("detector observe probability in (0,1]");
    if (config_.detector.threshold == 0)
      fail("detector threshold must be >= 1");
  }
  const auto& imm = config_.immunization;
  if (imm.enabled) {
    if (imm.rate <= 0.0 || imm.rate > 1.0) fail("immunization rate (0,1]");
    if (imm.start_on_detection && !config_.detector.enabled)
      fail("start_on_detection needs the detector");
    if (!imm.start_on_detection && !imm.start_at_tick &&
        (imm.start_at_infected_fraction <= 0.0 ||
         imm.start_at_infected_fraction > 1.0))
      fail("immunization start fraction in (0,1]");
  }
  if (config_.legit.rate_per_node < 0.0)
    fail("legit traffic rate must be >= 0");
  const auto& pred = config_.predator;
  if (pred.enabled) {
    if (pred.contact_rate <= 0.0) fail("predator contact rate must be > 0");
    if (pred.start_tick < 0.0 || pred.patch_delay < 0.0)
      fail("predator timings must be >= 0");
    if (pred.initial == 0) fail("predator needs at least one seed");
  }
  if (config_.max_ticks <= 0.0) fail("max_ticks must be > 0");
}

std::size_t ShardedSimulation::shard_of(NodeId v) const noexcept {
  if (shards_.size() == 1) return 0;
  // begin[s] = floor(s*n/S), so floor(v*S/n) lands within one of v's
  // shard. The multiply by floor(S*2^32/n) undershoots that by at most
  // one (v < 2^32) and never passes S-1; the loops walk the rest.
  std::size_t s = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(v) * shard_scale_) >> 32);
  while (v < shards_[s].begin) --s;
  while (s + 1 < shards_.size() && v >= shards_[s].end) ++s;
  return s;
}

void ShardedSimulation::assign_host_filters() {
  const double q = config_.deployment.host_filter_fraction;
  if (q <= 0.0) return;
  // Filters go on end hosts only ("rate limiting at 5% of the end
  // hosts"); routers get link-level limits instead.
  std::vector<NodeId> hosts = net_.roles().hosts;
  Rng rng(mix64(config_.seed ^ kFilterSalt));
  rng.shuffle(hosts);
  const std::size_t count = static_cast<std::size_t>(
      std::llround(q * static_cast<double>(hosts.size())));
  for (std::size_t i = 0; i < count && i < hosts.size(); ++i)
    filtered_[hosts[i]] = 1;
}

void ShardedSimulation::assign_link_capacities() {
  if (!forwarding_) return;
  const std::size_t links = topology_.num_links();
  link_capacity_.assign(links, 0.0);
  link_credit_.assign(links, 0.0);
  fifos_.reset(links + 1);  // site `links` is the hub
  accrual_flag_.assign(links, 0);
  const auto& dep = config_.deployment;
  if (!dep.edge_router_limited && !dep.backbone_limited) return;
  for (std::size_t l = 0; l < links; ++l) {
    const bool limit = (dep.edge_router_limited && net_.link_is_edge(l)) ||
                       (dep.backbone_limited && net_.link_is_backbone(l));
    if (!limit) continue;
    double capacity = dep.base_link_capacity;
    if (dep.weight_by_routing_load && topology_.total_link_load() > 0) {
      // The paper's rule: "a link weight that is proportional to the
      // number of routing table entries the link occupies", multiplied
      // into the base rate — i.e. the link's share of all routing
      // entries, so heavily used links keep the most throughput.
      capacity *= static_cast<double>(topology_.link_load(l)) /
                  static_cast<double>(topology_.total_link_load());
    }
    link_capacity_[l] = std::max(dep.min_link_capacity, capacity);
    // Start with one tick's allowance as spendable credit.
    link_credit_[l] = link_capacity_[l];
    // Fractional-capacity links start below their burst cap and must
    // accrue from the first tick on.
    if (link_credit_[l] < std::max(1.0, link_capacity_[l]))
      mark_accrual(static_cast<std::uint32_t>(l));
  }
}

void ShardedSimulation::place_initial_infections() {
  std::vector<NodeId> order(topology_.num_nodes());
  for (NodeId v = 0; v < topology_.num_nodes(); ++v) order[v] = v;
  Rng rng(mix64(config_.seed ^ kInitSalt));
  rng.shuffle(order);
  for (std::uint32_t i = 0; i < config_.worm.initial_infected; ++i) {
    const NodeId v = order[i];
    state_[v] = NodeState::kInfected;
    ever_[v] = 1;
    infected_tick_[v] = 0.0;
    ++infected_count_;
    ++ever_count_;
    --susceptible_count_;
    shards_[shard_of(v)].infected.push_back(v);
    trace(v, obs::EventKind::kInfection);
  }
  for (Shard& sh : shards_)
    std::sort(sh.infected.begin(), sh.infected.end());
  if (topology_.has_subnets()) seed_subnet_ = topology_.subnet_of(order[0]);
}

void ShardedSimulation::release_predator() {
  // Serial: the seeds are a global draw over every node the
  // counter-worm can take at its release tick.
  predator_released_ = true;
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < topology_.num_nodes(); ++v)
    if (state_[v] == NodeState::kSusceptible ||
        state_[v] == NodeState::kInfected)
      candidates.push_back(v);
  Rng rng(mix64(config_.seed ^ kPredatorSeedSalt));
  rng.shuffle(candidates);
  const std::size_t seeds = std::min<std::size_t>(config_.predator.initial,
                                                  candidates.size());
  for (std::size_t i = 0; i < seeds; ++i) {
    const NodeId v = candidates[i];
    if (state_[v] == NodeState::kInfected)
      --infected_count_;
    else
      --susceptible_count_;
    state_[v] = NodeState::kPredator;
    predator_tick_[v] = tick_;
    ++predator_count_;
    shards_[shard_of(v)].predators.push_back(v);
    trace(v, obs::EventKind::kPredatorTake);
  }
  for (Shard& sh : shards_)
    std::sort(sh.predators.begin(), sh.predators.end());
}

void ShardedSimulation::immunize(Shard& shard, std::uint64_t imm_base) {
  const auto& imm = config_.immunization;
  std::size_t out = 0;
  for (const NodeId v : shard.alive) {
    if (state_[v] == NodeState::kRemoved) continue;  // compact away
    if (state_[v] == NodeState::kSusceptible && !imm.patch_susceptibles) {
      shard.alive[out++] = v;
      continue;
    }
    Rng rng = node_rng(imm_base, v);
    if (rng.bernoulli(imm.rate)) {
      ++shard.d.immunized[static_cast<std::size_t>(state_[v])];
      state_[v] = NodeState::kRemoved;
      trace(v, obs::EventKind::kImmunization);
      continue;
    }
    shard.alive[out++] = v;
  }
  shard.alive.resize(out);
}

void ShardedSimulation::queue_packet(Shard& shard, PacketKind kind,
                                     NodeId v, NodeId dest) {
  const auto k = static_cast<std::size_t>(kind);
  if (forwarding_) {
    shard.fresh[k].push_back({v, dest});
    return;
  }
  shard.outbox[k][shard_of(dest)].push_back({v, dest});
  // Nothing in flight: the contact's fate is known at emission, so the
  // sender's detector records it now. A drop at a quarantined
  // destination is charged to the quarantine, not the sender: a few
  // isolated hosts must not make their peers' traffic look anomalous.
  if (shard.quarantine && quarantine_armed_)
    shard.quarantine->observe(v - shard.begin,
                              static_cast<std::uint64_t>(dest), tick_,
                              /*failed=*/false);
}

template <typename PickDest>
void ShardedSimulation::emit_from(Shard& shard, NodeId v, PacketKind kind,
                                  const PoissonMean& rate,
                                  const PoissonMean& hits, Rng& rng,
                                  PickDest&& pick) {
  // Scans sweep the address space; legitimate packets go to live hosts.
  const double hit = config_.worm.hit_probability;
  const bool sparse = kind != PacketKind::kLegit && hit < 1.0;
  const bool watched = shard.quarantine && quarantine_armed_;
  if (sparse && !watched) {
    // No detector sees this sender's misses (nor has quarantined it),
    // so only its hits matter: a Poisson(rate) scan thinned by the hit
    // probability is Poisson(hits), uniform over the same targets.
    for (std::uint64_t a = rng.poisson(hits); a > 0; --a)
      queue_packet(shard, kind, v, pick());
    return;
  }
  const auto& qpolicy = config_.quarantine.policy;
  const std::uint32_t local = v - shard.begin;
  const bool q = shard.quarantine && shard.quarantine->quarantined(local);
  // A throttled host's scans slow down (to the lesser of the two rates);
  // its legitimate traffic does not.
  const bool throttled =
      q && kind != PacketKind::kLegit &&
      qpolicy.treatment == quarantine::Treatment::kThrottle &&
      throttle_rate_.mean < rate.mean;
  const std::uint64_t attempts =
      rng.poisson(throttled ? throttle_rate_ : rate);
  if (q && qpolicy.treatment == quarantine::Treatment::kDropAll) {
    // Full isolation: everything dies at the host's own uplink. No
    // destinations are drawn — the packets never exist.
    if (kind == PacketKind::kLegit) {
      shard.d.legit_sent += attempts;
      shard.d.legit_quarantine_dropped += attempts;
    } else {
      shard.d.quarantine_dropped += attempts;
    }
    if (attempts > 0)
      trace(v, obs::EventKind::kQuarantineDrop, /*a=*/0,
            static_cast<std::uint8_t>(kind), attempts);
    return;
  }
  for (std::uint64_t a = 0; a < attempts; ++a) {
    if (sparse && !rng.bernoulli(hit)) {
      // Address-space miss (a sparse sender here is watched): no packet
      // enters the network, but the attempt is a failed connection its
      // detector sees, in its order among the hits. The synthetic
      // dead-address key comes from the node's own stream.
      shard.quarantine->observe(local, rng.next_u64(), tick_,
                                /*failed=*/true);
      continue;
    }
    queue_packet(shard, kind, v, pick());
  }
}

void ShardedSimulation::phase_emit(Shard& shard, std::uint64_t tick_index) {
  // Reset this tick's deltas and hand back the buffers the previous
  // tick consumed.
  shard.d = {};
  for (auto& boxes : shard.outbox)
    for (auto& box : boxes) box.clear();
  for (auto& fresh : shard.fresh) fresh.clear();

  if (shard.quarantine) shard.quarantine->advance_to(tick_);
  // Per-purpose tick bases: every per-node Rng of this tick hangs off
  // one of these via node_rng.
  const auto base = [&](std::uint64_t salt) {
    return mix64(mix64(config_.seed ^ salt) ^ (kTickStride * tick_index));
  };
  if (immunizing_) immunize(shard, base(kImmSalt));

  const auto& detector = config_.detector;
  const bool draw_sightings = detector.enabled && detection_tick_ < 0.0;
  const std::uint64_t emit_base = base(kEmitSalt);
  std::size_t out = 0;
  for (const NodeId v : shard.infected) {
    if (state_[v] != NodeState::kInfected) continue;  // compact away
    shard.infected[out++] = v;
    Rng rng = node_rng(emit_base, v);
    const bool filtered = filtered_[v] != 0;
    const PoissonMean& rate = filtered ? filtered_rate_ : worm_rate_;
    const PoissonMean& hits = filtered ? filtered_hit_rate_ : worm_hit_rate_;
    emit_from(shard, v, PacketKind::kWorm, rate, hits, rng, [&] {
      const NodeId dest = selector_.pick(v, rng);
      ++shard.d.scan_packets;
      if (draw_sightings && rng.bernoulli(detector.observe_probability))
        ++shard.d.sightings;
      return dest;
    });
  }
  shard.infected.resize(out);

  // Predator scans and legitimate packets go to uniform random peers
  // (Welchia swept address ranges like its prey).
  const auto random_peer = [n = UniformBound(topology_.num_nodes())](
                               NodeId v, Rng& rng) {
    NodeId dest;
    do {
      dest = static_cast<NodeId>(rng.uniform_int(n));
    } while (dest == v);
    return dest;
  };
  if (config_.predator.enabled) {
    // Patch due predators; the rest scan.
    const std::uint64_t pred_base = base(kPredatorSalt);
    out = 0;
    for (const NodeId v : shard.predators) {
      if (state_[v] != NodeState::kPredator) continue;  // compact away
      if (tick_ - predator_tick_[v] >= config_.predator.patch_delay) {
        state_[v] = NodeState::kRemoved;
        ++shard.d.predator_patched;
        continue;
      }
      shard.predators[out++] = v;
      Rng rng = node_rng(pred_base, v);
      emit_from(shard, v, PacketKind::kPredator, predator_rate_,
                predator_hit_rate_, rng, [&] { return random_peer(v, rng); });
    }
    shard.predators.resize(out);
  }

  if (config_.legit.rate_per_node > 0.0) {
    const std::uint64_t legit_base = base(kLegitSalt);
    for (NodeId v = shard.begin; v < shard.end; ++v) {
      Rng rng = node_rng(legit_base, v);
      emit_from(shard, v, PacketKind::kLegit, legit_rate_, legit_rate_, rng,
                [&] {
                  ++shard.d.legit_sent;
                  return random_peer(v, rng);
                });
    }
  }
}

void ShardedSimulation::observe(NodeId host, std::uint64_t key, bool failed) {
  if (!quarantine_armed_) return;
  Shard& shard = shards_[shard_of(host)];
  if (shard.quarantine)
    shard.quarantine->observe(host - shard.begin, key, tick_, failed);
}

void ShardedSimulation::mark_accrual(std::uint32_t link) {
  if (accrual_flag_[link]) return;
  accrual_flag_[link] = 1;
  accrual_links_.push_back(link);
}

void ShardedSimulation::FifoStore::reset(std::size_t sites) {
  slots_.clear();
  sites_.assign(sites, Site{});
  free_ = kNil;
}

void ShardedSimulation::FifoStore::push(std::size_t site, const InFlight& p) {
  std::uint32_t slot = free_;
  if (slot != kNil) {
    free_ = slots_[slot].next;
    slots_[slot] = {p, kNil};
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back({p, kNil});
  }
  Site& s = sites_[site];
  if (s.size == 0)
    s.head = slot;
  else
    slots_[s.tail].next = slot;
  s.tail = slot;
  ++s.size;
}

ShardedSimulation::InFlight ShardedSimulation::FifoStore::pop(
    std::size_t site) {
  Site& s = sites_[site];
  const std::uint32_t slot = s.head;
  Slot& front = slots_[slot];
  s.head = front.next;
  --s.size;
  front.next = free_;
  free_ = slot;
  return front.packet;
}

void ShardedSimulation::park_link(std::uint32_t link, const InFlight& p) {
  ++result_.perf.queue_events;
  trace(link, obs::EventKind::kQueuePark);
  // Count, don't store: every release spends one credit, and credit
  // arrives only by accrual, so a packet with this many ahead of it
  // can never leave before the run ends (store_all_parked_).
  if (!store_all_parked_ &&
      static_cast<double>(fifos_.size(link)) >=
          link_credit_[link] +
              link_capacity_[link] * (horizon_ - tick_) + 1.0)
    return;
  fifos_.push(link, p);
}

bool ShardedSimulation::response_drops(const InFlight& p,
                                       std::size_t link) const {
  const auto& response = config_.response;
  if (response.kind == ResponseConfig::Kind::kNone) return false;
  if (!response.filters_everywhere && !net_.link_is_backbone(link))
    return false;
  if (response.kind == ResponseConfig::Kind::kBlacklist) {
    // Blacklists are per-source: everything the identified host sends
    // is discarded, worm scans and legitimate packets alike. The
    // reaction clock runs from the source's infection, or from the
    // alarm if that is later (identification cannot precede it).
    double clock_start = infected_tick_[p.src];
    if (clock_start < 0.0) return false;
    if (response.start_on_detection) {
      if (detection_tick_ < 0.0) return false;
      clock_start = std::max(clock_start, detection_tick_);
    }
    return tick_ >= clock_start + response.reaction_time;
  }
  // Content filter: the signature matches only the main worm's
  // payload; legitimate packets and the counter-worm pass. Signature
  // extraction starts at the alarm when start_on_detection is set,
  // otherwise at the first infection (tick 0).
  if (p.kind != PacketKind::kWorm) return false;
  if (response.start_on_detection)
    return detection_tick_ >= 0.0 &&
           tick_ >= detection_tick_ + response.reaction_time;
  return tick_ >= response.reaction_time;
}

void ShardedSimulation::forward(InFlight p) {
  // Traverse the remaining path within this tick, consuming limiter
  // budgets. The first exhausted limiter parks the packet in its FIFO;
  // an active response filter may discard it outright.
  ++result_.perf.packets_forwarded;
  const auto& cap = config_.deployment.node_forward_cap;  // (hub, budget)
  while (p.at != p.dest) {
    // Node-level forwarding cap (the star hub experiment).
    if (cap && p.at == cap->first) {
      if (node_cap_used_ >= cap->second) {
        fifos_.push(link_capacity_.size(), p);
        ++result_.perf.queue_events;
        trace(cap->first, obs::EventKind::kQueuePark, /*a=*/1);
        return;
      }
      ++node_cap_used_;
    }

    const RoutedTopology::HopStep hop = topology_.hop_toward(p.at, p.dest);
    if (response_drops(p, hop.link)) {
      if (p.kind == PacketKind::kLegit)
        ++result_.legit_dropped;
      else
        ++result_.worm_packets_dropped;
      trace(p.src, obs::EventKind::kResponseDrop, /*a=*/0,
            static_cast<std::uint8_t>(p.kind), hop.link);
      // A filtered connection never completes: the sender's detector
      // sees it as a failure.
      observe(p.src, p.dest, /*failed=*/true);
      return;
    }
    if (link_capacity_[hop.link] != 0.0) {
      if (link_credit_[hop.link] < 1.0) {
        park_link(hop.link, p);
        return;
      }
      link_credit_[hop.link] -= 1.0;
      mark_accrual(hop.link);
    }
    ++result_.perf.link_hops;
    p.at = hop.next;
  }
  // Delivered: the contact completed, so the sender's detector records
  // it now; phase B applies its effect at the destination.
  observe(p.src, p.dest, /*failed=*/false);
  shards_[shard_of(p.dest)].inbox.push_back(p);
}

void ShardedSimulation::phase_forward() {
  // New tick: limited links below their burst cap accrue one tick's
  // capacity as credit (clamped so idle links cannot bank an unbounded
  // burst). Only links that spent credit — or fractional-capacity links
  // still climbing toward one whole packet — are on the accrual list.
  //
  // A link FIFO that is not empty ends every forward phase below one
  // credit (it drained until it could not, and a packet parks only at a
  // link short of one), so it is on this list, and credit rises only
  // here: the queued links that reach a whole credit now are the only
  // ones that can release this tick.
  ready_links_.clear();
  std::size_t out = 0;
  for (const std::uint32_t l : accrual_links_) {
    const double burst = std::max(1.0, link_capacity_[l]);
    link_credit_[l] = std::min(link_credit_[l] + link_capacity_[l], burst);
    if (link_credit_[l] >= 1.0 && fifos_.size(l) != 0)
      ready_links_.push_back(l);
    if (link_credit_[l] < burst)
      accrual_links_[out++] = l;  // still short of a full burst
    else
      accrual_flag_[l] = 0;
  }
  accrual_links_.resize(out);
  node_cap_used_ = 0;

  const auto release = [&](std::size_t site, std::uint32_t id,
                           std::uint8_t at_hub) {
    const InFlight p = fifos_.pop(site);
    ++result_.perf.queue_releases;
    trace(id, obs::EventKind::kQueueRelease, at_hub);
    forward(p);
  };
  // Hub-capped packets drain oldest-first; a released packet that
  // re-parks at the hub goes to the back of the same FIFO. (Only a
  // configured hub cap ever queues here.)
  const auto& cap = config_.deployment.node_forward_cap;
  const std::size_t hub = link_capacity_.size();
  while (fifos_.size(hub) != 0 && node_cap_used_ < cap->second)
    release(hub, cap->first, 1);

  // Ready link FIFOs drain oldest-first in ascending link-index order.
  // A packet released here can spend a later ready link's credit or
  // park behind it, so each link rechecks its credit as it drains.
  std::sort(ready_links_.begin(), ready_links_.end());
  for (const std::uint32_t l : ready_links_)
    while (fifos_.size(l) != 0 && link_credit_[l] >= 1.0) release(l, l, 0);

  // This tick's fresh packets in canonical order: worm, predator,
  // legit; each by ascending source (shards are ascending id ranges)
  // and emission sequence. The first-hop lookup misses cache on a
  // large all-pairs table, so routes are prefetched a few packets
  // ahead.
  const auto tick = static_cast<std::uint32_t>(tick_);
  for (std::size_t k = 0; k < kKinds; ++k)
    for (const Shard& sh : shards_) {
      const std::vector<Packet>& fresh = sh.fresh[k];
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        if (i + kRoutePrefetchDistance < fresh.size()) {
          const Packet& ahead = fresh[i + kRoutePrefetchDistance];
          topology_.prefetch_route(ahead.src, ahead.dest);
        }
        const Packet& p = fresh[i];
        forward({p.src, p.dest, p.src, tick, static_cast<PacketKind>(k)});
      }
    }
}

void ShardedSimulation::apply(Shard& shard, PacketKind kind, NodeId dest,
                              std::uint32_t emit_tick) {
  if (shard.quarantine &&
      config_.quarantine.policy.treatment ==
          quarantine::Treatment::kDropAll &&
      shard.quarantine->quarantined(dest - shard.begin)) {
    // Inbound packet blocked at an isolated destination.
    if (kind == PacketKind::kLegit)
      ++shard.d.legit_quarantine_dropped;
    else
      ++shard.d.quarantine_dropped;
    trace(dest, obs::EventKind::kQuarantineDrop, /*a=*/1,
          static_cast<std::uint8_t>(kind), 1);
    return;
  }
  switch (kind) {
    case PacketKind::kWorm:
      if (state_[dest] != NodeState::kSusceptible) return;
      state_[dest] = NodeState::kInfected;
      infected_tick_[dest] = tick_;
      ever_[dest] = 1;
      shard.pending.push_back(dest);
      ++shard.d.new_infections;
      trace(dest, obs::EventKind::kInfection);
      return;
    case PacketKind::kPredator:
      if (state_[dest] == NodeState::kSusceptible)
        ++shard.d.predator_from_susceptible;
      else if (state_[dest] == NodeState::kInfected)
        ++shard.d.predator_from_infected;
      else
        return;
      state_[dest] = NodeState::kPredator;
      predator_tick_[dest] = tick_;
      shard.pending_predators.push_back(dest);
      trace(dest, obs::EventKind::kPredatorTake);
      return;
    case PacketKind::kLegit: {
      ++shard.d.legit_delivered;
      const double delay = tick_ - static_cast<double>(emit_tick);
      shard.d.legit_delay_sum += delay;
      shard.d.legit_delay_max = std::max(shard.d.legit_delay_max, delay);
      return;
    }
  }
}

void ShardedSimulation::phase_apply(Shard& shard) {
  if (forwarding_) {
    for (const InFlight& p : shard.inbox)
      apply(shard, p.kind, p.dest, p.emit_tick);
    shard.inbox.clear();
  } else {
    // Canonical order restricted to this range: kind, then ascending
    // source shard + per-shard emission order = ascending source node
    // id globally, whatever the shard count.
    const std::size_t self =
        static_cast<std::size_t>(&shard - shards_.data());
    const auto tick = static_cast<std::uint32_t>(tick_);
    for (std::size_t k = 0; k < kKinds; ++k)
      for (const Shard& src : shards_)
        for (const Packet& p : src.outbox[k][self]) {
          ++shard.d.delivered;
          apply(shard, static_cast<PacketKind>(k), p.dest, tick);
        }
  }
  const auto merge = [&](std::vector<NodeId>& list,
                         std::vector<NodeId>& pending) {
    if (pending.empty()) return;
    std::sort(pending.begin(), pending.end());
    shard.merge_scratch.resize(list.size() + pending.size());
    std::merge(list.begin(), list.end(), pending.begin(), pending.end(),
               shard.merge_scratch.begin());
    list.swap(shard.merge_scratch);
    pending.clear();
  };
  merge(shard.infected, shard.pending);
  merge(shard.predators, shard.pending_predators);
}

void ShardedSimulation::step() {
  using clock = std::chrono::steady_clock;
  const auto lap = [](clock::time_point& t) {
    const auto now = clock::now();
    const std::chrono::duration<double> d = now - t;
    t = now;
    return d.count();
  };
  if (tick_ >= config_.max_ticks)
    throw std::logic_error("ShardedSimulation::step: the run is at max_ticks");
  auto t = clock::now();
  tick_ += 1.0;
  ++tick_index_;

  // Serial pre-phase: tick-granularity control decisions from last
  // tick's state, frozen for the whole tick so shards need no
  // coordination.
  if (config_.quarantine.enabled && !quarantine_armed_ &&
      detection_tick_ >= 0.0)
    quarantine_armed_ = true;
  const auto& imm = config_.immunization;
  if (imm.enabled && !immunizing_) {
    bool due = false;
    if (imm.start_on_detection)
      due = detection_tick_ >= 0.0;
    else if (imm.start_at_tick)
      due = tick_ >= *imm.start_at_tick;
    else
      due = static_cast<double>(ever_count_) /
                static_cast<double>(topology_.num_nodes()) >=
            imm.start_at_infected_fraction;
    if (due) {
      immunizing_ = true;
      result_.immunization_start_tick = tick_;
      trace(0, obs::EventKind::kImmunizationStart);
      for (Shard& sh : shards_)
        for (NodeId v = sh.begin; v < sh.end; ++v)
          if (state_[v] != NodeState::kRemoved) sh.alive.push_back(v);
    }
  }
  if (config_.predator.enabled && !predator_released_ &&
      tick_ >= config_.predator.start_tick)
    release_predator();

  // Per-phase spans (obs_.spans; null when profiling is off) time the
  // parallel phases and the serial merges separately — the merge /
  // phase ratio is the scaling diagnostic. Spans read only the clock,
  // never RNG or sim state, so profiled runs stay byte-identical.
  {
    const obs::Span span(obs_.spans, "emit");
    // One thread per shard; each phase touches only its own shard.
    parallel_for(shards_.size(), shards_.size(),
                 [&](std::size_t s) { phase_emit(shards_[s], tick_index_); });
  }

  {
    const obs::Span span(obs_.spans, "merge_emit");
    // Serial merge A: fold emission deltas in ascending shard order.
    for (const Shard& sh : shards_) {
      const Shard::Deltas& d = sh.d;
      const auto immunized = [&](NodeState s) {
        return d.immunized[static_cast<std::size_t>(s)];
      };
      result_.total_scan_packets += d.scan_packets;
      detector_sightings_ += d.sightings;
      susceptible_count_ -= immunized(NodeState::kSusceptible);
      infected_count_ -= immunized(NodeState::kInfected);
      predator_count_ -= immunized(NodeState::kPredator) + d.predator_patched;
      removed_count_ += immunized(NodeState::kSusceptible) +
                        immunized(NodeState::kInfected) +
                        immunized(NodeState::kPredator) + d.predator_patched;
    }
    if (config_.detector.enabled && detection_tick_ < 0.0 &&
        detector_sightings_ >= config_.detector.threshold) {
      detection_tick_ = tick_;
      result_.detection_tick = tick_;
      trace(0, obs::EventKind::kDetectorAlarm, 0, 0, detector_sightings_);
    }
  }
  result_.perf.seconds_emit += lap(t);

  if (forwarding_) {
    const obs::Span span(obs_.spans, "forward");
    phase_forward();
  }
  result_.perf.seconds_forward += lap(t);

  {
    const obs::Span span(obs_.spans, "apply");
    parallel_for(shards_.size(), shards_.size(),
                 [&](std::size_t s) { phase_apply(shards_[s]); });
  }

  {
    const obs::Span span(obs_.spans, "merge_apply");
    // Serial merge B: fold delivery deltas.
    for (const Shard& sh : shards_) {
      const Shard::Deltas& d = sh.d;
      result_.perf.packets_forwarded += d.delivered;
      result_.quarantine_dropped_packets += d.quarantine_dropped;
      ever_count_ += d.new_infections;
      infected_count_ += d.new_infections;
      infected_count_ -= d.predator_from_infected;
      susceptible_count_ -= d.new_infections + d.predator_from_susceptible;
      predator_count_ += d.predator_from_susceptible + d.predator_from_infected;
      result_.legit_sent += d.legit_sent;
      result_.legit_delivered += d.legit_delivered;
      result_.legit_quarantine_dropped += d.legit_quarantine_dropped;
      legit_delay_sum_ += d.legit_delay_sum;
      result_.max_legit_delay =
          std::max(result_.max_legit_delay, d.legit_delay_max);
    }
  }
  result_.perf.seconds_apply += lap(t);

  {
    const obs::Span span(obs_.spans, "record");
    record();
  }
  result_.perf.seconds_record += lap(t);
  ++result_.perf.ticks;
}

void ShardedSimulation::record() {
  const double n = static_cast<double>(topology_.num_nodes());
  result_.active_infected.push(tick_,
                               static_cast<double>(infected_count_) / n);
  result_.ever_infected.push(tick_, static_cast<double>(ever_count_) / n);
  result_.removed.push(tick_, static_cast<double>(removed_count_) / n);
  if (config_.predator.enabled)
    result_.predator_infected.push(
        tick_, static_cast<double>(predator_count_) / n);
  if (seed_subnet_) {
    const auto& members = topology_.subnet_members(*seed_subnet_);
    std::size_t ever = 0;
    for (NodeId m : members) ever += ever_[m];
    result_.seed_subnet_infected.push(
        tick_,
        static_cast<double>(ever) / static_cast<double>(members.size()));
  }
}

bool ShardedSimulation::saturated() const {
  // Nothing can change once no susceptible host remains, unless
  // immunization or the predator still moves nodes. With legit traffic
  // the run continues so collateral metrics cover the full horizon.
  return config_.stop_when_saturated && !config_.immunization.enabled &&
         config_.legit.rate_per_node <= 0.0 && !config_.predator.enabled &&
         susceptible_count_ == 0;
}

quarantine::QuarantineReport ShardedSimulation::quarantine_report() const {
  // Host records read in place in global id order: the accumulation
  // order (and float result) of one unsharded engine, so the report is
  // invariant in the shard count. Ground truth: a host is a target iff
  // the worm ever took it, with its infection tick as the
  // detection-latency reference point.
  std::uint64_t events = 0;
  for (const Shard& sh : shards_)
    if (sh.quarantine) events += sh.quarantine->quarantine_events();
  return quarantine::report_from_records(
      [this](std::size_t h) -> const quarantine::HostRecord& {
        const auto v = static_cast<NodeId>(h);
        const Shard& sh = shards_[shard_of(v)];
        return sh.quarantine->record(v - sh.begin);
      },
      infected_tick_, tick_, events);
}

void ShardedSimulation::flush_metrics() {
  if (obs_.metrics == nullptr) return;
  // One batched flush per run: relaxed counter adds commute, so totals
  // across a run_many batch are identical at any thread count.
  obs::MetricsRegistry& m = *obs_.metrics;
  m.counter("sim.runs").add(1);
  m.counter("sim.ticks").add(result_.perf.ticks);
  m.counter("sim.packets_forwarded").add(result_.perf.packets_forwarded);
  m.counter("sim.link_hops").add(result_.perf.link_hops);
  m.counter("sim.queue_events").add(result_.perf.queue_events);
  m.counter("sim.queue_releases").add(result_.perf.queue_releases);
  m.counter("sim.scan_packets").add(result_.total_scan_packets);
  m.counter("sim.infections").add(ever_count_);
  m.counter("sim.worm_packets_dropped").add(result_.worm_packets_dropped);
  m.counter("sim.legit.sent").add(result_.legit_sent);
  m.counter("sim.legit.delivered").add(result_.legit_delivered);
  m.counter("sim.legit.dropped").add(result_.legit_dropped);
  m.histogram("sim.run_ticks").record(result_.perf.ticks);
  if (config_.quarantine.enabled) {
    m.counter("quarantine.events")
        .add(static_cast<std::uint64_t>(result_.quarantine.quarantine_events));
    m.counter("quarantine.dropped_packets")
        .add(result_.quarantine_dropped_packets);
    m.counter("quarantine.legit_dropped")
        .add(result_.legit_quarantine_dropped);
  }
}

RunResult ShardedSimulation::run() {
  while (tick_ < config_.max_ticks && !saturated()) step();
  result_.final_ever_infected_count = ever_count_;
  result_.total_queued_packet_events = result_.perf.queue_events;
  if (result_.legit_delivered > 0)
    result_.mean_legit_delay =
        legit_delay_sum_ / static_cast<double>(result_.legit_delivered);
  if (config_.quarantine.enabled) result_.quarantine = quarantine_report();
  flush_metrics();
  return result_;
}

}  // namespace dq::sim
