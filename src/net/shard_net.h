// Shard-aware fabric: one Fabric per ShardedSim shard, cross-shard packet
// hand-off through one outbox per source shard, canonical arrival ordering
// via the per-port sequencer.
//
// Topology. Host ids are global: every AddHost() on any shard's fabric
// reserves the same id on every other shard (placeholder port, nullptr
// NIC), so Packet::dst_host indexes the same tables everywhere. Each
// shard's Fabric routes every wire departure to this group's
// RouteFromShard. Same-shard traffic is delivered eagerly: it is staged
// straight onto the destination port's arrival sequencer
// (Fabric::StageArrival) at its exact arrival time, never touching an
// outbox or a barrier — which both removes it from the exchange entirely
// and frees the conservative horizon from the intra-shard propagation
// delay (ShardedSim's per-destination horizon skips the diagonal).
//
// Exchange. Cross-shard departures are appended to the source shard's
// outbox, a plain vector only that shard's thread touches during the
// epoch. The coordinator reads the outboxes only at the epoch barrier,
// while every shard is parked: the barrier orders every append before
// the coordinator's read, and the coordinator's clear before the shard
// resumes, so no atomics are needed — nothing is ever read while it is
// written. At each barrier the coordinator takes every outbox, sorts the
// handoffs by destination shard and then by the canonical key (wire_time,
// src_host, seq) — seq is a per-source-shard counter and each src_host
// lives on one shard, so the key is unique and a pure function of the
// simulated traffic, and the order the outboxes were read in cannot
// change the result — and stages each handoff on the destination
// fabric's arrival sequencer at wire_time + propagation between the two
// hosts. The sequencer re-sorts same-(port, instant) arrivals by the same
// canonical key at delivery, so tie order is identical no matter how
// hosts are placed or how many shards exist; this is what makes trace
// digests invariant across shard counts and placements. They equal the
// serial engine's on the seed sweep, not in general (docs/PARALLEL.md
// section 5).
//
// Lookahead. The group derives ShardedSim's per-pair lookahead matrix from
// the topology: L(s, d) = propagation_delay if shards s and d own hosts in
// a common cluster, else propagation_delay + inter_cluster_extra_delay
// (the minimum latency between any host of s and any host of d). Shard
// pairs coupled only across clusters run longer epochs with fewer
// barriers. The matrix is recomputed lazily at the first exchange after a
// host is added.
//
// Safety. The conservative horizon (ShardedSim) guarantees every handoff
// staged during an epoch has arrival >= the destination's horizon, so
// barrier-time staging never rewinds a destination shard's clock. The
// group CHECKs lookahead <= propagation_delay at construction.
//
// Time frame. Delivery hooks (chaos links) and port contention run on the
// destination shard at the switch-arrival time, so per-shard fabrics are
// switched into arrival-time mode: EnqueueAtPort must not add propagation
// a second time. Chaos links schedule everything relative to now() and
// work unchanged.
#ifndef SRC_NET_SHARD_NET_H_
#define SRC_NET_SHARD_NET_H_

#include <memory>
#include <vector>

#include "src/net/fabric.h"
#include "src/sim/model_params.h"
#include "src/sim/sharded_sim.h"

namespace snap {

class ShardedFabricGroup : public ShardRouter {
 public:
  ShardedFabricGroup(ShardedSim* sharded, const NicParams& params);
  ~ShardedFabricGroup() override;

  ShardedFabricGroup(const ShardedFabricGroup&) = delete;
  ShardedFabricGroup& operator=(const ShardedFabricGroup&) = delete;

  int num_shards() const { return static_cast<int>(fabrics_.size()); }
  Fabric* fabric(int shard) { return fabrics_[shard].get(); }
  int num_hosts() const { return static_cast<int>(host_shard_.size()); }

  int shard_of_host(int host) const { return host_shard_[host]; }
  Fabric* host_fabric(int host) { return fabrics_[host_shard_[host]].get(); }
  Simulator* host_sim(int host) { return sharded_->sim(host_shard_[host]); }

  // ShardRouter interface (called by the per-shard Fabrics).
  void OnAddHost(Fabric* adder) override;
  void RouteFromShard(Fabric* src, PacketPtr packet,
                      SimTime wire_time) override;

  // Sum of every shard fabric's delivery/drop counters.
  Fabric::Stats AggregateStats() const;

  struct ExchangeStats {
    int64_t handoffs = 0;      // packets routed through the group
    int64_t local_direct = 0;  // same-shard, delivered eagerly (no barrier)
    int64_t cross_shard = 0;   // staged toward a different shard
    int64_t exchanges = 0;     // barrier exchanges that moved packets
    // Profiling only (0 otherwise): largest per-destination inbound
    // handoff burst seen at any barrier.
    int64_t max_inbound_handoffs = 0;
  };
  ExchangeStats exchange_stats() const;

  // Arms deterministic handoff-depth instrumentation: per-destination
  // inbound-handoff counters and max-inbound gauges in each shard's
  // Telemetry registry (net/shard/<d>/...), plus kProfilerTrack counter
  // events in per-shard traces when tracing is on. Counts only — no wall
  // clock — so output stays deterministic per seed; off by default so
  // digests are unchanged from pre-profiler builds. Call before Run*.
  void EnableProfiling();

 private:
  // One cross-shard packet waiting in its source shard's outbox.
  struct Handoff {
    SimTime wire_time = 0;
    int src_host = -1;
    int dst_shard = -1;
    uint64_t seq = 0;
    PacketPtr packet;
  };

  // Per-source-shard mutable state, cache-line separated so shard threads
  // never share a line. Only the source shard's thread touches it during
  // an epoch; the coordinator drains the outbox at the barrier.
  struct alignas(64) PerSource {
    uint64_t next_seq = 0;
    int64_t handoffs = 0;
    int64_t local_direct = 0;
    int64_t cross_shard = 0;
    std::vector<Handoff> outbox;
  };

  // Runs at every epoch barrier: collect the outboxes, sort, stage
  // arrivals.
  void Exchange();
  // Recomputes the per-pair lookahead matrix from each shard's cluster
  // footprint (lazy, after host additions).
  void RefreshPairLookaheads();

  ShardedSim* sharded_;
  NicParams params_;
  std::vector<std::unique_ptr<Fabric>> fabrics_;
  std::vector<PerSource> per_source_;
  std::vector<int> host_shard_;
  std::vector<Handoff> scratch_;  // coordinator-only sort buffer
  int64_t exchanges_ = 0;
  bool lookahead_dirty_ = false;

  // Profiling state (EnableProfiling), written only at barriers.
  bool profiling_ = false;
  std::vector<Counter*> prof_inbound_;  // per dst shard
  std::vector<int64_t> max_inbound_;    // per dst, running max
};

}  // namespace snap

#endif  // SRC_NET_SHARD_NET_H_
