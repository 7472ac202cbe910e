// Shard-aware fabric: one Fabric per ShardedSim shard, cross-shard packet
// hand-off in fixed-size batches over the model-checked SpscRing, canonical
// arrival ordering via the per-port sequencer.
//
// Topology. Host ids are global: every AddHost() on any shard's fabric
// reserves the same id on every other shard (placeholder port, nullptr
// NIC), so Packet::dst_host indexes the same tables everywhere. Each
// shard's Fabric routes every wire departure to this group's
// RouteFromShard. Same-shard traffic is delivered eagerly: it is staged
// straight onto the destination port's arrival sequencer
// (Fabric::StageArrival) at its exact arrival time, never touching a ring
// or a barrier — which both removes it from the exchange entirely and
// frees the conservative horizon from the intra-shard propagation delay
// (ShardedSim's per-destination horizon skips the diagonal).
//
// Exchange. Cross-shard departures accumulate in a per-(src,dst)-channel
// staging batch (kHandoffBatchSize handoffs); full batches go through the
// SPSC ring — one push per batch instead of per packet — produced by the
// shard thread during the epoch and consumed by the coordinator at the
// barrier. A full ring spills whole batches to a source-owned vector, and
// the coordinator also reads the final partial staging batch directly (the
// epoch barriers provide the happens-before in both directions), so
// per-channel order is ring, then spill, then staging = exact emission
// order. At each barrier the coordinator drains every destination's
// inbound channels, sorts by the canonical key (wire_time, src_host, seq)
// — seq is a per-source-shard staging counter, so equal (wire_time,
// src_host) ties reproduce the source's emission order and the key is a
// pure function of the simulated traffic — and stages each handoff on the
// destination fabric's arrival sequencer at wire_time + propagation
// between the two hosts. The sequencer re-sorts same-(port, instant)
// arrivals by the same canonical key at delivery, so tie order is
// identical no matter how hosts are placed or how many shards exist; this
// is what makes trace digests invariant across shard counts and
// placements. They equal the serial engine's on the seed sweep, not in
// general (docs/PARALLEL.md section 5).
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
#include "src/queue/spsc_ring.h"
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
    int64_t ring_overflow = 0;  // batches spilled (ring full)
    int64_t exchanges = 0;      // barrier exchanges that moved packets
    // Profiling only (0 otherwise): deepest single-channel ring drain and
    // largest per-destination inbound handoff burst seen at any barrier.
    int64_t max_ring_batches = 0;
    int64_t max_inbound_handoffs = 0;
  };
  ExchangeStats exchange_stats() const;

  // Arms deterministic handoff-depth instrumentation: per-destination
  // inbound-handoff counters and ring-occupancy gauges in each shard's
  // Telemetry registry (net/shard/<d>/...), plus kProfilerTrack counter
  // events in per-shard traces when tracing is on. Counts only — no wall
  // clock — so output stays deterministic per seed; off by default so
  // digests are unchanged from pre-profiler builds. Call before Run*.
  void EnableProfiling();

  // Cross-shard handoffs per batch pushed through a ring.
  static constexpr int kHandoffBatchSize = 16;

 private:
  // One staged packet. The pointer is released from its unique_ptr so the
  // Handoff is trivially copyable through the ring; ownership transfers to
  // the destination port's sequencer at exchange (or back to
  // ~ShardedFabricGroup).
  struct Handoff {
    SimTime wire_time = 0;
    int src_host = -1;
    uint64_t seq = 0;
    Packet* packet = nullptr;
  };

  struct HandoffBatch {
    int32_t count = 0;
    Handoff items[kHandoffBatchSize];
  };

  // Directed (src shard -> dst shard) channel. The ring is SPSC: the
  // source shard's thread produces full batches during the epoch, the
  // coordinator consumes at the barrier. Overflow spills whole batches to
  // a source-owned vector; once the ring fills it stays full until the
  // barrier, so every spilled batch was staged after every ringed one and
  // per-channel FIFO order survives (the canonical sort re-establishes
  // total order anyway). `staging` is the producer's partial batch; the
  // coordinator reads and resets it at the barrier, which is race-free for
  // the same reason the spill vector is (the epoch barriers order every
  // producer write before the coordinator's read, and the reset before the
  // producer resumes).
  struct Channel {
    explicit Channel(size_t capacity) : ring(capacity) {}
    SpscRing<HandoffBatch> ring;
    std::vector<HandoffBatch> spill;
    HandoffBatch staging;
  };

  // Per-source-shard mutable state, cache-line separated so shard threads
  // never share a line.
  struct alignas(64) PerSource {
    uint64_t next_seq = 0;
    int64_t handoffs = 0;
    int64_t local_direct = 0;
    int64_t cross_shard = 0;
    int64_t ring_overflow = 0;
  };

  Channel& channel(int src, int dst) {
    return *channels_[src * num_shards() + dst];
  }

  // Runs at every epoch barrier: drain, sort, stage arrivals.
  void Exchange();
  // Recomputes the per-pair lookahead matrix from each shard's cluster
  // footprint (lazy, after host additions).
  void RefreshPairLookaheads();

  ShardedSim* sharded_;
  NicParams params_;
  std::vector<std::unique_ptr<Fabric>> fabrics_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<PerSource> per_source_;
  std::vector<int> host_shard_;
  std::vector<Handoff> scratch_;  // coordinator-only sort buffer
  int64_t exchanges_ = 0;
  bool lookahead_dirty_ = false;

  // Profiling state (EnableProfiling), written only at barriers.
  bool profiling_ = false;
  std::vector<Counter*> prof_inbound_;     // per dst shard
  std::vector<int64_t> max_ring_batches_;  // per dst, running max
  std::vector<int64_t> max_inbound_;       // per dst, running max
};

}  // namespace snap

#endif  // SRC_NET_SHARD_NET_H_
