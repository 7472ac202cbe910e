#include "src/net/shard_net.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/util/logging.h"

namespace snap {

ShardedFabricGroup::ShardedFabricGroup(ShardedSim* sharded,
                                       const NicParams& params)
    : sharded_(sharded), params_(params) {
  // Conservative sync is only sound if nothing crosses shards faster than
  // the lookahead the coordinator runs epochs with. propagation_delay is
  // the topology's minimum hop; RefreshPairLookaheads raises individual
  // pairs when their hosts are provably further apart.
  SNAP_CHECK_LE(sharded_->lookahead(), params_.propagation_delay);
  int n = sharded_->num_shards();
  fabrics_.reserve(n);
  for (int s = 0; s < n; ++s) {
    auto fabric = std::make_unique<Fabric>(sharded_->sim(s), params_);
    fabric->set_shard_router(this, s);
    fabric->set_arrival_time_mode(true);
    fabrics_.push_back(std::move(fabric));
  }
  per_source_.resize(n);
  sharded_->AddBarrierHook([this] { Exchange(); });
}

ShardedFabricGroup::~ShardedFabricGroup() {
  // Profiling gauges capture `this`; pull them before the callbacks
  // dangle (the group usually dies before its ShardedSim).
  if (profiling_) {
    for (int d = 0; d < num_shards(); ++d) {
      Telemetry& t = sharded_->sim(d)->telemetry();
      const std::string base = "net/shard/" + std::to_string(d);
      t.UnregisterGauge(base + "/handoff_max_inbound");
    }
  }
  // Packets still in an outbox (simulation torn down mid-flight) are
  // owned by their Handoff and freed with it.
}

void ShardedFabricGroup::OnAddHost(Fabric* adder) {
  host_shard_.push_back(adder->shard_id());
  lookahead_dirty_ = true;
  for (auto& fabric : fabrics_) {
    if (fabric.get() != adder) {
      fabric->AddRemoteHost();
    }
  }
}

void ShardedFabricGroup::RefreshPairLookaheads() {
  lookahead_dirty_ = false;
  const int n = num_shards();
  if (n <= 1) return;
  // Which clusters each shard owns hosts in.
  std::vector<std::vector<int>> clusters(n);
  for (int h = 0; h < num_hosts(); ++h) {
    auto& mine = clusters[host_shard_[h]];
    int c = params_.cluster_of(h);
    if (std::find(mine.begin(), mine.end(), c) == mine.end()) {
      mine.push_back(c);
    }
  }
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      bool share_cluster = false;
      for (int c : clusters[s]) {
        if (std::find(clusters[d].begin(), clusters[d].end(), c) !=
            clusters[d].end()) {
          share_cluster = true;
          break;
        }
      }
      // Minimum latency from any host of s to any host of d. An empty
      // shard conservatively gets the flat minimum only when it shares a
      // cluster, which it never does, so it lands on the (still sound)
      // maximum — it has no hosts to send from anyway.
      sharded_->set_pair_lookahead(s, d,
                                   share_cluster
                                       ? params_.propagation_delay
                                       : params_.max_propagation_delay());
    }
  }
}

void ShardedFabricGroup::RouteFromShard(Fabric* src, PacketPtr packet,
                                        SimTime wire_time) {
  const int s = src->shard_id();
  const int d = host_shard_[packet->dst_host];
  const int src_host = packet->src_host;
  const int dst_host = packet->dst_host;
  PerSource& ps = per_source_[s];
  ++ps.handoffs;
  const uint64_t seq = ps.next_seq++;
  if (s == d) {
    // Same-shard traffic bypasses the outbox and barriers: stage it
    // on our own destination port's sequencer at its exact arrival time.
    // The sequencer orders same-instant ties by the same canonical key
    // the exchange sorts by, so the delivery order matches what a
    // barrier crossing would have produced.
    ++ps.local_direct;
    src->StageArrival(std::move(packet),
                      wire_time + params_.propagation_between(src_host,
                                                              dst_host),
                      wire_time, src_host, seq);
    return;
  }
  ++ps.cross_shard;
  ps.outbox.push_back(Handoff{wire_time, src_host, d, seq, std::move(packet)});
}

void ShardedFabricGroup::Exchange() {
  if (lookahead_dirty_) RefreshPairLookaheads();
  // Every shard is parked at the barrier, so the outboxes are read here
  // with no synchronization of their own (shard_net.h, "Exchange").
  scratch_.clear();
  for (PerSource& ps : per_source_) {
    std::move(ps.outbox.begin(), ps.outbox.end(),
              std::back_inserter(scratch_));
    ps.outbox.clear();
  }
  if (scratch_.empty()) return;
  ++exchanges_;
  // Grouped by destination, then canonical order: a pure function of the
  // traffic, independent of the shard layout and of the order the
  // outboxes were read in. seq ties only arise within one source shard,
  // where it reproduces emission order. (Same-instant arrival ties are
  // re-canonicalized by the port sequencer; sorting here keeps the
  // staging near-ordered so sequencers rarely re-arm.)
  std::sort(scratch_.begin(), scratch_.end(),
            [](const Handoff& a, const Handoff& b) {
              if (a.dst_shard != b.dst_shard) {
                return a.dst_shard < b.dst_shard;
              }
              if (a.wire_time != b.wire_time) {
                return a.wire_time < b.wire_time;
              }
              if (a.src_host != b.src_host) {
                return a.src_host < b.src_host;
              }
              return a.seq < b.seq;
            });
  for (auto it = scratch_.begin(); it != scratch_.end();) {
    const int dst = it->dst_shard;
    const auto end =
        std::find_if(it, scratch_.end(),
                     [dst](const Handoff& h) { return h.dst_shard != dst; });
    if (profiling_) {
      const int64_t inbound = end - it;
      prof_inbound_[dst]->Add(inbound);
      max_inbound_[dst] = std::max(max_inbound_[dst], inbound);
      if (sharded_->tracing_enabled()) {
        // Deterministic: inbound depth is a pure function of the traffic
        // and the (deterministic) epoch structure; the timestamp is the
        // barrier's simulated time.
        sharded_->shard_tracer(dst)->CounterValueOnTrack(
            sharded_->now(), TraceRecorder::kProfilerTrack,
            "handoff/inbound", inbound);
      }
    }
    Fabric* dfab = fabrics_[dst].get();
    for (; it != end; ++it) {
      SimTime arrival = it->wire_time + params_.propagation_between(
                                            it->src_host,
                                            it->packet->dst_host);
      dfab->StageArrival(std::move(it->packet), arrival, it->wire_time,
                         it->src_host, it->seq);
    }
  }
}

Fabric::Stats ShardedFabricGroup::AggregateStats() const {
  Fabric::Stats total;
  for (const auto& fabric : fabrics_) {
    const Fabric::Stats& s = fabric->stats();
    total.delivered += s.delivered;
    total.dropped_queue_full += s.dropped_queue_full;
    total.dropped_random += s.dropped_random;
    total.dropped_bad_address += s.dropped_bad_address;
    total.drain_events += s.drain_events;
  }
  return total;
}

ShardedFabricGroup::ExchangeStats ShardedFabricGroup::exchange_stats() const {
  ExchangeStats out;
  for (const PerSource& ps : per_source_) {
    out.handoffs += ps.handoffs;
    out.local_direct += ps.local_direct;
    out.cross_shard += ps.cross_shard;
  }
  out.exchanges = exchanges_;
  for (int64_t v : max_inbound_) {
    out.max_inbound_handoffs = std::max(out.max_inbound_handoffs, v);
  }
  return out;
}

void ShardedFabricGroup::EnableProfiling() {
  if (profiling_) return;
  profiling_ = true;
  const int n = num_shards();
  prof_inbound_.resize(n);
  max_inbound_.assign(n, 0);
  for (int d = 0; d < n; ++d) {
    Telemetry& t = sharded_->sim(d)->telemetry();
    const std::string base = "net/shard/" + std::to_string(d);
    prof_inbound_[d] = t.GetCounter(base + "/handoff_in");
    t.RegisterGauge(base + "/handoff_max_inbound",
                    [this, d]() -> int64_t { return max_inbound_[d]; });
  }
}

}  // namespace snap
