// A Pony Express engine (Section 3.1, Figure 4): "services incoming
// packets, interacts with applications, runs state machines to advance
// messaging and one-sided operations, and generates outgoing packets."
//
// Structure per the paper:
//  - upper layer: operation state machines (two-sided messaging with
//    streams; one-sided read/write/indirect-read/scan-and-read) and a flow
//    mapper from application connections to flows;
//  - lower layer: reliable flows with Timely congestion control
//    (src/pony/flow.h).
//
// Packets are generated just-in-time against NIC TX descriptor
// availability; RX and command queues are polled in bounded batches
// (default 16) to trade latency against bandwidth.
#ifndef SRC_PONY_PONY_ENGINE_H_
#define SRC_PONY_PONY_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/nic.h"
#include "src/pony/client.h"
#include "src/pony/flow.h"
#include "src/pony/memory_region.h"
#include "src/pony/pony_types.h"
#include "src/qos/scheduler.h"
#include "src/qos/tenant.h"
#include "src/sim/model_params.h"
#include "src/sim/substrate.h"
#include "src/snap/engine.h"

namespace snap {

class PonyDirectory;
class Telemetry;

class PonyEngine : public Engine {
 public:
  PonyEngine(std::string name, Substrate* sim, Nic* nic, uint32_t engine_id,
             const PonyParams& params, const TimelyParams& timely_params,
             PonyDirectory* directory);
  ~PonyEngine() override;

  PonyAddress address() const {
    return PonyAddress{nic_->host_id(), engine_id_};
  }
  uint32_t engine_id() const { return engine_id_; }
  SimTime now() const { return sim_->now(); }
  const PonyParams& params() const { return params_; }
  // Setup phase, before any flow exists: the payload bytes per two-sided
  // message fragment (params().mtu_payload). Flows read it through a
  // pointer, so every flow created later fragments at this size.
  void set_mtu_payload(int bytes);

  // --- Engine interface ---
  PollResult Poll(SimTime now, SimDuration budget_ns) override;
  bool HasWork(SimTime now) const override;
  SimDuration QueueingDelay(SimTime now) const override;

  // --- Upgrade hooks ---
  void Detach() override;
  void Attach() override;
  void SerializeState(StateWriter* w) const override;
  void DeserializeState(StateReader* r) override;
  StateFootprint Footprint() const override;

  // --- Client attachment (control plane) ---
  void AttachClient(PonyClient* client);
  void DetachClient(PonyClient* client);
  const std::vector<PonyClient*>& clients() const { return clients_; }
  // Incoming messages on unbound streams go to this client.
  void SetDefaultSink(PonyClient* client) { default_sink_ = client; }
  PonyClient* default_sink() { return default_sink_; }

  // --- Client-library hooks ---
  void RegisterRegion(MemoryRegion* region) { regions_.Register(region); }
  void UnregisterRegion(uint64_t id) { regions_.Unregister(id); }
  void BindStream(uint64_t stream_id, PonyClient* client, PonyAddress peer);
  void NoteMessageConsumed(PonyAddress peer, int64_t bytes);

  // Version range this engine advertises (tests exercise negotiation).
  void SetWireVersions(uint16_t min_version, uint16_t max_version);

  struct Stats {
    int64_t rx_packets = 0;
    int64_t tx_packets = 0;
    int64_t messages_delivered = 0;
    int64_t message_bytes_delivered = 0;
    int64_t ops_executed = 0;          // target-side one-sided executions
    int64_t indirections_executed = 0;
    int64_t completions = 0;
    int64_t op_errors = 0;
    int64_t crc_drops = 0;
    // Packets marked corrupted by fault injection that nevertheless passed
    // CRC verification and were consumed. Must stay 0: the end-to-end CRC
    // is the only thing standing between a flipped bit and the application.
    int64_t corrupt_accepted = 0;
    // Completed messages held back so a stream delivers in send order (a
    // later message's fragments can all arrive before an earlier message's
    // retransmitted hole fills).
    int64_t messages_held_for_order = 0;
  };
  const Stats& stats() const { return stats_; }

  Flow* FindFlow(PonyAddress peer);
  size_t flow_count() const { return flows_.size(); }
  // Read-only flow iteration (invariant checkers).
  void ForEachFlow(const std::function<void(const Flow&)>& fn) const {
    for (const auto& [key, flow] : flows_) {
      fn(flow);
    }
  }

  // --- Multi-tenant QoS (src/qos/) ---
  // Switches flow servicing from flat round-robin over flow_seq_ to
  // deficit-weighted round robin across per-tenant flow lists. Weights
  // come from `tenants` (must outlive the engine). Default off; the
  // legacy path is untouched and bit-identical.
  void EnableQos(const qos::TenantRegistry* tenants);
  bool qos_enabled() const { return qos_ != nullptr; }
  const qos::TenantRegistry* tenant_registry() const {
    return qos_ == nullptr ? nullptr : qos_->tenants;
  }
  const Nic* nic() const { return nic_; }

  struct TenantStats {
    int64_t tx_packets = 0;
    int64_t tx_bytes = 0;
    int64_t rx_packets = 0;
    int64_t rx_bytes = 0;
    int64_t messages_delivered = 0;
    int64_t message_bytes_delivered = 0;
    // Modeled engine CPU attributed to this tenant (TX packet generation
    // + RX processing), the CPU-share half of the QoS telemetry.
    int64_t cpu_ns = 0;
  };
  struct TenantSnapshot {
    qos::TenantId id = qos::kDefaultTenant;
    int64_t deficit = 0;      // current DRR deficit (may be negative debt)
    bool sendable = false;    // some flow of this tenant could TX right now
    size_t flows = 0;
    TenantStats stats;
  };
  // Per-tenant scheduling state for invariant checkers / telemetry, in
  // ascending tenant id. Empty unless QoS is enabled.
  void ForEachTenant(const std::function<void(const TenantSnapshot&)>& fn)
      const;
  // Registers per-tenant counters under "<prefix>/<tenant-name>/...".
  void ExportQosStats(Telemetry* telemetry, const std::string& prefix) const;
  // Emits a trace instant for a client-side admission block/unblock edge
  // (called by PonyClient when its token bucket starts/stops throttling).
  void TraceQosAdmission(qos::TenantId tenant, bool blocked);

 private:
  struct PendingOp {
    uint64_t client_id = 0;
    PonyCommandType type = PonyCommandType::kRead;
    SimTime submit_time = 0;
    int64_t expected_bytes = 0;
  };

  // A two-sided send in flight: completes when every fragment is acked.
  struct SendOp {
    uint64_t client_id = 0;
    SimTime submit_time = 0;
    int64_t remaining = 0;
    int64_t total = 0;
  };

  struct Assembly {
    PonyAddress from;
    uint64_t stream_id = 0;
    int64_t received = 0;
    int64_t total = 0;
    std::vector<uint8_t> data;
    SimTime first_rx = 0;
    // Highest flow seq among this message's fragments: the message may only
    // be handed to the application once the flow's cumulative receive point
    // passes it (all earlier messages on the flow are then complete too, so
    // per-stream submission order is preserved under packet reordering).
    uint64_t last_seq = 0;
  };

  struct StreamBinding {
    uint64_t client_id = 0;
    PonyAddress peer;
  };

  Flow& GetOrCreateFlow(PonyAddress peer, uint16_t wire_version_hint,
                        qos::TenantId tenant = qos::kDefaultTenant);
  // Rebuilds flow_seq_ (key-ordered Flow pointers) after a flows_ insert.
  void RebuildFlowSeq();
  // QoS bookkeeping: buckets a new flow under its tenant; retags a
  // default-tenant flow the first time tagged traffic claims it.
  void QosAddFlow(Flow* flow);
  void QosRetagFlow(Flow* flow, qos::TenantId tenant);
  bool TransmitFromFlowsQos(SimTime now, SimDuration budget,
                            SimDuration* cost, int* work);
  void InstallAckObserver(Flow* flow);
  void OnFragmentAcked(const TxRecord& record);
  void HandleRxPacket(PacketPtr packet, SimTime now, SimDuration* cost);
  void HandleDataFragment(Flow& flow, const Packet& packet, SimTime now,
                          SimDuration* cost);
  // Delivers a completed message, or appends it to stalled_messages_ when
  // the client ring is full (or earlier stalls exist — FIFO preserved).
  void DeliverOrStall(Flow& flow, PonyIncomingMessage&& msg);
  // Hands over every held message whose last_seq the flow's cumulative
  // receive point has passed, in seq order.
  void ReleaseHeldMessages(uint64_t wire_flow_id, Flow& flow);
  void HandleOpRequest(Flow& flow, const Packet& packet, SimTime now,
                       SimDuration* cost);
  void HandleOpResponse(const Packet& packet, SimTime now,
                        SimDuration* cost);
  void HandleCommand(PonyClient* client, PonyCommand cmd, SimTime now,
                     SimDuration* cost);
  PonyClient* FindClient(uint64_t client_id);
  bool TransmitFromFlows(SimTime now, SimDuration budget, SimDuration* cost,
                         int* work);
  void FlushAcksAndCredits(SimTime now, SimDuration* cost, int* work);
  void RetryPendingDeliveries(int* work);
  void UpdateWakeTimer(SimTime now);
  SimDuration RxCopyCost(int64_t bytes) const;

  std::string module_name_;
  Substrate* sim_;
  Nic* nic_;
  uint32_t engine_id_;
  PonyParams params_;
  TimelyParams timely_params_;
  PonyDirectory* directory_;
  RxQueue* rx_ = nullptr;
  bool attached_ = false;
  uint16_t wire_min_ = 1;
  uint16_t wire_max_ = 2;

  std::map<FlowKey, Flow> flows_;
  // flows_ in key order as raw pointers: the engine's poll loops walk every
  // flow several times per iteration, and map nodes are pointer-chases.
  // Valid because flows are never erased (map nodes are address-stable);
  // rebuilt on every insert. Same order as iterating flows_ directly.
  std::vector<Flow*> flow_seq_;
  // Single-entry lookup cache: RX batches land on the same flow back to
  // back, so GetOrCreateFlow is a map find per packet without it. Never
  // invalidated (flows are never erased).
  Flow* last_flow_ = nullptr;
  std::map<uint64_t, StreamBinding> streams_;
  std::map<uint64_t, PendingOp> pending_ops_;
  std::map<uint64_t, SendOp> send_ops_;
  // Reassembly of in-flight messages, keyed by (wire flow id, op id).
  std::map<std::pair<uint64_t, uint64_t>, Assembly> assemblies_;
  // Completed messages awaiting in-order release, keyed wire flow id ->
  // last fragment seq -> message (see Assembly::last_seq).
  std::map<uint64_t, std::map<uint64_t, PonyIncomingMessage>> held_;
  // Spare map nodes for assemblies_/held_ inner maps. Both maps see one
  // insert + one erase per message (op ids are monotone, so keys never
  // repeat); recycling the extracted nodes turns that churn into
  // pointer swaps. Bounded: overflow nodes are simply freed.
  static constexpr size_t kSpareNodeCap = 64;
  std::vector<std::map<std::pair<uint64_t, uint64_t>, Assembly>::node_type>
      assembly_spare_;
  std::vector<std::map<uint64_t, PonyIncomingMessage>::node_type>
      held_spare_;
  RegionRegistry regions_;
  std::vector<PonyClient*> clients_;
  PonyClient* default_sink_ = nullptr;
  // Deliveries that found the client queue full (receiver-driven flow
  // control: credits are only granted once delivery succeeds).
  std::vector<std::pair<PonyClient*, PonyIncomingMessage>> stalled_messages_;
  std::vector<std::pair<PonyClient*, PonyCompletion>> stalled_completions_;

  EventHandle wake_timer_;
  size_t flow_cursor_ = 0;
  Stats stats_;

  // QoS state (null when disabled). Flows are bucketed per tenant; the DRR
  // scheduler picks the tenant to serve and each tenant group keeps its own
  // round-robin cursor over its flow list.
  struct TenantGroup {
    std::vector<Flow*> flows;
    size_t cursor = 0;
    TenantStats stats;
  };
  struct QosState {
    const qos::TenantRegistry* tenants = nullptr;
    qos::DrrScheduler drr;
    std::map<qos::TenantId, TenantGroup> groups;
  };
  std::unique_ptr<QosState> qos_;
};

// Directory of Pony engines on the fabric: models the out-of-band TCP
// channel used to advertise wire-protocol version ranges (Section 3.1) and
// to resolve engine addresses.
class PonyDirectory {
 public:
  struct Entry {
    uint16_t wire_min = 1;
    uint16_t wire_max = 2;
    PonyEngine* engine = nullptr;
  };

  void Register(PonyAddress address, Entry entry) {
    entries_[address] = entry;
  }
  void Unregister(PonyAddress address) { entries_.erase(address); }

  const Entry* Find(PonyAddress address) const {
    auto it = entries_.find(address);
    return it == entries_.end() ? nullptr : &it->second;
  }

  uint32_t AllocateEngineId() { return next_engine_id_++; }

 private:
  std::map<PonyAddress, Entry> entries_;
  uint32_t next_engine_id_ = 1;
};

}  // namespace snap

#endif  // SRC_PONY_PONY_ENGINE_H_
