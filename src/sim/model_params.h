// Central registry of simulation cost-model constants.
//
// Every magnitude below is either (a) taken from the Snap paper's own
// numbers, (b) a widely published microarchitectural cost for the Skylake /
// Broadwell era the paper evaluates on, or (c) calibrated so the paper's
// headline shapes reproduce (a note marks which). Benchmarks never hardcode
// costs; they construct or tweak one of these structs.
#ifndef SRC_SIM_MODEL_PARAMS_H_
#define SRC_SIM_MODEL_PARAMS_H_

#include "src/util/time_types.h"

namespace snap {

// ---------------------------------------------------------------------------
// CPU scheduling model (Section 2.4 / 2.4.1 of the paper).
// ---------------------------------------------------------------------------
struct CpuParams {
  int num_cores = 8;

  // Preemption granularity: a runnable higher-priority task waits at most
  // this long for the current step to finish (unless the core is inside a
  // non-preemptible kernel section).
  SimDuration max_step = 4 * kUsec;

  // Cost of picking the next task and switching to it.
  SimDuration dispatch_cost = 300 * kNsec;
  // Additional cost when the switch crosses address spaces.
  SimDuration ctx_switch_cost = 800 * kNsec;
  // Inter-processor interrupt (remote wakeup signal) delivery latency.
  SimDuration ipi_cost = 500 * kNsec;
  // Interrupt entry/exit overhead charged on the interrupted core.
  SimDuration irq_overhead = 400 * kNsec;

  // CFS model: a running task holds the core for up to `cfs_slice` against
  // equal-weight competition; preemption opportunities occur at sched-tick
  // boundaries. These produce the millisecond-scale tail latencies the
  // paper's Figure 6(d) attributes to CFS (calibrated).
  SimDuration cfs_slice = 3 * kMsec;
  SimDuration cfs_tick = 1 * kMsec;
  // A waking CFS task preempts at the next tick if its weight exceeds the
  // running task's by this factor (models wakeup preemption + nice -20).
  double cfs_wakeup_preempt_ratio = 1.5;

  // MicroQuanta class (Section 2.4.1): runtime out of every period, with
  // microsecond-scale preemption of CFS tasks.
  SimDuration mq_default_runtime = 900 * kUsec;
  SimDuration mq_default_period = 1 * kMsec;
  // Fair-share turn length between competing MicroQuanta tasks on a core
  // ("the scheduler attempts to fair-share CPU time between engines").
  SimDuration mq_slice = 50 * kUsec;

  // A spin-polling task notices new work within this long of it arriving
  // (half a poll-loop iteration on average).
  SimDuration spin_detect_latency = 150 * kNsec;

  // C-state model (Figure 7(a)). An idle core descends through sleep states;
  // waking from deeper states costs more. Exit latencies are in the range
  // Intel publishes for Skylake server C-states.
  bool enable_cstates = true;
  SimDuration c1_exit_latency = 1 * kUsec;
  SimDuration c1e_entry_after = 60 * kUsec;
  SimDuration c1e_exit_latency = 12 * kUsec;
  SimDuration c6_entry_after = 600 * kUsec;
  SimDuration c6_exit_latency = 85 * kUsec;
};

// ---------------------------------------------------------------------------
// NIC and fabric model (shared by the kernel stack and Snap engines).
// ---------------------------------------------------------------------------
struct NicParams {
  // Link speed in bits per simulated second.
  double link_gbps = 100.0;
  // One-way propagation through the ToR switch (same-rack).
  SimDuration propagation_delay = 1 * kUsec;
  // Optional two-level topology: hosts come in clusters of
  // `hosts_per_cluster` consecutive ids (0 = flat rack, every pair one
  // switch hop apart). A packet crossing clusters pays
  // `inter_cluster_extra_delay` on top of `propagation_delay` (an
  // aggregation-switch hop). Besides modeling pod-style racks, the gap
  // between intra- and inter-cluster latency is what gives the sharded
  // engine a per-shard-pair lookahead larger than the base delay.
  int hosts_per_cluster = 0;
  SimDuration inter_cluster_extra_delay = 0;
  // Fixed per-packet PCIe/NIC pipeline traversal (each direction).
  SimDuration nic_pipeline_delay = 1400 * kNsec;
  // RX/TX descriptor ring size, in packets.
  int rx_ring_entries = 1024;
  int tx_ring_entries = 1024;
  // Egress-port queue capacity at the switch, in bytes. Overflow drops
  // (lossy fabric; Section 5.4 relies on congestion control, not pauses).
  int64_t port_queue_bytes = 2 * 1024 * 1024;
  // Interrupt moderation: fire immediately when idle; under load coalesce
  // until `itr_max_wait` or `itr_max_frames` packets (adaptive, like ixgbe).
  SimDuration itr_max_wait = 10 * kUsec;
  int itr_max_frames = 64;
  // Simulator-internal optimization (no effect on modeled behavior): a
  // burst crossing an egress port schedules one drain event instead of one
  // event per packet; each packet is still delivered at its exact modeled
  // time. OFF reverts to per-packet events for A/B benchmarking.
  bool batched_delivery = true;

  int cluster_of(int host) const {
    return hosts_per_cluster > 0 ? host / hosts_per_cluster : 0;
  }
  // One-way propagation between two specific hosts under the (possibly
  // two-level) topology above.
  SimDuration propagation_between(int src_host, int dst_host) const {
    return cluster_of(src_host) == cluster_of(dst_host)
               ? propagation_delay
               : propagation_delay + inter_cluster_extra_delay;
  }
  // The largest propagation_between() over any host pair.
  SimDuration max_propagation_delay() const {
    return hosts_per_cluster > 0
               ? propagation_delay + inter_cluster_extra_delay
               : propagation_delay;
  }
};

// ---------------------------------------------------------------------------
// Kernel TCP stack cost model (the paper's baseline, Sections 5.1-5.3).
// Calibrated so Neper-style runs land near Table 1's kernel rows:
// 22 Gbps / 1.17 cores single stream, degrading with 200 streams.
// ---------------------------------------------------------------------------
struct KernelStackParams {
  // Ring-switch cost of any system call (post-Meltdown KPTI era).
  SimDuration syscall_cost = 1200 * kNsec;
  // Per-byte cost of copying between user and kernel buffers.
  double copy_ns_per_byte = 0.050;
  // Per-packet softirq RX processing (driver poll, IP, TCP, demux).
  SimDuration softirq_per_packet = 500 * kNsec;
  // Extra per-packet cost as flow/socket state stops fitting in cache:
  // socket-lock ping-pong, skb cache misses, flow-table walks. The penalty
  // ramps linearly from `cold_flow_threshold` active flows to the full
  // value at `cold_flow_saturation` (calibrated to Table 1 row 2's 200
  // streams without over-penalizing a rack with a few dozen flows).
  SimDuration softirq_cold_penalty = 2000 * kNsec;
  int cold_flow_threshold = 16;
  int cold_flow_saturation = 192;
  // TCP transmit path per packet (segmentation, header build, qdisc).
  SimDuration tx_per_packet = 260 * kNsec;
  // Socket wakeup: softirq -> blocked reader (scheduling handoff is modeled
  // by the CPU scheduler; this is the sk_data_ready bookkeeping itself).
  SimDuration socket_wakeup_cost = 500 * kNsec;
  // epoll_wait dispatch overhead per returned event.
  SimDuration epoll_per_event = 350 * kNsec;
  // Extra per-receive cost when many sockets are active and their state no
  // longer fits in cache (calibrated to Table 1's 200-stream row).
  SimDuration recv_cold_penalty = 900 * kNsec;
  // Default socket buffer (bounds a single stream's window; calibrated so
  // one stream rides at ~22 Gbps with same-rack RTT).
  int64_t socket_buffer_bytes = 96 * 1024;
  // MTU payload bytes per TCP segment ("large MTU" config at Google: 4096).
  int mss_bytes = 4096;
  // Busy-polling sockets (SO_BUSY_POLL) skip interrupt+wakeup on RX.
  bool busy_poll = false;
};

// ---------------------------------------------------------------------------
// Snap / Pony Express engine cost model (Sections 3, 5.1).
// Calibrated against Table 1: 38.5 / 67.5 / 82.2 Gbps single-core rows.
// ---------------------------------------------------------------------------
struct PonyParams {
  // Fixed per-packet engine cost: ring descriptor handling, flow lookup,
  // transport state machine, header build/parse.
  SimDuration per_packet_cost = 285 * kNsec;
  // Per-byte protocol processing (CRC32 offloaded to NIC; this is metadata
  // touching + allocator work that scales with payload).
  double proc_ns_per_byte = 0.020;
  // Per-byte RX copy from packet memory into application buffers (TX is
  // zero-copy; Section 6.2).
  double rx_copy_ns_per_byte = 0.040;
  // With the I/OAT copy engine, the RX copy leaves the core; the engine
  // pays only the descriptor setup per packet (Section 3.4).
  bool ioat_copy_offload = false;
  SimDuration ioat_setup_cost = 92 * kNsec;
  // Engine poll loop: cost of one empty poll sweep over inputs.
  SimDuration poll_overhead = 80 * kNsec;
  // Command/completion queue interaction per op (application side cost is
  // separate; this is the engine side).
  SimDuration per_op_cost = 180 * kNsec;
  // One-sided op execution (memory region validation + access).
  SimDuration onesided_exec_cost = 150 * kNsec;
  // Each indirection of a (batched) indirect read: table lookup + fetch.
  SimDuration indirection_cost = 120 * kNsec;
  // Packet batch limit per NIC poll (paper default: 16).
  int rx_batch = 16;
  // Command queue batch limit per poll.
  int cmd_batch = 16;
  // MTU payload bytes per Pony packet (default fabric MTU 2048 era; the
  // 5000-byte experiments override this). Live UDP runtimes replace it
  // with the frame-sized UdpFabric::max_payload_bytes().
  int mtu_payload = 1984;
  // Wire header bytes (versioned Pony header + fabric encap).
  int header_bytes = 64;
  // Messages up to this size ride the credit-managed shared buffer pool;
  // larger messages use receiver-driven buffer posting and bypass credits
  // (Section 3.3: "a mix of receiver-driven buffer posting as well as a
  // shared buffer pool managed using credits, for smaller messages").
  int64_t credit_message_threshold = 256 * 1024;
  // Retransmission timeout floor.
  SimDuration min_rto = 400 * kUsec;
  // Spurious-retransmit detection floor: an ack that arrives sooner than
  // this after a retransmit left cannot have been triggered by it (the
  // fabric's minimum RTT is ~2x propagation + 2x NIC pipeline ≈ 4.8 us), so
  // the original packet was never lost and the retransmit was spurious.
  SimDuration spurious_rtt_floor = 4 * kUsec;
};

// ---------------------------------------------------------------------------
// Application-side costs (shared-memory client library).
// ---------------------------------------------------------------------------
struct AppParams {
  // Writing a command + doorbell check.
  SimDuration submit_cost = 150 * kNsec;
  // Completion queue poll (hit).
  SimDuration completion_cost = 120 * kNsec;
  // Thread-notification wakeup request instead of spinning.
  SimDuration notify_arm_cost = 200 * kNsec;
};

// ---------------------------------------------------------------------------
// Transparent upgrade model (Section 4, Figure 9).
// ---------------------------------------------------------------------------
struct UpgradeParams {
  // Fixed blackout floor: detach RX filters, fd/queue handoff, reattach.
  SimDuration blackout_fixed = 45 * kMsec;
  // Serialization + deserialization cost per unit of engine state.
  SimDuration per_flow_cost = 1700 * kNsec;
  SimDuration per_stream_cost = 700 * kNsec;
  SimDuration per_region_cost = 400 * kNsec;
  // Brownout background transfer rate (control-plane connections etc.).
  double brownout_bytes_per_sec = 2e9;
};

}  // namespace snap

#endif  // SRC_SIM_MODEL_PARAMS_H_
