// UdpFabric: live fabric over real UDP sockets — one socket per host NIC,
// real Pony Express frames on the wire (src/packet/wire.h full-frame
// codec).
//
// Each local host binds its own non-blocking datagram socket. Route()
// runs on the source host's engine thread and encodes the packet as a
// frame appended to that host's pending datagram; the destination's poll
// hook recvfrom()s in batches, decodes every frame of each datagram, and
// hands the packets to its NIC.
//
// Coalescing: a datagram carries 1..n frames back to back, all from one
// source host to one destination (frames are self-delimiting, so the
// receiver walks them with DecodeWireFrame). The pending datagram goes
// out with one sendto() and one doorbell Wake() when the next frame names
// another destination, when the next frame would take it past
// kMaxFrameBytes, or when the source executor's pass ends (its pass-end
// hook) -- so nothing stays pending between passes. A host registered
// without an executor has no pass end and sends each frame at once.
// Per-datagram syscall cost, not bytes, bounds live throughput, and one
// pass of a busy engine routes several frames to its peer.
//
// Cross-process/machine operation: a fabric may own only a subset of the
// rack's hosts (`local_hosts`), with every other host living in another
// process. Peer endpoints are learned through a port-rendezvous handshake
// against a directory (one process serves it, `directory_server`):
//
//   member    -> directory   ANNOUNCE {my hosts: ip, port, wire range}
//   directory -> members     TABLE    {all hosts}   (once complete)
//   member    -> directory   TABLE_ACK              (directory resends
//                                                    until all ack)
//
// Control frames (kControlFrameMagic, versioned independently of data
// frames) share the member's first data socket, so no extra ports are
// needed; a stray TABLE resend arriving after rendezvous is re-acked from
// the receive path. The announced wire-version range is how remote
// engines advertise versions out-of-band (Section 3.1) — the runtime
// registers them in the PonyDirectory so flow creation negotiates against
// real peer limits before the first data frame.
//
// Fragment size: every datagram fits kMaxFrameBytes, the one receive
// buffer of DrainTo and rendezvous, so the largest Pony payload a frame
// carries is kMaxFrameBytes minus the frame's own overhead
// (max_payload_bytes()). LiveRuntime sizes every local engine's fragments
// to it. Supported live racks run over loopback, whose 65,535-byte MTU
// never splits such a datagram; a multi-machine path with a smaller MTU
// would need a path-MTU probe here. Route() refuses any frame above
// kMaxFrameBytes (a one-sided request or response is one packet, however
// long) and counts it in dropped_oversize rather than letting the
// receiver truncate it.
//
// UDP is allowed to drop, duplicate, and reorder — exactly the lossy
// fabric contract Pony Express is built against, so no reliability shim
// sits between the socket and the transport. A send that fails with
// EAGAIN (full socket buffer) counts as a fabric drop for the same
// reason. Peers in other processes cannot ring a parked executor's
// doorbell; the bounded max_park covers that gap.
#ifndef SRC_LIVE_UDP_FABRIC_H_
#define SRC_LIVE_UDP_FABRIC_H_

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/live/live_executor.h"
#include "src/net/egress.h"
#include "src/net/nic.h"
#include "src/packet/wire.h"
#include "src/util/status.h"

namespace snap {

class UdpFabric : public PacketEgress {
 public:
  struct Options {
    // Local address to bind every host socket on (and the address
    // announced to the directory — set an externally routable IP for
    // multi-machine runs).
    std::string address = "127.0.0.1";
    // First port; host h binds base_port + h. 0 lets the kernel pick free
    // ports (single-process runs, no port conflicts across CI jobs).
    uint16_t base_port = 0;
    // Datagrams drained per DrainTo call (bounds time in the poll hook).
    int recv_batch = 64;
    // Socket buffer request (0 keeps the kernel default).
    int socket_buffer_bytes = 1 << 20;

    // --- Cross-process rendezvous (all optional) ---
    // Hosts this process owns. Empty = all hosts (single-process legacy).
    std::vector<int> local_hosts;
    // Directory endpoint. directory_port == 0 disables rendezvous (then
    // every host must be local).
    std::string directory_address = "127.0.0.1";
    uint16_t directory_port = 0;
    // Exactly one process of the group serves the directory.
    bool directory_server = false;
    int rendezvous_timeout_ms = 10000;
    int announce_interval_ms = 50;
    // Wire-version range announced for this process's hosts.
    uint16_t wire_min = kPonyWireVersionMin;
    uint16_t wire_max = kPonyWireVersionMax;
  };

  // Largest datagram any host sends or accepts (so also the largest
  // frame): the receive buffer of DrainTo and rendezvous, and the cap
  // Route enforces.
  static constexpr size_t kMaxFrameBytes = 16 * 1024;

  explicit UdpFabric(int num_hosts);
  UdpFabric(int num_hosts, Options options);
  ~UdpFabric() override;

  // Binds local sockets and, when a directory is configured, runs the
  // blocking rendezvous until every host's endpoint is known (or the
  // timeout fails the Init). Must succeed before AddHost/Start.
  Status Init();

  // The largest Pony payload one frame carries within kMaxFrameBytes.
  static int max_payload_bytes() {
    return static_cast<int>(kMaxFrameBytes) - WireFrameOverheadBytes();
  }

  // Setup-thread-only, after Init(). Local hosts only. A non-null
  // `executor` is woken when datagrams arrive for `host_id`, and its
  // pass-end hook sends the datagram the host built during the pass.
  void AddHost(int host_id, Nic* nic, LiveExecutor* executor);

  // PacketEgress; called on the source host's engine thread. Appends the
  // packet's frame to the source host's pending datagram.
  void Route(PacketPtr packet, SimTime wire_time) override;

  // Drains up to recv_batch datagrams for `dst_host` into its NIC; called
  // from that host's executor thread. Returns packets delivered.
  int DrainTo(int dst_host);

  int num_hosts() const { return num_hosts_; }
  bool IsLocal(int host) const { return local_[host]; }
  // Port host `h` is bound to (after Init); for remote hosts this is the
  // rendezvous-learned peer port.
  uint16_t port(int host) const { return ports_[host]; }
  // Advertised wire-version range of `host` (rendezvous-learned for
  // remote hosts; this process's own range for local ones).
  uint16_t peer_wire_min(int host) const { return peers_[host].wire_min; }
  uint16_t peer_wire_max(int host) const { return peers_[host].wire_max; }

  struct Stats {
    int64_t delivered = 0;            // frames handed to a NIC
    int64_t datagrams_sent = 0;       // successful data sendto() calls
    int64_t dropped_send = 0;         // frames in a failed sendto (buffer
                                      // full etc.) or unencodable
    int64_t dropped_decode = 0;       // undecodable frame / stray datagram
    int64_t dropped_bad_address = 0;  // src/dst invalid or not this host
    int64_t dropped_oversize = 0;     // frame above kMaxFrameBytes, unsent
    int64_t control_frames = 0;       // rendezvous traffic (both ways)
  };
  Stats GetStats() const;

 private:
  struct Peer {
    sockaddr_in addr{};
    uint16_t wire_min = kPonyWireVersionMin;
    uint16_t wire_max = kPonyWireVersionMax;
    bool known = false;
  };

  Status BindLocalSockets();
  Status Rendezvous();
  void DirectoryLoop();
  std::vector<ControlEntry> LocalEntries() const;
  void AdoptTable(const ControlFrame& table);
  void SendAck(int fd, const sockaddr_in& to);
  // Sends `src`'s pending datagram, if any. Source host's thread only.
  void Flush(int src);

  // Frames routed from one source host and not yet sent: one
  // destination, at most kMaxFrameBytes. Cache-line aligned, as each
  // host's is written by the thread running that host.
  struct alignas(64) Pending {
    std::vector<uint8_t> bytes;
    int dst = -1;
    int frames = 0;
  };

  int num_hosts_;
  Options options_;
  std::vector<bool> local_;
  int first_local_ = -1;
  std::vector<int> fds_;
  std::vector<uint16_t> ports_;
  std::vector<Peer> peers_;
  std::vector<Nic*> nics_;
  std::vector<LiveExecutor*> executors_;
  std::vector<Pending> pending_;
  int dir_fd_ = -1;
  sockaddr_in dir_addr_{};
  std::vector<std::unique_ptr<std::atomic<int64_t>>> delivered_;
  std::vector<std::unique_ptr<std::atomic<int64_t>>> datagrams_sent_;
  std::vector<std::unique_ptr<std::atomic<int64_t>>> dropped_send_;
  std::vector<std::unique_ptr<std::atomic<int64_t>>> dropped_decode_;
  std::atomic<int64_t> dropped_bad_address_{0};
  std::atomic<int64_t> dropped_oversize_{0};
  std::atomic<int64_t> control_frames_{0};
};

}  // namespace snap

#endif  // SRC_LIVE_UDP_FABRIC_H_
