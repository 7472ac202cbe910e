// Live-mode tests: the Snap engines on real OS threads (src/live/) — wire
// frame codec round-trips, multi-frame UDP datagrams (coalescing and
// per-frame ingress checks), executor timer clamping, end-to-end echo RPC
// over both live fabrics with QoS + telemetry + tracing attached, and the
// sim-vs-live parity check the substrate split promises: same engines,
// same transport, same observable message counts.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "src/apps/pony_apps.h"
#include "src/apps/simhost.h"
#include "src/live/live_apps.h"
#include "src/live/live_runtime.h"
#include "src/packet/wire.h"
#include "src/qos/tenant.h"
#include "src/sim/simulator.h"

namespace snap {
namespace {

constexpr int64_t kTestDeadlineNs = 20LL * 1000 * 1000 * 1000;  // 20 s

TEST(WireFrameTest, RoundTripsPonyPacketWithPayload) {
  Packet packet;
  packet.src_host = 3;
  packet.dst_host = 7;
  packet.steering_hash = 0xdeadbeef;
  packet.tenant = 9;
  // Timestamps (Timely's RTT inputs) ride only in wire version 2.
  packet.pony.version = 2;
  packet.pony.flow_id = 42;
  packet.pony.seq = 1001;
  packet.pony.ack = 998;
  packet.pony.type = PonyPacketType::kData;
  packet.pony.op_id = 0x1234567890abcdefULL;
  packet.pony.stream_id = 17;
  packet.pony.msg_offset = 4096;
  packet.pony.msg_length = 8192;
  packet.pony.tx_timestamp = 123456789;
  packet.pony.crc32 = 0xcafef00d;
  packet.payload_bytes = 512;
  packet.wire_bytes = 600;
  packet.data = {1, 2, 3, 4, 5, 6, 7, 8, 9};

  std::vector<uint8_t> frame;
  ASSERT_TRUE(EncodeWireFrame(packet, &frame).ok());

  StatusOr<PacketPtr> decoded = DecodeWireFrame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  const Packet& p = **decoded;
  EXPECT_EQ(p.src_host, 3);
  EXPECT_EQ(p.dst_host, 7);
  EXPECT_EQ(p.steering_hash, 0xdeadbeefu);
  EXPECT_EQ(p.tenant, 9u);
  EXPECT_EQ(p.proto, WireProtocol::kPony);
  EXPECT_EQ(p.pony.flow_id, 42u);
  EXPECT_EQ(p.pony.seq, 1001u);
  EXPECT_EQ(p.pony.ack, 998u);
  EXPECT_EQ(p.pony.op_id, 0x1234567890abcdefULL);
  EXPECT_EQ(p.pony.stream_id, 17u);
  EXPECT_EQ(p.pony.msg_offset, 4096u);
  EXPECT_EQ(p.pony.msg_length, 8192u);
  EXPECT_EQ(p.pony.tx_timestamp, 123456789);
  EXPECT_EQ(p.pony.crc32, 0xcafef00du);
  EXPECT_EQ(p.payload_bytes, 512);
  EXPECT_EQ(p.wire_bytes, 600);
  EXPECT_EQ(p.data, packet.data);
}

TEST(WireFrameTest, RejectsTruncatedAndGarbageFrames) {
  Packet packet;
  packet.src_host = 0;
  packet.dst_host = 1;
  packet.data = {1, 2, 3};
  std::vector<uint8_t> frame;
  ASSERT_TRUE(EncodeWireFrame(packet, &frame).ok());

  // Truncations at every prefix length must fail cleanly, never crash.
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(DecodeWireFrame(frame.data(), len).ok()) << len;
  }
  // Wrong magic.
  std::vector<uint8_t> garbage(frame);
  garbage[0] ^= 0xff;
  EXPECT_FALSE(DecodeWireFrame(garbage.data(), garbage.size()).ok());
}

TEST(LiveExecutorTest, FiresTimersAndClampsPastDeadlines) {
  int64_t epoch = MonotonicTimeNs();
  LiveExecutor::Options options;
  options.name = "timer-test";
  LiveExecutor exec(/*seed=*/1, epoch, options);
  // One dedicated worker that parks as soon as it is idle; its park is
  // bounded by the pending 1 ms timer, not only by the 1 s cap.
  LiveScheduler::Options sched_options;
  sched_options.mode = SchedulingMode::kDedicatedCores;
  sched_options.spin_before_park_ns = 0;
  sched_options.max_park_ns = 1'000'000'000;
  LiveScheduler sched(epoch, sched_options);
  sched.AddExecutor(&exec);
  std::atomic<int> fired{0};
  // Deadline 0 is in the past once the worker starts (the sim would
  // CHECK-fail here; live clamps and fires on the first loop pass).
  exec.ScheduleAt(0, [&] { fired.fetch_add(1); });
  exec.Schedule(1 * kMsec, [&] { fired.fetch_add(1); });
  sched.Start();
  int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  while (fired.load() < 2 && MonotonicTimeNs() < deadline) {
    std::this_thread::yield();
  }
  sched.Stop();
  EXPECT_EQ(fired.load(), 2);
  LiveExecutor::Stats stats = exec.GetStats();
  EXPECT_EQ(stats.timer_fires, 2);
  EXPECT_GT(stats.loop_iterations, 0);
}

// Runs a two-host echo workload on `runtime` and returns (client, server)
// results. The runtime must not be started yet.
struct EchoRun {
  LiveAppResult client;
  LiveAppResult server;
};
EchoRun RunEchoWorkload(LiveRuntime* runtime, int iterations,
                        int64_t message_bytes,
                        const qos::TenantSpec* client_tenant = nullptr) {
  auto client = runtime->host(0)->CreateClient("rpc-client");
  auto server = runtime->host(1)->CreateClient("echo-server");
  PonyAddress client_addr = runtime->host(0)->engine()->address();
  PonyAddress server_addr = runtime->host(1)->engine()->address();
  // Streams bind engine state: setup phase only.
  uint64_t ping_stream = client->CreateStream(server_addr);
  uint64_t reply_stream = server->CreateStream(client_addr);
  if (client_tenant != nullptr) {
    client->SetTenant(*client_tenant);
  }

  runtime->Start();
  int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  EchoRun run;
  std::thread server_thread([&] {
    run.server = RunLiveEchoServer(server.get(), reply_stream, client_addr,
                                   iterations, deadline);
  });
  std::thread client_thread([&] {
    run.client = RunLiveRpcClient(client.get(), ping_stream, server_addr,
                                  iterations, message_bytes,
                                  /*outstanding=*/4, deadline);
  });
  client_thread.join();
  server_thread.join();
  runtime->Stop();
  return run;
}

void ExpectCleanEngines(LiveRuntime* runtime) {
  for (int h = 0; h < runtime->num_hosts(); ++h) {
    const PonyEngine::Stats& stats = runtime->host(h)->engine()->stats();
    EXPECT_EQ(stats.crc_drops, 0) << "host " << h;
    EXPECT_EQ(stats.corrupt_accepted, 0) << "host " << h;
    EXPECT_EQ(stats.op_errors, 0) << "host " << h;
  }
}

TEST(LiveRuntimeTest, LoopbackEchoEndToEnd) {
  constexpr int kIterations = 100;
  constexpr int64_t kBytes = 64;
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kLoopback;
  LiveRuntime runtime(options);
  ASSERT_TRUE(runtime.Init().ok());

  qos::TenantRegistry tenants;
  qos::TenantSpec spec;
  spec.id = 7;
  spec.name = "echo";
  spec.weight = 4;
  tenants.Register(spec);
  runtime.EnableQos(&tenants);
  runtime.EnableSeriesSampling(10 * kMsec);
  runtime.EnableTracing();

  EchoRun run =
      RunEchoWorkload(&runtime, kIterations, kBytes, tenants.Find(7));

  EXPECT_FALSE(run.client.timed_out);
  EXPECT_FALSE(run.server.timed_out);
  EXPECT_EQ(run.client.rpcs_completed, kIterations);
  EXPECT_EQ(run.client.bytes_received, kIterations * kBytes);
  EXPECT_EQ(run.server.messages_received, kIterations);
  EXPECT_EQ(run.client.send_errors + run.server.send_errors, 0);
  EXPECT_EQ(run.client.rtt_ns.size(), static_cast<size_t>(kIterations));
  for (int64_t rtt : run.client.rtt_ns) {
    EXPECT_GT(rtt, 0);
  }
  ExpectCleanEngines(&runtime);

  // The transport ran over the ring fabric, not some side channel.
  LiveRuntime::FabricStats fabric = runtime.GetFabricStats();
  EXPECT_GT(fabric.delivered, 2 * kIterations);  // data + acks

  // Telemetry and tracing carried over: merged registry has engine
  // counters, merged trace has events on distinct host tracks.
  Telemetry merged;
  runtime.MergeTelemetry(&merged);
  std::map<std::string, int64_t> values = merged.SnapshotValues();
  EXPECT_FALSE(values.empty());
  auto trace = runtime.MergedTrace();
  EXPECT_FALSE(trace->events().empty());
}

TEST(LiveRuntimeTest, UdpEchoEndToEnd) {
  constexpr int kIterations = 50;
  constexpr int64_t kBytes = 64;
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kUdp;
  LiveRuntime runtime(options);
  Status init = runtime.Init();
  if (!init.ok()) {
    GTEST_SKIP() << "UDP sockets unavailable: " << init.message();
  }

  EchoRun run = RunEchoWorkload(&runtime, kIterations, kBytes);

  EXPECT_FALSE(run.client.timed_out);
  EXPECT_FALSE(run.server.timed_out);
  EXPECT_EQ(run.client.rpcs_completed, kIterations);
  EXPECT_EQ(run.server.messages_received, kIterations);
  ExpectCleanEngines(&runtime);
  LiveRuntime::FabricStats fabric = runtime.GetFabricStats();
  EXPECT_GT(fabric.delivered, 2 * kIterations);
}

// Live ingress trusts nothing a socket hands it: a well-formed frame that
// names another host as its destination, or a source outside the rack,
// is dropped at the receiving socket and counted, never delivered.
TEST(UdpFabricTest, DropsMisaddressedFramesAtIngress) {
  UdpFabric fabric(3);
  Status init = fabric.Init();
  if (!init.ok()) {
    GTEST_SKIP() << "UDP sockets unavailable: " << init.message();
  }
  Simulator sim(1);
  Nic nic(&sim, &fabric, /*host_id=*/1, NicParams{});
  fabric.AddHost(1, &nic, nullptr);

  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(fabric.port(1));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &to.sin_addr), 1);
  auto send_frame = [&](int src_host, int dst_host) {
    Packet packet;
    packet.src_host = src_host;
    packet.dst_host = dst_host;
    packet.data = {1, 2, 3};
    std::vector<uint8_t> frame;
    ASSERT_TRUE(EncodeWireFrame(packet, &frame).ok());
    ASSERT_EQ(::sendto(fd, frame.data(), frame.size(), 0,
                       reinterpret_cast<const sockaddr*>(&to), sizeof(to)),
              static_cast<ssize_t>(frame.size()));
  };
  send_frame(0, 2);  // addressed to host 2, arrives on host 1's socket
  send_frame(7, 1);  // source outside the 3-host rack
  send_frame(0, 1);  // well addressed: the one frame to deliver

  const int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  int delivered = 0;
  while (delivered + fabric.GetStats().dropped_bad_address < 3 &&
         MonotonicTimeNs() < deadline) {
    delivered += fabric.DrainTo(1);
  }
  ::close(fd);

  const UdpFabric::Stats stats = fabric.GetStats();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(stats.delivered, 1);
  EXPECT_EQ(stats.dropped_bad_address, 2);
  EXPECT_EQ(stats.dropped_decode, 0);
  EXPECT_EQ(nic.stats().rx_packets, 1);
}

// A frame the receiver's buffer could not hold whole is refused at the
// sender: one exactly at kMaxFrameBytes arrives, one a byte over is
// counted in dropped_oversize and never reaches the receiving socket.
TEST(UdpFabricTest, RefusesFramesAboveTheReceiveBuffer) {
  UdpFabric fabric(2);
  Status init = fabric.Init();
  if (!init.ok()) {
    GTEST_SKIP() << "UDP sockets unavailable: " << init.message();
  }
  Simulator sim(1);
  Nic receiver(&sim, &fabric, /*host_id=*/1, NicParams{});
  fabric.AddHost(1, &receiver, nullptr);

  // A packet whose encoded frame is exactly `frame_bytes` long.
  auto packet_of_frame_size = [](size_t frame_bytes) {
    auto packet = std::make_unique<Packet>();
    packet->src_host = 0;
    packet->dst_host = 1;
    std::vector<uint8_t> frame;
    EXPECT_TRUE(EncodeWireFrame(*packet, &frame).ok());
    packet->data.assign(frame_bytes - frame.size(), 0x5a);
    EXPECT_TRUE(EncodeWireFrame(*packet, &frame).ok());
    EXPECT_EQ(frame.size(), frame_bytes);
    return packet;
  };
  // The oversize frame goes first: loopback keeps one socket pair's
  // order, so once the at-cap frame arrives the other would have too.
  fabric.Route(packet_of_frame_size(UdpFabric::kMaxFrameBytes + 1), 0);
  fabric.Route(packet_of_frame_size(UdpFabric::kMaxFrameBytes), 0);

  const int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  int delivered = 0;
  while (delivered < 1 && MonotonicTimeNs() < deadline) {
    delivered += fabric.DrainTo(1);
  }
  delivered += fabric.DrainTo(1);

  const UdpFabric::Stats stats = fabric.GetStats();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(stats.delivered, 1);
  EXPECT_EQ(stats.dropped_oversize, 1);
  EXPECT_EQ(stats.dropped_send, 0);
  EXPECT_EQ(stats.dropped_decode, 0);
  EXPECT_EQ(receiver.stats().rx_packets, 1);
}

// A Pony packet from `src` to `dst` whose payload is `bytes` copies of
// `fill`, stamped with `seq` so delivery order is visible.
PacketPtr PatternedPacket(int src, int dst, uint64_t seq, size_t bytes,
                          uint8_t fill) {
  auto packet = std::make_unique<Packet>();
  packet->src_host = src;
  packet->dst_host = dst;
  packet->pony.seq = seq;
  packet->pony.op_id = 100 + seq;
  packet->data.assign(bytes, fill);
  packet->payload_bytes = static_cast<int32_t>(bytes);
  packet->wire_bytes = static_cast<int32_t>(bytes) + 64;
  return packet;
}

// Drains `host` until `want` packets have arrived (or the deadline), then
// returns them in delivery order from the NIC's default queue.
std::vector<PacketPtr> ReceivePackets(UdpFabric* fabric, Nic* nic, int host,
                                      int want) {
  const int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  int delivered = 0;
  while (delivered < want && MonotonicTimeNs() < deadline) {
    delivered += fabric->DrainTo(host);
  }
  std::vector<PacketPtr> packets;
  while (PacketPtr p = nic->default_queue()->Poll()) {
    packets.push_back(std::move(p));
  }
  return packets;
}

// Sends `datagram` to `port` on 127.0.0.1 from a fresh socket.
void SendRawDatagram(uint16_t port, const std::vector<uint8_t>& datagram) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(port);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &to.sin_addr), 1);
  EXPECT_EQ(::sendto(fd, datagram.data(), datagram.size(), 0,
                     reinterpret_cast<const sockaddr*>(&to), sizeof(to)),
            static_cast<ssize_t>(datagram.size()));
  ::close(fd);
}

// Every frame a host routes to one peer during a pass leaves in one
// datagram when the pass ends, and arrives byte-exact and in order.
TEST(UdpFabricTest, CoalescesOnePassIntoOneDatagramPerPeer) {
  UdpFabric fabric(2);
  Status init = fabric.Init();
  if (!init.ok()) {
    GTEST_SKIP() << "UDP sockets unavailable: " << init.message();
  }
  LiveExecutor exec(/*seed=*/1, MonotonicTimeNs(), LiveExecutor::Options{});
  Nic sender(&exec, &fabric, /*host_id=*/0, NicParams{});
  fabric.AddHost(0, &sender, &exec);
  Simulator sim(1);
  Nic receiver(&sim, &fabric, /*host_id=*/1, NicParams{});
  fabric.AddHost(1, &receiver, nullptr);

  std::vector<PacketPtr> sent;
  for (uint64_t seq = 0; seq < 4; ++seq) {
    sent.push_back(PatternedPacket(0, 1, seq, 100 + 700 * seq,
                                   static_cast<uint8_t>(0xa0 + seq)));
    auto copy = std::make_unique<Packet>(*sent.back());
    fabric.Route(std::move(copy), 0);
  }
  EXPECT_EQ(fabric.GetStats().datagrams_sent, 0);  // held until pass end
  exec.RunPass();
  EXPECT_EQ(fabric.GetStats().datagrams_sent, 1);

  std::vector<PacketPtr> got = ReceivePackets(&fabric, &receiver, 1, 4);
  ASSERT_EQ(got.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    std::vector<uint8_t> want_frame;
    std::vector<uint8_t> got_frame;
    ASSERT_TRUE(EncodeWireFrame(*sent[i], &want_frame).ok());
    ASSERT_TRUE(EncodeWireFrame(*got[i], &got_frame).ok());
    EXPECT_EQ(got_frame, want_frame) << "frame " << i;
  }
  const UdpFabric::Stats stats = fabric.GetStats();
  EXPECT_EQ(stats.delivered, 4);
  EXPECT_EQ(stats.dropped_decode + stats.dropped_bad_address, 0);
}

// A pass's pending datagram is sent early when the next frame names
// another destination or would not fit in kMaxFrameBytes.
TEST(UdpFabricTest, StartsANewDatagramOnDestinationChangeOrFullFrame) {
  UdpFabric fabric(3);
  Status init = fabric.Init();
  if (!init.ok()) {
    GTEST_SKIP() << "UDP sockets unavailable: " << init.message();
  }
  LiveExecutor exec(/*seed=*/1, MonotonicTimeNs(), LiveExecutor::Options{});
  Nic sender(&exec, &fabric, /*host_id=*/0, NicParams{});
  fabric.AddHost(0, &sender, &exec);
  Simulator sim(1);
  Nic to_one(&sim, &fabric, /*host_id=*/1, NicParams{});
  Nic to_two(&sim, &fabric, /*host_id=*/2, NicParams{});
  fabric.AddHost(1, &to_one, nullptr);
  fabric.AddHost(2, &to_two, nullptr);

  const size_t big = UdpFabric::kMaxFrameBytes / 2;  // two never fit
  fabric.Route(PatternedPacket(0, 1, 0, 10, 1), 0);
  fabric.Route(PatternedPacket(0, 1, 1, 10, 2), 0);  // datagram 1: 2 frames
  fabric.Route(PatternedPacket(0, 2, 2, 10, 3), 0);  // datagram 2: new peer
  fabric.Route(PatternedPacket(0, 1, 3, big, 4), 0);  // datagram 3
  fabric.Route(PatternedPacket(0, 1, 4, big, 5), 0);  // datagram 4: full
  exec.RunPass();
  EXPECT_EQ(fabric.GetStats().datagrams_sent, 4);

  std::vector<PacketPtr> at_one = ReceivePackets(&fabric, &to_one, 1, 4);
  std::vector<PacketPtr> at_two = ReceivePackets(&fabric, &to_two, 2, 1);
  ASSERT_EQ(at_one.size(), 4u);
  ASSERT_EQ(at_two.size(), 1u);
  EXPECT_EQ(at_one[0]->pony.seq, 0u);
  EXPECT_EQ(at_one[1]->pony.seq, 1u);
  EXPECT_EQ(at_one[2]->pony.seq, 3u);
  EXPECT_EQ(at_one[3]->pony.seq, 4u);
  EXPECT_EQ(at_two[0]->pony.seq, 2u);
}

// A datagram whose trailing frame is cut short still delivers the frames
// before it; the undecodable tail counts once as a decode drop.
TEST(UdpFabricTest, DeliversFramesAheadOfATruncatedTrailingFrame) {
  UdpFabric fabric(2);
  Status init = fabric.Init();
  if (!init.ok()) {
    GTEST_SKIP() << "UDP sockets unavailable: " << init.message();
  }
  Simulator sim(1);
  Nic receiver(&sim, &fabric, /*host_id=*/1, NicParams{});
  fabric.AddHost(1, &receiver, nullptr);

  std::vector<uint8_t> datagram;
  ASSERT_TRUE(AppendWireFrame(*PatternedPacket(0, 1, 7, 32, 1), &datagram)
                  .ok());
  const size_t first = datagram.size();
  ASSERT_TRUE(AppendWireFrame(*PatternedPacket(0, 1, 8, 32, 2), &datagram)
                  .ok());
  datagram.resize(first + (datagram.size() - first) / 2);
  SendRawDatagram(fabric.port(1), datagram);

  const int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  while (fabric.GetStats().dropped_decode == 0 &&
         MonotonicTimeNs() < deadline) {
    fabric.DrainTo(1);
  }
  const UdpFabric::Stats stats = fabric.GetStats();
  EXPECT_EQ(stats.delivered, 1);
  EXPECT_EQ(stats.dropped_decode, 1);
  PacketPtr p = receiver.default_queue()->Poll();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->pony.seq, 7u);
}

// Each frame of a datagram passes the ingress address check on its own:
// a misaddressed frame in the middle is dropped, its neighbours arrive.
TEST(UdpFabricTest, DropsAMisaddressedFrameMidDatagramOnly) {
  UdpFabric fabric(3);
  Status init = fabric.Init();
  if (!init.ok()) {
    GTEST_SKIP() << "UDP sockets unavailable: " << init.message();
  }
  Simulator sim(1);
  Nic receiver(&sim, &fabric, /*host_id=*/1, NicParams{});
  fabric.AddHost(1, &receiver, nullptr);

  std::vector<uint8_t> datagram;
  ASSERT_TRUE(
      AppendWireFrame(*PatternedPacket(0, 1, 1, 16, 1), &datagram).ok());
  ASSERT_TRUE(  // addressed to host 2, arrives on host 1's socket
      AppendWireFrame(*PatternedPacket(0, 2, 2, 16, 2), &datagram).ok());
  ASSERT_TRUE(
      AppendWireFrame(*PatternedPacket(0, 1, 3, 16, 3), &datagram).ok());
  SendRawDatagram(fabric.port(1), datagram);

  std::vector<PacketPtr> got = ReceivePackets(&fabric, &receiver, 1, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0]->pony.seq, 1u);
  EXPECT_EQ(got[1]->pony.seq, 3u);
  const UdpFabric::Stats stats = fabric.GetStats();
  EXPECT_EQ(stats.delivered, 2);
  EXPECT_EQ(stats.dropped_bad_address, 1);
  EXPECT_EQ(stats.dropped_decode, 0);
}

// Lockstep echo of `iterations` messages of `bytes` patterned bytes over
// `runtime` (not started yet); counts echoes that differ from their
// request in length or any byte.
struct ExactEchoRun {
  int64_t echoed = 0;
  int64_t mismatched = 0;
  bool timed_out = false;
  LiveAppResult server;
};
ExactEchoRun RunExactEcho(LiveRuntime* runtime, int iterations,
                          int64_t bytes) {
  auto client = runtime->host(0)->CreateClient("exact-client");
  auto server = runtime->host(1)->CreateClient("exact-server");
  PonyAddress client_addr = runtime->host(0)->engine()->address();
  PonyAddress server_addr = runtime->host(1)->engine()->address();
  uint64_t ping_stream = client->CreateStream(server_addr);
  uint64_t reply_stream = server->CreateStream(client_addr);

  runtime->Start();
  const int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  ExactEchoRun run;
  std::thread server_thread([&] {
    run.server = RunLiveEchoServer(server.get(), reply_stream, client_addr,
                                   iterations, deadline);
  });
  CpuCostSink sink;
  std::vector<uint8_t> payload(static_cast<size_t>(bytes));
  for (int i = 0; i < iterations && !run.timed_out; ++i) {
    // Position-dependent bytes: a fragment landing at the wrong offset
    // changes the echo.
    for (size_t b = 0; b < payload.size(); ++b) {
      payload[b] = static_cast<uint8_t>(b * 131 + (b >> 8) + i * 7);
    }
    while (client->SendMessage(server_addr, ping_stream, bytes, payload,
                               &sink) == 0 &&
           MonotonicTimeNs() <= deadline) {
      while (client->PollCompletion(&sink)) {
      }
    }
    while (true) {
      while (client->PollCompletion(&sink)) {
      }
      if (auto msg = client->PollMessage(&sink)) {
        ++run.echoed;
        if (msg->length != bytes || msg->data != payload) {
          ++run.mismatched;
        }
        break;
      }
      if (MonotonicTimeNs() > deadline) {
        run.timed_out = true;
        break;
      }
    }
  }
  server_thread.join();
  runtime->Stop();
  return run;
}

// Messages longer than one fragment cross live UDP intact: 4 KB, 64 KB
// and one byte past the fragment size (a full fragment plus a one-byte
// tail) echo back byte for byte. Fragments are sized to the path MTU, so
// a 4 KB RPC costs fewer datagrams than its 2 KB-fragment data alone
// (three each way) would.
TEST(LiveRuntimeTest, UdpEchoesMultiFragmentMessagesExactly) {
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kUdp;
  // The datagram count below is what fragment sizing decides, so keep
  // retransmission timers out of it: sanitizer builds run slowly enough
  // for the default 400 us RTO floor to fire spuriously, and each
  // spurious retransmit adds a data datagram and an ack.
  options.pony.min_rto = 50 * kMsec;
  int64_t fragment = 0;
  {
    LiveRuntime probe(options);
    Status init = probe.Init();
    if (!init.ok()) {
      GTEST_SKIP() << "UDP sockets unavailable: " << init.message();
    }
    fragment = probe.host(0)->engine()->params().mtu_payload;
  }
  ASSERT_GT(fragment, 0);

  constexpr int kIterations = 20;
  for (int64_t bytes : {int64_t{4096}, int64_t{64 * 1024}, fragment + 1}) {
    SCOPED_TRACE("message bytes " + std::to_string(bytes));
    LiveRuntime runtime(options);
    ASSERT_TRUE(runtime.Init().ok());
    ExactEchoRun run = RunExactEcho(&runtime, kIterations, bytes);

    EXPECT_FALSE(run.timed_out);
    EXPECT_FALSE(run.server.timed_out);
    EXPECT_EQ(run.echoed, kIterations);
    EXPECT_EQ(run.mismatched, 0);
    EXPECT_EQ(run.server.messages_received, kIterations);
    EXPECT_EQ(run.server.send_errors, 0);
    ExpectCleanEngines(&runtime);
    const LiveRuntime::FabricStats fabric = runtime.GetFabricStats();
    EXPECT_EQ(fabric.dropped, 0);
    if (bytes == 4096) {
      EXPECT_LT(static_cast<double>(fabric.delivered) / kIterations, 6.0);
    }
  }
}

// The substrate promise: the sim and live runtimes drive the SAME engine
// and transport code, so the application-observable outcome of a fixed
// workload — messages delivered, bytes delivered, zero integrity errors —
// matches exactly. Timing (RTTs, packet counts, retransmits) is excluded:
// wall clocks and modeled clocks legitimately differ.
TEST(LiveRuntimeTest, SimVsLiveParityOnEchoWorkload) {
  constexpr int kIterations = 50;
  constexpr int64_t kBytes = 64;

  // --- Sim leg ---
  Simulator sim(42);
  Fabric fabric(&sim, NicParams{});
  PonyDirectory directory;
  SimHostOptions host_options;
  host_options.group.mode = SchedulingMode::kDedicatedCores;
  host_options.group.dedicated_cores = {0};
  SimHost a(&sim, &fabric, &directory, host_options);
  SimHost b(&sim, &fabric, &directory, host_options);
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "ping");
  auto cb = b.CreateClient(eb, "echo");
  PonyEchoServerTask server("echo", b.cpu(), cb.get(), /*spin=*/true);
  server.Start();
  PonyPingTask::Options ping_options;
  ping_options.peer = eb->address();
  ping_options.iterations = kIterations;
  ping_options.message_bytes = kBytes;
  ping_options.spin = true;
  PonyPingTask ping("ping", a.cpu(), ca.get(), ping_options);
  ping.Start();
  sim.RunFor(2000 * kMsec);
  ASSERT_TRUE(ping.done());

  // --- Live leg ---
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kLoopback;
  LiveRuntime runtime(options);
  ASSERT_TRUE(runtime.Init().ok());
  EchoRun run = RunEchoWorkload(&runtime, kIterations, kBytes);
  ASSERT_FALSE(run.client.timed_out);
  ASSERT_FALSE(run.server.timed_out);

  // --- Parity: application-observable outcomes match. ---
  // Ping client observed kIterations completed RPCs in both worlds.
  EXPECT_EQ(ping.latency().count(), kIterations);
  EXPECT_EQ(run.client.rpcs_completed, kIterations);

  // Engines delivered the same messages and bytes to the apps.
  const PonyEngine::Stats& sim_client = ea->stats();
  const PonyEngine::Stats& sim_server = eb->stats();
  const PonyEngine::Stats& live_client =
      runtime.host(0)->engine()->stats();
  const PonyEngine::Stats& live_server =
      runtime.host(1)->engine()->stats();
  EXPECT_EQ(sim_server.messages_delivered, live_server.messages_delivered);
  EXPECT_EQ(sim_client.messages_delivered, live_client.messages_delivered);
  EXPECT_EQ(sim_server.message_bytes_delivered,
            live_server.message_bytes_delivered);
  EXPECT_EQ(sim_client.message_bytes_delivered,
            live_client.message_bytes_delivered);

  // Integrity invariants hold in both worlds.
  for (const PonyEngine::Stats* s :
       {&sim_client, &sim_server, &live_client, &live_server}) {
    EXPECT_EQ(s->crc_drops, 0);
    EXPECT_EQ(s->corrupt_accepted, 0);
    EXPECT_EQ(s->op_errors, 0);
  }
}

}  // namespace
}  // namespace snap
