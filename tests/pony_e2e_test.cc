// End-to-end Pony Express tests over the full stack: two simulated hosts,
// real engines scheduled on simulated cores, packets through the fabric.
#include <gtest/gtest.h>

#include "src/apps/pony_apps.h"
#include "src/apps/simhost.h"
#include "src/packet/wire.h"

namespace snap {
namespace {

class PonyE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<Simulator>(42);
    fabric_ = std::make_unique<Fabric>(sim_.get(), NicParams{});
    directory_ = std::make_unique<PonyDirectory>();
  }

  SimHostOptions DedicatedOptions() {
    SimHostOptions options;
    options.group.mode = SchedulingMode::kDedicatedCores;
    options.group.dedicated_cores = {0};
    return options;
  }

  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<PonyDirectory> directory_;
};

TEST_F(PonyE2eTest, SmallMessageDeliveredWithPayload) {
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");

  CpuCostSink cost;
  uint64_t stream = ca->CreateStream(eb->address());
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8};
  uint64_t op = ca->SendMessage(eb->address(), stream, 0, payload, &cost);
  ASSERT_NE(op, 0u);

  sim_->RunFor(5 * kMsec);

  auto msg = cb->PollMessage(&cost);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->data, payload);
  EXPECT_EQ(msg->from.host, a.host_id());
  EXPECT_EQ(msg->stream_id, stream);

  // Sender got a completion.
  auto completion = ca->PollCompletion(&cost);
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->op_id, op);
  EXPECT_EQ(completion->status, PonyOpStatus::kOk);
}

TEST_F(PonyE2eTest, LargeMessageFragmentsAndReassembles) {
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");

  CpuCostSink cost;
  uint64_t stream = ca->CreateStream(eb->address());
  // ~10 MTUs of real data with a recognizable pattern.
  std::vector<uint8_t> payload(20000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7);
  }
  ca->SendMessage(eb->address(), stream, 0, payload, &cost);
  sim_->RunFor(10 * kMsec);

  auto msg = cb->PollMessage(&cost);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->length, static_cast<int64_t>(payload.size()));
  EXPECT_EQ(msg->data, payload);
  // Fragmentation actually happened.
  EXPECT_GT(ea->stats().tx_packets, 5);
}

TEST_F(PonyE2eTest, PingPongLatencyIsMicroseconds) {
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");

  PonyEchoServerTask server("echo", b.cpu(), cb.get(), /*spin=*/false);
  server.Start();
  PonyPingTask::Options options;
  options.peer = eb->address();
  options.iterations = 200;
  options.spin = false;
  PonyPingTask ping("ping", a.cpu(), ca.get(), options);
  ping.Start();

  sim_->RunFor(2000 * kMsec);
  EXPECT_TRUE(ping.done());
  EXPECT_EQ(ping.latency().count(), 200);
  // Same-rack two-sided RTT: should land well under 100us and above 2us.
  EXPECT_LT(ping.latency().Mean(), 100 * kUsec);
  EXPECT_GT(ping.latency().Mean(), 2 * kUsec);
}

// A zero CRC is not an opt-out: any sender (a live UDP peer included) can
// put crc32 = 0 on the wire, so the engine verifies every frame. A data
// frame with crc32 = 0 and a payload altered after the CRC was computed
// must be dropped and counted, never delivered.
TEST_F(PonyE2eTest, ZeroCrcFrameIsVerifiedAndDropped) {
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto cb = b.CreateClient(eb, "appB");
  eb->SetDefaultSink(cb.get());

  auto p = std::make_unique<Packet>();
  p->src_host = a.host_id();
  p->dst_host = b.host_id();
  p->steering_hash = eb->address().engine_id;
  p->proto = WireProtocol::kPony;
  p->pony.version = kPonyWireVersionMin;
  p->pony.flow_id = ea->address().engine_id;
  p->pony.seq = 1;
  p->pony.type = PonyPacketType::kData;
  p->pony.stream_id = 1;
  p->pony.msg_length = 8;
  p->data = {1, 2, 3, 4, 5, 6, 7, 8};
  p->payload_bytes = 8;
  p->wire_bytes = 8 + 64;
  p->data[3] ^= 0xff;  // tampered in flight
  // The zero CRC does not match what arrives.
  ASSERT_NE(PonyPacketCrc(p->pony, p->data), 0u);
  b.nic()->DeliverFromWire(std::move(p));

  sim_->RunFor(1 * kMsec);

  EXPECT_EQ(eb->stats().rx_packets, 1);
  EXPECT_EQ(eb->stats().crc_drops, 1);
  EXPECT_EQ(eb->stats().messages_delivered, 0);
  CpuCostSink cost;
  EXPECT_FALSE(cb->PollMessage(&cost).has_value());
}

TEST_F(PonyE2eTest, MessagesSurviveRandomPacketLoss) {
  fabric_->set_random_drop_probability(0.05);
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");

  CpuCostSink cost;
  uint64_t stream = ca->CreateStream(eb->address());
  constexpr int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    std::vector<uint8_t> payload(3000, static_cast<uint8_t>(i));
    ASSERT_NE(ca->SendMessage(eb->address(), stream, 0, payload, &cost), 0u);
  }
  sim_->RunFor(4000 * kMsec);

  int received = 0;
  while (true) {
    auto msg = cb->PollMessage(&cost);
    if (!msg.has_value()) {
      break;
    }
    ASSERT_EQ(msg->length, 3000);
    ++received;
  }
  EXPECT_EQ(received, kMessages);
  // Loss actually occurred and was repaired.
  Flow* flow = ea->FindFlow(eb->address());
  ASSERT_NE(flow, nullptr);
  EXPECT_GT(flow->stats().retransmits, 0);
}

TEST_F(PonyE2eTest, ThroughputStreamMovesGigabitsPerSecond) {
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");

  PonyStreamReceiverTask receiver("rx", b.cpu(), cb.get());
  receiver.Start();
  PonyStreamSenderTask::Options options;
  options.peer = eb->address();
  options.message_bytes = 64 * 1024;
  PonyStreamSenderTask sender("tx", a.cpu(), ca.get(), options);
  sender.Start();

  sim_->RunFor(50 * kMsec);
  double gbps = static_cast<double>(receiver.bytes_received()) * 8.0 /
                ToSec(50 * kMsec) / 1e9;
  // A single engine core should sustain tens of Gbps (Table 1 shape).
  EXPECT_GT(gbps, 20.0);
  EXPECT_LT(gbps, 100.0);
}

}  // namespace
}  // namespace snap
