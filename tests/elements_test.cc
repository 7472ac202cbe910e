// Click-style element tests: counters, ACLs, rate limiting/shaping,
// classification, CRC verification, and the shaping engine end to end.
#include <gtest/gtest.h>

#include "src/apps/simhost.h"
#include "src/packet/wire.h"
#include "src/snap/elements.h"
#include "src/snap/shaping_engine.h"

namespace snap {
namespace {

PacketPtr MakePacket(int src, int dst, int payload) {
  auto p = std::make_unique<Packet>();
  p->src_host = src;
  p->dst_host = dst;
  p->payload_bytes = payload;
  p->wire_bytes = payload + 64;
  return p;
}

TEST(CounterElementTest, CountsPacketsAndBytes) {
  CounterElement counter("c");
  for (int i = 0; i < 3; ++i) {
    PacketPtr p = MakePacket(0, 1, 1000);
    EXPECT_EQ(counter.Process(0, p), ElementVerdict::kPass);
  }
  EXPECT_EQ(counter.packets(), 3);
  EXPECT_EQ(counter.bytes(), 3 * 1064);
}

TEST(AclElementTest, DropsDeniedPairs) {
  AclElement acl("acl");
  acl.Deny(3, 7);
  PacketPtr denied = MakePacket(3, 7, 100);
  EXPECT_EQ(acl.Process(0, denied), ElementVerdict::kDrop);
  EXPECT_EQ(denied, nullptr);
  PacketPtr allowed = MakePacket(3, 8, 100);
  EXPECT_EQ(acl.Process(0, allowed), ElementVerdict::kPass);
  EXPECT_NE(allowed, nullptr);
  EXPECT_EQ(acl.dropped(), 1);
}

TEST(AclElementTest, WildcardRules) {
  AclElement acl("acl");
  acl.Deny(-1, 9);  // any source to host 9
  PacketPtr p1 = MakePacket(0, 9, 100);
  PacketPtr p2 = MakePacket(5, 9, 100);
  PacketPtr p3 = MakePacket(5, 8, 100);
  EXPECT_EQ(acl.Process(0, p1), ElementVerdict::kDrop);
  EXPECT_EQ(acl.Process(0, p2), ElementVerdict::kDrop);
  EXPECT_EQ(acl.Process(0, p3), ElementVerdict::kPass);
}

TEST(RateLimiterTest, PassesWithinBurst) {
  RateLimiterElement limiter("rl", 1e9, 10000, 16);
  PacketPtr p = MakePacket(0, 1, 1000);
  EXPECT_EQ(limiter.Process(0, p), ElementVerdict::kPass);
}

TEST(RateLimiterTest, QueuesBeyondBurstAndReleasesOverTime) {
  // 1 GB/s, 2KB burst: the first ~2 packets pass, the rest queue.
  RateLimiterElement limiter("rl", 1e9, 2048, 64);
  int passed = 0;
  int queued = 0;
  for (int i = 0; i < 10; ++i) {
    PacketPtr p = MakePacket(0, 1, 1000);
    ElementVerdict v = limiter.Process(0, p);
    if (v == ElementVerdict::kPass) {
      ++passed;
    } else if (v == ElementVerdict::kConsume) {
      ++queued;
    }
  }
  EXPECT_GT(passed, 0);
  EXPECT_GT(queued, 0);
  EXPECT_EQ(limiter.queued(), static_cast<size_t>(queued));
  // One packet (1064B) needs ~1.06us of tokens at 1GB/s.
  int released = 0;
  SimTime t = 0;
  while (released < queued && t < 1 * kMsec) {
    t += 1 * kUsec;
    released += limiter.Release(t, [](PacketPtr) {});
  }
  EXPECT_EQ(released, queued);
  // Total time ~ bytes/rate.
  EXPECT_NEAR(static_cast<double>(t),
              static_cast<double>(queued) * 1064.0, 8000.0);
}

TEST(RateLimiterTest, OverflowDrops) {
  RateLimiterElement limiter("rl", 1e6, 100, 4);  // tiny rate, queue of 4
  int drops = 0;
  for (int i = 0; i < 10; ++i) {
    PacketPtr p = MakePacket(0, 1, 1000);
    if (limiter.Process(0, p) == ElementVerdict::kDrop) {
      ++drops;
    }
  }
  EXPECT_EQ(limiter.dropped(), drops);
  EXPECT_GT(drops, 0);
  EXPECT_EQ(limiter.queued(), 4u);
}

TEST(RateLimiterTest, QueueingDelayReportsHeadAge) {
  RateLimiterElement limiter("rl", 1e6, 100, 16);
  PacketPtr p = MakePacket(0, 1, 1000);
  limiter.Process(1000, p);
  EXPECT_EQ(limiter.QueueingDelay(5000), 4000);
}

TEST(ClassifierTest, RoutesByPredicate) {
  ClassifierElement classifier("qos", [](const Packet& p) {
    return p.payload_bytes > 500 ? 1 : 0;
  });
  PacketPtr small = MakePacket(0, 1, 100);
  PacketPtr big = MakePacket(0, 1, 1000);
  classifier.Process(0, small);
  classifier.Process(0, big);
  classifier.Process(0, big);
  EXPECT_EQ(classifier.class_count(0), 1);
  EXPECT_EQ(classifier.class_count(1), 2);
}

TEST(CrcCheckTest, DropsCorruptedPayload) {
  CrcCheckElement crc("crc");
  auto p = std::make_unique<Packet>();
  p->proto = WireProtocol::kPony;
  p->data = {1, 2, 3, 4};
  p->payload_bytes = 4;
  p->wire_bytes = 68;
  p->pony.crc32 = PonyPacketCrc(p->pony, p->data);
  EXPECT_EQ(crc.Process(0, p), ElementVerdict::kPass);
  // Corrupt one byte: dropped.
  p->data[2] ^= 0xFF;
  EXPECT_EQ(crc.Process(0, p), ElementVerdict::kDrop);
  EXPECT_EQ(crc.corrupt_drops(), 1);
}

TEST(CrcCheckTest, ZeroCrcIsVerifiedNotSkipped) {
  // crc32 == 0 is not an opt-out: a frame whose payload was tampered
  // with and whose CRC field was zeroed is corrupt like any other.
  CrcCheckElement crc("crc");
  auto p = std::make_unique<Packet>();
  p->proto = WireProtocol::kPony;
  p->data = {1, 2, 3, 4};
  p->payload_bytes = 4;
  p->wire_bytes = 68;
  p->data[2] ^= 0xFF;
  p->pony.crc32 = 0;
  ASSERT_NE(PonyPacketCrc(p->pony, p->data), 0u);
  EXPECT_EQ(crc.Process(0, p), ElementVerdict::kDrop);
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(crc.corrupt_drops(), 1);
}

TEST(PipelineTest, RunsElementsInOrderAndStopsOnDrop) {
  Pipeline pipeline;
  auto counter_before = std::make_unique<CounterElement>("before");
  auto acl = std::make_unique<AclElement>("acl");
  acl->Deny(0, 1);
  auto counter_after = std::make_unique<CounterElement>("after");
  CounterElement* before = counter_before.get();
  CounterElement* after = counter_after.get();
  pipeline.Append(std::move(counter_before));
  pipeline.Append(std::move(acl));
  pipeline.Append(std::move(counter_after));

  PacketPtr p = MakePacket(0, 1, 100);
  Pipeline::RunResult result = pipeline.Run(0, p);
  EXPECT_EQ(result.verdict, ElementVerdict::kDrop);
  EXPECT_GT(result.cpu_ns, 0);
  EXPECT_EQ(before->packets(), 1);
  EXPECT_EQ(after->packets(), 0);
}

// --- ShapingEngine end-to-end on the simulated host -----------------------

TEST(ShapingEngineTest, EnforcesConfiguredRate) {
  Simulator sim(3);
  Fabric fabric(&sim, NicParams{});
  Nic* src = fabric.AddHost();
  fabric.AddHost();
  CpuParams cpu_params;
  CpuScheduler cpu(&sim, cpu_params);

  ShapingEngine::Options options;
  options.rate_bytes_per_sec = 125e6;  // 1 Gbps policy
  options.burst_bytes = 64 * 1024;
  ShapingEngine engine("shaper", &sim, src, options);
  auto group = EngineGroup::Create("g", &sim, &cpu, [] {
    EngineGroup::Options o;
    o.mode = SchedulingMode::kDedicatedCores;
    o.dedicated_cores = {0};
    return o;
  }());
  group->AddEngine(&engine);

  // Offer ~2.4x the policy rate for 100ms.
  for (int burst = 0; burst < 100; ++burst) {
    for (int i = 0; i < 200; ++i) {
      auto p = std::make_unique<Packet>();
      p->src_host = 0;
      p->dst_host = 1;
      p->payload_bytes = 1436;
      p->wire_bytes = 1500;
      engine.Inject(std::move(p));
    }
    sim.RunFor(1 * kMsec);
  }
  double offered = 100 * 200 * 1500.0;          // ~30 MB offered
  double shaped = static_cast<double>(engine.stats().transmitted) * 1500.0;
  double rate = shaped / ToSec(sim.now());
  EXPECT_LT(rate, 135e6);  // within ~8% of the 125 MB/s policy
  EXPECT_GT(rate, 100e6);
  EXPECT_LT(shaped, offered);
  EXPECT_GT(engine.shaper()->dropped() + engine.stats().input_drops, 0);
}

TEST(ShapingEngineTest, AclDropsBeforeShaping) {
  Simulator sim(3);
  Fabric fabric(&sim, NicParams{});
  Nic* src = fabric.AddHost();
  fabric.AddHost();
  CpuParams cpu_params;
  CpuScheduler cpu(&sim, cpu_params);
  ShapingEngine engine("shaper", &sim, src, ShapingEngine::Options{});
  engine.acl()->Deny(-1, 1);
  auto group = EngineGroup::Create("g", &sim, &cpu, [] {
    EngineGroup::Options o;
    o.mode = SchedulingMode::kDedicatedCores;
    o.dedicated_cores = {0};
    return o;
  }());
  group->AddEngine(&engine);
  for (int i = 0; i < 10; ++i) {
    auto p = std::make_unique<Packet>();
    p->src_host = 0;
    p->dst_host = 1;
    p->payload_bytes = 100;
    p->wire_bytes = 164;
    engine.Inject(std::move(p));
  }
  sim.RunFor(10 * kMsec);
  EXPECT_EQ(engine.acl()->dropped(), 10);
  EXPECT_EQ(engine.stats().transmitted, 0);
}

}  // namespace
}  // namespace snap
