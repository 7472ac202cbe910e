// Engine-group scheduler tests: the three scheduling modes of Section 2.4
// exercised with synthetic engines — dedicated spinning, spreading's
// block/wake behavior, compacting's scale-out and compaction, mailbox
// execution on the engine thread, and fair sharing — plus the shared
// CompactingPolicy rule, table-driven.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/cpu.h"
#include "src/snap/compacting_policy.h"
#include "src/snap/engine_group.h"

namespace snap {
namespace {

// Synthetic engine: work arrives via AddWork(); Poll consumes it at a
// fixed per-item cost.
class FakeEngine : public Engine {
 public:
  FakeEngine(std::string name, SimDuration per_item = 500 * kNsec)
      : Engine(std::move(name)), per_item_(per_item) {}

  void AddWork(SimTime now, int items) {
    for (int i = 0; i < items; ++i) {
      arrivals_.push_back(now);
    }
    NotifyWork();
  }

  PollResult Poll(SimTime now, SimDuration budget_ns) override {
    PollResult result;
    result.cpu_ns += RunMailbox() > 0 ? 250 : 0;
    while (!arrivals_.empty() && result.cpu_ns < budget_ns) {
      service_latency_.Record(now - arrivals_.front());
      arrivals_.pop_front();
      result.cpu_ns += per_item_;
      ++result.work_items;
      ++serviced_;
    }
    return result;
  }

  bool HasWork(SimTime now) const override { return !arrivals_.empty(); }

  SimDuration QueueingDelay(SimTime now) const override {
    return arrivals_.empty() ? 0 : now - arrivals_.front();
  }

  int serviced() const { return serviced_; }
  const Histogram& service_latency() const { return service_latency_; }

 private:
  SimDuration per_item_;
  std::deque<SimTime> arrivals_;
  int serviced_ = 0;
  Histogram service_latency_;
};

class EngineGroupTest : public ::testing::Test {
 protected:
  void Init(int cores) {
    params_.num_cores = cores;
    sched_ = std::make_unique<CpuScheduler>(&sim_, params_);
  }

  Simulator sim_;
  CpuParams params_;
  std::unique_ptr<CpuScheduler> sched_;
};

TEST_F(EngineGroupTest, DedicatedServicesWorkPromptly) {
  Init(2);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kDedicatedCores;
  options.dedicated_cores = {0};
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine engine("e");
  group->AddEngine(&engine);
  sim_.RunFor(1 * kMsec);
  for (int i = 0; i < 50; ++i) {
    engine.AddWork(sim_.now(), 1);
    sim_.RunFor(100 * kUsec);
  }
  EXPECT_EQ(engine.serviced(), 50);
  // Spin-polling: work picked up within poll-detection latency (sub-us).
  EXPECT_LT(engine.service_latency().P99(), 3 * kUsec);
  // The dedicated core burns CPU the whole time.
  EXPECT_GT(group->CpuNs(), 5 * kMsec);
}

TEST_F(EngineGroupTest, DedicatedSharesCoreAcrossEngines) {
  Init(2);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kDedicatedCores;
  options.dedicated_cores = {0};
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine a("a");
  FakeEngine b("b");
  group->AddEngine(&a);
  group->AddEngine(&b);
  for (int i = 0; i < 100; ++i) {
    a.AddWork(sim_.now(), 5);
    b.AddWork(sim_.now(), 5);
    sim_.RunFor(50 * kUsec);
  }
  // Round-robin polling services both.
  EXPECT_EQ(a.serviced(), 500);
  EXPECT_EQ(b.serviced(), 500);
}

TEST_F(EngineGroupTest, SpreadingBlocksWhenIdleAndWakesOnWork) {
  params_.enable_cstates = false;  // isolate scheduling from C-state exits
  Init(4);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kSpreadingEngines;
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine engine("e");
  group->AddEngine(&engine);
  sim_.RunFor(5 * kMsec);
  int64_t idle_cpu = group->CpuNs();
  // Blocked while idle: near-zero CPU (no spinning).
  EXPECT_LT(idle_cpu, 100 * kUsec);

  for (int i = 0; i < 20; ++i) {
    engine.AddWork(sim_.now(), 2);
    sim_.RunFor(200 * kUsec);
  }
  EXPECT_EQ(engine.serviced(), 40);
  // Interrupt-driven wakeup: IPI + IRQ entry (~1us), not spinning-fast
  // nanoseconds; bounded well below C-state territory.
  EXPECT_GE(engine.service_latency().P99(), 800);
  EXPECT_LT(engine.service_latency().P99(), 40 * kUsec);
}

TEST_F(EngineGroupTest, SpreadingScalesAcrossCores) {
  Init(4);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kSpreadingEngines;
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine a("a", 2 * kUsec);
  FakeEngine b("b", 2 * kUsec);
  FakeEngine c("c", 2 * kUsec);
  group->AddEngine(&a);
  group->AddEngine(&b);
  group->AddEngine(&c);
  // Saturating load on all three engines simultaneously.
  for (int i = 0; i < 200; ++i) {
    a.AddWork(sim_.now(), 3);
    b.AddWork(sim_.now(), 3);
    c.AddWork(sim_.now(), 3);
    sim_.RunFor(20 * kUsec);
  }
  sim_.RunFor(2 * kMsec);
  // Each engine got its own thread; all finish their 600 items. With one
  // shared core this would need 3.6ms of serialized work per engine set.
  EXPECT_EQ(a.serviced() + b.serviced() + c.serviced(), 1800);
}

TEST_F(EngineGroupTest, CompactingStartsOnPrimaryAndScalesOut) {
  Init(6);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kCompactingEngines;
  options.compacting_slo = 30 * kUsec;
  options.max_workers = 4;
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine a("a", 4 * kUsec);
  FakeEngine b("b", 4 * kUsec);
  group->AddEngine(&a);
  group->AddEngine(&b);
  // Light load: everything stays compacted.
  for (int i = 0; i < 20; ++i) {
    a.AddWork(sim_.now(), 1);
    b.AddWork(sim_.now(), 1);
    sim_.RunFor(200 * kUsec);
  }
  EXPECT_EQ(a.serviced(), 20);
  EXPECT_EQ(b.serviced(), 20);

  // Overload both engines: queueing delay exceeds the SLO; the rebalancer
  // must scale an engine out to another worker.
  for (int i = 0; i < 300; ++i) {
    a.AddWork(sim_.now(), 4);
    b.AddWork(sim_.now(), 4);
    sim_.RunFor(20 * kUsec);
  }
  sim_.RunFor(10 * kMsec);
  EXPECT_EQ(a.serviced(), 20 + 1200);
  EXPECT_EQ(b.serviced(), 20 + 1200);
}

TEST_F(EngineGroupTest, CompactingPrimarySpinsForLowLatencyWhenIdle) {
  Init(4);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kCompactingEngines;
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine engine("e");
  group->AddEngine(&engine);
  // Long idle, then sparse single items: the spinning primary picks each
  // up without paying interrupt/C-state wakeup costs (Figure 7(a)).
  sim_.RunFor(5 * kMsec);
  for (int i = 0; i < 20; ++i) {
    engine.AddWork(sim_.now(), 1);
    sim_.RunFor(1 * kMsec);  // 1ms gaps: deep C-states for blocked designs
  }
  EXPECT_EQ(engine.serviced(), 20);
  EXPECT_LT(engine.service_latency().P99(), 3 * kUsec);
}

// Compacting migration is part of the modeled world, so it must be
// bit-deterministic: two runs of the same seeded overload produce the
// same serviced counts, the same CPU burn, and the same latency tail.
// And migration must actually help — once scaled out, a later wave of
// the same load is serviced with a tail bounded near the SLO, not the
// overload backlog's.
TEST_F(EngineGroupTest, CompactingMigrationDeterministicUnderSlo) {
  constexpr SimDuration kSlo = 30 * kUsec;
  struct RunOutcome {
    int serviced_a = 0;
    int serviced_b = 0;
    int64_t cpu_ns = 0;
    int64_t overload_p99 = 0;
    int64_t steady_p99 = 0;
  };
  auto run_once = [&]() {
    Simulator sim(7);
    CpuParams params;
    params.num_cores = 6;
    CpuScheduler sched(&sim, params);
    EngineGroup::Options options;
    options.mode = SchedulingMode::kCompactingEngines;
    options.compacting_slo = kSlo;
    options.max_workers = 4;
    auto group = EngineGroup::Create("g", &sim, &sched, options);
    FakeEngine a("a", 4 * kUsec);
    FakeEngine b("b", 4 * kUsec);
    group->AddEngine(&a);
    group->AddEngine(&b);
    // Overload both engines past the SLO to force scale-out.
    for (int i = 0; i < 300; ++i) {
      a.AddWork(sim.now(), 4);
      b.AddWork(sim.now(), 4);
      sim.RunFor(20 * kUsec);
    }
    sim.RunFor(10 * kMsec);
    RunOutcome outcome;
    outcome.overload_p99 = a.service_latency().P99();
    // Steady wave at the same offered rate on the scaled-out layout: the
    // backlog is gone, so the tail reflects placement, not the queue.
    FakeEngine steady("steady", 4 * kUsec);
    group->AddEngine(&steady);
    for (int i = 0; i < 200; ++i) {
      steady.AddWork(sim.now(), 1);
      a.AddWork(sim.now(), 1);
      sim.RunFor(20 * kUsec);
    }
    sim.RunFor(10 * kMsec);
    outcome.serviced_a = a.serviced();
    outcome.serviced_b = b.serviced();
    outcome.cpu_ns = group->CpuNs();
    outcome.steady_p99 = steady.service_latency().P99();
    EXPECT_EQ(steady.serviced(), 200);
    return outcome;
  };

  RunOutcome first = run_once();
  RunOutcome second = run_once();
  EXPECT_EQ(first.serviced_a, second.serviced_a);
  EXPECT_EQ(first.serviced_b, second.serviced_b);
  EXPECT_EQ(first.cpu_ns, second.cpu_ns);
  EXPECT_EQ(first.overload_p99, second.overload_p99);
  EXPECT_EQ(first.steady_p99, second.steady_p99);
  EXPECT_EQ(first.serviced_a, 1200 + 200);
  EXPECT_EQ(first.serviced_b, 1200);
  // The overload tail blew the SLO (that is what triggered scale-out);
  // the steady tail on the migrated layout sits within a small multiple
  // of it.
  EXPECT_GT(first.overload_p99, kSlo);
  EXPECT_LT(first.steady_p99, 4 * kSlo);
}

TEST_F(EngineGroupTest, MailboxWorkRunsOnEngineThread) {
  Init(2);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kDedicatedCores;
  options.dedicated_cores = {0};
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine engine("e");
  group->AddEngine(&engine);
  sim_.RunFor(1 * kMsec);
  bool ran = false;
  ASSERT_TRUE(engine.mailbox()->Post([&ran] { ran = true; }));
  engine.NotifyWork();
  sim_.RunFor(1 * kMsec);
  EXPECT_TRUE(ran);
}

TEST_F(EngineGroupTest, RemoveEngineStopsPolling) {
  Init(2);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kDedicatedCores;
  options.dedicated_cores = {0};
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine engine("e");
  group->AddEngine(&engine);
  sim_.RunFor(1 * kMsec);
  group->RemoveEngine(&engine);
  engine.AddWork(sim_.now(), 5);
  sim_.RunFor(5 * kMsec);
  EXPECT_EQ(engine.serviced(), 0);
}

// Renders a policy decision for the table below: "-" for no move, else
// "out|in u<unit> <from>><to> <observed delay in us>".
std::string DescribeMove(const std::optional<CompactingPolicy::Move>& move) {
  if (!move.has_value()) {
    return "-";
  }
  const char* kind =
      move->kind == CompactingPolicy::Move::kScaleOut ? "out" : "in";
  return std::string(kind) + " u" + std::to_string(move->unit) + " " +
         std::to_string(move->from_worker) + ">" +
         std::to_string(move->to_worker) + " " +
         std::to_string(move->observed_delay_ns / kUsec);
}

// The compacting rule shared by CompactingGroup and LiveScheduler, one
// round per row against a 40 us SLO. Consecutive rows with the same case
// name feed one policy; each row gives the units' queueing delays (us),
// each worker's unit list, the expected decision and the calm-round
// count after it. Cases:
//  shared      the worst unit above the SLO shares its worker: scale out
//  at_slo      a delay equal to the SLO is no breach
//  alone       the worst unit is alone on its worker: no move, even with
//              an empty worker to go to
//  one_worker  no other worker: no move
//  emptiest    the target is the lowest-index emptiest other worker
//  to_primary  the emptiest other worker may be the primary
//  not_fewer   the target must hold strictly fewer units
//  tie         equal delays go to the lower registration index, not the
//              worker-list order
//  calm4       compaction after four rounds with total delay < SLO/4
//  last_unit   compaction moves the last unit of the highest-index
//              non-empty secondary
//  slo_reset   an over-SLO round resets the calm count
//  load_reset  a round with total delay = SLO/4 resets the calm count
//  no_target   calm rounds with nothing to compact restart the count
TEST(CompactingPolicyTest, DecidesPerTable) {
  struct Row {
    const char* name;
    std::vector<int64_t> delays_us;
    std::vector<std::vector<int>> workers;
    const char* expected;
    int calm_after;
  };
  const std::vector<Row> table = {
      {"shared", {10, 50}, {{0, 1}, {}, {}}, "out u1 0>1 50", 0},
      {"at_slo", {0, 40}, {{0, 1}, {}}, "-", 0},
      {"alone", {10, 50}, {{0}, {1}, {}}, "-", 0},
      {"one_worker", {50, 60}, {{0, 1}}, "-", 0},
      {"emptiest", {90, 0, 0, 0}, {{0, 1, 2}, {3}, {}, {}}, "out u0 0>2 90", 0},
      {"emptiest", {90, 0, 0, 0}, {{0, 1}, {2}, {3}}, "out u0 0>1 90", 0},
      {"to_primary", {0, 90, 0}, {{0}, {1, 2}}, "out u1 1>0 90", 0},
      {"not_fewer", {90, 0, 0, 0}, {{0, 1}, {2, 3}}, "-", 0},
      {"tie", {50, 50}, {{1, 0}, {}}, "out u0 0>1 50", 0},
      {"calm4", {0, 0, 0}, {{0}, {1}, {2}}, "-", 1},
      {"calm4", {0, 0, 0}, {{0}, {1}, {2}}, "-", 2},
      {"calm4", {0, 0, 0}, {{0}, {1}, {2}}, "-", 3},
      {"calm4", {0, 0, 0}, {{0}, {1}, {2}}, "in u2 2>0 0", 0},
      {"calm4", {0, 0, 0}, {{0, 2}, {1}, {}}, "-", 1},
      {"last_unit", {1, 2, 3}, {{0}, {1, 2}, {}, {}}, "-", 1},
      {"last_unit", {1, 2, 3}, {{0}, {1, 2}, {}, {}}, "-", 2},
      {"last_unit", {1, 2, 3}, {{0}, {1, 2}, {}, {}}, "-", 3},
      {"last_unit", {1, 2, 3}, {{0}, {1, 2}, {}, {}}, "in u2 1>0 6", 0},
      {"slo_reset", {0, 0, 0}, {{0}, {1}, {2}}, "-", 1},
      {"slo_reset", {0, 0, 0}, {{0}, {1}, {2}}, "-", 2},
      {"slo_reset", {0, 0, 0}, {{0}, {1}, {2}}, "-", 3},
      {"slo_reset", {0, 90, 0}, {{0}, {1}, {2}}, "-", 0},
      {"slo_reset", {0, 0, 0}, {{0}, {1}, {2}}, "-", 1},
      {"slo_reset", {0, 0, 0}, {{0}, {1}, {2}}, "-", 2},
      {"slo_reset", {0, 0, 0}, {{0}, {1}, {2}}, "-", 3},
      {"slo_reset", {0, 0, 0}, {{0}, {1}, {2}}, "in u2 2>0 0", 0},
      {"load_reset", {0, 0, 0}, {{0}, {1}, {2}}, "-", 1},
      {"load_reset", {0, 0, 0}, {{0}, {1}, {2}}, "-", 2},
      {"load_reset", {0, 0, 0}, {{0}, {1}, {2}}, "-", 3},
      {"load_reset", {5, 5, 0}, {{0}, {1}, {2}}, "-", 0},
      {"load_reset", {0, 0, 0}, {{0}, {1}, {2}}, "-", 1},
      {"load_reset", {0, 0, 0}, {{0}, {1}, {2}}, "-", 2},
      {"load_reset", {0, 0, 0}, {{0}, {1}, {2}}, "-", 3},
      {"load_reset", {0, 0, 0}, {{0}, {1}, {2}}, "in u2 2>0 0", 0},
      {"no_target", {0, 0, 0}, {{0, 1, 2}, {}}, "-", 1},
      {"no_target", {0, 0, 0}, {{0, 1, 2}, {}}, "-", 2},
      {"no_target", {0, 0, 0}, {{0, 1, 2}, {}}, "-", 3},
      {"no_target", {0, 0, 0}, {{0, 1, 2}, {}}, "-", 0},
      {"no_target", {0, 0, 0}, {{0, 1, 2}, {}}, "-", 1},
  };
  std::optional<CompactingPolicy> policy;
  for (size_t i = 0; i < table.size(); ++i) {
    const Row& row = table[i];
    if (i == 0 || std::string(row.name) != table[i - 1].name) {
      policy.emplace(40 * kUsec);
    }
    SCOPED_TRACE(std::string(row.name) + ", row " + std::to_string(i));
    std::vector<int64_t> delays;
    for (int64_t us : row.delays_us) {
      delays.push_back(us * kUsec);
    }
    EXPECT_EQ(DescribeMove(policy->Decide(delays, row.workers)), row.expected);
    EXPECT_EQ(policy->calm_rounds(), row.calm_after);
  }
}

// Parameterized: every mode must deliver all work under mixed load.
class AllModesTest : public ::testing::TestWithParam<SchedulingMode> {};

TEST_P(AllModesTest, DeliversAllWorkUnderburstyLoad) {
  Simulator sim(21);
  CpuParams params;
  params.num_cores = 6;
  CpuScheduler sched(&sim, params);
  EngineGroup::Options options;
  options.mode = GetParam();
  options.dedicated_cores = {0, 1};
  auto group = EngineGroup::Create("g", &sim, &sched, options);
  std::vector<std::unique_ptr<FakeEngine>> engines;
  for (int i = 0; i < 4; ++i) {
    engines.push_back(
        std::make_unique<FakeEngine>("e" + std::to_string(i)));
    group->AddEngine(engines.back().get());
  }
  Rng rng(5);
  int total = 0;
  for (int round = 0; round < 200; ++round) {
    for (auto& e : engines) {
      int items = static_cast<int>(rng.NextBounded(4));
      e->AddWork(sim.now(), items);
      total += items;
    }
    sim.RunFor(rng.NextInt(10, 100) * kUsec);
  }
  sim.RunFor(20 * kMsec);
  int serviced = 0;
  for (auto& e : engines) {
    serviced += e->serviced();
  }
  EXPECT_EQ(serviced, total);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, AllModesTest,
    ::testing::Values(SchedulingMode::kDedicatedCores,
                      SchedulingMode::kSpreadingEngines,
                      SchedulingMode::kCompactingEngines));

}  // namespace
}  // namespace snap
