// Figure 6(d) reproduction: 99th-percentile prober latency on the
// all-to-all RPC rack while reduced-priority antagonists continually wake
// threads to run MD5-style compute. Compares hosting Snap's spreading
// engines on the MicroQuanta kernel class vs on CFS at nice -20.
//
// Paper shape: with antagonists, CFS-hosted engines' tails blow up into
// the hundreds of microseconds / milliseconds; MicroQuanta keeps the tail
// bounded. TCP (softirq + CFS app threads) is worst.
#include <cstdlib>

#include "bench/rpc_rack.h"

namespace snap {
namespace {

constexpr SimDuration kWarmup = 50 * kMsec;
constexpr SimDuration kWindow = 150 * kMsec;

struct AntagonistSet {
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<std::unique_ptr<CpuHogTask>> hogs;
};

// Hog setup shared by all configs: `per_host` CFS hogs per machine that
// wake constantly (the paper's MD5 antagonists run at reduced priority).
void AddAntagonists(Rack& rack, int per_host, AntagonistSet* set) {
  for (int h = 0; h < rack.size(); ++h) {
    for (int i = 0; i < per_host; ++i) {
      set->rngs.push_back(std::make_unique<Rng>(900 + h * 10 + i));
      CpuHogTask::Options options;
      options.weight = 0.5;      // reduced priority
      options.burst_mean = 100 * kUsec;
      options.sleep_mean = 10 * kUsec;  // near-continuous wake churn
      set->hogs.push_back(std::make_unique<CpuHogTask>(
          "md5_" + std::to_string(h) + "_" + std::to_string(i),
          rack.host(h)->cpu(), set->rngs.back().get(), options));
      set->hogs.back()->Start();
    }
  }
}

Histogram RunPonyWithAntagonists(bool use_cfs, int hosts, int jobs,
                                 double load_gbps, int hogs_per_host) {
  RpcRackConfig config;
  config.hosts = hosts;
  config.jobs_per_host = jobs;
  config.offered_gbps_per_host = load_gbps;
  config.host_options.group.mode = SchedulingMode::kSpreadingEngines;
  config.host_options.group.spreading_use_cfs = use_cfs;
  config.host_options.cpu.num_cores = 6;  // contended machine
  config.prober_spins = true;  // isolate engine-class effects from app wakeup

  // Antagonists start before the workload, on the same rack.
  Rack rack(config.seed, config.hosts, config.host_options);
  AntagonistSet antagonists;
  AddAntagonists(rack, hogs_per_host, &antagonists);
  PonyRpcRackWorkload workload(config, rack.hosts());
  rack.sim().RunFor(kWarmup);
  workload.StartWindow();
  rack.sim().RunFor(kWindow);
  RpcRackResult result;
  workload.Collect(kWindow, &result);
  return result.prober_latency;
}

}  // namespace
}  // namespace snap

int main(int argc, char** argv) {
  using namespace snap;
  int hosts = argc > 1 ? std::atoi(argv[1]) : 5;
  int jobs = argc > 2 ? std::atoi(argv[2]) : 2;
  PrintHeader(
      "Figure 6(d): prober p99 with MD5 antagonists — MicroQuanta vs CFS");
  std::printf("  rack: %d hosts x %d jobs + 10 waking antagonists/host\n",
              hosts, jobs);
  for (double load : {3.0, 8.0}) {
    Histogram mq = RunPonyWithAntagonists(false, hosts, jobs, load, 10);
    Histogram cfs = RunPonyWithAntagonists(true, hosts, jobs, load, 10);
    std::printf(
        "  load %4.0f Gbps: MicroQuanta p99 %8.0f us   CFS(-20) p99 %8.0f "
        "us   (paper: CFS tail >> MicroQuanta tail)\n",
        load, static_cast<double>(mq.P99()) / 1000.0,
        static_cast<double>(cfs.P99()) / 1000.0);
  }
  return 0;
}
