// sim_rack: the Fig. 6(b) rack on the serial timer-wheel simulator.
//
// 6 hosts x 3 jobs, each job sending Poisson all-to-all 1 MB RPCs (20 Gbps
// offered per host), plus one 64 B latency prober per host; engines run in
// spreading mode with dedicated cores {0,1}. The rack is assembled here
// from the program's public API (SimHost, PonyRpcClientTask/ServerTask) so
// the workload stays fixed whatever happens to the repository's own rack
// builders. One repetition = assemble (set-up) + simulate the fixed
// warm-up and window in 250 us RunFor slices. A run repeats until its time
// budget is spent, on one thread per core at once (each repetition is its
// own serial simulator), and reports the median set-up and the fastest
// simulation, scaled by the machine speed that the benchmark's reference
// kernels (speed_reference.h) measured alongside; every repetition of one
// seed must reproduce the first one's model digest and event count exactly.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/pony_apps.h"
#include "src/apps/simhost.h"
#include "src/packet/packet_pool.h"
#include "src/speed_reference.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using snap::SimDuration;

constexpr int kHosts = 6;
constexpr int kJobsPerHost = 3;
constexpr double kOfferedGbpsPerHost = 20.0;
constexpr int64_t kResponseBytes = 1 << 20;
constexpr double kProberQps = 500.0;
constexpr SimDuration kWarmup = 20 * snap::kMsec;
constexpr SimDuration kWindow = 100 * snap::kMsec;
constexpr SimDuration kSlice = 250 * snap::kUsec;
// Repetitions run at once; more would only share cores.
constexpr unsigned kMaxThreads = 4;
// Repetitions one thread runs at most in a run.
constexpr size_t kMaxRepsPerThread = 64;

snap::SimHostOptions HostOptions() {
  snap::SimHostOptions options;
  options.group.mode = snap::SchedulingMode::kSpreadingEngines;
  options.group.dedicated_cores = {0, 1};
  options.cpu.num_cores = 10;
  return options;
}

// The assembled rack. Member order is destruction order in reverse: tasks
// go before the clients they poll, clients before the engines they attach
// to (owned by the hosts), hosts before the fabric and simulator.
class Rack {
 public:
  explicit Rack(uint64_t seed)
      : sim_(seed, snap::EventQueueKind::kTimerWheel),
        fabric_(&sim_, snap::NicParams{}) {
    const snap::SimHostOptions options = HostOptions();
    for (int h = 0; h < kHosts; ++h) {
      hosts_.push_back(std::make_unique<snap::SimHost>(&sim_, &fabric_,
                                                       &directory_, options));
    }
    // Each job owns an engine whose default sink is its server-role
    // channel; responses ride streams bound to the client-role channel.
    std::vector<snap::PonyAddress> job_addresses;
    std::vector<snap::PonyClient*> job_cli, job_srv;
    for (int h = 0; h < kHosts; ++h) {
      for (int j = 0; j < kJobsPerHost; ++j) {
        snap::PonyEngine* engine = hosts_[h]->CreatePonyEngine(
            "job" + std::to_string(h) + "_" + std::to_string(j));
        engines_.push_back(engine);
        clients_.push_back(hosts_[h]->CreateClient(engine, "cli"));
        job_cli.push_back(clients_.back().get());
        clients_.push_back(hosts_[h]->CreateClient(engine, "srv"));
        job_srv.push_back(clients_.back().get());
        engine->SetDefaultSink(job_srv.back());
        job_addresses.push_back(engine->address());
      }
    }
    for (int h = 0; h < kHosts; ++h) {
      snap::PonyEngine* engine =
          hosts_[h]->CreatePonyEngine("prober" + std::to_string(h));
      engines_.push_back(engine);
      clients_.push_back(hosts_[h]->CreateClient(engine, "prober"));
      snap::PonyRpcClientTask::Options po;
      po.rpcs_per_sec = kProberQps;
      po.request_bytes = 64;
      po.response_bytes = 64;
      po.rng_seed = seed + 1000 + h;
      for (const snap::PonyAddress& addr : job_addresses) {
        if (addr.host != h) {
          po.peers.push_back(addr);
        }
      }
      probers_.push_back(std::make_unique<snap::PonyRpcClientTask>(
          "prober" + std::to_string(h), hosts_[h]->cpu(),
          clients_.back().get(), po));
    }
    const double per_job_rate = kOfferedGbpsPerHost * 1e9 /
                                (8.0 * static_cast<double>(kResponseBytes) *
                                 kJobsPerHost);
    for (int h = 0; h < kHosts; ++h) {
      for (int j = 0; j < kJobsPerHost; ++j) {
        const int index = h * kJobsPerHost + j;
        servers_.push_back(std::make_unique<snap::PonyRpcServerTask>(
            "rpc_srv", hosts_[h]->cpu(), job_srv[index]));
        servers_.back()->Start();
        snap::PonyRpcClientTask::Options co;
        co.rpcs_per_sec = per_job_rate;
        co.request_bytes = 64;
        co.response_bytes = kResponseBytes;
        co.rng_seed = seed + h * 100 + j;
        for (const snap::PonyAddress& addr : job_addresses) {
          if (addr != job_addresses[index]) {
            co.peers.push_back(addr);
          }
        }
        background_.push_back(std::make_unique<snap::PonyRpcClientTask>(
            "rpc_cli", hosts_[h]->cpu(), job_cli[index], co));
        background_.back()->Start();
      }
    }
    for (auto& p : probers_) {
      p->Start();
    }
  }

  snap::Simulator& sim() { return sim_; }
  snap::Fabric& fabric() { return fabric_; }
  snap::SimHost* host(int h) { return hosts_[h].get(); }
  const std::vector<snap::PonyEngine*>& engines() const { return engines_; }
  std::vector<std::unique_ptr<snap::PonyRpcClientTask>>& background() {
    return background_;
  }
  std::vector<std::unique_ptr<snap::PonyRpcClientTask>>& probers() {
    return probers_;
  }

  int64_t CpuNs() const {
    int64_t total = 0;
    for (const auto& h : hosts_) {
      total += h->SnapCpuNs() + h->KernelCpuNs() + h->AppCpuNs();
    }
    return total;
  }

 private:
  snap::Simulator sim_;
  snap::PonyDirectory directory_;
  snap::Fabric fabric_;
  std::vector<std::unique_ptr<snap::SimHost>> hosts_;
  std::vector<snap::PonyEngine*> engines_;
  std::vector<std::unique_ptr<snap::PonyClient>> clients_;
  std::vector<std::unique_ptr<snap::PonyRpcServerTask>> servers_;
  std::vector<std::unique_ptr<snap::PonyRpcClientTask>> background_;
  std::vector<std::unique_ptr<snap::PonyRpcClientTask>> probers_;
};

// Replays the rack's packet lifetimes through one PacketPool per sending
// host: allocate at the NIC TX tap, free at the receiving NIC's RX tap.
// The datapath itself allocates packets directly (Flow::MakePacket), so
// this reports what pool recycling would achieve on this traffic.
class ShadowPools {
 public:
  explicit ShadowPools(Rack* rack) : in_flight_(kHosts * kHosts) {
    for (int h = 0; h < kHosts; ++h) {
      pools_.push_back(std::make_unique<snap::PacketPool>(
          int64_t{1} << 22, "shadow" + std::to_string(h)));
    }
    for (int h = 0; h < kHosts; ++h) {
      rack->host(h)->nic()->SetTxTap([this](const snap::Packet& p) {
        Lane(p).push_back(pools_[p.src_host]->Allocate(
            static_cast<size_t>(std::max(0, p.payload_bytes))));
      });
      rack->host(h)->nic()->SetRxTap([this](const snap::Packet& p) {
        std::deque<snap::PacketPtr>& lane = Lane(p);
        if (!lane.empty()) {
          pools_[p.src_host]->Free(std::move(lane.front()));
          lane.pop_front();
        }
      });
    }
  }

  snap::PacketPool::Stats Totals() const {
    snap::PacketPool::Stats total;
    for (const auto& pool : pools_) {
      total.total_allocs += pool->stats().total_allocs;
      total.recycled += pool->stats().recycled;
      total.recycled_with_capacity += pool->stats().recycled_with_capacity;
    }
    return total;
  }

 private:
  std::deque<snap::PacketPtr>& Lane(const snap::Packet& p) {
    return in_flight_[p.src_host * kHosts + p.dst_host];
  }

  std::vector<std::unique_ptr<snap::PacketPool>> pools_;
  std::vector<std::deque<snap::PacketPtr>> in_flight_;
};

struct Repetition {
  double setup_s = 0;
  double wall_s = 0;  // warm-up + window simulation
  int64_t allocs = 0;
  int64_t rpcs = 0;  // background + prober RPCs completed, whole run
  snap::EventQueueStats queue;
  snap::Fabric::Stats fabric;
  int64_t engine_tx_packets = 0;
  int64_t retransmits = 0;
  // Model outputs (simulated time), identical for every repetition of a
  // seed.
  double gbps_per_machine = 0;
  double cpu_per_machine = 0;
  int64_t prober_p50_ns = 0;
  int64_t prober_p99_ns = 0;
  int64_t prober_samples = 0;
  int64_t background_rpcs = 0;
  uint64_t digest = 0;
  // Per RunFor slice: host ns and events fired.
  std::vector<int64_t> slice_ns;
  std::vector<int64_t> slice_events;
  snap::PacketPool::Stats pool;  // traced repetitions only
};

int64_t CompletedRpcs(Rack& rack) {
  int64_t total = 0;
  for (auto& t : rack.background()) {
    total += t->rpcs_completed();
  }
  for (auto& t : rack.probers()) {
    total += t->rpcs_completed();
  }
  return total;
}

// Runs `duration` of simulated time in kSlice steps, timing each slice.
void RunSlices(Rack& rack, SimDuration duration, Repetition* rep) {
  for (SimDuration done = 0; done < duration; done += kSlice) {
    const int64_t t0 = NowNs();
    const int64_t e0 = rack.sim().event_queue().stats().fired;
    rack.sim().RunFor(kSlice);
    rep->slice_ns.push_back(NowNs() - t0);
    rep->slice_events.push_back(rack.sim().event_queue().stats().fired - e0);
  }
}

Repetition RunOnce(uint64_t seed, bool traced) {
  Repetition rep;
  const int64_t t_setup = NowNs();
  Rack rack(seed);
  rep.setup_s = static_cast<double>(NowNs() - t_setup) / 1e9;
  std::unique_ptr<ShadowPools> shadow;
  if (traced) {
    shadow = std::make_unique<ShadowPools>(&rack);
  }

  const int64_t allocs0 = ThreadAllocCount();
  const int64_t t_run = NowNs();
  RunSlices(rack, kWarmup, &rep);
  const int64_t warmup_rpcs = CompletedRpcs(rack);
  for (auto& t : rack.background()) {
    t->ResetStats();
  }
  for (auto& t : rack.probers()) {
    t->ResetStats();
  }
  const int64_t cpu0 = rack.CpuNs();
  RunSlices(rack, kWindow, &rep);
  const int64_t cpu1 = rack.CpuNs();
  rep.wall_s = static_cast<double>(NowNs() - t_run) / 1e9;
  rep.allocs = ThreadAllocCount() - allocs0;

  rep.rpcs = warmup_rpcs + CompletedRpcs(rack);
  rep.queue = rack.sim().event_queue().stats();
  rep.fabric = rack.fabric().stats();
  for (snap::PonyEngine* engine : rack.engines()) {
    rep.engine_tx_packets += engine->stats().tx_packets;
    engine->ForEachFlow([&rep](const snap::Flow& flow) {
      rep.retransmits += flow.stats().retransmits;
    });
  }
  int64_t bytes = 0;
  for (auto& t : rack.background()) {
    bytes += t->bytes_transferred();
    rep.background_rpcs += t->rpcs_completed();
  }
  // Bidirectional bytes per machine (initiator view doubled).
  rep.gbps_per_machine = static_cast<double>(bytes) * 2.0 * 8.0 /
                         snap::ToSec(kWindow) / 1e9 / kHosts;
  rep.cpu_per_machine = static_cast<double>(cpu1 - cpu0) /
                        static_cast<double>(kWindow) / kHosts;
  snap::Histogram prober;
  for (auto& t : rack.probers()) {
    prober.Merge(t->latency());
  }
  rep.prober_p50_ns = prober.P50();
  rep.prober_p99_ns = prober.P99();
  rep.prober_samples = prober.count();
  rep.digest = Fnv1a({rep.queue.fired, rep.background_rpcs, bytes,
                      prober.count(), rep.prober_p50_ns, rep.prober_p99_ns,
                      cpu1 - cpu0, rep.fabric.delivered});
  if (shadow != nullptr) {
    rep.pool = shadow->Totals();
  }
  return rep;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Writes the traced repetition's slice spans (one per RunFor slice; the
// span id is the slice index) as JSON lines.
void WriteSpans(const Args& args, const Repetition& rep) {
  const std::string path = std::string(kOutDir) + "/sim_rack_spans_seed" +
                           std::to_string(args.seed) + ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("note: cannot write %s\n", path.c_str());
    return;
  }
  int64_t begin = 0;
  for (size_t i = 0; i < rep.slice_ns.size(); ++i) {
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"sim.run_for_slice\", "
                 "\"sim_end_us\": %lld, \"begin_ns\": %lld, \"end_ns\": "
                 "%lld, \"events\": %lld}\n",
                 i,
                 static_cast<long long>((i + 1) * kSlice / snap::kUsec),
                 static_cast<long long>(begin),
                 static_cast<long long>(begin + rep.slice_ns[i]),
                 static_cast<long long>(rep.slice_events[i]));
    begin += rep.slice_ns[i];
  }
  std::fclose(f);
  std::printf("spans: %zu RunFor slices written to %s\n", rep.slice_ns.size(),
              path.c_str());
}

}  // namespace

void RunSimRack(const Args& args, Report* report) {
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
  // The first repetition runs alone: its peak RSS is one rack's footprint,
  // and its time paces the others.
  std::vector<Repetition> reps;
  reps.push_back(RunOnce(args.seed, /*traced=*/false));
  const double peak_rss_mb = PeakRssMb();
  const int64_t rep_ns =
      static_cast<int64_t>((reps[0].setup_s + reps[0].wall_s) * 1e9);
  // Traced runs leave room for an untraced and a traced repetition run
  // alone at the end; the NIC taps and shadow pools slow the traced one.
  const int64_t deadline = start + budget - (args.trace ? 3 * rep_ns : 0);

  // Machine noise on a shared host differs between cores and over
  // seconds, so repetitions run on several cores at once: each slice's
  // best time then has samples from every core, not from one. After each
  // repetition its thread times the reference kernels, so they see the
  // same cores at the same moments.
  const SpeedReference reference;
  std::vector<std::vector<Repetition>> per_thread(threads);
  std::vector<SpeedSample> per_thread_speed(threads,
                                            SpeedReference::Unsampled());
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&args, &reference, &out = per_thread[t],
                          &speed = per_thread_speed[t], deadline, rep_ns] {
      while (out.size() < kMaxRepsPerThread && NowNs() + rep_ns < deadline) {
        out.push_back(RunOnce(args.seed, /*traced=*/false));
        reference.Sample(&speed);
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  SpeedSample speed = SpeedReference::Unsampled();
  for (unsigned t = 0; t < threads; ++t) {
    for (Repetition& rep : per_thread[t]) {
      reps.push_back(std::move(rep));
    }
    for (int k = 0; k < kSpeedKernels; ++k) {
      speed[k] = std::min(speed[k], per_thread_speed[t][k]);
    }
  }
  if (reps.size() < 2) {
    reps.push_back(RunOnce(args.seed, /*traced=*/false));
    reference.Sample(&speed);
  }
  const double speed_index = SpeedReference::Index(speed);
  Repetition traced, untraced_alone;
  if (args.trace) {
    untraced_alone = RunOnce(args.seed, /*traced=*/false);
    traced = RunOnce(args.seed, /*traced=*/true);
  }

  // Determinism: every repetition of this seed, traced or not, must match
  // the first exactly.
  const Repetition& first = reps.front();
  report->attempted = static_cast<int64_t>(reps.size()) + (args.trace ? 2 : 0);
  auto check = [&](const Repetition& rep, const char* what) {
    if (rep.digest != first.digest || rep.queue.fired != first.queue.fired) {
      report->failed++;
      report->Fail(std::string(what) +
                   " repetition diverged from the first: model digest or "
                   "events differ for the same seed");
    }
  };
  for (size_t i = 1; i < reps.size(); ++i) {
    check(reps[i], "untraced");
  }
  if (args.trace) {
    check(untraced_alone, "untraced");
    check(traced, "traced");
  }
  if (first.background_rpcs <= 0 || first.prober_samples <= 0) {
    report->Fail("rack completed no RPCs");
  }

  std::vector<double> setup, wall;
  for (const Repetition& rep : reps) {
    setup.push_back(rep.setup_s);
    wall.push_back(rep.wall_s);
  }
  // The simulation is deterministic, so every repetition of a seed does
  // identical work in each slice, and repetitions differ only by machine
  // noise, which can only slow a slice down. The simulator's time is the
  // sum over slices of each slice's fastest run: noise bursts shorter than
  // a repetition drop out. Slowdowns that last the whole run are divided
  // out by the reference kernels' speed index.
  std::vector<double> slice_best_us(first.slice_ns.size());
  double wall_best = 0;
  for (size_t k = 0; k < slice_best_us.size(); ++k) {
    int64_t best = first.slice_ns[k];
    for (const Repetition& rep : reps) {
      best = std::min(best, rep.slice_ns[k]);
    }
    slice_best_us[k] = static_cast<double>(best) / 1e3 * speed_index;
    wall_best += static_cast<double>(best) / 1e9;
  }
  const double sim_wall_s = wall_best * speed_index;
  PrintStamp(args, static_cast<int>(threads),
             "simulated fabric, no host network");
  char line[320];
  std::snprintf(line, sizeof(line),
                "sim_rack: %zu repetitions on %u threads, %.3f s host time "
                "(slice-wise best; %.3f s at reference speed index %.3f) for "
                "%lld simulated ms, %lld events, %lld RPCs, prober RTT "
                "samples %lld",
                reps.size(), threads, wall_best, sim_wall_s, speed_index,
                static_cast<long long>((kWarmup + kWindow) / snap::kMsec),
                static_cast<long long>(first.queue.fired),
                static_cast<long long>(first.rpcs),
                static_cast<long long>(first.prober_samples));
  report->Note(line);
  std::string times = "repetition host s:";
  for (double w : wall) {
    std::snprintf(line, sizeof(line), " %.3f", w);
    times += line;
  }
  report->Note(times);

  if (!args.trace) {
    report->Add("setup_s", Median(setup), "s");
    report->Add("sim_wall_s", sim_wall_s, "s");
    report->Add("rpc_per_s", static_cast<double>(first.rpcs) / sim_wall_s,
                "1/s");
    report->Add("rpc_p50_us", static_cast<double>(first.prober_p50_ns) / 1e3,
                "us");
    report->Add("peak_rss_mb", peak_rss_mb, "MB");
    return;
  }

  // The workload's RPC latency is the simulated prober RTT (a model
  // output: identical for every repetition of a seed).
  report->Add("rpc_p99_us", static_cast<double>(first.prober_p99_ns) / 1e3,
              "us");
  report->Add("rpc.latency_samples",
              static_cast<double>(first.prober_samples), "count");
  const double events = static_cast<double>(first.queue.fired);
  report->Add("sim.events", events, "count");
  report->Add("sim.ns_per_event", sim_wall_s * 1e9 / events, "ns");
  report->Add("sim.host_wall_s", wall_best, "s");
  report->Add("sim.speed_index", speed_index, "ratio");
  report->Add("sim.cascades_per_event",
              Ratio(static_cast<double>(first.queue.cascades), events),
              "ratio");
  report->Add("sim.callback_heap_allocs",
              static_cast<double>(first.queue.callback_heap_allocs), "count");
  report->Add("sim.slab_high_water",
              static_cast<double>(first.queue.slab_high_water), "count");
  std::vector<double> allocs;
  for (const Repetition& rep : reps) {
    allocs.push_back(static_cast<double>(rep.allocs));
  }
  report->Add("sim.allocs_per_event", Median(allocs) / events, "ratio");
  report->Add("sim.slice_wall_us_p50", Percentile(&slice_best_us, 50), "us");
  report->Add("sim.slice_wall_us_p99", Percentile(&slice_best_us, 99), "us");
  report->Add("packet.pool.recycle_ratio",
              Ratio(static_cast<double>(traced.pool.recycled),
                    static_cast<double>(traced.pool.total_allocs)),
              "ratio");
  report->Add("packet.pool.capacity_hit_ratio",
              Ratio(static_cast<double>(traced.pool.recycled_with_capacity),
                    static_cast<double>(traced.pool.recycled)),
              "ratio");
  report->Add("net.fabric.delivered",
              static_cast<double>(first.fabric.delivered), "count");
  report->Add("net.fabric.batch_size",
              Ratio(static_cast<double>(first.fabric.delivered),
                    static_cast<double>(first.fabric.drain_events)),
              "ratio");
  report->Add("pony.engine.packets_per_rpc",
              Ratio(static_cast<double>(first.engine_tx_packets),
                    static_cast<double>(first.rpcs)),
              "ratio");
  report->Add("pony.flow.retransmits",
              static_cast<double>(first.retransmits), "count");
  report->Add("model.gbps_per_machine", first.gbps_per_machine, "Gbps");
  report->Add("model.cpu_per_machine", first.cpu_per_machine, "cores");
  report->Add("model.prober_p50_us",
              static_cast<double>(first.prober_p50_ns) / 1e3, "us");
  report->Add("model.prober_p99_us",
              static_cast<double>(first.prober_p99_ns) / 1e3, "us");
  report->Add("model.background_rpcs",
              static_cast<double>(first.background_rpcs), "count");
  // 52 bits so the digest survives the trip through a JSON double.
  report->Add("model.digest",
              static_cast<double>(first.digest & ((uint64_t{1} << 52) - 1)),
              "hash");
  report->Add("trace.overhead_pct",
              (traced.wall_s / untraced_alone.wall_s - 1) * 100, "%");
  WriteSpans(args, traced);
}

}  // namespace perfbench
