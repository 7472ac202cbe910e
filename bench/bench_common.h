// Shared scaffolding for the paper-reproduction benchmarks: the serial
// rack substrate (Rack), the windowed per-host CPU reading (CpuWindow),
// and table printing. Each bench binary regenerates one table or figure
// from the paper's Section 5 and prints the paper's reported values
// alongside for comparison. The workloads that run on a rack live in
// bench/rpc_rack.h; the sharded substrate is bench/sharded_rack.h.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/pony_apps.h"
#include "src/apps/simhost.h"
#include "src/apps/tcp_apps.h"
#include "src/sim/antagonist.h"

namespace snap {

// Raw host pointers, indexed by host id, for workloads and CPU windows.
inline std::vector<SimHost*> HostList(
    const std::vector<std::unique_ptr<SimHost>>& hosts) {
  std::vector<SimHost*> list;
  for (const auto& h : hosts) {
    list.push_back(h.get());
  }
  return list;
}

// A rack of identical SimHosts on one fabric, run by one serial Simulator.
class Rack {
 public:
  Rack(uint64_t seed, int num_hosts, const SimHostOptions& options,
       EventQueueKind queue_kind = kDefaultEventQueueKind,
       const NicParams& nic_params = NicParams{})
      : sim_(seed, queue_kind), fabric_(&sim_, nic_params) {
    for (int i = 0; i < num_hosts; ++i) {
      hosts_.push_back(std::make_unique<SimHost>(&sim_, &fabric_,
                                                 &directory_, options));
    }
  }

  Simulator& sim() { return sim_; }
  Fabric& fabric() { return fabric_; }
  PonyDirectory& directory() { return directory_; }
  SimHost* host(int i) { return hosts_[i].get(); }
  int size() const { return static_cast<int>(hosts_.size()); }
  std::vector<SimHost*> hosts() const { return HostList(hosts_); }

 private:
  Simulator sim_;
  PonyDirectory directory_;
  Fabric fabric_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
};

// CPU consumed by a list of hosts over a measurement window, read as mean
// cores per host: Start() at the window's start, MeanCores() at its end.
class CpuWindow {
 public:
  explicit CpuWindow(std::vector<SimHost*> hosts) : hosts_(std::move(hosts)) {}

  void Start() { start_ns_ = TotalNs(); }

  double MeanCores(SimDuration window) const {
    return static_cast<double>(TotalNs() - start_ns_) /
           static_cast<double>(window) / static_cast<double>(hosts_.size());
  }

 private:
  int64_t TotalNs() const {
    int64_t total = 0;
    for (const SimHost* h : hosts_) {
      total += h->SnapCpuNs() + h->KernelCpuNs() + h->AppCpuNs();
    }
    return total;
  }

  std::vector<SimHost*> hosts_;
  int64_t start_ns_ = 0;
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRow(const std::string& label, double measured,
                     double paper, const std::string& unit) {
  std::printf("  %-42s measured %9.2f %-10s (paper: %g)\n", label.c_str(),
              measured, unit.c_str(), paper);
}

}  // namespace snap

#endif  // BENCH_BENCH_COMMON_H_
