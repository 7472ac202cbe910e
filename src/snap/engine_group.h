// Engine groups and the three engine scheduling modes (Section 2.4,
// Figure 3):
//
//  - Dedicating cores: engines pinned to reserved hyperthreads, spin
//    polling; fair-shared round-robin when CPU constrained.
//  - Spreading engines: one MicroQuanta thread per engine that blocks on
//    interrupt notification when idle and wakes to any available core.
//  - Compacting engines: work collapsed onto as few cores as possible; a
//    rebalancer polls engine queueing delays (Shenango-style) each
//    rebalance_interval and applies CompactingPolicy
//    (src/snap/compacting_policy.h): the worst engine above the SLO
//    scales out, total delay below SLO/4 for four rounds compacts one
//    back. The live LiveScheduler applies the same policy to executors.
//
// Each mode is a set of SimTasks over the shared CPU model, so all the
// paper's scheduling effects (C-state wakeups, MicroQuanta vs CFS,
// antagonist interference) apply uniformly.
#ifndef SRC_SNAP_ENGINE_GROUP_H_
#define SRC_SNAP_ENGINE_GROUP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sim/cpu.h"
#include "src/sim/model_params.h"
#include "src/snap/engine.h"
#include "src/stats/histogram.h"

namespace snap {

enum class SchedulingMode {
  kDedicatedCores,
  kSpreadingEngines,
  kCompactingEngines,
};

// Canonical names shared by the sim-side EngineGroup and the live
// scheduler (src/live/live_scheduler.h) — CLI flags, telemetry labels
// and BENCH json all use these strings.
inline const char* SchedulingModeName(SchedulingMode mode) {
  switch (mode) {
    case SchedulingMode::kDedicatedCores:
      return "dedicated";
    case SchedulingMode::kSpreadingEngines:
      return "spreading";
    case SchedulingMode::kCompactingEngines:
      return "compacting";
  }
  return "unknown";
}

// Returns true and sets *mode on a recognized name ("dedicated",
// "spreading", "compacting").
inline bool SchedulingModeFromString(const std::string& name,
                                     SchedulingMode* mode) {
  if (name == "dedicated") {
    *mode = SchedulingMode::kDedicatedCores;
  } else if (name == "spreading") {
    *mode = SchedulingMode::kSpreadingEngines;
  } else if (name == "compacting") {
    *mode = SchedulingMode::kCompactingEngines;
  } else {
    return false;
  }
  return true;
}

// Abstract engine group: owns the host SimTasks for its engines.
class EngineGroup {
 public:
  struct Options {
    SchedulingMode mode = SchedulingMode::kDedicatedCores;
    // Dedicated mode: cores to reserve (one engine task per core).
    std::vector<int> dedicated_cores;
    // Spreading/compacting: MicroQuanta bandwidth per task.
    SimDuration mq_runtime = 950 * kUsec;
    SimDuration mq_period = 1 * kMsec;
    // Figure 6(d) ablation: host spreading engines on CFS threads (at the
    // given weight, e.g. nice -20) instead of the MicroQuanta class.
    bool spreading_use_cfs = false;
    double spreading_cfs_weight = 4.0;
    // Compacting mode tuning.
    SimDuration compacting_slo = 40 * kUsec;
    SimDuration rebalance_interval = 10 * kUsec;
    int max_workers = 4;
    SimDuration idle_block_after = 500 * kUsec;
  };

  virtual ~EngineGroup() = default;

  // Adds an engine to the group (must be called before or during the run;
  // engines cannot move between groups except via upgrade).
  virtual void AddEngine(Engine* engine) = 0;
  // Removes an engine (upgrade migration). The engine stops being polled.
  virtual void RemoveEngine(Engine* engine) = 0;

  virtual const std::string& name() const = 0;

  // Total CPU consumed by this group's tasks.
  virtual int64_t CpuNs() const = 0;

  // Factory.
  static std::unique_ptr<EngineGroup> Create(std::string name,
                                             Substrate* sim,
                                             CpuScheduler* sched,
                                             const Options& options);
};

}  // namespace snap

#endif  // SRC_SNAP_ENGINE_GROUP_H_
