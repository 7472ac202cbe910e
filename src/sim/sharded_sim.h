// Conservative parallel discrete-event simulation across shards.
//
// A ShardedSim owns N independent Simulators ("shards"); a partitioned
// model assigns every host (and its NIC, engines, telemetry) to exactly
// one shard, so a shard's event queue only ever touches shard-local
// state. Shards synchronize with classic conservative epochs driven by a
// per-shard-pair lookahead matrix: L(s, d) is the minimum model-time
// delay before work produced on shard s can take effect on shard d (for
// fabric workloads, the minimum propagation delay between any host of s
// and any host of d — shard_net.h computes it from the topology). The
// engine closes the matrix under chaining (min-plus shortest paths,
// Floyd-Warshall): D(s, d) also bounds s's effect on d through relays —
// an event on s can wake shard e, whose immediate response reaches d no
// sooner than L(s, e) + L(e, d) — and the diagonal D(d, d) is the
// shortest cycle through d, bounding how soon d's own work can boomerang
// back via a neighbor. Each destination shard d then gets its own
// horizon
//
//   H(d) = min over all s of  next(s) + D(s, d)
//
// where next(s) is s's earliest pending event; d may run freely to
// H(d) - 1 without ever observing a message from the past. Same-shard
// traffic is delivered eagerly by the router (never crosses a barrier),
// so there is no direct diagonal term — and a single-shard run needs no
// barriers at all (H = never; one epoch per RunUntil). At each epoch
// barrier all shards are parked, the registered barrier hooks run on the
// coordinating thread (this is where src/net/shard_net.h collects the
// per-shard outboxes and stages arrivals in canonical order), and new
// horizons are computed from the post-exchange event set.
//
// Safety: any future arrival at d descends from a chain rooted at some
// currently-pending event, so it lands at or beyond next(s) + D(s, d) >=
// H(d) — past every clock the epoch grants d. The closure's triangle
// inequality makes each destination's horizon non-decreasing across
// epochs (next-epoch events are themselves bounded below through D), so
// the grant stays safe even for shards that ran far ahead while others
// idled; the one-hop matrix alone would not be (an idle shard woken by a
// neighbor could answer below the far-ahead shard's clock).
// Progress: every horizon exceeds the global minimum event time by at
// least the smallest lookahead, so barrier time strictly advances; the
// `next(s)` form (rather than `now + L`) lets quiescent stretches (RTO
// waits, drained runs) advance in one epoch instead of millions of empty
// lookahead-sized steps.
//
// The horizons are a pure function of the pending event times and the
// lookahead matrix, so the epoch structure is identical no matter how
// many worker threads execute the shards — with `num_threads <= 1` the
// shards run round-robin on the caller's thread and results are
// bit-identical to the threaded run by construction. Results are also
// identical for every shard count and host placement (the epoch/exchange
// *counts* differ across shard counts — fewer barriers is the point —
// but the simulated outcome does not). Identity with the serial
// single-Simulator engine is gated only on the chaos seed sweep: a busy
// rack diverges from serial because sharded fabrics add a sequencer
// event per arrival, which reorders same-nanosecond ties.
// docs/PARALLEL.md section 5 has the full determinism contract.
#ifndef SRC_SIM_SHARDED_SIM_H_
#define SRC_SIM_SHARDED_SIM_H_

#include <atomic>
#include <barrier>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/time_types.h"

namespace snap {

class ShardedSim {
 public:
  struct Options {
    int num_shards = 1;
    uint64_t seed = 1;
    EventQueueKind queue_kind = kDefaultEventQueueKind;
    // Default conservative lookahead, used for every shard pair until
    // set_pair_lookahead overrides it (shard_net.h installs per-pair
    // values derived from the fabric topology). Must be <= the minimum
    // cross-shard propagation delay.
    SimDuration lookahead = 1 * kUsec;
    // Worker threads executing shards; <= 1 runs every shard round-robin
    // on the caller's thread (bit-identical results either way).
    int num_threads = 0;
  };

  explicit ShardedSim(const Options& options);
  ~ShardedSim();

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  int num_shards() const { return static_cast<int>(sims_.size()); }
  Simulator* sim(int shard) { return sims_[shard].get(); }
  const Simulator* sim(int shard) const { return sims_[shard].get(); }
  SimDuration lookahead() const { return options_.lookahead; }

  // The one-hop lookahead matrix: minimum model-time delay from work on
  // `src` to any direct effect on `dst`. Larger values mean longer
  // epochs between that pair; correctness requires value <= the true
  // minimum cross-shard latency. The diagonal is ignored (same-shard
  // work never crosses a barrier; the engine derives the diagonal bound
  // as the shortest cycle when it closes the matrix). Set before or
  // between Run* calls.
  void set_pair_lookahead(int src, int dst, SimDuration lookahead);
  SimDuration pair_lookahead(int src, int dst) const {
    return pair_lookahead_[src * num_shards() + dst];
  }

  // Barrier (= global simulated) time: every shard has executed all its
  // events strictly before now(), and none at or after it except during
  // the final inclusive chunk of a RunUntil (mirroring Simulator::RunUntil,
  // whose clock lands exactly on `until` with events at `until` executed).
  SimTime now() const { return now_; }

  // Registers a hook that runs on the coordinating thread at every epoch
  // barrier, with all shards parked. Hooks run in registration order;
  // cross-shard exchanges and barrier-time sampling live here. Register
  // before the first Run* call.
  void AddBarrierHook(std::function<void()> hook) {
    barrier_hooks_.push_back(std::move(hook));
  }

  // Conservative epoch execution to `until` (inclusive, like
  // Simulator::RunUntil). Returns with now() == until and all staged
  // cross-shard work exchanged.
  void RunUntil(SimTime until);
  void RunFor(SimDuration duration) { RunUntil(now_ + duration); }

  // Earliest pending event time across all shards (kSimTimeNever if idle).
  SimTime NextEventTime() const;

  struct Progress {
    int64_t epochs = 0;
    int64_t events_fired = 0;  // total across shards
    // Sum over epochs of the busiest shard's events that epoch: the
    // events on the parallel critical path. events_fired /
    // critical_path_events is the speedup an ideal machine with one core
    // per shard would see (bench_sim_speed records it as
    // speedup_critical_path; measured wall-clock numbers sit next to it).
    int64_t critical_path_events = 0;
  };
  const Progress& progress() const { return progress_; }

  // --- Wall-clock engine profiler (docs/OBSERVABILITY.md) ---
  //
  // Per-shard accounting of where wall-clock time goes while the engine
  // runs: busy (inside Simulator::RunUntil), wait (parked while other
  // shards finish the epoch — barrier wait in threaded mode, run-queue
  // wait in round-robin mode), and the coordinator's exchange/hook time.
  // Wall-clock numbers are inherently nondeterministic, so they live ONLY
  // in this struct and ProfileJson(): they are never written to Telemetry
  // or the trace. The deterministic side of the profiler — per-shard
  // per-epoch event counts and the epoch-imbalance ratio — goes into each
  // shard's Telemetry registry (sim/shard/<s>/...) and, when tracing is
  // on, onto per-shard kProfilerTrack counter tracks in the merged trace.
  // With profiling disabled nothing is recorded and every output is
  // byte-identical to a build without the profiler (the determinism gate
  // covers this).
  struct ShardProfile {
    int64_t busy_ns = 0;          // wall time executing this shard's events
    int64_t wait_ns = 0;          // epoch wall time minus busy time
    int64_t events = 0;           // deterministic: events fired (per shard)
    int64_t max_epoch_events = 0; // deterministic: busiest single epoch
  };
  struct Profile {
    bool enabled = false;
    int64_t epoch_wall_ns = 0;     // wall time inside RunShardsToTargets
    int64_t exchange_wall_ns = 0;  // coordinator wall time in barrier hooks
    std::vector<ShardProfile> shards;
  };
  // Arms the profiler; call before the first Run*. Idempotent.
  void EnableProfiling();
  bool profiling_enabled() const { return profile_.enabled; }
  const Profile& profile() const { return profile_; }
  // {"enabled":...,"epochs":N,"epoch_wall_ns":...,"exchange_wall_ns":...,
  //  "shards":[{"busy_ns":...,"wait_ns":...,"events":...,
  //             "max_epoch_events":...},...]}
  std::string ProfileJson() const;

  // Arms fixed-memory time-series sampling on every shard's Telemetry
  // registry, driven from the epoch barrier (a scheduled sampling event
  // would change the epoch structure with shard count; the barrier hook
  // is free). Samples land at barrier time whenever at least `cadence`
  // of simulated time has passed since the previous sample. Call before
  // the first Run*.
  void EnableSeriesSampling(SimDuration cadence,
                            SimDuration bucket_width = 0,
                            int max_buckets = 64);

  // Deterministic merge of every shard's telemetry registry: counters and
  // gauges summed into one name-ordered map (shards register disjoint
  // per-host metric names, so the merge is a union; shared names sum).
  std::map<std::string, int64_t> MergedTelemetryValues() const;

  // Flight recording across shards. EnableTracing (call before building
  // hosts) attaches one TraceRecorder per shard; MergedTrace folds them
  // into a single deterministic trace: events interleaved by timestamp
  // (ties broken by shard, then per-shard emission order) with every
  // track id remapped to shard * kShardTrackStride + tid, so per-shard
  // tracks — including the virtual scheduler/fabric/chaos tracks — stay
  // distinct and stable. Which track a host's cores land on depends on
  // its shard, so traces are comparable between runs of the same
  // placement; the simulation itself is unaffected (pure observation).
  static constexpr int kShardTrackStride = 100000;
  void EnableTracing();
  bool tracing_enabled() const { return !tracers_.empty(); }
  TraceRecorder* shard_tracer(int shard) { return tracers_[shard].get(); }
  std::unique_ptr<TraceRecorder> MergedTrace() const;

 private:
  void RunShardsToTargets();
  void RunBarrierHooks();
  void RecordEpochProfile();
  void RefreshLookaheadClosure();
  void StartWorkers();
  void StopWorkers();
  void WorkerLoop(int worker_index);

  Options options_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<SimDuration> pair_lookahead_;  // num_shards^2, row = src
  // Min-plus closure of pair_lookahead_ (diagonal = shortest cycle);
  // entries >= kLookaheadInf mean "unreachable". Rebuilt lazily.
  std::vector<SimDuration> closed_lookahead_;
  bool closure_dirty_ = true;
  std::vector<std::function<void()>> barrier_hooks_;
  std::vector<std::unique_ptr<TraceRecorder>> tracers_;
  SimTime now_ = 0;
  Progress progress_;
  Profile profile_;
  // Per-shard Telemetry counters registered by EnableProfiling; each is
  // written only at barriers (all shards parked).
  std::vector<Counter*> prof_epoch_events_;
  std::vector<Counter*> prof_epochs_;
  // Per-shard wall busy accumulator for the current epoch, written by the
  // thread executing that shard and read by the coordinator after the
  // done barrier (the barrier provides the happens-before edge).
  std::vector<int64_t> busy_scratch_ns_;
  std::vector<int64_t> delta_scratch_;  // per-epoch fired deltas (profiling)
  SimDuration series_cadence_ = 0;
  SimTime last_series_sample_ = -1;
  std::vector<int64_t> fired_at_epoch_start_;
  std::vector<SimTime> next_scratch_;
  std::vector<SimTime> horizon_scratch_;

  // Worker-pool state (threaded mode only). `targets_` is written by the
  // coordinator strictly between the two barriers, so workers read it
  // race-free; the barriers provide all ordering.
  std::vector<std::thread> workers_;
  std::unique_ptr<std::barrier<>> start_barrier_;
  std::unique_ptr<std::barrier<>> done_barrier_;
  std::vector<SimTime> targets_;
  int num_worker_threads_ = 0;
  std::atomic<bool> stop_{false};
  bool workers_started_ = false;
};

}  // namespace snap

#endif  // SRC_SIM_SHARDED_SIM_H_
