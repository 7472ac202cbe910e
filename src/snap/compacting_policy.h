// CompactingPolicy: the compacting-engines rebalancing rule (Section 2.4),
// written once for the sim's CompactingGroup (src/snap/engine_group.cc)
// and the live LiveScheduler (src/live/live_scheduler.cc), so the
// simulator predicts the live scheduler.
//
// A unit is what moves between workers: an engine in the sim, an
// executor in live mode. Units are numbered in registration order, and
// that index, never an address, breaks ties. Each round:
//
//  - Scale out: if the worst unit's queueing delay exceeds the SLO and it
//    shares its worker, move it to the emptiest other worker (lowest
//    index on a tie) if that worker holds strictly fewer units.
//  - Compact: after kCalmRounds consecutive rounds with total delay
//    below SLO/4, move the last unit of the highest-index non-empty
//    secondary to worker 0.
//
// An over-SLO round or a round at or above SLO/4 resets the calm count,
// which is the policy's only state. The caller applies the move (erase
// from the source list, append to the destination) with its own
// mechanics.
#ifndef SRC_SNAP_COMPACTING_POLICY_H_
#define SRC_SNAP_COMPACTING_POLICY_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace snap {

class CompactingPolicy {
 public:
  // Consecutive calm rounds before one compaction.
  static constexpr int kCalmRounds = 4;

  struct Move {
    enum Kind { kScaleOut, kCompact };
    Kind kind;
    int unit;
    int from_worker;
    int to_worker;
    // Scale-out: the worst unit's delay. Compact: the round's total delay.
    int64_t observed_delay_ns;
  };

  explicit CompactingPolicy(int64_t slo_ns) : slo_ns_(slo_ns) {}

  // One rebalancer round. delays[u] is unit u's queueing delay; workers[w]
  // lists the units on worker w in placement order. Returns at most one
  // move.
  std::optional<Move> Decide(const std::vector<int64_t>& delays,
                             const std::vector<std::vector<int>>& workers);

  int calm_rounds() const { return calm_rounds_; }

 private:
  int64_t slo_ns_;
  int calm_rounds_ = 0;
};

}  // namespace snap

#endif  // SRC_SNAP_COMPACTING_POLICY_H_
