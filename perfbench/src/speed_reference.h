// A fixed yardstick for how fast the machine runs at the moment. The host
// this benchmark runs on is shared: for minutes at a time every core runs
// the simulator 1.3-1.6x slower (an integer loop then takes ~1.25x as
// long, a pointer chase over 2 MB 2x or more), which no statistic over
// one run's repetitions can undo. The reference kernels below are the
// benchmark's own code, so no change to the program moves them; timing
// them next to the simulation lets sim_rack report its host time scaled
// to the machine speed at which they take their nominal times.
#ifndef PERFBENCH_SRC_SPEED_REFERENCE_H_
#define PERFBENCH_SRC_SPEED_REFERENCE_H_

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

// Core speed and each level of the memory hierarchy: an integer loop and
// dependent loads over 256 KB (L2), 2 MB (a core's share of L2 and L3)
// and 32 MB (L3 and memory).
inline constexpr int kSpeedKernels = 4;

// Best time of each kernel seen so far, in ns.
using SpeedSample = std::array<double, kSpeedKernels>;

class SpeedReference {
 public:
  // Builds the pointer-chase tables (~34 MB, read-only afterwards, so
  // several threads can share them).
  SpeedReference();

  // Runs each kernel once on the calling thread (~80 ms on a quiet core)
  // and lowers `best` where it ran faster.
  void Sample(SpeedSample* best) const;

  // Geometric mean over kernels of nominal time / best time: 1 when the
  // machine runs the kernels at their nominal speed, below 1 when slower.
  static double Index(const SpeedSample& best);

  static SpeedSample Unsampled();

 private:
  std::vector<uint32_t> l2_, mid_, far_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPEED_REFERENCE_H_
