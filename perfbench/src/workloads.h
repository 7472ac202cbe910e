// The benchmark's workloads. Each runs for about args.seconds, checks the
// program's outputs, and adds its metrics to the report: the end-to-end
// set when args.trace is false, the per-layer set when it is true.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "src/common.h"

namespace perfbench {

// Fig. 6(b) rack on the serial simulator (sim_rack.cc).
void RunSimRack(const Args& args, Report* report);

// Two LiveRuntime hosts over UDP on the loopback interface, closed loop
// (live_rpc.cc): `outstanding` echoed RPCs of `message_bytes` each.
void RunLiveUdp(const Args& args, int64_t message_bytes, int outstanding,
                Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
