// snapbench: the repository benchmark's binary. perfbench/run.py
// builds it and runs
//   snapbench --workload NAME --seed N --seconds S --trace 0|1
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (end-to-end with --trace 0, per-layer with --trace 1).
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload sim_rack|live_udp_pingpong|"
               "live_udp_stream --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    } else if (std::strcmp(flag, "--workload") == 0) {
      args.workload = argv[++i];
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return Usage(argv[0]);
    }
  }
  if (args.seconds <= 0) {
    return Usage(argv[0]);
  }
  mkdir(kOutDir, 0755);  // span dumps; may already exist

  Report report;
  if (args.workload == "sim_rack") {
    RunSimRack(args, &report);
  } else if (args.workload == "live_udp_pingpong") {
    RunLiveUdp(args, /*message_bytes=*/64, /*outstanding=*/1, &report);
  } else if (args.workload == "live_udp_stream") {
    RunLiveUdp(args, /*message_bytes=*/4096, /*outstanding=*/16, &report);
  } else {
    return Usage(argv[0]);
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
