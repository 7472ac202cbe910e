// Socket-boundary probe for the live UDP fabric. The benchmark links with
// -Wl,--wrap=sendto,--wrap=recvfrom, so UdpFabric's datagram calls pass
// through udp_probe.cc. Unarmed, the probe only counts failed sendto
// calls; armed (traced runs), it timestamps every sampled Pony data
// datagram at sendto entry ("fabric_enq") and recvfrom return (end of
// "wire"). Sampling follows the program's own trace rule (op_id % N == 0).
#ifndef PERFBENCH_SRC_UDP_PROBE_H_
#define PERFBENCH_SRC_UDP_PROBE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

struct DatagramRecord {
  int64_t t_ns = 0;  // raw CLOCK_MONOTONIC
  int32_t src_host = -1;
  uint64_t op_id = 0;
};

void ArmUdpProbe(bool armed);
// sendto calls that failed since process start (the fabric counts each as
// a dropped_send).
int64_t UdpSendFailures();
// Moves out every record captured so far. Call only while no thread is
// inside the fabric (after LiveRuntime::Stop()).
std::vector<DatagramRecord> TakeSendRecords();
std::vector<DatagramRecord> TakeRecvRecords();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_UDP_PROBE_H_
