#include "src/udp_probe.h"

#include <sys/socket.h>
#include <sys/types.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>

#include "src/common.h"
#include "src/packet/wire.h"
#include "src/stats/trace.h"

extern "C" {
ssize_t __real_sendto(int fd, const void* buf, size_t len, int flags,
                      const sockaddr* addr, socklen_t addr_len);
ssize_t __real_recvfrom(int fd, void* buf, size_t len, int flags,
                        sockaddr* addr, socklen_t* addr_len);
}

namespace perfbench {
namespace {

std::atomic<bool> g_armed{false};
std::atomic<int64_t> g_send_failures{0};

// Per-thread record buffers, owned by a registry so they outlive the
// engine worker threads that fill them.
struct Buffers {
  std::vector<DatagramRecord> sent;
  std::vector<DatagramRecord> received;
};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<Buffers>> g_registry;  // guarded by g_registry_mu
thread_local Buffers* t_buffers = nullptr;

Buffers* ThreadBuffers() {
  if (t_buffers == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<Buffers>());
    t_buffers = g_registry.back().get();
  }
  return t_buffers;
}

// Frame layout (src/packet/wire.cc EncodeWireFrame): magic u32, frame
// version u16, src i32, dst i32, steering u32, tenant u32, payload_bytes
// i32, wire_bytes i32, header_len u16, then the Pony header.
constexpr size_t kSrcOffset = 6;
constexpr size_t kHeaderLenOffset = 30;
constexpr size_t kHeaderOffset = 32;

// Appends a record when `frame` is a sampled Pony data fragment.
void MaybeRecord(const void* frame, size_t len, int64_t t_ns,
                 std::vector<DatagramRecord>* (*pick)(Buffers*)) {
  const auto* bytes = static_cast<const uint8_t*>(frame);
  uint32_t magic = 0;
  uint16_t header_len = 0;
  if (len < kHeaderOffset) {
    return;
  }
  std::memcpy(&magic, bytes, sizeof(magic));
  std::memcpy(&header_len, bytes + kHeaderLenOffset, sizeof(header_len));
  if (magic != snap::kWireFrameMagic || kHeaderOffset + header_len > len) {
    return;
  }
  snap::StatusOr<snap::PonyHeader> header =
      snap::DecodePonyHeader(bytes + kHeaderOffset, header_len);
  static const int kSampleEvery =
      snap::TraceRecorder::Options{}.packet_sample_every;
  if (!header.ok() || header->type != snap::PonyPacketType::kData ||
      header->op_id == 0 || header->op_id % kSampleEvery != 0) {
    return;
  }
  DatagramRecord record;
  record.t_ns = t_ns;
  std::memcpy(&record.src_host, bytes + kSrcOffset, sizeof(record.src_host));
  record.op_id = header->op_id;
  pick(ThreadBuffers())->push_back(record);
}

std::vector<DatagramRecord>* Sent(Buffers* b) { return &b->sent; }
std::vector<DatagramRecord>* Received(Buffers* b) { return &b->received; }

std::vector<DatagramRecord> Take(std::vector<DatagramRecord>* (*pick)(
    Buffers*)) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<DatagramRecord> out;
  for (auto& buffers : g_registry) {
    std::vector<DatagramRecord>* records = pick(buffers.get());
    out.insert(out.end(), records->begin(), records->end());
    records->clear();
  }
  return out;
}

}  // namespace

void ArmUdpProbe(bool armed) {
  g_armed.store(armed, std::memory_order_relaxed);
}

int64_t UdpSendFailures() {
  return g_send_failures.load(std::memory_order_relaxed);
}

std::vector<DatagramRecord> TakeSendRecords() { return Take(Sent); }
std::vector<DatagramRecord> TakeRecvRecords() { return Take(Received); }

}  // namespace perfbench

extern "C" ssize_t __wrap_sendto(int fd, const void* buf, size_t len,
                                 int flags, const sockaddr* addr,
                                 socklen_t addr_len) {
  const bool armed = perfbench::g_armed.load(std::memory_order_relaxed);
  const int64_t t = armed ? perfbench::NowNs() : 0;
  ssize_t sent = __real_sendto(fd, buf, len, flags, addr, addr_len);
  if (sent < 0) {
    perfbench::g_send_failures.fetch_add(1, std::memory_order_relaxed);
  } else if (armed) {
    perfbench::MaybeRecord(buf, len, t, perfbench::Sent);
  }
  return sent;
}

extern "C" ssize_t __wrap_recvfrom(int fd, void* buf, size_t len, int flags,
                                   sockaddr* addr, socklen_t* addr_len) {
  ssize_t n = __real_recvfrom(fd, buf, len, flags, addr, addr_len);
  if (n > 0 && perfbench::g_armed.load(std::memory_order_relaxed)) {
    perfbench::MaybeRecord(buf, static_cast<size_t>(n), perfbench::NowNs(),
                           perfbench::Received);
  }
  return n;
}
