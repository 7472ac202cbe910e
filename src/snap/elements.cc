#include "src/snap/elements.h"

#include <algorithm>

#include "src/packet/wire.h"
#include "src/util/logging.h"

namespace snap {

Pipeline::RunResult Pipeline::Run(SimTime now, PacketPtr& packet) {
  RunResult result;
  for (auto& element : elements_) {
    result.cpu_ns += element->cost_ns();
    result.verdict = element->Process(now, packet);
    if (result.verdict != ElementVerdict::kPass) {
      return result;
    }
  }
  result.verdict = ElementVerdict::kPass;
  return result;
}

ElementVerdict AclElement::Process(SimTime now, PacketPtr& packet) {
  for (const Rule& rule : deny_) {
    bool src_match = rule.src == -1 || rule.src == packet->src_host;
    bool dst_match = rule.dst == -1 || rule.dst == packet->dst_host;
    if (src_match && dst_match) {
      ++dropped_;
      packet.reset();
      return ElementVerdict::kDrop;
    }
  }
  return ElementVerdict::kPass;
}

RateLimiterElement::RateLimiterElement(std::string name,
                                       double rate_bytes_per_sec,
                                       int64_t burst_bytes,
                                       size_t max_queue_packets)
    : Element(std::move(name)),
      bucket_(rate_bytes_per_sec, burst_bytes),
      max_queue_(max_queue_packets) {}

ElementVerdict RateLimiterElement::Process(SimTime now, PacketPtr& packet) {
  // Refill up front (not lazily inside TryConsume) so last_refill_ — the
  // anchor NextReleaseTime extrapolates from — advances even when the
  // packet only joins the queue.
  bucket_.Refill(now);
  double need = static_cast<double>(packet->wire_bytes);
  if (queue_.empty() && bucket_.TryConsume(now, need)) {
    return ElementVerdict::kPass;
  }
  if (queue_.size() >= max_queue_) {
    ++dropped_;
    packet.reset();
    return ElementVerdict::kDrop;
  }
  queue_.push_back(Queued{std::move(packet), now});
  return ElementVerdict::kConsume;
}

int RateLimiterElement::Release(SimTime now,
                                const std::function<void(PacketPtr)>& out) {
  bucket_.Refill(now);
  int released = 0;
  while (!queue_.empty()) {
    double need = static_cast<double>(queue_.front().packet->wire_bytes);
    if (!bucket_.TryConsume(now, need)) {
      break;
    }
    out(std::move(queue_.front().packet));
    queue_.pop_front();
    ++released;
  }
  return released;
}

SimTime RateLimiterElement::NextReleaseTime() const {
  if (queue_.empty()) {
    return kSimTimeNever;
  }
  double need = static_cast<double>(queue_.front().packet->wire_bytes);
  return bucket_.AvailableAt(need);
}

ElementVerdict CrcCheckElement::Process(SimTime now, PacketPtr& packet) {
  if (packet->proto != WireProtocol::kPony || packet->data.empty()) {
    return ElementVerdict::kPass;  // nothing to verify
  }
  // Every Pony sender stamps a CRC, so crc32 == 0 is verified like any
  // other value rather than read as "unstamped".
  if (!VerifyPonyPacketCrc(packet->pony, packet->data)) {
    ++corrupt_drops_;
    packet.reset();
    return ElementVerdict::kDrop;
  }
  return ElementVerdict::kPass;
}

}  // namespace snap
