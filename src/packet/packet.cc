#include "src/packet/packet.h"

namespace snap {

namespace {

// Singly-linked freelist threaded through the recycled blocks themselves.
// thread_local: the simulator is single-threaded, but benchmarks and tests
// may run several simulators on different threads; per-thread lists need
// no locking and a block freed on another thread simply lands there. The
// list owns its blocks, so a thread's parked blocks are returned to the
// heap when that thread exits (shard and live worker threads come and go).
struct FreeBlock {
  FreeBlock* next;
};

constexpr int kMaxFreeBlocks = 4096;

struct FreeList {
  FreeBlock* head = nullptr;
  int count = 0;

  FreeList() = default;
  FreeList(const FreeList&) = delete;
  FreeList& operator=(const FreeList&) = delete;
  ~FreeList() {
    while (head != nullptr) {
      FreeBlock* block = head;
      head = block->next;
      ::operator delete(block);
    }
  }
};

thread_local FreeList t_free;

// Payload-buffer cache: cleared vectors that keep their heap capacity.
// Bounded both in count and per-buffer capacity so a rare jumbo payload
// cannot pin memory forever.
constexpr int kMaxCachedBuffers = 1024;
constexpr size_t kMaxCachedCapacity = 64 * 1024;

thread_local std::vector<std::vector<uint8_t>> t_buffer_cache;

}  // namespace

std::vector<uint8_t> TakePayloadBuffer() {
  if (t_buffer_cache.empty()) {
    return {};
  }
  std::vector<uint8_t> buf = std::move(t_buffer_cache.back());
  t_buffer_cache.pop_back();
  return buf;
}

void StashPayloadBuffer(std::vector<uint8_t> buf) {
  if (buf.capacity() == 0 || buf.capacity() > kMaxCachedCapacity ||
      t_buffer_cache.size() >= kMaxCachedBuffers) {
    return;
  }
  buf.clear();
  t_buffer_cache.push_back(std::move(buf));
}

Packet::Packet() : data(TakePayloadBuffer()) {}

Packet::~Packet() { StashPayloadBuffer(std::move(data)); }

void* Packet::operator new(std::size_t size) {
  if (size == sizeof(Packet) && t_free.head != nullptr) {
    FreeBlock* block = t_free.head;
    t_free.head = block->next;
    --t_free.count;
    return block;
  }
  return ::operator new(size);
}

void Packet::operator delete(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  if (t_free.count < kMaxFreeBlocks) {
    auto* block = static_cast<FreeBlock*>(p);
    block->next = t_free.head;
    t_free.head = block;
    ++t_free.count;
    return;
  }
  ::operator delete(p);
}

void Packet::operator delete(void* p, std::size_t) noexcept {
  Packet::operator delete(p);
}

}  // namespace snap
