// Lock-free single-producer/single-consumer ring buffer.
//
// This is the communication primitive Snap uses everywhere on the data
// plane: application command/completion queues, engine-to-engine links,
// packet rings shared with the kernel packet-injection driver, and NIC
// descriptor rings all map onto bounded SPSC rings over shared memory
// (Section 2.2: "lock-free communication occurs over memory-mapped regions
// shared with the input or output").
//
// The implementation is a standard power-of-two ring with cached
// head/tail indices to minimize cross-core cache traffic. It is safe for
// exactly one producer thread and one consumer thread.
//
// Slot storage is allocated raw and each slot is constructed when the
// producer first reaches it, so a large, lightly used ring commits only
// the pages it has touched (a PonyClient's three rings span ~340 KB).
//
// The ring is parameterized over an atomics policy (see atomics_policy.h)
// so the model checker in src/verify/ can exhaustively explore its
// interleavings; production code uses the default StdAtomics policy and is
// unchanged.
#ifndef SRC_QUEUE_SPSC_RING_H_
#define SRC_QUEUE_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <optional>
#include <utility>

#include "src/queue/atomics_policy.h"
#include "src/util/logging.h"

namespace snap {

template <typename T, typename Policy = StdAtomics>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two; the ring holds up to
  // `capacity` elements.
  explicit SpscRing(size_t capacity) {
    SNAP_CHECK_GT(capacity, 0u);
    size_t cap = 1;
    while (cap < capacity) {
      cap <<= 1;
    }
    mask_ = cap - 1;
    slots_ = std::allocator<Slot>().allocate(cap);
  }

  // Both endpoints are done with the ring (the owner's teardown orders
  // after their last operations).
  ~SpscRing() {
    std::destroy_n(slots_, built_);
    std::allocator<Slot>().deallocate(slots_, mask_ + 1);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return mask_ + 1; }

  // Producer side. Returns false when full.
  bool TryPush(T value) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ > mask_) {
        return false;
      }
    }
    Slot* slot = &slots_[tail & mask_];
    if (built_ <= mask_) {  // first lap (tail == built_): raw storage
      ::new (static_cast<void*>(slot)) Slot();
      ++built_;
    }
    slot->Set(std::move(value));
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns nullopt when empty.
  std::optional<T> TryPop() {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) {
        return std::nullopt;
      }
    }
    T value = slots_[head & mask_].Take();
    head_.store(head + 1, std::memory_order_release);
    return value;
  }

  // Consumer side: peek without consuming.
  const T* Peek() const {
    const size_t head = head_.load(std::memory_order_relaxed);
    size_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) {
      return nullptr;
    }
    return &slots_[head & mask_].Get();
  }

  // Approximate size; exact when called from either endpoint's thread
  // between operations.
  size_t size() const {
    size_t tail = tail_.load(std::memory_order_acquire);
    size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }

  bool empty() const { return size() == 0; }
  bool full() const { return size() > mask_; }

 private:
  template <typename U>
  using Atomic = typename Policy::template Atomic<U>;
  using Slot = typename Policy::template Cell<T>;

  Slot* slots_ = nullptr;  // [0, built_) constructed
  size_t mask_ = 0;

  alignas(64) Atomic<size_t> head_{0};
  alignas(64) size_t cached_tail_ = 0;   // consumer-local
  alignas(64) Atomic<size_t> tail_{0};
  alignas(64) size_t cached_head_ = 0;   // producer-local
  size_t built_ = 0;  // producer-local: slots constructed (first lap)
};

}  // namespace snap

#endif  // SRC_QUEUE_SPSC_RING_H_
