#include "src/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

// ---------------------------------------------------------------------------
// Allocation counting: every global operator new in this binary bumps a
// counter. Counters are striped per thread (one cache line each) so the
// live workloads' four busy threads do not contend on one line.
// ---------------------------------------------------------------------------
namespace {

constexpr int kAllocSlots = 64;
struct alignas(64) AllocSlot {
  std::atomic<int64_t> count{0};
};
AllocSlot g_alloc_slots[kAllocSlots];
std::atomic<int> g_next_alloc_slot{0};
thread_local int t_alloc_slot = -1;
thread_local int64_t t_alloc_count = 0;

inline void CountAlloc() {
  ++t_alloc_count;
  int slot = t_alloc_slot;
  if (slot < 0) {
    slot = g_next_alloc_slot.fetch_add(1, std::memory_order_relaxed) %
           kAllocSlots;
    t_alloc_slot = slot;
  }
  g_alloc_slots[slot].count.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

int64_t AllocCount() {
  int64_t total = 0;
  for (const AllocSlot& slot : g_alloc_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t ThreadAllocCount() { return t_alloc_count; }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) {
    return 0;
  }
  std::sort(values->begin(), values->end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values->size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return (*values)[std::min(index, values->size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(&values, 50); }

uint64_t Fnv1a(const std::vector<int64_t>& words) {
  uint64_t h = 1469598103934665603ULL;
  for (int64_t w : words) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<uint64_t>(w >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

void PrintStamp(const Args& args, int threads, const std::string& network) {
  std::printf(
      "stamp {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"threads\": %d, \"network\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      std::thread::hardware_concurrency(), threads, network.c_str());
  std::fflush(stdout);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail(name + " is not a finite number");
    value = 0;
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::printf("FAIL: %s\n", why.c_str());
  std::fflush(stdout);
}

void Report::Note(const std::string& line) const {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);  // every digit
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
