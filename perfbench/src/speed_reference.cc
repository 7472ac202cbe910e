#include "src/speed_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common.h"

namespace perfbench {
namespace {

// Each kernel's best time on a quiet 4-vCPU Sapphire Rapids KVM guest
// (the machine the benchmark's bounds were set on), in ns.
constexpr SpeedSample kNominalNs = {5.4e6, 5.2e6, 10.5e6, 28.5e6};

constexpr int kAluSteps = 2'000'000;
constexpr int kChaseSteps = 1'000'000;
constexpr int kFarChaseSteps = 200'000;

// One random cycle through all `words` entries (Sattolo's shuffle), so a
// chase never settles into a short loop that stays in a nearer cache.
std::vector<uint32_t> ChaseTable(size_t words) {
  std::vector<uint32_t> next(words);
  for (size_t i = 0; i < words; ++i) {
    next[i] = static_cast<uint32_t>(i);
  }
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (size_t i = words - 1; i > 0; --i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(next[i], next[(x >> 33) % i]);
  }
  return next;
}

double ChaseNs(const std::vector<uint32_t>& next, int steps) {
  const int64_t t0 = NowNs();
  uint32_t j = 0;
  for (int i = 0; i < steps; ++i) {
    j = next[j];
  }
  volatile uint32_t sink = j;
  (void)sink;
  return static_cast<double>(NowNs() - t0);
}

double AluNs() {
  const int64_t t0 = NowNs();
  uint64_t x = 88172645463325252ULL;
  uint64_t acc = 0;
  for (int i = 0; i < kAluSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x % 1000003;
  }
  volatile uint64_t sink = acc;
  (void)sink;
  return static_cast<double>(NowNs() - t0);
}

}  // namespace

SpeedReference::SpeedReference()
    : l2_(ChaseTable(64 << 10)),
      mid_(ChaseTable(512 << 10)),
      far_(ChaseTable(8 << 20)) {}

void SpeedReference::Sample(SpeedSample* best) const {
  const SpeedSample now = {AluNs(), ChaseNs(l2_, kChaseSteps),
                           ChaseNs(mid_, kChaseSteps),
                           ChaseNs(far_, kFarChaseSteps)};
  for (int k = 0; k < kSpeedKernels; ++k) {
    (*best)[k] = std::min((*best)[k], now[k]);
  }
}

double SpeedReference::Index(const SpeedSample& best) {
  double log_sum = 0;
  for (int k = 0; k < kSpeedKernels; ++k) {
    log_sum += std::log(kNominalNs[k] / best[k]);
  }
  return std::exp(log_sum / kSpeedKernels);
}

SpeedSample SpeedReference::Unsampled() {
  SpeedSample best;
  best.fill(std::numeric_limits<double>::infinity());
  return best;
}

}  // namespace perfbench
