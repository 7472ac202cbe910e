#include "src/snap/compacting_policy.h"

#include <algorithm>

#include "src/util/logging.h"

namespace snap {

std::optional<CompactingPolicy::Move> CompactingPolicy::Decide(
    const std::vector<int64_t>& delays,
    const std::vector<std::vector<int>>& workers) {
  // The worst unit: strictly greatest delay, lowest index on a tie.
  int worst = -1;
  int64_t worst_delay = 0;
  int64_t total_delay = 0;
  for (int u = 0; u < static_cast<int>(delays.size()); ++u) {
    total_delay += delays[u];
    if (delays[u] > worst_delay) {
      worst_delay = delays[u];
      worst = u;
    }
  }
  const int num_workers = static_cast<int>(workers.size());
  if (worst >= 0 && worst_delay > slo_ns_) {
    calm_rounds_ = 0;
    int from = -1;
    for (int w = 0; w < num_workers && from < 0; ++w) {
      if (std::find(workers[w].begin(), workers[w].end(), worst) !=
          workers[w].end()) {
        from = w;
      }
    }
    SNAP_CHECK_GE(from, 0) << "unit " << worst << " is on no worker";
    if (workers[from].size() < 2) {
      return std::nullopt;  // alone on its worker: nothing to shed
    }
    int to = -1;
    for (int w = 0; w < num_workers; ++w) {
      if (w != from && (to < 0 || workers[w].size() < workers[to].size())) {
        to = w;
      }
    }
    if (to < 0 || workers[to].size() >= workers[from].size()) {
      return std::nullopt;
    }
    return Move{Move::kScaleOut, worst, from, to, worst_delay};
  }
  if (total_delay >= slo_ns_ / 4) {
    calm_rounds_ = 0;
    return std::nullopt;
  }
  if (++calm_rounds_ < kCalmRounds) {
    return std::nullopt;
  }
  calm_rounds_ = 0;
  for (int w = num_workers - 1; w >= 1; --w) {
    if (!workers[w].empty()) {
      return Move{Move::kCompact, workers[w].back(), w, 0, total_delay};
    }
  }
  return std::nullopt;
}

}  // namespace snap
