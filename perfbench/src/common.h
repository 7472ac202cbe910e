// Shared plumbing for the benchmark binary: the command line, the result
// report (the last stdout line is one JSON object), allocation counting,
// and small statistics helpers.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Directory, relative to the working directory, for span dumps.
inline constexpr char kOutDir[] = ".bench_out";

// One run's result: metrics by name with their units, plus the count of
// operations attempted and failed. Metric order is insertion order.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Marks the run incorrect and prints why.
  void Fail(const std::string& why);
  // Human-readable context line (printed immediately, not in the JSON).
  void Note(const std::string& line) const;

  bool correct() const { return correct_; }
  int64_t attempted = 0;
  int64_t failed = 0;

  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// Prints the run's stamp line ("stamp {json}"): workload, seed, nproc,
// the threads the workload runs on, and its network. run.py adds whether
// the run was smoke or full.
void PrintStamp(const Args& args, int threads, const std::string& network);

// Global operator new calls made so far by every thread of the process.
int64_t AllocCount();

// Global operator new calls made so far by the calling thread.
int64_t ThreadAllocCount();

// Raw CLOCK_MONOTONIC nanoseconds (the same clock as snap::MonotonicTimeNs).
int64_t NowNs();

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Nearest-rank percentile (p in [0, 100]); sorts `values`. 0 when empty.
double Percentile(std::vector<double>* values, double p);
double Median(std::vector<double> values);

// FNV-1a over a sequence of 64-bit words.
uint64_t Fnv1a(const std::vector<int64_t>& words);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
