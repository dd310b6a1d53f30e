// Shared pieces of the perfbench runner: run arguments, the result record
// printed as the run's last stdout line, timers and sample statistics.
#ifndef ERRORFLOW_PERFBENCH_COMMON_H_
#define ERRORFLOW_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "tasks/tasks.h"
#include "tensor/tensor.h"

namespace perfbench {

using errorflow::tensor::Tensor;
using SteadyClock = std::chrono::steady_clock;

inline double SecondsBetween(SteadyClock::time_point a,
                             SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command line of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Model cache the runner trains into (prepare) and loads from (runs).
  std::string model_dir;
  /// Taken at the top of main(): set-up time is measured from here.
  SteadyClock::time_point process_start;
};

/// Outcome of one run: correctness, operation counts and metrics, printed
/// as one JSON object.
class Report {
 public:
  /// Records a failed correctness check; the run is then reported
  /// incorrect. Only the first few messages reach stderr.
  void Fail(const std::string& what);
  /// Adds a named metric; names are printed in insertion order.
  void Metric(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

  bool correct() const { return failures_ == 0; }
  int64_t attempted = 0;
  int64_t failed = 0;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  int64_t failures_ = 0;
};

/// Linear-interpolated percentile `p` in [0, 100] of raw samples (sorts a
/// copy). 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);
double Mean(const std::vector<double>& samples);

/// Throughput over consecutive windows of `window_s` seconds of a phase's
/// clock. The median window is robust to bursts of interference from other
/// tenants of the host, which a whole-phase average is not.
class WindowedRate {
 public:
  explicit WindowedRate(double window_s = 1.0) : window_s_(window_s) {}
  /// Records `amount` of work completed at `elapsed_s` (non-decreasing)
  /// seconds into the phase.
  void Add(double elapsed_s, double amount);
  /// Median over the complete windows; the whole-phase rate when there are
  /// fewer than three.
  double Median() const;
  double Overall() const;

 private:
  double window_s_;
  double window_amount_ = 0.0;
  double window_start_ = 0.0;
  double total_ = 0.0;
  double last_s_ = 0.0;
  std::vector<double> rates_;
};

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

/// A seeded generator for everything a workload draws: the same seed gives
/// the same inputs, mix and arrival schedule.
using Rng = std::mt19937_64;
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Loads a trained task from the benchmark's own model cache (training it
/// there on a miss, which only the prepare step should ever hit).
errorflow::tasks::TrainedTask LoadTask(errorflow::tasks::TaskKind kind,
                                       const std::string& model_dir);

/// Stacks rows [first, first + count) of `rows` into a new tensor with the
/// same trailing dimensions.
Tensor SliceRows(const Tensor& rows, int64_t first, int64_t count);
/// Concatenates tensors along the leading dimension.
Tensor ConcatRows(const std::vector<const Tensor*>& parts);

/// Mean wall microseconds per call of `fn(i)`, called until `budget_s`
/// seconds have passed and at least `min_reps` times.
template <typename Fn>
double BudgetedMicros(double budget_s, int min_reps, Fn&& fn) {
  const SteadyClock::time_point t0 = SteadyClock::now();
  int reps = 0;
  double elapsed = 0.0;
  while (reps < min_reps || elapsed < budget_s) {
    fn(reps);
    reps += 1;
    elapsed = SecondsBetween(t0, SteadyClock::now());
  }
  return elapsed * 1e6 / reps;
}

}  // namespace perfbench

#endif  // ERRORFLOW_PERFBENCH_COMMON_H_
