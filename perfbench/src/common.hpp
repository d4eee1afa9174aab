// Shared pieces of the benchmark program: clocks, order statistics, the
// seeded input generator and the result record every workload fills.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall-clock seconds.
double wall_s();
/// CPU seconds consumed by the calling thread.
double thread_cpu_s();
/// CPU seconds consumed by the whole process (all threads).
double process_cpu_s();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// Moves the calling thread to the next CPU of the process's initial
/// affinity mask, round robin. On a shared VM each virtual CPU is slowed by
/// co-tenants independently; repetitions spread over every CPU let a
/// per-repetition minimum find an undisturbed one.
void rotate_cpu();

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// The benchmark's own input generator (splitmix64): inputs depend on the
/// --seed argument and on nothing inside the program under test.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  /// Exponential variate with the given rate (> 0).
  double exponential(double rate);
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// What one workload run reports. `metrics` maps a metric name to its
/// value and unit; main() prints them as the final JSON line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  ///< first few output-check failures
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts one failed output check; keeps the message for the log.
  void violation(const std::string& what);
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< where a traced run writes its spans; empty = nowhere
};

Result run_fleet_steady(const RunConfig& config);
Result run_fleet_faults(const RunConfig& config);
Result run_gateway_open(const RunConfig& config);
Result run_tensor_exec(const RunConfig& config);

}  // namespace perfbench
