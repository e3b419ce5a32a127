// Summary statistics the benchmark reports.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double Median(std::vector<double> v);

/// The highest percentile of `v` that has at least `beyond` samples above
/// it: the sample at sorted index n - beyond - 1, whose percentile is
/// 100 * (n - beyond) / n. `ok` is false when n <= beyond (no such
/// percentile; value and percentile are then the maximum and 100).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
  bool ok = false;
};
Tail TailPercentile(std::vector<double> v, size_t beyond = 10);

/// Wall nanoseconds per unit of work; 0 when no work was done.
double NsPerUnit(double total_ns, uint64_t units);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
