// Turns episodes into the benchmark's metrics.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <string>
#include <vector>

#include "runner.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// End-to-end metrics of untraced façade episodes (trace 0), the ones
/// BENCHMARK.json gates. `setup_s` holds every set-up time the run took,
/// the episodes' and those of extra set-ups; `peak_rss_mib` is read by the
/// caller.
std::vector<Metric> EndToEndMetrics(const std::vector<FacadeEpisode>& eps,
                                    const std::vector<double>& setup_s,
                                    double peak_rss_mib);

/// Per-layer metrics (trace 1): `traced` are replica episodes at the
/// benchmark's worker count, `traced_t1` at one worker, `untraced` façade
/// episodes at the benchmark's worker count. Every layer and counter is
/// listed; a layer the workload does not call reads 0.
std::vector<Metric> LayerMetrics(const std::vector<ReplicaEpisode>& traced,
                                 const std::vector<ReplicaEpisode>& traced_t1,
                                 const std::vector<FacadeEpisode>& untraced);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
