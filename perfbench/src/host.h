// What a benchmark record is keyed by, and the process's memory high-water
// mark. Records taken under different keys are not comparable (run.py's
// compare refuses them).
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct HostKey {
  uint32_t worker_threads = 0;
  uint32_t hardware_threads = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
};

/// Hardware threads available to this process (its CPU affinity mask).
uint32_t HardwareThreads();
/// min(4, HardwareThreads()): the benchmark's worker-thread count.
uint32_t DefaultWorkers();
HostKey CurrentHost(uint32_t worker_threads);
/// ru_maxrss of this process, in MiB.
double PeakRssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
