#include "host.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <thread>

namespace perfbench {

uint32_t HardwareThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

uint32_t DefaultWorkers() { return std::min(4u, HardwareThreads()); }

HostKey CurrentHost(uint32_t worker_threads) {
  HostKey k;
  k.worker_threads = worker_threads;
  k.hardware_threads = HardwareThreads();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      const size_t begin = colon == std::string::npos
                               ? std::string::npos
                               : line.find_first_not_of(' ', colon + 1);
      if (begin != std::string::npos) {
        k.cpu_model = line.substr(begin);
      }
      break;
    }
  }
  if (k.cpu_model.empty()) {
    k.cpu_model = "unknown";
  }
#if defined(__clang__)
  k.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  k.compiler = "gcc " __VERSION__;
#else
  k.compiler = "unknown";
#endif
  k.build_type = PERFBENCH_BUILD_TYPE;
  return k;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
