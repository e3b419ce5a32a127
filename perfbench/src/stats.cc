#include "stats.h"

#include <algorithm>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailPercentile(std::vector<double> v, size_t beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) {
    return t;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= beyond) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  t.value = v[n - beyond - 1];
  t.percentile =
      100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  t.ok = true;
  return t;
}

double NsPerUnit(double total_ns, uint64_t units) {
  return units == 0 ? 0.0 : total_ns / static_cast<double>(units);
}

}  // namespace perfbench
