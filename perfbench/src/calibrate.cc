// The host-speed calibration kernel.
//
// The benchmark runs on a few virtual CPUs of a shared host whose speed
// swings by up to about 2x over seconds to minutes as other tenants load
// it. Those swings slow every instruction, so CPU time moves with them as
// much as wall time does. The kernel is a fixed piece of work owned by the
// benchmark, not by the program: the untraced runs time it right before
// and right after every timed operation, and run.py divides each
// operation's time by the kernel times next to it. A program change moves
// the operation but not the kernel; a slow phase of the host moves both.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

// Some of the kinds of work the program does: branchy comparisons (a
// sort) and number formatting and parsing. 128 KB of data, so a pass runs
// from the near caches once they are warm.
double Pass(std::vector<double>* values) {
  uint64_t x = 88172645463325252ULL;
  for (double& v : *values) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<double>(x >> 11) * 0x1.0p-53;
  }
  std::sort(values->begin(), values->end());
  char buf[32];
  double sum = 0.0;
  for (size_t i = 0; i < values->size(); i += 4) {
    std::snprintf(buf, sizeof(buf), "%.4f", (*values)[i]);
    sum += std::strtod(buf, nullptr);
  }
  return sum;
}

}  // namespace

double KernelMs() {
  // Allocated once, so the kernel leaves the heap as it found it.
  static std::vector<double> values(size_t{1} << 14);
  // An untimed pass first: the timed pass then finds its data and code in
  // the near caches whatever the program did before it.
  double sum = Pass(&values);
  const auto start = Clock::now();
  sum += Pass(&values);
  const double ms = MsBetween(start, Clock::now());
  volatile double sink = sum;  // keeps the work from being optimised away
  (void)sink;
  return ms;
}

}  // namespace perfbench
