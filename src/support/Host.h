//===-- support/Host.h - Facts about the host process -----------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host facts the runtime sizes itself by. The CPU count is the process's
/// affinity mask (sched_getaffinity), not std::thread::hardware_concurrency:
/// under `taskset -c 0` or a cpuset-restricted container the machine may
/// have many cores while this process may run on one, and spinning or
/// worker sizing keyed on the machine count then oversubscribes it. A
/// cgroup v2 CPU quota (cpu.max) caps the count the same way: a container
/// limited to one CPU's worth of time gains nothing from four workers.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_HOST_H
#define TSR_SUPPORT_HOST_H

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string_view>
#include <thread>

namespace tsr {

/// Parses a cgroup v2 `cpu.max` line, "<quota> <period>" in microseconds,
/// into the CPUs it allows: ceil(quota / period), at least 1. Returns
/// nullopt when there is no limit ("max <period>") or the text is
/// malformed.
inline std::optional<unsigned> parseCpuMax(std::string_view Text) {
  const auto Number = [&Text](uint64_t &Out) {
    size_t I = 0;
    Out = 0;
    while (I != Text.size() && Text[I] >= '0' && Text[I] <= '9') {
      if (Out > (UINT64_MAX - 9) / 10)
        return false;
      Out = Out * 10 + static_cast<uint64_t>(Text[I++] - '0');
    }
    Text.remove_prefix(I);
    return I != 0;
  };
  uint64_t Quota = 0, Period = 0;
  // "max <period>" fails the first parse: no limit.
  if (!Number(Quota) || !Text.starts_with(' '))
    return std::nullopt;
  Text.remove_prefix(1);
  if (!Number(Period) || Period == 0 || !(Text.empty() || Text == "\n"))
    return std::nullopt;
  const uint64_t Cpus =
      std::max<uint64_t>(1, Quota / Period + (Quota % Period != 0));
  return static_cast<unsigned>(std::min<uint64_t>(Cpus, UINT32_MAX));
}

/// CPUs this process may use, read once per process (at the first call):
/// the affinity mask's count, capped by the cgroup v2 quota in
/// /sys/fs/cgroup/cpu.max when one is set. Falls back to
/// hardware_concurrency when the mask is unavailable. Never zero.
inline unsigned usableCpus() {
  static const unsigned Count = [] {
    unsigned N = 0;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
      N = static_cast<unsigned>(CPU_COUNT(&Set));
    else
      N = std::max(1u, std::thread::hardware_concurrency());
    if (std::FILE *F = std::fopen("/sys/fs/cgroup/cpu.max", "r")) {
      char Buf[64];
      const size_t Len = std::fread(Buf, 1, sizeof(Buf), F);
      std::fclose(F);
      if (const auto Limit = parseCpuMax(std::string_view(Buf, Len)))
        N = std::min(N, *Limit);
    }
    return N;
  }();
  return Count;
}

} // namespace tsr

#endif // TSR_SUPPORT_HOST_H
