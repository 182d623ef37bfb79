// What the run's header reports about the machine it ran on.
#pragma once

#include <pthread.h>

#include <cstdint>
#include <string>

namespace perfbench {

/// CPUs this process may run on (what `nproc` prints).
int UsableCpus();
/// Pins the calling thread to `cpu`; false when the kernel refuses.
bool PinThisThread(int cpu);
/// NUMA nodes the host kernel exposes (1 when /sys shows none).
int RealNumaNodes();
/// The scoring-kernel ISA level the library dispatches to.
std::string KernelIsaLevel();
/// Cumulative CPU time of the machine and the part of it the hypervisor
/// gave to other guests while this one wanted to run (the "steal" column
/// of /proc/stat), in clock ticks.
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
CpuTicks ReadCpuTicks();
/// Steal share of the CPU time between two readings; 0 when unknown.
double StealShare(const CpuTicks& before, const CpuTicks& after);

/// CPU time all threads of this process have run, in ns. Time the
/// hypervisor stole is not counted.
int64_t ProcessCpuNs();
/// CPU time the calling thread has run, in ns (stolen time excluded).
int64_t ThreadCpuNs();
/// CPU time thread `t` of this process has run, in ns (stolen time
/// excluded); 0 when the kernel gives no clock for it.
int64_t ThreadCpuNs(pthread_t t);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench
