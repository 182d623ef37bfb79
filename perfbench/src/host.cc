#include "host.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "kernels/dispatch.h"

namespace perfbench {

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

bool PinThisThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

int RealNumaNodes() {
  DIR* dir = opendir("/sys/devices/system/node");
  if (dir == nullptr) return 1;
  int nodes = 0;
  while (const dirent* e = readdir(dir)) {
    if (std::strncmp(e->d_name, "node", 4) == 0 &&
        std::isdigit(static_cast<unsigned char>(e->d_name[4]))) {
      ++nodes;
    }
  }
  closedir(dir);
  return nodes > 0 ? nodes : 1;
}

std::string KernelIsaLevel() {
  return dw::kernels::ToString(dw::kernels::ActiveKernelLevel());
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return t;
  for (unsigned long long x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ThreadCpuNs(pthread_t t) {
  clockid_t clock;
  timespec ts{};
  if (pthread_getcpuclockid(t, &clock) != 0 || clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
