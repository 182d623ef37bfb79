// Order statistics and open-loop schedule accounting for the benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double Median(std::vector<double> v);

/// Linear-interpolated quantile, q in [0, 1]; 0 if empty.
double Quantile(std::vector<double> v, double q);

/// A latency summary under the reporting rule: the percentile `pct` is
/// reported only when at least ten samples lie beyond it; otherwise the
/// median stands in for it and `reported_pct` reads 50.
struct TailSummary {
  double value = 0.0;
  double reported_pct = 50.0;
  size_t samples = 0;
};
TailSummary TailOrMedian(const std::vector<double>& v, double pct);

/// Fixed-rate send schedule of an open-loop generator. Request i is due
/// at start + i / rate; its latency counts from that due time, so a stall
/// of the generator or the server is charged to every request it delays.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate_per_s);

  int64_t DueNs(uint64_t i) const;
  /// Records that request i left at `sent_ns` and returns its lateness
  /// in milliseconds (0 when sent on time or early).
  double RecordSend(uint64_t i, int64_t sent_ns);
  /// Latency of request i observed complete at `observed_ns`, in
  /// milliseconds from its due time.
  double LatencyMs(uint64_t i, int64_t observed_ns) const;
  /// Lateness of every recorded send, in milliseconds.
  const std::vector<double>& lateness_ms() const { return lateness_ms_; }

 private:
  int64_t start_ns_;
  double period_ns_;
  std::vector<double> lateness_ms_;
};

}  // namespace perfbench
