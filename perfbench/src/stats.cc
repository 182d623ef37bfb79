#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

TailSummary TailOrMedian(const std::vector<double>& v, double pct) {
  TailSummary s;
  s.samples = v.size();
  const double beyond = static_cast<double>(v.size()) * (1.0 - pct / 100.0);
  if (beyond >= 10.0) {
    s.value = Quantile(v, pct / 100.0);
    s.reported_pct = pct;
  } else {
    s.value = Median(v);
    s.reported_pct = 50.0;
  }
  return s;
}

OpenLoopSchedule::OpenLoopSchedule(int64_t start_ns, double rate_per_s)
    : start_ns_(start_ns), period_ns_(1e9 / rate_per_s) {}

int64_t OpenLoopSchedule::DueNs(uint64_t i) const {
  return start_ns_ + static_cast<int64_t>(std::llround(period_ns_ * static_cast<double>(i)));
}

double OpenLoopSchedule::RecordSend(uint64_t i, int64_t sent_ns) {
  const double late = std::max<int64_t>(0, sent_ns - DueNs(i)) * 1e-6;
  lateness_ms_.push_back(late);
  return late;
}

double OpenLoopSchedule::LatencyMs(uint64_t i, int64_t observed_ns) const {
  return static_cast<double>(observed_ns - DueNs(i)) * 1e-6;
}

}  // namespace perfbench
