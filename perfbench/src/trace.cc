#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

uint32_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                        uint32_t parent, uint64_t request) {
  if (!enabled_) return kNoParent;
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<uint32_t>(spans_.size() - 1);
}

uint32_t Tracer::Open(const char* name, uint32_t parent, uint64_t request) {
  const int64_t now = NowNs();
  return Record(name, now, now, parent, request);
}

void Tracer::Close(uint32_t id) { spans_[id].end_ns = NowNs(); }

void Tracer::Merge(const Tracer& other) {
  const uint32_t base = static_cast<uint32_t>(spans_.size());
  for (SpanRecord s : other.spans_) {
    if (s.parent != kNoParent) s.parent += base;
    spans_.push_back(s);
  }
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  // Child intervals per parent, clipped to the parent, merged, subtracted.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent != kNoParent) kids[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - static_cast<double>(covered);
  }
  return out;
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::vector<double> d;
  for (const SpanRecord& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      d.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return d;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,name,start_ns,end_ns,parent,request\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f, "%zu,%s,%lld,%lld,%lld,%llu\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
