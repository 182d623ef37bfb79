// The benchmark's own spans. A traced run records one span around each
// call it makes into a layer of the program (name, start, end, parent
// span, request id), keeps them in memory, and writes them out when the
// run ends. A layer's self time is its spans' duration minus the part
// covered by their child spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t parent = 0;    ///< kNoParent for roots
  uint64_t request = 0;   ///< 0 when the span belongs to no request
};

struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0.0;  ///< summed durations
  double self_ns = 0.0;   ///< summed durations minus child coverage
};

/// Single-writer span store. Threads other than the one that owns a
/// Tracer keep their own Tracer and Merge() it in after joining.
class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (kNoParent when disabled).
  uint32_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                  uint32_t parent = kNoParent, uint64_t request = 0);

  /// Opens a span whose end is set later with Close().
  uint32_t Open(const char* name, uint32_t parent = kNoParent,
                uint64_t request = 0);
  void Close(uint32_t id);
  /// Sets the end of an open span explicitly.
  void CloseAt(uint32_t id, int64_t end_ns) { spans_[id].end_ns = end_ns; }

  /// Appends `other`'s spans (parents re-based).
  void Merge(const Tracer& other);

  /// Per-name totals with self time.
  std::map<std::string, SpanTotals> Totals() const;

  /// Durations (ns) of every span named `name`.
  std::vector<double> Durations(const char* name) const;

  /// Writes the spans as CSV (id,name,start_ns,end_ns,parent,request).
  bool WriteCsv(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, uint32_t parent = Tracer::kNoParent,
             uint64_t request = 0)
      : t_(t), id_(t->enabled() ? t->Open(name, parent, request)
                                : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (id_ != Tracer::kNoParent) t_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* t_;
  uint32_t id_;
};

}  // namespace perfbench
