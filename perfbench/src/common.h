// Shared types of the benchmark: run arguments, the result every run
// prints, and the interface each workload's pipeline implements.
#pragma once

#include <cstdint>
#include <cstdio>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "engine/options.h"
#include "models/model_spec.h"
#include "serve/serving_engine.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_dir = ".bench_out";
};

/// What one run reports: metrics by name with unit, operation counts,
/// and the outcome of every correctness check.
class Result {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, {value, unit}});
  }
  /// Records one outcome of the check named `name`; a failed one makes
  /// the run incorrect. `detail` is printed for the first outcome and
  /// for every failure; PrintChecks() prints the tallies.
  void Check(bool ok, const std::string& name, const std::string& detail);
  void PrintChecks() const;
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }
  bool correct() const { return correct_; }
  /// The run's last line: {"correct","attempted","failed","metrics"}.
  std::string Json() const;

 private:
  struct Tally {
    uint64_t passed = 0;
    uint64_t failed = 0;
  };
  bool correct_ = true;
  std::vector<std::pair<std::string, Tally>> checks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Writer-side cost of one refresh. The CPU times are the writer
/// thread's own (CLOCK_THREAD_CPUTIME_ID): time the hypervisor stole or
/// the thread spent descheduled does not count.
struct RefreshTiming {
  double store_cpu_ms = 0.0;  ///< PublishStoreDelta (0 without a store)
  double model_cpu_ms = 0.0;  ///< model Publish
  double cpu_ms = 0.0;        ///< the whole refresh
  double wall_ms = 0.0;       ///< the whole refresh on the wall clock
  double delta_bytes = 0.0;   ///< bytes the delta publish wrote (0 without a store)
};

/// Single-thread layer figures a pipeline measures in a traced run. The
/// store figure is 0 on a workload without a store.
struct LayerFigures {
  double kernel_ns_per_row = 0.0;
  double batcher_submit_ns = 0.0;
  double batcher_next_batch_ns_per_row = 0.0;
  double store_gather_ns_per_row = 0.0;
};

/// One workload: a training job whose model is then served.
///
/// Refresh bookkeeping: refresh r (0-based) publishes model version r + 1
/// (and, with a store, store delta r). A request that was submitted when
/// `j_lo` refreshes had completed and observed when `j_hi` had begun can
/// have been served by any state after j refreshes, j in [j_lo, j_hi].
class Pipeline {
 public:
  virtual ~Pipeline() = default;

  // --- inputs --------------------------------------------------------------
  virtual void MakeInputs(uint64_t seed) = 0;
  /// One line describing the make-up and size of the inputs.
  virtual std::string DescribeInputs() const = 0;

  // --- training ------------------------------------------------------------
  virtual const dw::data::Dataset& train() const = 0;
  virtual const dw::models::ModelSpec& spec() const = 0;
  virtual dw::engine::EngineOptions TrainOptions(int workers_per_node) const = 0;
  virtual int epoch_budget() const = 0;
  /// The training objective of `w`, computed by the benchmark itself.
  virtual double Objective(const double* w) const = 0;
  /// Checks a trained model against properties the method must have.
  virtual void CheckModel(const std::vector<double>& w, double objective,
                          Result* r) const = 0;

  // --- serving -------------------------------------------------------------
  virtual const char* family() const = 0;
  /// Derives every served model version and feature row from `trained`.
  virtual void PrepareServing(const std::vector<double>& trained) = 0;
  /// Registers the family (and store) and publishes the first versions.
  virtual dw::Status SetUp(dw::serve::ServingEngine* s) = 0;
  virtual size_t closed_window() const = 0;
  virtual double open_rate_per_s() const = 0;
  virtual double refresh_period_s() const = 0;
  /// The pool item the generator's seq-th request asks for.
  virtual uint32_t Item(uint64_t seq) const = 0;
  /// Builds the request payload (untimed); Submit() sends it.
  virtual void Prepare(uint32_t item) = 0;
  virtual dw::StatusOr<std::future<double>> Submit(
      dw::serve::ServingEngine* s, uint32_t item) = 0;
  /// True when `score` is the benchmark's own score of `item` under some
  /// state live during the request.
  virtual bool Matches(uint32_t item, double score, uint64_t j_lo,
                       uint64_t j_hi) const = 0;
  /// Applies refresh `r` from the writer thread.
  virtual RefreshTiming Refresh(dw::serve::ServingEngine* s, uint64_t r,
                                Tracer* t) = 0;

  // --- layers (traced runs) ------------------------------------------------
  /// Kernel, batcher and store figures; `s` is stopped but alive.
  virtual LayerFigures MeasureLayers(const dw::serve::ServingEngine& s,
                                     Tracer* t) = 0;
};

Pipeline* NewSparsePipeline();
/// `per_machine` trains with one shared replica instead of PerNode: the
/// repro of the lost-update residual fault (not a benchmark workload).
Pipeline* NewDensePipeline(bool per_machine);

/// Centred fractional part of v * `irrational`: the scalar sequence the
/// refresh generations and model versions are built from (0 at 0).
inline double Wobble(uint64_t v, double irrational) {
  if (v == 0) return 0.0;
  const double x = static_cast<double>(v) * irrational;
  return (x - static_cast<double>(static_cast<uint64_t>(x))) - 0.5;
}

/// splitmix64: the benchmark's own seeded stream.
inline uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
