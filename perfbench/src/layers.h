// Single-thread timings of one layer at a time, taken in traced runs by
// wrapping the layer's public entry points.
#pragma once

#include <functional>
#include <vector>

#include "data/dataset.h"
#include "models/model_spec.h"
#include "serve/feature_store.h"
#include "serve/request_batcher.h"
#include "trace.h"

namespace perfbench {

/// The step figures of the access method a workload trains with; the
/// other method's figures stay 0.
struct StepFigures {
  double row_step_ns = 0.0;    ///< one RowStep, serial sweep over all rows
  double col_step_ns = 0.0;    ///< one ColStep, serial sweep over all columns
  double refresh_aux_s = 0.0;  ///< one RefreshAux (a full data pass)
};

/// Row access: serial RowStep sweeps. Column access: serial ColStep
/// sweeps and one RefreshAux each. Against a private model, medians of
/// `repeats`.
StepFigures MeasureSteps(const dw::data::Dataset& d,
                         const dw::models::ModelSpec& spec, double step_size,
                         bool col_wise, int repeats, Tracer* t);

/// ns per row of single-thread PredictBatch over `rows` in batches of
/// `batch` rows; median of several passes.
double MeasureScoreNsPerRow(const dw::models::ModelSpec& spec,
                            const std::vector<double>& w,
                            const std::vector<dw::matrix::SparseVectorView>& rows,
                            size_t batch, Tracer* t);

/// A standalone RequestBatcher with no workers: `prepare(n)` builds the
/// payloads untimed, then `n` submits through `submit(batcher, queue, i)`,
/// then NextBatch until drained (`n` a multiple of the batch size).
/// Medians of `repeats` rounds, ns per submit and ns per drained row.
struct BatcherFigures {
  double submit_ns = 0.0;
  double next_batch_ns_per_row = 0.0;
};
using BatcherSubmit = std::function<dw::StatusOr<std::future<double>>(
    dw::serve::RequestBatcher*, dw::serve::FamilyId, size_t)>;
BatcherFigures MeasureBatcher(const dw::serve::RequestBatcher::Options& opts,
                              const std::function<void(size_t)>& prepare,
                              const BatcherSubmit& submit, size_t n,
                              int repeats, Tracer* t);

/// ns per row of snapshot acquire + key probe + row read on node 0,
/// over `keys`; median of several passes.
double MeasureGatherNsPerRow(const dw::serve::FeatureStore& store,
                             const std::vector<uint64_t>& keys, Tracer* t);

}  // namespace perfbench
