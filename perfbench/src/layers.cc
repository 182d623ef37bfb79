#include "layers.h"

#include "matrix/csc_matrix.h"
#include "stats.h"
#include "util/logging.h"

namespace perfbench {

using dw::matrix::Index;
using dw::matrix::SparseVectorView;

StepFigures MeasureSteps(const dw::data::Dataset& d,
                         const dw::models::ModelSpec& spec, double step_size,
                         bool col_wise, int repeats, Tracer* t) {
  dw::matrix::CscMatrix csc;
  if (col_wise) csc = dw::matrix::CscMatrix::FromCsr(d.a);
  dw::models::StepContext ctx;
  ctx.dataset = &d;
  ctx.csc = col_wise ? &csc : nullptr;
  ctx.step_size = step_size;
  const Index dim = spec.ModelDim(d);
  std::vector<double> model(dim, 0.0);
  std::vector<double> aux(spec.AuxDim(d), 0.0);
  std::vector<double> row_ns, col_ns, aux_s;
  for (int rep = 0; rep < repeats; ++rep) {
    if (!col_wise) {
      ScopedSpan span(t, "models.row_sweep");
      const int64_t t0 = NowNs();
      for (Index i = 0; i < d.a.rows(); ++i) {
        spec.RowStep(ctx, i, model.data(), aux.data());
      }
      row_ns.push_back(static_cast<double>(NowNs() - t0) / d.a.rows());
      continue;
    }
    {
      ScopedSpan span(t, "models.refresh_aux");
      const int64_t t0 = NowNs();
      spec.RefreshAux(d, model.data(), aux.data());
      aux_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
    {
      ScopedSpan span(t, "models.col_sweep");
      const int64_t t0 = NowNs();
      for (Index j = 0; j < dim; ++j) {
        spec.ColStep(ctx, j, model.data(), aux.data());
      }
      col_ns.push_back(static_cast<double>(NowNs() - t0) / dim);
    }
  }
  return {Median(row_ns), Median(col_ns), Median(aux_s)};
}

double MeasureScoreNsPerRow(const dw::models::ModelSpec& spec,
                            const std::vector<double>& w,
                            const std::vector<SparseVectorView>& rows,
                            size_t batch, Tracer* t) {
  std::vector<double> out(batch);
  std::vector<double> per_row;
  const Index dim = static_cast<Index>(w.size());
  double sink = 0.0;
  for (int pass = 0; pass < 7; ++pass) {
    ScopedSpan span(t, "kernels.predict_pass");
    size_t scored = 0;
    const int64_t t0 = NowNs();
    for (size_t b = 0; b + batch <= rows.size(); b += batch) {
      spec.PredictBatch(w.data(), dim, rows.data() + b, batch, out.data());
      sink += out[0];
      scored += batch;
    }
    per_row.push_back(static_cast<double>(NowNs() - t0) / scored);
  }
  DW_CHECK(sink == sink) << "non-finite score in the kernel sweep";
  return Median(per_row);
}

BatcherFigures MeasureBatcher(const dw::serve::RequestBatcher::Options& opts,
                              const std::function<void(size_t)>& prepare,
                              const BatcherSubmit& submit, size_t n,
                              int repeats, Tracer* t) {
  std::vector<double> submit_ns, drain_ns;
  for (int rep = 0; rep < repeats; ++rep) {
    prepare(n);
    dw::serve::RequestBatcher b;
    const dw::serve::FamilyId q = b.AddQueue(opts, "bench");
    std::vector<std::future<double>> futures;
    futures.reserve(n);
    {
      ScopedSpan span(t, "batcher.submit_all");
      const int64_t t0 = NowNs();
      for (size_t i = 0; i < n; ++i) {
        auto f = submit(&b, q, i);
        DW_CHECK(f.ok()) << "standalone batcher refused a submit: "
                         << f.status().ToString();
        futures.push_back(std::move(f.value()));
      }
      submit_ns.push_back(static_cast<double>(NowNs() - t0) / n);
    }
    {
      ScopedSpan span(t, "batcher.drain");
      dw::serve::Batch batch;
      size_t drained = 0;
      const int64_t t0 = NowNs();
      while (drained < n && b.NextBatch(&batch)) {
        drained += batch.rows();
      }
      drain_ns.push_back(static_cast<double>(NowNs() - t0) / drained);
    }
    b.Shutdown();
  }
  return {Median(submit_ns), Median(drain_ns)};
}

double MeasureGatherNsPerRow(const dw::serve::FeatureStore& store,
                             const std::vector<uint64_t>& keys, Tracer* t) {
  std::vector<double> per_row;
  double sink = 0.0;
  const Index dim = store.dim();
  for (int pass = 0; pass < 7; ++pass) {
    ScopedSpan span(t, "store.gather_pass");
    const int64_t t0 = NowNs();
    for (uint64_t key : keys) {
      const auto snap = store.Acquire();
      const auto slot = snap->LookupSlot(key);
      DW_CHECK(slot.has_value()) << "key " << key << " missing from the store";
      const double* row = snap->RowForNode(0, *slot);
      for (Index k = 0; k < dim; ++k) sink += row[k];
    }
    per_row.push_back(static_cast<double>(NowNs() - t0) / keys.size());
  }
  DW_CHECK(sink == sink) << "non-finite feature in the gather sweep";
  return Median(per_row);
}

}  // namespace perfbench
