// sgd_sparse_carried: logistic regression trained by row-wise SGD on an
// RCV1-shaped sparse corpus (PerNode replicas, sharded rows, async
// averaging), then served from carried sparse rows the trainer never saw.
#include <cmath>
#include <random>
#include <string>

#include "common.h"
#include "data/synthetic.h"
#include "host.h"
#include "layers.h"
#include "models/glm.h"
#include "reference.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using dw::matrix::Index;
using dw::matrix::SparseVectorView;

constexpr Index kTrainRows = 100000;
constexpr Index kHeldOutRows = 4096;
constexpr Index kCols = 9400;
constexpr double kNnzPerRow = 77.0;
constexpr double kLabelNoise = 0.05;
/// Features carrying the planted model. Many of them, so that how hard the
/// task is varies little from seed to seed (470, RCV1's d/20, moves the
/// ten-epoch loss by ~20% between seeds; 4000 by ~5%).
constexpr int kPlanted = 4000;
/// Held-out accuracy floor: midway between chance (0.5) and the ceiling
/// the planted 5% label noise sets (0.95). Ten epochs reach ~0.84.
constexpr double kHeldOutFloor = 0.5 + (0.95 - 0.5) / 2;
constexpr int kEpochs = 10;
constexpr size_t kItemTable = 1 << 16;

class SparsePipeline : public Pipeline {
 public:
  void MakeInputs(uint64_t seed) override {
    // Training and held-out rows are two corpora drawn from the same
    // distribution and labelled by the same planted model (it depends on
    // the seed and the width only), so the larger one exists once.
    dw::data::SparseCorpusParams params;
    params.rows = kTrainRows;
    params.cols = kCols;
    params.avg_nnz_per_row = kNnzPerRow;
    params.zipf_s = 1.05;
    params.seed = seed;
    train_.name = "rcv1-shaped";
    train_.sparse = true;
    train_.a = dw::data::MakeSparseCorpus(params);
    train_.b = dw::data::PlantClassificationLabels(train_.a, kPlanted,
                                                   kLabelNoise, seed + 1);
    params.rows = kHeldOutRows;
    params.seed = seed ^ 0x4e1d0c7ULL;
    held_.a = dw::data::MakeSparseCorpus(params);
    held_.b = dw::data::PlantClassificationLabels(held_.a, kPlanted,
                                                  kLabelNoise, seed + 1);
    seed_ = seed;
    uint64_t st = seed ^ 0x5ca77e5ULL;
    items_.resize(kItemTable);
    for (auto& it : items_) it = static_cast<uint32_t>(SplitMix(&st) % kHeldOutRows);
  }

  std::string DescribeInputs() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "train %u x %u sparse, %lld nnz (Zipf 1.05 features, %d "
                  "planted, %.0f%% label noise); held-out %u rows served "
                  "carried",
                  train_.a.rows(), train_.a.cols(),
                  static_cast<long long>(train_.a.nnz()), kPlanted,
                  kLabelNoise * 100, held_.a.rows());
    return buf;
  }

  const dw::data::Dataset& train() const override { return train_; }
  const dw::models::ModelSpec& spec() const override { return spec_; }

  dw::engine::EngineOptions TrainOptions(int workers_per_node) const override {
    dw::engine::EngineOptions o;
    o.topology = dw::numa::Local2();
    o.workers_per_node = workers_per_node;
    o.access = dw::engine::AccessMethod::kRowWise;
    o.model_rep = dw::engine::ModelReplication::kPerNode;
    o.data_rep = dw::engine::DataReplication::kSharding;
    o.seed = seed_;
    return o;
  }
  int epoch_budget() const override { return kEpochs; }

  double Objective(const double* w) const override {
    return LogisticObjective(train_.a, train_.b, w);
  }

  void CheckModel(const std::vector<double>& w, double objective,
                  Result* r) const override {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "objective %.6f < ln 2 = %.6f", objective,
                  std::log(2.0));
    r->Check(objective < std::log(2.0), "train: below the zero-model loss", buf);
    const double acc = SignAccuracy(held_.a, held_.b, w.data());
    std::snprintf(buf, sizeof(buf), "held-out accuracy %.4f >= %.3f", acc,
                  kHeldOutFloor);
    r->Check(acc >= kHeldOutFloor, "train: held-out accuracy floor", buf);
  }

  const char* family() const override { return "lr-carried"; }

  void PrepareServing(const std::vector<double>& trained) override {
    w_base_ = trained;
    double rms = 0.0;
    for (double v : w_base_) rms += v * v;
    rms = std::sqrt(rms / w_base_.size());
    std::mt19937_64 rng(seed_ ^ 0x3e1ULL);
    std::normal_distribution<double> normal(0.0, 0.5 * rms + 1e-3);
    w_delta_.resize(w_base_.size());
    for (double& v : w_delta_) v = normal(rng);
    const size_t n = held_.a.rows();
    d0_.resize(n);
    d1_.resize(n);
    bound_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const SparseVectorView row = held_.a.Row(static_cast<Index>(i));
      d0_[i] = Dot(row, w_base_.data());
      d1_[i] = Dot(row, w_delta_.data());
      bound_[i] = AbsDot(row, w_base_.data()) + AbsDot(row, w_delta_.data());
    }
    publish_buf_.resize(w_base_.size());
  }

  dw::Status SetUp(dw::serve::ServingEngine* s) override {
    dw::serve::ServingFamilyOptions f;
    f.traffic.dim = kCols;
    f.traffic.expected_batch_rows = 64.0;
    f.traffic.reads_per_publish = open_rate_per_s() * refresh_period_s();
    f.replication_override = dw::serve::Replication::kPerNode;
    dw::Status st = s->RegisterFamily(family(), &spec_, f);
    if (!st.ok()) return st;
    s->Publish(family(), w_base_);
    return dw::Status::OK();
  }

  size_t closed_window() const override { return 8192; }
  double open_rate_per_s() const override { return 20000.0; }
  double refresh_period_s() const override { return 0.05; }

  uint32_t Item(uint64_t seq) const override {
    return items_[seq % kItemTable];
  }

  void Prepare(uint32_t item) override {
    const SparseVectorView row = held_.a.Row(item);
    idx_.assign(row.indices, row.indices + row.nnz);
    vals_.assign(row.values, row.values + row.nnz);
  }

  dw::StatusOr<std::future<double>> Submit(dw::serve::ServingEngine* s,
                                           uint32_t) override {
    return s->Score(family(), std::move(idx_), std::move(vals_));
  }

  bool Matches(uint32_t item, double score, uint64_t j_lo,
               uint64_t j_hi) const override {
    const double tol = 1e-9 * (1.0 + bound_[item]);
    for (uint64_t v = j_lo; v <= j_hi; ++v) {
      const double margin = d0_[item] + Version(v) * d1_[item];
      if (std::fabs(score - Logistic(margin)) <= tol) return true;
    }
    return false;
  }

  RefreshTiming Refresh(dw::serve::ServingEngine* s, uint64_t r,
                        Tracer* t) override {
    const double tv = Version(r + 1);
    for (size_t k = 0; k < w_base_.size(); ++k) {
      publish_buf_[k] = w_base_[k] + tv * w_delta_[k];
    }
    RefreshTiming rt;
    ScopedSpan refresh(t, "writer.refresh");
    ScopedSpan publish(t, "registry.publish", refresh.id());
    const int64_t t0 = NowNs();
    const int64_t c0 = ThreadCpuNs();
    s->Publish(family(), publish_buf_);
    rt.model_cpu_ms = rt.cpu_ms = (ThreadCpuNs() - c0) * 1e-6;
    rt.wall_ms = (NowNs() - t0) * 1e-6;
    return rt;
  }

  LayerFigures MeasureLayers(const dw::serve::ServingEngine& s,
                             Tracer* t) override {
    LayerFigures f;
    std::vector<SparseVectorView> rows;
    for (Index i = 0; i < held_.a.rows(); ++i) rows.push_back(held_.a.Row(i));
    f.kernel_ns_per_row = MeasureScoreNsPerRow(spec_, w_base_, rows, 64, t);

    std::vector<std::vector<Index>> idx;
    std::vector<std::vector<double>> vals;
    const auto bf = MeasureBatcher(
        s.options().batch,
        [&](size_t n) {
          idx.resize(n);
          vals.resize(n);
          for (size_t i = 0; i < n; ++i) {
            const SparseVectorView row = held_.a.Row(Item(i));
            idx[i].assign(row.indices, row.indices + row.nnz);
            vals[i].assign(row.values, row.values + row.nnz);
          }
        },
        [&](dw::serve::RequestBatcher* b, dw::serve::FamilyId q, size_t i) {
          return b->Submit(q, std::move(idx[i]), std::move(vals[i]));
        },
        64 * 256, 5, t);
    f.batcher_submit_ns = bf.submit_ns;
    f.batcher_next_batch_ns_per_row = bf.next_batch_ns_per_row;

    // The served path carries its rows: no store, no store figures.
    return f;
  }

 private:
  static double Version(uint64_t v) { return Wobble(v, std::sqrt(2.0)); }

  dw::data::Dataset train_;
  dw::data::Dataset held_;
  dw::models::LogisticSpec spec_;
  uint64_t seed_ = 1;
  std::vector<uint32_t> items_;
  std::vector<double> w_base_, w_delta_, d0_, d1_, bound_, publish_buf_;
  std::vector<Index> idx_;
  std::vector<double> vals_;
};

}  // namespace

Pipeline* NewSparsePipeline() { return new SparsePipeline(); }

}  // namespace perfbench
