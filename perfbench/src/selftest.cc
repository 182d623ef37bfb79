// Tests of the benchmark's own reference code: the least-squares solver
// on a known system, the percentile reporting rule, the open-loop
// lateness accounting and span self time. Exits nonzero on a failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "reference.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void TestCholeskyKnownSystem() {
  // A = [[4,2,0],[2,5,3],[0,3,6]], x = (1,-2,3)  =>  b = A x = (0,1,12).
  std::vector<double> a = {4, 2, 0, 2, 5, 3, 0, 3, 6};
  std::vector<double> b = {0, 1, 12};
  Expect(perfbench::CholeskySolve(&a, 3, &b), "cholesky: SPD system factors");
  Expect(Near(b[0], 1, 1e-12) && Near(b[1], -2, 1e-12) && Near(b[2], 3, 1e-12),
         "cholesky: solves a known 3x3 system");
  std::vector<double> indef = {1, 2, 2, 1};
  std::vector<double> rhs = {1, 1};
  Expect(!perfbench::CholeskySolve(&indef, 2, &rhs),
         "cholesky: refuses an indefinite matrix");
}

void TestLeastSquaresRecoversPlant() {
  // Exact targets b = A w: the solver returns w and a zero objective.
  const int rows = 50, cols = 4;
  std::vector<dw::matrix::Triplet> t;
  std::vector<double> w = {0.5, -1.0, 2.0, 0.25};
  std::vector<double> b(rows, 0.0);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      const double v = std::sin(1.0 + i * 0.7 + j * 1.3) + (i == j ? 2.0 : 0.0);
      t.push_back({static_cast<dw::matrix::Index>(i),
                   static_cast<dw::matrix::Index>(j), v});
      b[i] += v * w[j];
    }
  }
  auto a = dw::matrix::CsrMatrix::FromTriplets(rows, cols, t);
  const auto x = perfbench::SolveLeastSquares(a.value(), b);
  bool same = x.size() == w.size();
  for (size_t j = 0; same && j < w.size(); ++j) same = Near(x[j], w[j], 1e-9);
  Expect(same, "least squares: recovers the planted weights");
  Expect(perfbench::LeastSquaresObjective(a.value(), b, x.data()) < 1e-18,
         "least squares: zero objective at the solution");
  const std::vector<double> zero(cols, 0.0);
  std::vector<double> labels(rows, 1.0);
  Expect(Near(perfbench::LogisticObjective(a.value(), labels, zero.data()),
              std::log(2.0), 1e-15),
         "logistic objective: ln 2 at the zero model");
}

void TestPercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  // 999 samples: 9.99 lie beyond p99, so the median stands in for it.
  perfbench::TailSummary s = perfbench::TailOrMedian(v, 99.0);
  Expect(s.reported_pct == 50.0 && s.value == 500.0,
         "percentile rule: fewer than ten beyond p99 reports the median");
  v.push_back(1000);
  s = perfbench::TailOrMedian(v, 99.0);
  Expect(s.reported_pct == 99.0 && Near(s.value, 990.01, 1e-9),
         "percentile rule: ten beyond p99 reports p99");
  Expect(perfbench::Median({3, 1, 2, 10}) == 2.5, "median of an even count");
}

void TestOpenLoopLateness() {
  // 1000 req/s from t = 0: due at 0, 1, 2, 3 ms. The generator stalls
  // and sends #1 at 2.5 ms and #2 at 2.6 ms.
  perfbench::OpenLoopSchedule s(0, 1000.0);
  Expect(s.DueNs(3) == 3000000, "schedule: due times follow the rate");
  Expect(s.RecordSend(0, 0) == 0.0, "lateness: on-time send is 0");
  Expect(Near(s.RecordSend(1, 2500000), 1.5, 1e-12),
         "lateness: a stalled send is late by the stall");
  Expect(Near(s.RecordSend(2, 2600000), 0.6, 1e-12),
         "lateness: the stall carries into the next send");
  Expect(s.RecordSend(3, 2900000) == 0.0, "lateness: an early send is 0");
  // Latency counts from the due time, not the send time.
  Expect(Near(s.LatencyMs(1, 2700000), 1.7, 1e-12),
         "latency: measured from the scheduled send time");
  Expect(s.lateness_ms().size() == 4, "lateness: one sample per send");
}

void TestSpanSelfTime() {
  perfbench::Tracer t(true);
  const uint32_t root = t.Record("root", 0, 100);
  t.Record("child", 10, 40, root);
  t.Record("child", 30, 60, root);  // overlaps the first child
  t.Record("child", 90, 130, root); // runs past the parent's end
  const auto totals = t.Totals();
  Expect(totals.at("root").self_ns == 100 - 50 - 10,
         "spans: self time subtracts the union of child intervals");
  Expect(totals.at("child").count == 3 && totals.at("child").self_ns == 100,
         "spans: leaf self time is its duration");
}

}  // namespace

int main() {
  TestCholeskyKnownSystem();
  TestLeastSquaresRecoversPlant();
  TestPercentileRule();
  TestOpenLoopLateness();
  TestSpanSelfTime();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
