#include "reference.h"

#include <cmath>

namespace perfbench {

using dw::matrix::CsrMatrix;
using dw::matrix::Index;
using dw::matrix::SparseVectorView;

bool CholeskySolve(std::vector<double>* a_io, int n, std::vector<double>* b) {
  std::vector<double>& a = *a_io;
  // a = L L^T, L stored in the lower triangle.
  for (int j = 0; j < n; ++j) {
    double d = a[j * n + j];
    for (int k = 0; k < j; ++k) d -= a[j * n + k] * a[j * n + k];
    if (!(d > 0.0)) return false;
    const double ljj = std::sqrt(d);
    a[j * n + j] = ljj;
    for (int i = j + 1; i < n; ++i) {
      double s = a[i * n + j];
      for (int k = 0; k < j; ++k) s -= a[i * n + k] * a[j * n + k];
      a[i * n + j] = s / ljj;
    }
  }
  std::vector<double>& x = *b;
  for (int i = 0; i < n; ++i) {  // L y = b
    double s = x[i];
    for (int k = 0; k < i; ++k) s -= a[i * n + k] * x[k];
    x[i] = s / a[i * n + i];
  }
  for (int i = n - 1; i >= 0; --i) {  // L^T x = y
    double s = x[i];
    for (int k = i + 1; k < n; ++k) s -= a[k * n + i] * x[k];
    x[i] = s / a[i * n + i];
  }
  return true;
}

std::vector<double> SolveLeastSquares(const CsrMatrix& a,
                                      const std::vector<double>& b) {
  const int d = static_cast<int>(a.cols());
  std::vector<double> gram(static_cast<size_t>(d) * d, 0.0);
  std::vector<double> rhs(d, 0.0);
  for (Index i = 0; i < a.rows(); ++i) {
    const SparseVectorView r = a.Row(i);
    for (size_t p = 0; p < r.nnz; ++p) {
      const double vp = r.values[p];
      rhs[r.indices[p]] += vp * b[i];
      double* g = &gram[static_cast<size_t>(r.indices[p]) * d];
      for (size_t q = 0; q < r.nnz; ++q) g[r.indices[q]] += vp * r.values[q];
    }
  }
  if (!CholeskySolve(&gram, d, &rhs)) return {};
  return rhs;
}

double LeastSquaresObjective(const CsrMatrix& a, const std::vector<double>& b,
                             const double* x) {
  double sum = 0.0;
  for (Index i = 0; i < a.rows(); ++i) {
    const double r = Dot(a.Row(i), x) - b[i];
    sum += r * r;
  }
  return sum / (2.0 * static_cast<double>(a.rows()));
}

double LogisticObjective(const CsrMatrix& a, const std::vector<double>& b,
                         const double* x) {
  double sum = 0.0;
  for (Index i = 0; i < a.rows(); ++i) {
    const double z = -b[i] * Dot(a.Row(i), x);
    // log(1 + e^z) without overflow for large |z|.
    sum += z > 0.0 ? z + std::log1p(std::exp(-z)) : std::log1p(std::exp(z));
  }
  return sum / static_cast<double>(a.rows());
}

double SignAccuracy(const CsrMatrix& a, const std::vector<double>& b,
                    const double* x) {
  Index right = 0;
  for (Index i = 0; i < a.rows(); ++i) {
    if ((Dot(a.Row(i), x) >= 0.0 ? 1.0 : -1.0) == b[i]) ++right;
  }
  return static_cast<double>(right) / static_cast<double>(a.rows());
}

double Dot(const SparseVectorView& row, const double* x) {
  double s = 0.0;
  for (size_t k = 0; k < row.nnz; ++k) {
    s += row.values[k] * x[row.indices ? row.indices[k] : k];
  }
  return s;
}

double AbsDot(const SparseVectorView& row, const double* x) {
  double s = 0.0;
  for (size_t k = 0; k < row.nnz; ++k) {
    s += std::fabs(row.values[k] * x[row.indices ? row.indices[k] : k]);
  }
  return s;
}

double Logistic(double z) {
  return z >= 0.0 ? 1.0 / (1.0 + std::exp(-z))
                  : std::exp(z) / (1.0 + std::exp(z));
}

}  // namespace perfbench
