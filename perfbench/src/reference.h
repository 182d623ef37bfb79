// Reference computations made apart from the program: the benchmark
// checks the program's outputs against these, never against stored
// output. Nothing here calls into the library's models or kernels.
#pragma once

#include <vector>

#include "matrix/csr_matrix.h"

namespace perfbench {

/// Solves the symmetric positive-definite n x n system `a` x = `b` in
/// place by Cholesky factorization (row-major `a`, overwritten). Returns
/// false when `a` is not positive definite.
bool CholeskySolve(std::vector<double>* a, int n, std::vector<double>* b);

/// argmin_x (1/2N) ||A x - b||^2 through the normal equations.
/// Returns an empty vector when A^T A is singular.
std::vector<double> SolveLeastSquares(const dw::matrix::CsrMatrix& a,
                                      const std::vector<double>& b);

/// (1/2N) sum_i (a_i . x - b_i)^2.
double LeastSquaresObjective(const dw::matrix::CsrMatrix& a,
                             const std::vector<double>& b, const double* x);

/// (1/N) sum_i log(1 + exp(-b_i a_i . x)) for labels b_i in {-1, +1}.
double LogisticObjective(const dw::matrix::CsrMatrix& a,
                         const std::vector<double>& b, const double* x);

/// Share of rows whose sign(a_i . x) equals b_i.
double SignAccuracy(const dw::matrix::CsrMatrix& a,
                    const std::vector<double>& b, const double* x);

/// Plain left-to-right sparse dot and its absolute-value bound.
double Dot(const dw::matrix::SparseVectorView& row, const double* x);
double AbsDot(const dw::matrix::SparseVectorView& row, const double* x);

double Logistic(double z);

}  // namespace perfbench
