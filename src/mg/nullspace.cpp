#include "mg/nullspace.h"

#include <cmath>

#include "fields/blas.h"
#include "solvers/bicgstab.h"

namespace qmg {

namespace {

/// The shared MR relaxation core on M x = 0: each sweep damps the high modes
/// of x, leaving the near-null component (cannot reuse MrSolver since b = 0
/// is its trivial-solution early-out).  Like MrSolver, the residual
/// r = -M x is formed once and then updated recursively, so a sweep costs
/// one operator apply (iters + 1 applies in all).  `r` and `mr` are caller
/// scratch so a sweep over many vectors allocates them once.
template <typename T>
void mr_relax_homogeneous(const LinearOperator<T>& op, ColorSpinorField<T>& x,
                          ColorSpinorField<T>& r, ColorSpinorField<T>& mr,
                          int iters, T omega) {
  if (iters <= 0) return;
  op.apply(r, x);
  blas::scale(T(-1), r);
  for (int it = 0; it < iters; ++it) {
    op.apply(mr, r);
    const double mr2 = blas::norm2(mr);
    if (mr2 == 0.0) break;
    const complexd a = blas::cdot(mr, r);
    const Complex<T> alpha(static_cast<T>(a.re / mr2),
                           static_cast<T>(a.im / mr2));
    blas::caxpy(alpha * omega, r, x);
    blas::caxpy(-(alpha * omega), mr, r);
  }
}

template <typename T>
void normalize(ColorSpinorField<T>& x) {
  const double n2 = blas::norm2(x);
  if (n2 > 0) blas::scale(static_cast<T>(1.0 / std::sqrt(n2)), x);
}

}  // namespace

template <typename T>
std::vector<ColorSpinorField<T>> generate_null_vectors(
    const LinearOperator<T>& op, const NullSpaceParams& params) {
  std::vector<ColorSpinorField<T>> vecs;
  vecs.reserve(params.nvec);
  const T omega = static_cast<T>(params.omega);

  auto r = op.create_vector();
  auto mr = op.create_vector();

  for (int k = 0; k < params.nvec; ++k) {
    auto x = op.create_vector();
    x.gaussian(params.seed + 1000 * static_cast<std::uint64_t>(k));

    if (params.method == NullSpaceMethod::InverseIterate) {
      // Inverse iteration: x <- M^{-1} eta computed loosely.  The solve
      // amplifies the low modes by their inverse eigenvalues — a stronger
      // enrichment than relaxation when the operator is near-critical.
      auto eta = x;
      blas::zero(x);
      SolverParams sp;
      sp.tol = params.inverse_tol;
      sp.max_iter = std::max(params.iters, 10);
      BiCgStabSolver<T>(op, sp).solve(x, eta);
    } else {
      mr_relax_homogeneous(op, x, r, mr, params.iters, omega);
    }

    normalize(x);
    vecs.push_back(std::move(x));
  }
  return vecs;
}

template <typename T>
void relax_null_vectors(const LinearOperator<T>& op,
                        std::vector<ColorSpinorField<T>>& vecs, int iters,
                        double omega) {
  if (vecs.empty() || iters <= 0) return;
  auto r = op.create_vector();
  auto mr = op.create_vector();
  for (auto& x : vecs) {
    mr_relax_homogeneous(op, x, r, mr, iters, static_cast<T>(omega));
    normalize(x);
  }
}

template std::vector<ColorSpinorField<double>> generate_null_vectors<double>(
    const LinearOperator<double>&, const NullSpaceParams&);
template std::vector<ColorSpinorField<float>> generate_null_vectors<float>(
    const LinearOperator<float>&, const NullSpaceParams&);
template void relax_null_vectors<double>(const LinearOperator<double>&,
                                         std::vector<ColorSpinorField<double>>&,
                                         int, double);
template void relax_null_vectors<float>(const LinearOperator<float>&,
                                        std::vector<ColorSpinorField<float>>&,
                                        int, double);

}  // namespace qmg
