#pragma once
// Generic stencil view: exposes any nearest-neighbor operator (fine Wilson-
// Clover or a coarse operator) as per-site dense coefficient blocks
//
//   M_{x,x'} = diag(x) delta_{x,x'} + sum_{mu,dir} hop(x,mu,dir) delta_{nbr(x),x'}
//
// This uniform algebraic form is what makes the Galerkin construction
// recursive: the same builder coarsens level 1 -> 2 (from Wilson-Clover)
// and level 2 -> 3 (from a coarse operator), paper section 3.4.

#include <stdexcept>

#include "dirac/gamma.h"
#include "dirac/wilson.h"
#include "lattice/geometry.h"
#include "linalg/smallmat.h"
#include "mg/coarse_op.h"

namespace qmg {

template <typename T>
class StencilView {
 public:
  virtual ~StencilView() = default;

  virtual const GeometryPtr& geometry() const = 0;
  virtual int nspin() const = 0;
  virtual int ncolor() const = 0;
  int site_dof() const { return nspin() * ncolor(); }

  /// Coefficient block of in(neighbor(site, mu, dir)) in out(site);
  /// dir 0 = forward, 1 = backward.  Row/col index = spin*ncolor + color.
  virtual SmallMatrix<T> hop_matrix(long site, int mu, int dir) const = 0;

  /// Coefficient block of in(site) in out(site).
  virtual SmallMatrix<T> diag_matrix(long site) const = 0;
};

/// Wilson-Clover as a stencil view.
template <typename T>
class WilsonStencilView : public StencilView<T> {
 public:
  explicit WilsonStencilView(const WilsonCloverOp<T>& op) : op_(op) {}

  const GeometryPtr& geometry() const override { return op_.geometry(); }
  int nspin() const override { return 4; }
  int ncolor() const override { return 3; }

  SmallMatrix<T> hop_matrix(long site, int mu, int dir) const override {
    const auto& algebra = GammaAlgebra::instance();
    const auto& geom = *op_.geometry();
    // Forward: -1/2 xi_mu (1 - gamma_mu) U_mu(x);
    // backward: -1/2 xi_mu (1 + gamma_mu) U_mu(x-mu)^dag.
    const Su3<T> u = dir == 0
                         ? op_.gauge().link(mu, site)
                         : adjoint(op_.gauge().link(
                               mu, geom.neighbor_bwd(site, mu)));
    const SpinMatrix& p = algebra.projector(mu, dir);
    const T coef = (mu == 3 ? op_.params().anisotropy : T(1)) * T(-0.5);
    SmallMatrix<T> h(12, 12);
    for (int sp = 0; sp < 4; ++sp)
      for (int s = 0; s < 4; ++s) {
        const complexd pd = p(sp, s);
        if (norm2(pd) < 1e-28) continue;
        const Complex<T> w =
            Complex<T>(static_cast<T>(pd.re), static_cast<T>(pd.im)) * coef;
        for (int cp = 0; cp < 3; ++cp)
          for (int c = 0; c < 3; ++c) h(3 * sp + cp, 3 * s + c) = w * u(cp, c);
      }
    return h;
  }

  SmallMatrix<T> diag_matrix(long site) const override {
    SmallMatrix<T> d(12, 12);
    const T shift = T(4) + op_.params().mass;
    for (int k = 0; k < 12; ++k) d(k, k) = Complex<T>(shift);
    if (op_.clover()) {
      for (int ch = 0; ch < 2; ++ch) {
        const auto& block = op_.clover()->block(site, ch);
        for (int r = 0; r < 6; ++r)
          for (int c = 0; c < 6; ++c) d(6 * ch + r, 6 * ch + c) += block(r, c);
      }
    }
    return d;
  }

 private:
  const WilsonCloverOp<T>& op_;
};

/// A coarse operator as a stencil view (enables recursive coarsening).
template <typename T>
class CoarseStencilView : public StencilView<T> {
 public:
  explicit CoarseStencilView(const CoarseDirac<T>& op) : op_(op) {
    if (!op.has_native_storage())
      throw std::invalid_argument(
          "CoarseStencilView: recursive coarsening reads native link blocks; "
          "compress_storage only after the hierarchy is built");
  }

  const GeometryPtr& geometry() const override { return op_.geometry(); }
  int nspin() const override { return CoarseDirac<T>::kNSpin; }
  int ncolor() const override { return op_.ncolor(); }

  SmallMatrix<T> hop_matrix(long site, int mu, int dir) const override {
    const int n = op_.block_dim();
    SmallMatrix<T> h(n, n);
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c)
        h(r, c) = op_.link_elem(site, 2 * mu + dir, r, c);
    return h;
  }

  SmallMatrix<T> diag_matrix(long site) const override {
    const int n = op_.block_dim();
    SmallMatrix<T> d(n, n);
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c) d(r, c) = op_.diag_elem(site, r, c);
    return d;
  }

 private:
  const CoarseDirac<T>& op_;
};

}  // namespace qmg
