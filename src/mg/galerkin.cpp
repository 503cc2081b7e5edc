#include "mg/galerkin.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "parallel/dispatch.h"

namespace qmg {

namespace {

/// The prolongator as per-fine-site chirality blocks in one contiguous
/// array: block (x, ch) is the row-major (dof/2 x nvec) matrix whose column
/// k holds null vector k's components on chirality ch at site x.  The
/// chirality block structure (zero off-blocks) halves every product.
template <typename T>
struct ProlongatorBlocks {
  int half_dof;
  int nvec;
  std::vector<Complex<T>> v;

  explicit ProlongatorBlocks(const Transfer<T>& t)
      : half_dof(t.fine_nspin() / 2 * t.fine_ncolor()),
        nvec(t.nvec()),
        v(static_cast<size_t>(t.map().fine()->volume()) * 2 * half_dof *
          nvec) {
    const int half_spin = t.fine_nspin() / 2;
    const int nc = t.fine_ncolor();
    parallel_for(t.map().fine()->volume(), [&](long x) {
      for (int ch = 0; ch < 2; ++ch) {
        Complex<T>* blk = v.data() + offset(x, ch);
        for (int s = 0; s < half_spin; ++s)
          for (int c = 0; c < nc; ++c)
            for (int k = 0; k < nvec; ++k)
              blk[static_cast<size_t>(s * nc + c) * nvec + k] =
                  t.null_vectors()[k](x, ch * half_spin + s, c);
      }
    });
  }

  size_t offset(long x, int ch) const {
    return (static_cast<size_t>(x) * 2 + ch) * half_dof * nvec;
  }
  const Complex<T>* block(long x, int ch) const {
    return v.data() + offset(x, ch);
  }
};

/// out[k] += sum_j term(coef[j], rows[j][k]) for k < len, with term a*x
/// (or conj(x)*a when Conj).  The terms go four at a time, so each pass
/// over `out` carries four products instead of one.
template <bool Conj, typename T>
void add_rows(Complex<T>* out, const Complex<T>* coef,
              const Complex<T>* const* rows, int nterms, int len) {
  auto term = [](const Complex<T>& a, const Complex<T>& x) {
    if constexpr (Conj)
      return conj_mul(x, a);
    else
      return a * x;
  };
  int j = 0;
  for (; j + 4 <= nterms; j += 4) {
    const Complex<T> a0 = coef[j], a1 = coef[j + 1];
    const Complex<T> a2 = coef[j + 2], a3 = coef[j + 3];
    const Complex<T>* x0 = rows[j];
    const Complex<T>* x1 = rows[j + 1];
    const Complex<T>* x2 = rows[j + 2];
    const Complex<T>* x3 = rows[j + 3];
    for (int k = 0; k < len; ++k)
      out[k] += (term(a0, x0[k]) + term(a1, x1[k])) +
                (term(a2, x2[k]) + term(a3, x3[k]));
  }
  for (; j < nterms; ++j)
    for (int k = 0; k < len; ++k) out[k] += term(coef[j], rows[j][k]);
}

/// Per-dispatch-item scratch: the H V accumulator (row-major dof x 2*nvec,
/// column ch*nvec + k = H's chirality-ch columns applied to null vector
/// k) and the term lists handed to add_rows.
template <typename T>
struct GalerkinScratch {
  std::vector<Complex<T>> hv, coef;
  std::vector<const Complex<T>*> rows;
  GalerkinScratch(int dof, int nvec)
      : hv(static_cast<size_t>(dof) * 2 * nvec),
        coef(static_cast<size_t>(dof) / 2),
        rows(static_cast<size_t>(dof) / 2) {}
};

/// hv += H V(y) for a fine block H coupling this site to site y.
template <typename T>
void add_h_times_v(GalerkinScratch<T>& s, const SmallMatrix<T>& h,
                   const ProlongatorBlocks<T>& pv, long y) {
  const int half = pv.half_dof;
  const int nvec = pv.nvec;
  for (int r = 0; r < 2 * half; ++r)
    for (int ch = 0; ch < 2; ++ch) {
      const Complex<T>* vy = pv.block(y, ch);
      int nterms = 0;
      for (int q = 0; q < half; ++q) {
        const Complex<T> hval = h(r, ch * half + q);
        if (hval.re == T(0) && hval.im == T(0)) continue;
        s.coef[nterms] = hval;
        s.rows[nterms++] = vy + static_cast<size_t>(q) * nvec;
      }
      add_rows<false>(s.hv.data() + static_cast<size_t>(r) * 2 * nvec +
                          ch * nvec,
                      s.coef.data(), s.rows.data(), nterms, nvec);
    }
}

/// target += V(x)^dag hv, straight into a column-major (2*nvec)^2 coarse
/// block (element (r, c) at c*n + r): each column is a sum of conjugated
/// prolongator rows, unit stride in both the block and the prolongator.
template <typename T>
void add_vdag_times_hv(Complex<T>* target, GalerkinScratch<T>& s,
                       const ProlongatorBlocks<T>& pv, long x) {
  const int half = pv.half_dof;
  const int nvec = pv.nvec;
  const int n = 2 * nvec;
  for (int ch = 0; ch < 2; ++ch) {
    const Complex<T>* vx = pv.block(x, ch);
    for (int q = 0; q < half; ++q)
      s.rows[q] = vx + static_cast<size_t>(q) * nvec;
    for (int c = 0; c < n; ++c) {
      for (int q = 0; q < half; ++q)
        s.coef[q] = s.hv[static_cast<size_t>(ch * half + q) * n + c];
      add_rows<true>(target + static_cast<size_t>(c) * n + ch * nvec,
                     s.coef.data(), s.rows.data(), half, nvec);
    }
  }
}

}  // namespace

template <typename T>
CoarseDirac<T> build_coarse_operator(const StencilView<T>& fine,
                                     const Transfer<T>& transfer,
                                     CoarseStorage storage) {
  if (fine.nspin() != transfer.fine_nspin() ||
      fine.ncolor() != transfer.fine_ncolor())
    throw std::invalid_argument("stencil/transfer shape mismatch");

  const auto& map = transfer.map();
  const auto& fine_geom = *map.fine();
  const auto& coarse_geom = *map.coarse();
  const int nvec = transfer.nvec();

  CoarseDirac<T> coarse(map.coarse(), nvec);
  const ProlongatorBlocks<T> pv(transfer);

  // One dispatch item per coarse block: all writes target block b's own
  // diagonal and forward links, so items never alias.
  const long n_coarse = coarse_geom.volume();
  const int n = coarse.block_dim();
  parallel_for(n_coarse, [&](long b) {
    GalerkinScratch<T> s(fine.site_dof(), nvec);
    auto zero_hv = [&] { std::fill(s.hv.begin(), s.hv.end(), Complex<T>{}); };
    for (const long x : map.block_sites(b)) {
      // The diagonal term and every hop that stays inside the aggregate
      // land in the coarse diagonal X: sum their H V, then one V^dag.
      zero_hv();
      add_h_times_v(s, fine.diag_matrix(x), pv, x);
      for (int mu = 0; mu < kNDim; ++mu)
        for (int dir = 0; dir < 2; ++dir) {
          const long y = dir == 0 ? fine_geom.neighbor_fwd(x, mu)
                                  : fine_geom.neighbor_bwd(x, mu);
          if (map.coarse_site(y) == b)
            add_h_times_v(s, fine.hop_matrix(x, mu, dir), pv, y);
        }
      add_vdag_times_hv(coarse.diag_data(b), s, pv, x);
      // A forward hop across the aggregate boundary feeds the forward link.
      for (int mu = 0; mu < kNDim; ++mu) {
        const long y = fine_geom.neighbor_fwd(x, mu);
        if (map.coarse_site(y) == b) continue;
        zero_hv();
        add_h_times_v(s, fine.hop_matrix(x, mu, 0), pv, y);
        add_vdag_times_hv(coarse.link_data(b, 2 * mu), s, pv, x);
      }
    }
  });
  // Backward links from coarse gamma5-Hermiticity, inherited from the
  // fine operator through the chirality-preserving prolongator:
  // Ybwd_mu(b) = Gamma5 Yfwd_mu(b - mu)^dag Gamma5, Gamma5 = diag(+1, -1)
  // over the coarse chiralities.  Where the coarse extent is 1 the
  // neighbour is b itself and every hop was folded into X above.
  parallel_for(n_coarse, [&](long b) {
    for (int mu = 0; mu < kNDim; ++mu) {
      const long bm = coarse_geom.neighbor_bwd(b, mu);
      if (bm == b) continue;
      const Complex<T>* fwd = coarse.link_data(bm, 2 * mu);
      Complex<T>* bwd = coarse.link_data(b, 2 * mu + 1);
      for (int c = 0; c < n; ++c)
        for (int r = 0; r < n; ++r) {
          const Complex<T> y = conj(fwd[coarse.elem_offset(c, r)]);
          bwd[coarse.elem_offset(r, c)] = (r < nvec) == (c < nvec) ? y : -y;
        }
    }
  });
  // Emit the requested storage precision: accumulation above ran in T, so
  // truncation touches only the finished blocks (strategy (c)'s
  // store-low/accumulate-high split, applied to construction).  The
  // diagonal inverse is precomputed from the NATIVE blocks first — its
  // conditioning does not tolerate quantized input, and once
  // compress_storage releases the native diagonal a later
  // compute_diag_inverse could only invert the truncated blocks.
  if (storage != CoarseStorage::Native) {
    coarse.compute_diag_inverse();
    coarse.compress_storage(storage);
  }
  return coarse;
}

template CoarseDirac<double> build_coarse_operator<double>(
    const StencilView<double>&, const Transfer<double>&, CoarseStorage);
template CoarseDirac<float> build_coarse_operator<float>(
    const StencilView<float>&, const Transfer<float>&, CoarseStorage);

}  // namespace qmg
