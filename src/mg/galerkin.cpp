#include "mg/galerkin.h"

#include <stdexcept>
#include <vector>

#include "parallel/dispatch.h"

namespace qmg {

namespace {

/// Per-fine-site chirality blocks of the prolongator: V[ch] is the
/// (dof/2 x nvec) matrix whose k-th column holds null vector k's components
/// on chirality ch at this site.  The chirality block structure (zero
/// off-blocks) halves the accumulation cost.
template <typename T>
struct SiteV {
  std::vector<Complex<T>> block[2];
};

template <typename T>
std::vector<SiteV<T>> gather_prolongator_blocks(const Transfer<T>& t) {
  const long vf = t.map().fine()->volume();
  const int ns = t.fine_nspin();
  const int nc = t.fine_ncolor();
  const int half = ns / 2;
  const int nvec = t.nvec();
  std::vector<SiteV<T>> v(vf);
  parallel_for(vf, [&](long x) {
    for (int ch = 0; ch < 2; ++ch) {
      v[x].block[ch].assign(static_cast<size_t>(half) * nc * nvec,
                            Complex<T>{});
      for (int s = 0; s < half; ++s)
        for (int c = 0; c < nc; ++c)
          for (int k = 0; k < nvec; ++k)
            v[x].block[ch][(static_cast<size_t>(s) * nc + c) * nvec + k] =
                t.null_vectors()[k](x, ch * half + s, c);
    }
  });
  return v;
}

/// target += Vx^dag * H * Vy, exploiting the chirality block structure.
/// H is a dense (dof x dof) block; Vx, Vy are SiteV; target is (2*nvec)^2
/// row-major with coarse index = ch*nvec + k.
template <typename T>
void accumulate_galerkin(Complex<T>* target, const SmallMatrix<T>& h,
                         const SiteV<T>& vx, const SiteV<T>& vy, int half_dof,
                         int nvec) {
  const int n = 2 * nvec;
  // tmp[ch_col] = H[:, rows(ch_col)] * Vy[ch_col]: (dof x nvec).
  // Work per output chirality row block to keep the temporary small.
  std::vector<Complex<T>> tmp(static_cast<size_t>(2 * half_dof) * nvec);
  for (int ch_col = 0; ch_col < 2; ++ch_col) {
    // tmp = H(:, ch_col block) * Vy[ch_col].
    for (int r = 0; r < 2 * half_dof; ++r) {
      Complex<T>* trow = tmp.data() + static_cast<size_t>(r) * nvec;
      for (int k = 0; k < nvec; ++k) trow[k] = Complex<T>{};
      for (int q = 0; q < half_dof; ++q) {
        const Complex<T> hval = h(r, ch_col * half_dof + q);
        if (hval.re == T(0) && hval.im == T(0)) continue;
        const Complex<T>* vrow =
            vy.block[ch_col].data() + static_cast<size_t>(q) * nvec;
        for (int k = 0; k < nvec; ++k) trow[k] += hval * vrow[k];
      }
    }
    // target[ch_row, ch_col] += Vx[ch_row]^dag * tmp[rows(ch_row)].
    for (int ch_row = 0; ch_row < 2; ++ch_row) {
      for (int kp = 0; kp < nvec; ++kp) {
        Complex<T>* out_row =
            target + static_cast<size_t>(ch_row * nvec + kp) * n +
            ch_col * nvec;
        for (int q = 0; q < half_dof; ++q) {
          const Complex<T> v =
              conj(vx.block[ch_row][static_cast<size_t>(q) * nvec + kp]);
          if (v.re == T(0) && v.im == T(0)) continue;
          const Complex<T>* trow =
              tmp.data() + static_cast<size_t>(ch_row * half_dof + q) * nvec;
          for (int k = 0; k < nvec; ++k) out_row[k] += v * trow[k];
        }
      }
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
  const int nvec = transfer.nvec();
  const int half_dof = fine.site_dof() / 2;

  CoarseDirac<T> coarse(map.coarse(), nvec);
  const auto v_blocks = gather_prolongator_blocks(transfer);

  // One dispatch item per coarse block: all writes target block b's own
  // diagonal/link storage, so items never alias.  The products accumulate
  // into a row-major per-block scratch (accumulate_galerkin's natural
  // order: unit-stride output rows), written into the operator's
  // column-major blocks once per coarse block.
  const long n_coarse = map.coarse()->volume();
  const int n = coarse.block_dim();
  const size_t nn = static_cast<size_t>(n) * n;
  constexpr int kNLinks = CoarseDirac<T>::kNLinks;
  parallel_for(n_coarse, [&](long b) {
    // scratch block 0: diagonal, 1 + l: link l.
    std::vector<Complex<T>> acc((1 + kNLinks) * nn, Complex<T>{});
    for (const long x : map.block_sites(b)) {
      // Diagonal term stays on the coarse diagonal.
      accumulate_galerkin(acc.data(), fine.diag_matrix(x), v_blocks[x],
                          v_blocks[x], half_dof, nvec);
      // Hops: intra-aggregate ones fold into X, boundary-crossing ones into
      // the Y link of the corresponding direction.
      for (int mu = 0; mu < kNDim; ++mu)
        for (int dir = 0; dir < 2; ++dir) {
          const long y = dir == 0 ? fine_geom.neighbor_fwd(x, mu)
                                  : fine_geom.neighbor_bwd(x, mu);
          const long by = map.coarse_site(y);
          Complex<T>* target =
              acc.data() + (by == b ? 0 : (1 + 2 * mu + dir) * nn);
          accumulate_galerkin(target, fine.hop_matrix(x, mu, dir),
                              v_blocks[x], v_blocks[y], half_dof, nvec);
        }
    }
    for (int c = 0; c < n; ++c)
      for (int r = 0; r < n; ++r) {
        const size_t rc = static_cast<size_t>(r) * n + c;
        coarse.diag_elem(b, r, c) = acc[rc];
        for (int l = 0; l < kNLinks; ++l)
          coarse.link_elem(b, l, r, c) = acc[(1 + l) * nn + rc];
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
