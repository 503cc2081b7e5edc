#include "mg/coarse_op.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "dirac/gamma.h"
#include "gpusim/kernels.h"
#include "mg/coarse_row.h"
#include "mg/coarse_stencil.h"
#include "parallel/autotune.h"
#include "util/timer.h"

namespace qmg {

using detail::sim_precision;

template <typename T>
CoarseDirac<T>::CoarseDirac(GeometryPtr geom, int ncolor)
    : geom_(std::move(geom)), nc_(ncolor), n_(2 * ncolor) {
  const size_t per_site = static_cast<size_t>(n_) * n_;
  links_.assign(static_cast<size_t>(geom_->volume()) * kNLinks * per_site,
                Complex<T>{});
  diag_.assign(static_cast<size_t>(geom_->volume()) * per_site, Complex<T>{});
}

template <typename T>
typename CoarseDirac<T>::Field CoarseDirac<T>::create_vector() const {
  return Field(geom_, kNSpin, nc_);
}

template <typename T>
double CoarseDirac<T>::flops_per_apply() const {
  // 9 dense NxN complex mat-vecs per site: 8 flops per cmul-add.
  return 9.0 * 8.0 * n_ * n_ * static_cast<double>(geom_->volume());
}

template <typename T>
void CoarseDirac<T>::compress_storage(CoarseStorage storage) {
  if (storage == storage_) return;
  if (storage == CoarseStorage::Native)
    throw std::invalid_argument(
        "compress_storage: native storage cannot be restored once released");
  if (!has_native_storage())
    throw std::logic_error(
        "compress_storage: native storage already released");
  if (storage == CoarseStorage::Single && sizeof(T) == sizeof(float))
    return;  // a float operator's native storage already IS single
  if (storage == CoarseStorage::Half16 && n_ > kMaxBlockDim)
    throw std::invalid_argument(
        "compress_storage: Half16 dequantizes rows into kMaxBlockDim "
        "scratch; N exceeds it");
  const long v = geom_->volume();
  if (storage == CoarseStorage::Single) {
    links_lo_.resize(links_.size());
    for (size_t k = 0; k < links_.size(); ++k)
      links_lo_[k] = Complex<float>(links_[k]);
    diag_lo_.resize(diag_.size());
    for (size_t k = 0; k < diag_.size(); ++k)
      diag_lo_[k] = Complex<float>(diag_[k]);
  } else {
    half_ = HalfCoarseLinks(v, n_);
    for (long site = 0; site < v; ++site) {
      for (int l = 0; l < kNLinks; ++l)
        half_.store_block(site, l, link_data(site, l));
      half_.store_block(site, HalfCoarseLinks::kDiagBlock, diag_data(site));
    }
  }
  if (!diag_inv_.empty()) {
    diag_inv_lo_.resize(diag_inv_.size());
    for (size_t k = 0; k < diag_inv_.size(); ++k)
      diag_inv_lo_[k] = Complex<float>(diag_inv_[k]);
    diag_inv_.clear();
    diag_inv_.shrink_to_fit();
  }
  links_.clear();
  links_.shrink_to_fit();
  diag_.clear();
  diag_.shrink_to_fit();
  storage_ = storage;
}

template <typename T>
HalfCoarseLinks CoarseDirac<T>::snapshot_half_links() const {
  if (storage_ == CoarseStorage::Half16) return half_;
  const long v = geom_->volume();
  HalfCoarseLinks out(v, n_);
  for (long site = 0; site < v; ++site) {
    if (storage_ == CoarseStorage::Native) {
      for (int l = 0; l < kNLinks; ++l)
        out.store_block(site, l, link_data(site, l));
      out.store_block(site, HalfCoarseLinks::kDiagBlock, diag_data(site));
    } else {
      for (int l = 0; l < kNLinks; ++l)
        out.store_block(site, l, link_lo_data(site, l));
      out.store_block(site, HalfCoarseLinks::kDiagBlock, diag_lo_data(site));
    }
  }
  return out;
}

template <typename T>
std::vector<Complex<float>> CoarseDirac<T>::snapshot_diag_inverse() const {
  if (!has_diag_inverse())
    throw std::logic_error(
        "CoarseDirac::snapshot_diag_inverse: compute_diag_inverse() was "
        "never called on this operator");
  if (!diag_inv_lo_.empty()) return diag_inv_lo_;
  std::vector<Complex<float>> out(diag_inv_.size());
  for (size_t k = 0; k < diag_inv_.size(); ++k)
    out[k] = Complex<float>(diag_inv_[k]);
  return out;
}

template <typename T>
void CoarseDirac<T>::install_half_storage(HalfCoarseLinks stencil,
                                          std::vector<Complex<float>> diag_inv) {
  if (stencil.nsites() != geom_->volume() || stencil.block_dim() != n_)
    throw std::invalid_argument(
        "CoarseDirac::install_half_storage: stencil shape mismatch (got " +
        std::to_string(stencil.nsites()) + " sites x N=" +
        std::to_string(stencil.block_dim()) + ", operator has " +
        std::to_string(geom_->volume()) + " x N=" + std::to_string(n_) + ")");
  const size_t want =
      static_cast<size_t>(geom_->volume()) * static_cast<size_t>(n_) * n_;
  if (diag_inv.size() != want)
    throw std::invalid_argument(
        "CoarseDirac::install_half_storage: diag-inverse size mismatch "
        "(got " + std::to_string(diag_inv.size()) + ", want " +
        std::to_string(want) + ")");
  if (n_ > kMaxBlockDim)
    throw std::invalid_argument(
        "CoarseDirac::install_half_storage: Half16 dequantizes rows into "
        "kMaxBlockDim scratch; N exceeds it");
  half_ = std::move(stencil);
  diag_inv_lo_ = std::move(diag_inv);
  links_.clear();
  links_.shrink_to_fit();
  diag_.clear();
  diag_.shrink_to_fit();
  diag_inv_.clear();
  diag_inv_.shrink_to_fit();
  links_lo_.clear();
  links_lo_.shrink_to_fit();
  diag_lo_.clear();
  diag_lo_.shrink_to_fit();
  storage_ = CoarseStorage::Half16;
}

template <typename T>
template <typename Stencil>
void CoarseDirac<T>::apply_with_config_st(Field& out, const Field& in,
                                          const CoarseKernelConfig& config,
                                          const LaunchPolicy& policy,
                                          const Stencil& st) const {
  assert(in.subset() == Subset::Full);
  using Blk = typename Stencil::Block;
  const long v = geom_->volume();
  const int n = n_;
  // Output rows [r0, r1) of one site: Listing 2's indexing arithmetic, then
  // the row-tile kernel over the site's nine stencil blocks.
  auto site_rows = [&](long site, int r0, int r1) {
    const Complex<T>* xin[9];
    xin[0] = in.site_data(site);
    for (int mu = 0; mu < kNDim; ++mu) {
      xin[1 + 2 * mu] = in.site_data(geom_->neighbor_fwd(site, mu));
      xin[2 + 2 * mu] = in.site_data(geom_->neighbor_bwd(site, mu));
    }
    Blk blks[9];
    for (int m = 0; m < 9; ++m) blks[m] = st.block(site, m);
    coarse_rows<T>(config, blks, xin, n, r0, r1, out.site_data(site));
  };
  if (config.strategy >= Strategy::ColorSpin) {
    // One dispatch item per (site, row tile): the y thread dimension of
    // Listing 3, the tile's rows on SIMD lanes.  Each item redoes the site
    // indexing, exactly like the fine-grained GPU threads (the Amdahl
    // overhead of section 6.5).
    const int tiles = (n + kCoarseRowTile - 1) / kCoarseRowTile;
    parallel_for(v * tiles, policy, [&](long idx) {
      const long site = idx / tiles;
      const int r0 = static_cast<int>(idx % tiles) * kCoarseRowTile;
      site_rows(site, r0, std::min(n, r0 + kCoarseRowTile));
    });
  } else {
    // Baseline: one dispatch item per site, row tiles serial within it.
    parallel_for(v, policy, [&](long site) { site_rows(site, 0, n); });
  }
  if (policy.backend == Backend::SimtModel)
    SimtStats::instance().record_work(
        coarse_op_work(v, n_, config, sim_precision<T>(storage_)));
}

template <typename T>
void CoarseDirac<T>::apply_with_config(
    Field& out, const Field& in, const CoarseKernelConfig& config,
    const LaunchPolicy& policy) const {
  with_stencil([&](const auto& st) {
    apply_with_config_st(out, in, config, policy, st);
  });
}

template <typename T>
std::pair<CoarseKernelConfig, LaunchPolicy> CoarseDirac<T>::resolve_kernel(
    int nrhs) const {
  if (!autotune_) return {config_, default_policy()};
  // Autotune on first use for this shape (section 6.5): a joint sweep over
  // kernel decompositions AND execution backends — for a wide batch also
  // the rhs-blocking — cached together under the shape key.  The precision
  // tag keeps a float- or compressed-storage kernel from replaying a config
  // tuned for double (their bytes/flop balance differs).
  auto& cache = TuneCache::instance();
  if (nrhs <= 0 || narrow_batch(nrhs)) {
    std::optional<Field> x, y;
    return cache.tune_joint(
        coarse_tune_key(geom_->volume(), n_, precision_tag()), n_,
        [&](const CoarseKernelConfig& cand, const LaunchPolicy& lp) {
          if (!x) {
            x.emplace(create_vector());
            y.emplace(create_vector());
          }
          Timer timer;
          apply_with_config(*y, *x, cand, lp);
          return timer.seconds();
        });
  }
  std::optional<BlockField> x, y;
  return cache.tune_joint_2d(
      mrhs_tune_key(geom_->volume(), n_, nrhs, precision_tag()), n_, nrhs,
      [&](const CoarseKernelConfig& cand, const LaunchPolicy& lp) {
        if (!x) {
          x.emplace(geom_, kNSpin, nc_, nrhs);
          y.emplace(geom_, kNSpin, nc_, nrhs);
        }
        Timer timer;
        apply_block_with_config(*y, *x, cand, lp);
        return timer.seconds();
      });
}

template <typename T>
void CoarseDirac<T>::apply(Field& out, const Field& in) const {
  this->count_apply();
  const auto [config, policy] = resolve_kernel();
  apply_with_config(out, in, config, policy);
}

template <typename T>
void CoarseDirac<T>::apply_dagger(Field& out, const Field& in) const {
  // Coarse gamma5-Hermiticity: Mhat^dag = Gamma5 Mhat Gamma5 with
  // Gamma5 = diag(+1_{Nc}, -1_{Nc}) in coarse spin (inherited from the
  // chirality-preserving aggregation).
  if (!dagger_tmp_) dagger_tmp_.emplace(create_vector());
  apply_gamma5(*dagger_tmp_, in);
  apply(out, *dagger_tmp_);
  apply_gamma5(out, out);
}

// The batched hopping/diag kernels dispatch one item per (site, rhs) —
// matching the native-storage suite's bit-identity contract — and run the
// row-tile kernel on the gathered rhs, so each stencil block is read once
// per rhs (under Half16 also dequantized once per rhs).  The main batched
// apply (apply_block_with_config_st) amortizes the stencil over the rhs
// tile instead.
template <typename T>
template <typename Stencil>
void CoarseDirac<T>::apply_hopping_parity_block_st(BlockField& out,
                                                   const BlockField& in,
                                                   int out_parity,
                                                   const Stencil& st) const {
  using Blk = typename Stencil::Block;
  const long hv = geom_->half_volume();
  const int n = n_;
  parallel_for_2d(hv, in.nrhs(), default_policy(), [&](long cb, long kk) {
    const int k = static_cast<int>(kk);
    const long site = geom_->full_index(out_parity, cb);
    Complex<T> xbuf[8 * kMaxBlockDim];
    const Complex<T>* xin[8];
    Blk blks[8];
    for (int mu = 0; mu < kNDim; ++mu)
      for (int dir = 0; dir < 2; ++dir) {
        const int l = 2 * mu + dir;
        const long nbr = dir == 0 ? geom_->neighbor_fwd(site, mu)
                                  : geom_->neighbor_bwd(site, mu);
        in.gather_site_rhs(geom_->cb_index(nbr), k, xbuf + l * n);
        xin[l] = xbuf + l * n;
        blks[l] = st.link(site, l);
      }
    Complex<T> dst[kMaxBlockDim];
    coarse_rows<T>(RowChain{8}, blks, xin, n, 0, n, dst);
    out.scatter_site_rhs(cb, k, dst);
  });
}

template <typename T>
void CoarseDirac<T>::apply_hopping_parity_block(BlockField& out,
                                                const BlockField& in,
                                                int out_parity) const {
  if (out.nrhs() != in.nrhs())
    throw std::invalid_argument("hopping_parity_block: rhs count mismatch");
  if (n_ > kMaxBlockDim)
    throw std::invalid_argument("coarse block kernel: N exceeds buffer cap");
  with_stencil([&](const auto& st) {
    apply_hopping_parity_block_st(out, in, out_parity, st);
  });
}

namespace {

/// Shared batched dense diagonal kernel: out = D in per (site, rhs), with
/// D(site) the block handle `block_of(site)` (diagonal or inverse-diagonal
/// in any storage format); accumulation in T along the RowChain tree.
template <typename T, typename BlockOf>
void block_diag_kernel(BlockSpinor<T>& out, const BlockSpinor<T>& in, int n,
                       int parity, const LatticeGeometry& geom,
                       BlockOf&& block_of) {
  parallel_for_2d(in.nsites(), in.nrhs(), default_policy(),
                  [&](long i, long kk) {
    const int k = static_cast<int>(kk);
    const long site = parity >= 0 ? geom.full_index(parity, i) : i;
    Complex<T> src[CoarseDirac<T>::kMaxBlockDim];
    Complex<T> dst[CoarseDirac<T>::kMaxBlockDim];
    in.gather_site_rhs(i, k, src);
    const auto blk = block_of(site);
    const Complex<T>* xin = src;
    coarse_rows<T>(RowChain{1}, &blk, &xin, n, 0, n, dst);
    out.scatter_site_rhs(i, k, dst);
  });
}

/// Single-rhs analog of block_diag_kernel.
template <typename T, typename BlockOf>
void diag_kernel(ColorSpinorField<T>& out, const ColorSpinorField<T>& in,
                 int n, int parity, const LatticeGeometry& geom,
                 BlockOf&& block_of) {
  parallel_for(in.nsites(), [&](long i) {
    const long site = parity >= 0 ? geom.full_index(parity, i) : i;
    const auto blk = block_of(site);
    const Complex<T>* xin = in.site_data(i);
    coarse_rows<T>(RowChain{1}, &blk, &xin, n, 0, n, out.site_data(i));
  });
}

}  // namespace

template <typename T>
void CoarseDirac<T>::apply_diag_block(BlockField& out, const BlockField& in,
                                      int parity) const {
  if (out.nrhs() != in.nrhs() || n_ > kMaxBlockDim)
    throw std::invalid_argument("coarse apply_diag_block: bad shape");
  with_stencil([&](const auto& st) {
    block_diag_kernel(out, in, n_, parity, *geom_,
                      [&](long site) { return st.diag_block(site); });
  });
}

template <typename T>
void CoarseDirac<T>::apply_diag_inverse_block(BlockField& out,
                                              const BlockField& in,
                                              int parity) const {
  assert(has_diag_inverse());
  if (out.nrhs() != in.nrhs() || n_ > kMaxBlockDim)
    throw std::invalid_argument("coarse apply_diag_inverse_block: bad shape");
  with_diag_inverse([&](const auto& block_of) {
    block_diag_kernel(out, in, n_, parity, *geom_, block_of);
  });
}

template <typename T>
template <typename Stencil>
void CoarseDirac<T>::apply_hopping_parity_st(Field& out, const Field& in,
                                             int out_parity,
                                             const Stencil& st) const {
  using Blk = typename Stencil::Block;
  const long hv = geom_->half_volume();
  const int n = n_;
  parallel_for(hv, [&](long cb) {
    const long site = geom_->full_index(out_parity, cb);
    const Complex<T>* xin[8];
    Blk blks[8];
    for (int mu = 0; mu < kNDim; ++mu) {
      xin[2 * mu] =
          in.site_data(geom_->cb_index(geom_->neighbor_fwd(site, mu)));
      xin[2 * mu + 1] =
          in.site_data(geom_->cb_index(geom_->neighbor_bwd(site, mu)));
    }
    for (int l = 0; l < 8; ++l) blks[l] = st.link(site, l);
    coarse_rows<T>(RowChain{8}, blks, xin, n, 0, n, out.site_data(cb));
  });
}

template <typename T>
void CoarseDirac<T>::apply_hopping_parity(Field& out, const Field& in,
                                          int out_parity) const {
  assert(out.subset() == (out_parity ? Subset::Odd : Subset::Even));
  with_stencil([&](const auto& st) {
    apply_hopping_parity_st(out, in, out_parity, st);
  });
}

template <typename T>
void CoarseDirac<T>::apply_diag(Field& out, const Field& in,
                                int parity) const {
  with_stencil([&](const auto& st) {
    diag_kernel(out, in, n_, parity, *geom_,
                [&](long site) { return st.diag_block(site); });
  });
}

template <typename T>
void CoarseDirac<T>::compute_diag_inverse() {
  const long v = geom_->volume();
  // The LU runs in T regardless of storage: read the diagonal block from
  // whatever format is active into a row-major SmallMatrix, invert in
  // working precision, emit column-major into the active format's inverse
  // array (T for Native, float for compressed).  Prefer computing the
  // inverse BEFORE compress_storage (what Multigrid and
  // build_coarse_operator do): on an already-compressed operator the
  // native diagonal is gone, so the LU can only see the truncated — for
  // Half16, quantized — blocks, and the inverse amplifies that error by
  // the block's condition number.
  const bool native = storage_ == CoarseStorage::Native;
  if (native)
    diag_inv_.assign(static_cast<size_t>(v) * n_ * n_, Complex<T>{});
  else
    diag_inv_lo_.assign(static_cast<size_t>(v) * n_ * n_, Complex<float>{});
  with_stencil([&](const auto& st) {
    parallel_for(v, [&](long site) {
      const auto d = st.diag_block(site);
      SmallMatrix<T> m(n_, n_);
      for (int r = 0; r < n_; ++r)
        for (int c = 0; c < n_; ++c)
          m(r, c) = d.template elem<T>(static_cast<long>(elem_offset(r, c)));
      const LuFactor<T> lu(m);
      const SmallMatrix<T> inv = lu.inverse();
      const size_t base = static_cast<size_t>(site) * n_ * n_;
      for (int r = 0; r < n_; ++r)
        for (int c = 0; c < n_; ++c) {
          if (native)
            diag_inv_[base + elem_offset(r, c)] = inv(r, c);
          else
            diag_inv_lo_[base + elem_offset(r, c)] =
                Complex<float>(inv(r, c));
        }
    });
  });
}

template <typename T>
void CoarseDirac<T>::apply_diag_inverse(Field& out, const Field& in,
                                        int parity) const {
  assert(has_diag_inverse());
  with_diag_inverse([&](const auto& block_of) {
    diag_kernel(out, in, n_, parity, *geom_, block_of);
  });
}

// --- SchurCoarseOp ----------------------------------------------------------

template <typename T>
SchurCoarseOp<T>::SchurCoarseOp(const CoarseDirac<T>& op)
    : op_(op),
      tmp_odd_(op.geometry(), CoarseDirac<T>::kNSpin, op.ncolor(),
               Subset::Odd),
      tmp_odd2_(op.geometry(), CoarseDirac<T>::kNSpin, op.ncolor(),
                Subset::Odd),
      tmp_even_(op.geometry(), CoarseDirac<T>::kNSpin, op.ncolor(),
                Subset::Even) {
  assert(op.has_diag_inverse());
}

template <typename T>
typename SchurCoarseOp<T>::Field SchurCoarseOp<T>::create_vector() const {
  return Field(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(),
               Subset::Even);
}

template <typename T>
double SchurCoarseOp<T>::flops_per_apply() const {
  return op_.flops_per_apply();
}

template <typename T>
void SchurCoarseOp<T>::apply(Field& out, const Field& in) const {
  this->count_apply();
  op_.count_apply();  // one Schur apply costs one coarse-operator apply
  // S = X_ee + Y_eo X_oo^{-1} Y_oe sign convention: Mhat = X + Y_hop, so
  // S in = X_ee in - Y_eo X_oo^{-1} Y_oe in ... with Mhat = X + H the Schur
  // complement is X_ee - H_eo X_oo^{-1} H_oe.
  op_.apply_hopping_parity(tmp_odd_, in, /*out_parity=*/1);
  op_.apply_diag_inverse(tmp_odd2_, tmp_odd_, /*parity=*/1);
  op_.apply_hopping_parity(tmp_even_, tmp_odd2_, /*out_parity=*/0);
  op_.apply_diag(out, in, /*parity=*/0);
  for (long k = 0; k < out.size(); ++k) out.data()[k] -= tmp_even_.data()[k];
}

template <typename T>
void SchurCoarseOp<T>::apply_block(BlockField& out, const BlockField& in) const {
  const int nrhs = in.nrhs();
  for (int k = 0; k < nrhs; ++k) {
    this->count_apply();
    op_.count_apply();
  }
  BlockField odd(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                 Subset::Odd);
  BlockField odd2(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                  Subset::Odd);
  BlockField even(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                  Subset::Even);
  op_.apply_hopping_parity_block(odd, in, /*out_parity=*/1);
  op_.apply_diag_inverse_block(odd2, odd, /*parity=*/1);
  op_.apply_hopping_parity_block(even, odd2, /*out_parity=*/0);
  op_.apply_diag_block(out, in, /*parity=*/0);
  for (long k = 0; k < out.size(); ++k) out.data()[k] -= even.data()[k];
}

template <typename T>
void SchurCoarseOp<T>::prepare_block(BlockField& b_hat,
                                     const BlockField& b) const {
  const int nrhs = b.nrhs();
  BlockField b_odd(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                   Subset::Odd);
  extract_parity_block(b_odd, b, 1);
  BlockField odd(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                 Subset::Odd);
  BlockField even(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                  Subset::Even);
  op_.apply_diag_inverse_block(odd, b_odd, /*parity=*/1);
  op_.apply_hopping_parity_block(even, odd, /*out_parity=*/0);
  extract_parity_block(b_hat, b, 0);
  for (long k = 0; k < b_hat.size(); ++k) b_hat.data()[k] -= even.data()[k];
}

template <typename T>
void SchurCoarseOp<T>::reconstruct_block(BlockField& x_full,
                                         const BlockField& x_even,
                                         const BlockField& b) const {
  const int nrhs = b.nrhs();
  // x_o = X_oo^{-1} (b_o - H_oe x_e).
  BlockField odd(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                 Subset::Odd);
  op_.apply_hopping_parity_block(odd, x_even, /*out_parity=*/1);
  BlockField b_odd(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                   Subset::Odd);
  extract_parity_block(b_odd, b, 1);
  for (long k = 0; k < b_odd.size(); ++k) b_odd.data()[k] -= odd.data()[k];
  BlockField odd2(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                  Subset::Odd);
  op_.apply_diag_inverse_block(odd2, b_odd, /*parity=*/1);
  insert_parity_block(x_full, x_even, 0);
  insert_parity_block(x_full, odd2, 1);
}

template <typename T>
void SchurCoarseOp<T>::apply_dagger(Field& out, const Field& in) const {
  if (!dagger_tmp_) dagger_tmp_.emplace(create_vector());
  apply_gamma5(*dagger_tmp_, in);
  apply(out, *dagger_tmp_);
  apply_gamma5(out, out);
}

template <typename T>
void SchurCoarseOp<T>::prepare(Field& b_hat, const Field& b) const {
  assert(b.subset() == Subset::Full);
  Field b_odd(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(),
              Subset::Odd);
  extract_parity(b_odd, b, 1);
  op_.apply_diag_inverse(tmp_odd_, b_odd, /*parity=*/1);
  op_.apply_hopping_parity(tmp_even_, tmp_odd_, /*out_parity=*/0);
  extract_parity(b_hat, b, 0);
  // Mhat x = X x + H x = b  =>  Schur rhs: b_e - H_eo X_oo^{-1} b_o.
  for (long k = 0; k < b_hat.size(); ++k)
    b_hat.data()[k] -= tmp_even_.data()[k];
}

template <typename T>
void SchurCoarseOp<T>::reconstruct(Field& x_full, const Field& x_even,
                                   const Field& b) const {
  assert(b.subset() == Subset::Full && x_full.subset() == Subset::Full);
  // x_o = X_oo^{-1} (b_o - H_oe x_e).
  op_.apply_hopping_parity(tmp_odd_, x_even, /*out_parity=*/1);
  Field b_odd(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(),
              Subset::Odd);
  extract_parity(b_odd, b, 1);
  for (long k = 0; k < b_odd.size(); ++k)
    b_odd.data()[k] -= tmp_odd_.data()[k];
  op_.apply_diag_inverse(tmp_odd2_, b_odd, /*parity=*/1);
  insert_parity(x_full, x_even, 0);
  insert_parity(x_full, tmp_odd2_, 1);
}

// --- conversion -------------------------------------------------------------

template <typename To, typename From>
CoarseDirac<To> convert_coarse(const CoarseDirac<From>& in) {
  if (!in.has_native_storage())
    throw std::logic_error(
        "convert_coarse: source operator's native storage was released "
        "(compress_storage); convert before compressing");
  CoarseDirac<To> out(in.geometry(), in.ncolor());
  const int n = in.block_dim();
  const long v = in.geometry()->volume();
  for (long site = 0; site < v; ++site) {
    for (int link = 0; link < CoarseDirac<From>::kNLinks; ++link) {
      const Complex<From>* src = in.link_data(site, link);
      Complex<To>* dst = out.link_data(site, link);
      for (int k = 0; k < n * n; ++k)
        dst[k] = Complex<To>(static_cast<To>(src[k].re),
                             static_cast<To>(src[k].im));
    }
    const Complex<From>* src = in.diag_data(site);
    Complex<To>* dst = out.diag_data(site);
    for (int k = 0; k < n * n; ++k)
      dst[k] = Complex<To>(static_cast<To>(src[k].re),
                           static_cast<To>(src[k].im));
  }
  if (in.has_diag_inverse()) out.compute_diag_inverse();
  return out;
}

template class CoarseDirac<double>;
template class CoarseDirac<float>;
template class SchurCoarseOp<double>;
template class SchurCoarseOp<float>;
template CoarseDirac<float> convert_coarse<float, double>(
    const CoarseDirac<double>&);
template CoarseDirac<double> convert_coarse<double, float>(
    const CoarseDirac<float>&);

}  // namespace qmg
