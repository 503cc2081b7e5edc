#include "mg/mrhs.h"

#include <algorithm>
#include <stdexcept>

#include "fields/blockspinor.h"
#include "gpusim/kernels.h"
#include "mg/coarse_row.h"
#include "mg/coarse_stencil.h"
#include "parallel/dispatch.h"

namespace qmg {

using detail::DenseBlock;
using detail::sim_precision;

// --- CoarseDirac batched kernels (declared in mg/coarse_op.h) ---------------

template <typename T>
template <typename Stencil, typename TX>
void CoarseDirac<T>::apply_block_with_config_st(BlockField& out,
                                                const BlockSpinor<TX>& in,
                                                const CoarseKernelConfig& config,
                                                const LaunchPolicy& policy,
                                                const Stencil& st) const {
  using Blk = typename Stencil::Block;
  const long v = geom_->volume();
  const int n = n_;
  const int nrhs = in.nrhs();
  // Per-item neighbor indexing (Listing 2's arithmetic) and block handles.
  auto site_setup = [&](long site, long* nbr, Blk* blks) {
    nbr[0] = site;
    for (int mu = 0; mu < kNDim; ++mu) {
      nbr[1 + 2 * mu] = geom_->neighbor_fwd(site, mu);
      nbr[2 + 2 * mu] = geom_->neighbor_bwd(site, mu);
    }
    for (int m = 0; m < 9; ++m) blks[m] = st.block(site, m);
  };
  // Narrow batch (fewer rhs than one native pack, a single rhs always):
  // the rhs axis cannot fill a lane pack, so the output rows do — each rhs
  // runs through the row-tile kernel, whose per-row tree is the same
  // CoarseKernelConfig tree as the rhs-lane kernels below, so the results
  // are bit-identical either way.
  if (narrow_batch(nrhs)) {
    parallel_for_2d_tiled(v, nrhs, policy, [&](long site, long k0, long k1) {
      long nbr[9];
      Blk blks[9];
      site_setup(site, nbr, blks);
      for (long k = k0; k < k1; ++k) {
        Complex<TX> xbuf[9 * kMaxBlockDim];
        const Complex<TX>* xin[9];
        for (int m = 0; m < 9; ++m) {
          if (nrhs == 1) {
            xin[m] = in.site_data(nbr[m]);
          } else {
            in.gather_site_rhs(nbr[m], static_cast<int>(k), xbuf + m * n);
            xin[m] = xbuf + m * n;
          }
        }
        Complex<T> dst[kMaxBlockDim];
        coarse_rows<T>(config, blks, xin, n, 0, n, dst);
        out.scatter_site_rhs(site, static_cast<int>(k), dst);
      }
    });
    if (policy.backend == Backend::SimtModel)
      SimtStats::instance().record_work(coarse_op_work(
          v * nrhs, n_, config, sim_precision<T>(storage_)));
    return;
  }
  // One dispatch item per site x rhs tile, rows folded into the item: each
  // stencil element is read (or dequantized) once per (row, tile) and
  // streamed over the rhs axis unit-stride by coarse_row_mrhs_span (no
  // gather, no per-rhs re-read — the amortization this subsystem exists
  // for).  The per-row partial-sum shape — where the kernel config changes
  // the numerics — is identical to the row-tile kernel's, so results match
  // apply_with_config bit-for-bit at the same config and precision axes.
  //
  // Width path: the scalar sub-tile walk becomes a pack-group walk — the
  // whole sub-tile's full packs go through ONE coarse_row_mrhs_pack call
  // (stencil elements read once per sub-tile, exactly like the scalar
  // span), per-lane arithmetic identical to the scalar tile's per-k
  // arithmetic, the tile % W remainder through the scalar span.
  // rhs_block is clamped to a pack multiple first so no dispatch item
  // ever splits a pack.
  const int w = simd::width_for(effective_simd_width(policy),
                                static_cast<long>(nrhs));
  simd::dispatch_width(w, [&](auto wc) {
    constexpr int W = decltype(wc)::value;
    const LaunchPolicy p = align_rhs_block(policy, W);
    parallel_for_2d_tiled(v, nrhs, p, [&](long site, long k0, long k1) {
      long nbr[9];
      Blk blks[9];
      site_setup(site, nbr, blks);
      for (long t0 = k0; t0 < k1; t0 += kCoarseRowMaxTile) {
        const int tile =
            static_cast<int>(std::min<long>(kCoarseRowMaxTile, k1 - t0));
        const int groups = W > 1 ? tile / W : 0;
        const int rem = tile - groups * W;
        const Complex<TX>* xin[9];
        const Complex<TX>* xin_rem[9];
        for (int m = 0; m < 9; ++m) {
          xin[m] = in.site_data(nbr[m]) + t0;
          xin_rem[m] = xin[m] + groups * W;
        }
        Complex<T>* dst = out.site_data(site) + t0;
        for (int r = 0; r < n; ++r) {
          Complex<T>* const dr = dst + static_cast<long>(r) * nrhs;
          if constexpr (W > 1)
            if (groups > 0)
              coarse_row_mrhs_pack_groups<T, Blk, TX, W>(
                  blks, r, xin, nrhs, n, config, groups, dr);
          if (rem > 0)
            coarse_row_mrhs_span<T>(blks, r, xin_rem, nrhs, n, config, rem,
                                    dr + groups * W);
        }
      }
    });
  });
  if (policy.backend == Backend::SimtModel)
    SimtStats::instance().record_work(coarse_op_work(
        v * nrhs, n_, config, sim_precision<T>(storage_)));
}

namespace {

/// Shared shape validation for the batched coarse applies.
template <typename T, typename TOut, typename TIn>
void check_block_shapes(const CoarseDirac<T>& op, const BlockSpinor<TOut>& out,
                        const BlockSpinor<TIn>& in) {
  if (in.subset() != Subset::Full || out.subset() != Subset::Full)
    throw std::invalid_argument("coarse apply_block needs full-subset blocks");
  if (out.nrhs() != in.nrhs() || out.site_dof() != op.block_dim() ||
      in.site_dof() != op.block_dim())
    throw std::invalid_argument("coarse apply_block: block shape mismatch");
}

}  // namespace

template <typename T>
void CoarseDirac<T>::apply_block_with_config(BlockField& out,
                                            const BlockField& in,
                                            const CoarseKernelConfig& config,
                                            const LaunchPolicy& policy) const {
  check_block_shapes(*this, out, in);
  with_stencil([&](const auto& st) {
    apply_block_with_config_st(out, in, config, policy, st);
  });
}

template <typename T>
void CoarseDirac<T>::apply_block_staged(BlockField& out, const BlockField& in,
                                        const CoarseKernelConfig& config,
                                        const LaunchPolicy& policy) const {
  check_block_shapes(*this, out, in);
  // Low-precision rhs payload: one truncating copy of the block, then the
  // kernel streams float vectors (TX = float) while accumulating in T.
  // For T = float this degenerates to a copy of the plain batched apply.
  const BlockSpinor<float> staged = convert_block<float>(in);
  with_stencil([&](const auto& st) {
    apply_block_with_config_st(out, staged, config, policy, st);
  });
}

template <typename T>
void CoarseDirac<T>::apply_block(BlockField& out, const BlockField& in) const {
  for (int k = 0; k < in.nrhs(); ++k) this->count_apply();
  const auto [config, policy] = resolve_kernel(in.nrhs());
  apply_block_with_config(out, in, config, policy);
}

// --- MultiRhsCoarseOp -------------------------------------------------------

template <typename T>
void MultiRhsCoarseOp<T>::validate(const std::vector<Field>& out,
                                   const std::vector<Field>& in) const {
  if (out.size() != in.size())
    throw std::invalid_argument("mrhs: out/in size mismatch");
  if (in.empty()) throw std::invalid_argument("mrhs: empty rhs set");
  for (size_t k = 0; k < in.size(); ++k) {
    if (in[k].subset() != Subset::Full || out[k].subset() != Subset::Full)
      throw std::invalid_argument("mrhs: all fields must be full-subset");
    if (in[k].geometry() != op_.geometry() ||
        out[k].geometry() != op_.geometry() ||
        in[k].site_dof() != op_.block_dim() ||
        out[k].site_dof() != op_.block_dim())
      throw std::invalid_argument("mrhs: field shape does not match operator");
  }
}

template <typename T>
void MultiRhsCoarseOp<T>::apply(std::vector<Field>& out,
                                const std::vector<Field>& in,
                                const CoarseKernelConfig& config,
                                const LaunchPolicy& policy) const {
  validate(out, in);
  const BlockField in_block = pack_block(in);
  BlockField out_block = in_block.similar();
  op_.apply_block_with_config(out_block, in_block, config, policy);
  unpack_block(out, out_block);
}

template <typename T>
void MultiRhsCoarseOp<T>::apply_streamed(std::vector<Field>& out,
                                         const std::vector<Field>& in,
                                         const CoarseKernelConfig& config) const {
  validate(out, in);
  if (!op_.has_native_storage())
    throw std::logic_error(
        "mrhs apply_streamed: the streamed baseline reads native storage; "
        "the operator was compressed");
  const int nrhs = static_cast<int>(in.size());
  const auto& geom = *op_.geometry();
  const int n = op_.block_dim();
  const long v = geom.volume();

  parallel_for(v, [&](long site) {
    // Load the site's stencil blocks and neighbor indices once...
    DenseBlock<T> blks[9];
    long nbr[9];
    blks[0] = {op_.diag_data(site)};
    nbr[0] = site;
    for (int mu = 0; mu < kNDim; ++mu) {
      blks[1 + 2 * mu] = {op_.link_data(site, 2 * mu)};
      nbr[1 + 2 * mu] = geom.neighbor_fwd(site, mu);
      blks[2 + 2 * mu] = {op_.link_data(site, 2 * mu + 1)};
      nbr[2 + 2 * mu] = geom.neighbor_bwd(site, mu);
    }
    // ...and stream every right-hand side through them.  The row loop is
    // exactly the single-rhs kernel, so results are bit-identical.
    for (int k = 0; k < nrhs; ++k) {
      const Complex<T>* xin[9];
      for (int m = 0; m < 9; ++m) xin[m] = in[k].site_data(nbr[m]);
      coarse_rows<T>(config, blks, xin, n, 0, n, out[k].site_data(site));
    }
  });
}

template class MultiRhsCoarseOp<double>;
template class MultiRhsCoarseOp<float>;

// CoarseDirac is explicitly instantiated in coarse_op.cpp, where these
// member definitions are not visible; instantiate them here.
template void CoarseDirac<double>::apply_block_with_config(
    BlockSpinor<double>&, const BlockSpinor<double>&,
    const CoarseKernelConfig&, const LaunchPolicy&) const;
template void CoarseDirac<float>::apply_block_with_config(
    BlockSpinor<float>&, const BlockSpinor<float>&, const CoarseKernelConfig&,
    const LaunchPolicy&) const;
template void CoarseDirac<double>::apply_block_staged(
    BlockSpinor<double>&, const BlockSpinor<double>&,
    const CoarseKernelConfig&, const LaunchPolicy&) const;
template void CoarseDirac<float>::apply_block_staged(
    BlockSpinor<float>&, const BlockSpinor<float>&, const CoarseKernelConfig&,
    const LaunchPolicy&) const;
template void CoarseDirac<double>::apply_block(BlockSpinor<double>&,
                                               const BlockSpinor<double>&)
    const;
template void CoarseDirac<float>::apply_block(BlockSpinor<float>&,
                                              const BlockSpinor<float>&) const;

}  // namespace qmg
