#include "comm/dist_coarse.h"

#include <cstring>
#include <stdexcept>

#include "dirac/gamma.h"
#include "fields/blas.h"
#include "mg/coarse_row.h"
#include "mg/coarse_stencil.h"
#include "parallel/dispatch.h"

namespace qmg {

using detail::DenseBlock;
using detail::DenseStencil;
using detail::HalfStencil;

template <typename T>
DistributedCoarseOp<T>::DistributedCoarseOp(const CoarseDirac<T>& global,
                                            DecompositionPtr dec)
    : dec_(std::move(dec)), nc_(global.ncolor()), n_(global.block_dim()),
      storage_(global.storage()) {
  const int nranks = dec_->nranks();
  const long v = dec_->local_volume();
  const size_t block = static_cast<size_t>(n_) * n_;

  // Split the global links over the ranks in the global operator's own
  // storage format — a compressed global stays compressed per rank, and the
  // Half16 split is a raw int16+scale copy (no dequantize/requantize round
  // trip), so every per-rank stencil row resolves bit-identically to the
  // global one.
  if (storage_ == CoarseStorage::Single) {
    links_lo_.assign(nranks, std::vector<Complex<float>>(
                                 static_cast<size_t>(v) *
                                 CoarseDirac<T>::kNLinks * block));
    diag_lo_.assign(nranks,
                    std::vector<Complex<float>>(static_cast<size_t>(v) *
                                                block));
    for (int r = 0; r < nranks; ++r) {
      for (long i = 0; i < v; ++i) {
        const long gi = dec_->global_index(r, i);
        for (int l = 0; l < CoarseDirac<T>::kNLinks; ++l)
          std::memcpy(links_lo_[r].data() +
                          (static_cast<size_t>(i) * CoarseDirac<T>::kNLinks +
                           l) * block,
                      global.link_lo_data(gi, l),
                      sizeof(Complex<float>) * block);
        std::memcpy(diag_lo_[r].data() + static_cast<size_t>(i) * block,
                    global.diag_lo_data(gi), sizeof(Complex<float>) * block);
      }
    }
  } else if (storage_ == CoarseStorage::Half16) {
    half_.reserve(nranks);
    for (int r = 0; r < nranks; ++r) {
      half_.emplace_back(v, n_);
      for (long i = 0; i < v; ++i)
        half_.back().copy_site(i, global.half_links(),
                               dec_->global_index(r, i));
    }
  } else {
    links_.assign(nranks, std::vector<Complex<T>>(
                              static_cast<size_t>(v) *
                              CoarseDirac<T>::kNLinks * block));
    diag_.assign(nranks,
                 std::vector<Complex<T>>(static_cast<size_t>(v) * block));
    for (int r = 0; r < nranks; ++r) {
      for (long i = 0; i < v; ++i) {
        const long gi = dec_->global_index(r, i);
        for (int l = 0; l < CoarseDirac<T>::kNLinks; ++l)
          std::memcpy(links_[r].data() +
                          (static_cast<size_t>(i) * CoarseDirac<T>::kNLinks +
                           l) * block,
                      global.link_data(gi, l), sizeof(Complex<T>) * block);
        std::memcpy(diag_[r].data() + static_cast<size_t>(i) * block,
                    global.diag_data(gi), sizeof(Complex<T>) * block);
      }
    }
  }

  // Split the diagonal inverse alongside (the distributed Schur kernels
  // read the exact global inverse blocks, whatever their precision).
  if (global.has_diag_inverse()) {
    const bool native_inv = storage_ == CoarseStorage::Native;
    if (native_inv)
      diag_inv_.assign(nranks,
                       std::vector<Complex<T>>(static_cast<size_t>(v) *
                                               block));
    else
      diag_inv_lo_.assign(nranks, std::vector<Complex<float>>(
                                      static_cast<size_t>(v) * block));
    for (int r = 0; r < nranks; ++r) {
      for (long i = 0; i < v; ++i) {
        const long gi = dec_->global_index(r, i);
        if (native_inv)
          std::memcpy(diag_inv_[r].data() + static_cast<size_t>(i) * block,
                      global.diag_inv_data(gi), sizeof(Complex<T>) * block);
        else
          std::memcpy(diag_inv_lo_[r].data() + static_cast<size_t>(i) * block,
                      global.diag_inv_lo_data(gi),
                      sizeof(Complex<float>) * block);
      }
    }
  }

  // Global-parity partition of every rank's local sites.  Parity must be
  // computed from GLOBAL coordinates: a subdomain whose origin has odd
  // parity sees the local checkerboard flipped, and the Schur complement is
  // defined on the global red-black coloring.
  const auto& global_geom = *dec_->global();
  std::vector<std::uint8_t> is_boundary(static_cast<size_t>(v), 0);
  for (const long s : dec_->boundary_sites())
    is_boundary[static_cast<size_t>(s)] = 1;
  parity_all_.resize(nranks);
  parity_interior_.resize(nranks);
  parity_boundary_.resize(nranks);
  for (int r = 0; r < nranks; ++r) {
    for (long i = 0; i < v; ++i) {
      const int p = global_geom.parity(dec_->global_index(r, i));
      parity_all_[r][static_cast<size_t>(p)].push_back(i);
      if (is_boundary[static_cast<size_t>(i)])
        parity_boundary_[r][static_cast<size_t>(p)].push_back(i);
      else
        parity_interior_[r][static_cast<size_t>(p)].push_back(i);
    }
  }
}

template <typename T>
template <typename Fn>
void DistributedCoarseOp<T>::with_stencil(int rank, Fn&& fn) const {
  switch (storage_) {
    case CoarseStorage::Single:
      fn(DenseStencil<float>{links_lo_[rank].data(), diag_lo_[rank].data(),
                             n_});
      break;
    case CoarseStorage::Half16:
      fn(HalfStencil{&half_[rank]});
      break;
    default:
      fn(DenseStencil<T>{links_[rank].data(), diag_[rank].data(), n_});
  }
}

template <typename T>
template <typename St>
void DistributedCoarseOp<T>::site_row_update(
    const St& st, int rank, const DistributedSpinor<T>& in,
    ColorSpinorField<T>& dst_field, long site,
    const CoarseKernelConfig& config) const {
  using Blk = typename St::Block;
  const Complex<T>* xin[9];
  xin[0] = in.local(rank).site_data(site);
  for (int mu = 0; mu < kNDim; ++mu) {
    xin[1 + 2 * mu] = in.site_or_ghost(rank, dec_->neighbor_fwd(site, mu));
    xin[2 + 2 * mu] = in.site_or_ghost(rank, dec_->neighbor_bwd(site, mu));
  }
  Blk blks[9];
  for (int m = 0; m < 9; ++m) blks[m] = st.block(site, m);
  coarse_rows<T>(config, blks, xin, n_, 0, n_, dst_field.site_data(site));
}

template <typename T>
template <typename St>
void DistributedCoarseOp<T>::site_rows_update_rhs(
    const St& st, int rank, const DistributedBlockSpinor<T>& in,
    BlockSpinor<T>& dst_field, long site, long k0, long k1,
    const CoarseKernelConfig& config) const {
  // Mirrors CoarseDirac::apply_block_with_config's scalar tile walk: each
  // stencil element read once per (site, row, tile), rhs streamed
  // unit-stride by coarse_row_mrhs_span (per-rhs partial-sum shape
  // identical to the row-tile kernel's, so per-rhs results are
  // bit-identical to the single-rhs distributed apply at the same
  // precision axes).  Local and ghost site blocks share the rhs-innermost
  // layout, so the same pointer arithmetic serves both.
  using Blk = typename St::Block;
  const int nrhs = in.nrhs();
  long nbr[9];
  nbr[0] = site;
  for (int mu = 0; mu < kNDim; ++mu) {
    nbr[1 + 2 * mu] = dec_->neighbor_fwd(site, mu);
    nbr[2 + 2 * mu] = dec_->neighbor_bwd(site, mu);
  }
  Blk blks[9];
  for (int m = 0; m < 9; ++m) blks[m] = st.block(site, m);
  for (long t0 = k0; t0 < k1; t0 += kCoarseRowMaxTile) {
    const int tile =
        static_cast<int>(std::min<long>(kCoarseRowMaxTile, k1 - t0));
    const Complex<T>* xin[9];
    for (int m = 0; m < 9; ++m)
      xin[m] = in.site_or_ghost(rank, nbr[m]) + t0;
    Complex<T>* dst = dst_field.site_data(site) + t0;
    for (int row = 0; row < n_; ++row)
      coarse_row_mrhs_span<T>(blks, row, xin, nrhs, n_, config, tile,
                              dst + static_cast<long>(row) * nrhs);
  }
}

template <typename T>
void DistributedCoarseOp<T>::apply(DistributedSpinor<T>& out,
                                   DistributedSpinor<T>& in,
                                   const CoarseKernelConfig& config,
                                   CommStats* stats, HaloMode mode) const {
  const long v = dec_->local_volume();

  if (mode == HaloMode::Sync) {
    in.exchange_halos(stats);
    for (int r = 0; r < dec_->nranks(); ++r) {
      ColorSpinorField<T>& dst_field = out.local(r);
      with_stencil(r, [&](const auto& st) {
        parallel_for(v, [&](long site) {
          site_row_update(st, r, in, dst_field, site, config);
        });
      });
    }
    return;
  }

  // Two-phase overlapped apply: interior launch races the persistent comm
  // worker, boundary launch follows the ghost landing (run_overlapped in
  // dist_spinor.h is the shared protocol).
  auto phase = [&](const std::vector<long>& sites) {
    for (int r = 0; r < dec_->nranks(); ++r) {
      ColorSpinorField<T>& dst_field = out.local(r);
      with_stencil(r, [&](const auto& st) {
        parallel_for_indices(sites, [&](long site) {
          site_row_update(st, r, in, dst_field, site, config);
        });
      });
    }
  };
  run_overlapped(in, stats, [&] { phase(dec_->interior_sites()); },
                 [&] { phase(dec_->boundary_sites()); });
}

template <typename T>
void DistributedCoarseOp<T>::apply_block(DistributedBlockSpinor<T>& out,
                                         DistributedBlockSpinor<T>& in,
                                         const CoarseKernelConfig& config,
                                         CommStats* stats, HaloMode mode,
                                         const LaunchPolicy& policy) const {
  if (out.nrhs() != in.nrhs() || in.site_dof() != n_ || out.site_dof() != n_)
    throw std::invalid_argument("dist coarse apply_block: shape mismatch");
  const long v = dec_->local_volume();
  const int nrhs = in.nrhs();

  if (mode == HaloMode::Sync) {
    in.exchange_halos(stats, policy);
    for (int r = 0; r < dec_->nranks(); ++r) {
      BlockSpinor<T>& dst_field = out.local(r);
      with_stencil(r, [&](const auto& st) {
        parallel_for_2d_tiled(v, nrhs, policy,
                              [&](long site, long k0, long k1) {
          site_rows_update_rhs(st, r, in, dst_field, site, k0, k1, config);
        });
      });
    }
    return;
  }

  auto phase = [&](const std::vector<long>& sites) {
    for (int r = 0; r < dec_->nranks(); ++r) {
      BlockSpinor<T>& dst_field = out.local(r);
      with_stencil(r, [&](const auto& st) {
        parallel_for_2d_indices_tiled(
            sites, nrhs, policy, [&](long site, long k0, long k1) {
              site_rows_update_rhs(st, r, in, dst_field, site, k0, k1,
                                   config);
            });
      });
    }
  };
  run_overlapped(in, stats, [&] { phase(dec_->interior_sites()); },
                 [&] { phase(dec_->boundary_sites()); });
}

// --- distributed even-odd (Schur) kernels -----------------------------------

template <typename T>
template <typename St>
void DistributedCoarseOp<T>::site_hop_rhs(const St& st, int rank,
                                          const DistributedBlockSpinor<T>& in,
                                          BlockSpinor<T>& dst_field,
                                          long site, int k) const {
  // Per-(site, rhs) hopping row sums in exactly the order of
  // CoarseDirac::apply_hopping_parity_block_st: gather the 8 neighbor
  // vectors of rhs k, then run the row-tile kernel's RowChain over the 8
  // links.  Neighbor gathers read local or ghost blocks through the shared
  // rhs-innermost layout.
  using Blk = typename St::Block;
  const int n = n_;
  const int nrhs = in.nrhs();
  Complex<T> xbuf[8 * CoarseDirac<T>::kMaxBlockDim];
  const Complex<T>* xin[8];
  Blk blks[8];
  for (int mu = 0; mu < kNDim; ++mu) {
    const long nf = dec_->neighbor_fwd(site, mu);
    const long nb = dec_->neighbor_bwd(site, mu);
    const Complex<T>* pf = in.site_or_ghost(rank, nf) + k;
    const Complex<T>* pb = in.site_or_ghost(rank, nb) + k;
    for (int d = 0; d < n; ++d) {
      xbuf[(2 * mu) * n + d] = pf[static_cast<size_t>(d) * nrhs];
      xbuf[(2 * mu + 1) * n + d] = pb[static_cast<size_t>(d) * nrhs];
    }
  }
  for (int l = 0; l < 8; ++l) {
    xin[l] = xbuf + l * n;
    blks[l] = st.link(site, l);
  }
  Complex<T> acc[CoarseDirac<T>::kMaxBlockDim];
  coarse_rows<T>(RowChain{8}, blks, xin, n, 0, n, acc);
  Complex<T>* dst = dst_field.site_data(site) + k;
  for (int r = 0; r < n; ++r) dst[static_cast<size_t>(r) * nrhs] = acc[r];
}

template <typename T>
void DistributedCoarseOp<T>::apply_hopping_parity_block(
    DistributedBlockSpinor<T>& out, DistributedBlockSpinor<T>& in,
    int out_parity, CommStats* stats, HaloMode mode,
    const LaunchPolicy& policy) const {
  if (out.nrhs() != in.nrhs() || in.site_dof() != n_ || out.site_dof() != n_)
    throw std::invalid_argument("dist hopping_parity_block: shape mismatch");
  if (n_ > CoarseDirac<T>::kMaxBlockDim)
    throw std::invalid_argument("dist hopping kernel: N exceeds buffer cap");
  const int nrhs = in.nrhs();
  auto phase = [&](const std::vector<std::array<std::vector<long>, 2>>&
                       lists) {
    for (int r = 0; r < dec_->nranks(); ++r) {
      BlockSpinor<T>& dst_field = out.local(r);
      with_stencil(r, [&](const auto& st) {
        parallel_for_2d_indices_tiled(
            lists[static_cast<size_t>(r)][static_cast<size_t>(out_parity)],
            nrhs, policy, [&](long site, long k0, long k1) {
              for (long k = k0; k < k1; ++k)
                site_hop_rhs(st, r, in, dst_field, site,
                             static_cast<int>(k));
            });
      });
    }
  };
  if (mode == HaloMode::Sync) {
    in.exchange_halos(stats, policy);
    phase(parity_all_);
    return;
  }
  run_overlapped(in, stats, [&] { phase(parity_interior_); },
                 [&] { phase(parity_boundary_); });
}

namespace {

/// Shared batched distributed diagonal kernel: out = D in per (site, rhs)
/// over one rank's site list, with D(site) the block handle
/// `block_of(site)` — exactly the arithmetic of coarse_op.cpp's
/// block_diag_kernel, on full-volume local blocks.
template <typename T, typename BlockOf>
void dist_parity_diag_kernel(const std::vector<long>& sites,
                             BlockSpinor<T>& out_local,
                             const BlockSpinor<T>& in_local, int n,
                             const LaunchPolicy& policy, BlockOf&& block_of) {
  parallel_for_2d_indices_tiled(
      sites, in_local.nrhs(), policy, [&](long site, long k0, long k1) {
        const auto blk = block_of(site);
        for (long kk = k0; kk < k1; ++kk) {
          const int k = static_cast<int>(kk);
          Complex<T> src[CoarseDirac<T>::kMaxBlockDim];
          Complex<T> dst[CoarseDirac<T>::kMaxBlockDim];
          in_local.gather_site_rhs(site, k, src);
          const Complex<T>* xin = src;
          coarse_rows<T>(RowChain{1}, &blk, &xin, n, 0, n, dst);
          out_local.scatter_site_rhs(site, k, dst);
        }
      });
}

}  // namespace

template <typename T>
void DistributedCoarseOp<T>::apply_diag_block(
    DistributedBlockSpinor<T>& out, const DistributedBlockSpinor<T>& in,
    int parity, const LaunchPolicy& policy) const {
  if (out.nrhs() != in.nrhs() || n_ > CoarseDirac<T>::kMaxBlockDim)
    throw std::invalid_argument("dist apply_diag_block: bad shape");
  for (int r = 0; r < dec_->nranks(); ++r)
    with_stencil(r, [&](const auto& st) {
      dist_parity_diag_kernel(
          parity_all_[static_cast<size_t>(r)][static_cast<size_t>(parity)],
          out.local(r), in.local(r), n_, policy,
          [&](long site) { return st.diag_block(site); });
    });
}

template <typename T>
void DistributedCoarseOp<T>::apply_diag_inverse_block(
    DistributedBlockSpinor<T>& out, const DistributedBlockSpinor<T>& in,
    int parity, const LaunchPolicy& policy) const {
  if (!has_diag_inverse())
    throw std::logic_error(
        "dist apply_diag_inverse_block: global operator had no diagonal "
        "inverse at split time");
  if (out.nrhs() != in.nrhs() || n_ > CoarseDirac<T>::kMaxBlockDim)
    throw std::invalid_argument("dist apply_diag_inverse_block: bad shape");
  const size_t nn = static_cast<size_t>(n_) * n_;
  for (int r = 0; r < dec_->nranks(); ++r) {
    const std::vector<long>& sites =
        parity_all_[static_cast<size_t>(r)][static_cast<size_t>(parity)];
    if (storage_ == CoarseStorage::Native)
      dist_parity_diag_kernel(sites, out.local(r), in.local(r), n_, policy,
                              [&](long site) {
                                return DenseBlock<T>{
                                    diag_inv_[r].data() +
                                    static_cast<size_t>(site) * nn};
                              });
    else
      dist_parity_diag_kernel(sites, out.local(r), in.local(r), n_, policy,
                              [&](long site) {
                                return DenseBlock<float>{
                                    diag_inv_lo_[r].data() +
                                    static_cast<size_t>(site) * nn};
                              });
  }
}

template <typename T>
void DistributedCoarseOp<T>::sub_parity_block(
    DistributedBlockSpinor<T>& y, const DistributedBlockSpinor<T>& x,
    int parity, const LaunchPolicy& policy) const {
  if (y.nrhs() != x.nrhs())
    throw std::invalid_argument("dist sub_parity_block: rhs count mismatch");
  const long slot = static_cast<long>(y.site_dof()) * y.nrhs();
  for (int r = 0; r < dec_->nranks(); ++r) {
    BlockSpinor<T>& yl = y.local(r);
    const BlockSpinor<T>& xl = x.local(r);
    parallel_for_indices(
        parity_all_[static_cast<size_t>(r)][static_cast<size_t>(parity)],
        policy, [&](long site) {
          Complex<T>* yp = yl.site_data(site);
          const Complex<T>* xp = xl.site_data(site);
          for (long i = 0; i < slot; ++i) yp[i] -= xp[i];
        });
  }
}

// --- DistributedBlockCoarseOp ------------------------------------------------

template <typename T>
void DistributedBlockCoarseOp<T>::apply(Field& out, const Field& in) const {
  this->count_apply();
  global_.count_apply();  // keep per-level workload traces accurate
  if (!sin_) {
    sin_ = std::make_unique<DistributedSpinor<T>>(dist_.create_vector());
    sin_->set_wire_precision(wire_);
    sout_ = std::make_unique<DistributedSpinor<T>>(dist_.create_vector());
  }
  sin_->scatter(in);
  dist_.apply(*sout_, *sin_, global_.resolve_kernel().first, &stats_, mode_);
  sout_->gather(out);
}

template <typename T>
void DistributedBlockCoarseOp<T>::apply_block(BlockField& out,
                                              const BlockField& in) const {
  for (int k = 0; k < in.nrhs(); ++k) {
    this->count_apply();
    global_.count_apply();
  }
  if (!bin_ || bin_->nrhs() != in.nrhs()) {
    bin_ = std::make_unique<DistributedBlockSpinor<T>>(
        dist_.create_block(in.nrhs()));
    bin_->set_wire_precision(wire_);
    bout_ = std::make_unique<DistributedBlockSpinor<T>>(
        dist_.create_block(in.nrhs()));
  }
  bin_->scatter(in);
  dist_.apply_block(*bout_, *bin_, global_.resolve_kernel(in.nrhs()).first,
                    &stats_, mode_);
  bout_->gather(out);
}

template <typename T>
void DistributedBlockCoarseOp<T>::apply_dagger(Field& out,
                                               const Field& in) const {
  // Coarse gamma5-Hermiticity, exactly CoarseDirac::apply_dagger's sandwich.
  if (!dagger_tmp_) dagger_tmp_.emplace(create_vector());
  apply_gamma5(*dagger_tmp_, in);
  apply(out, *dagger_tmp_);
  apply_gamma5(out, out);
}

// --- DistributedSchurCoarseOp ------------------------------------------------

template <typename T>
void DistributedSchurCoarseOp<T>::ensure_staging(int nrhs) const {
  if (full_ && full_->nrhs() == nrhs) return;
  const auto& geom = dist_.decomposition()->global();
  full_ = std::make_unique<BlockField>(geom, CoarseDirac<T>::kNSpin,
                                       dist_.ncolor(), nrhs);
  din_ = std::make_unique<DistributedBlockSpinor<T>>(dist_.create_block(nrhs));
  din_->set_wire_precision(wire_);
  dodd_ =
      std::make_unique<DistributedBlockSpinor<T>>(dist_.create_block(nrhs));
  dodd2_ =
      std::make_unique<DistributedBlockSpinor<T>>(dist_.create_block(nrhs));
  dodd2_->set_wire_precision(wire_);
  deven_ =
      std::make_unique<DistributedBlockSpinor<T>>(dist_.create_block(nrhs));
  dout_ =
      std::make_unique<DistributedBlockSpinor<T>>(dist_.create_block(nrhs));
}

template <typename T>
void DistributedSchurCoarseOp<T>::apply_block(BlockField& out,
                                              const BlockField& in) const {
  const int nrhs = in.nrhs();
  for (int k = 0; k < nrhs; ++k) {
    this->count_apply();
    schur_.coarse_op().count_apply();  // one Schur apply = one coarse apply
  }
  ensure_staging(nrhs);
  // S in = X_ee in - Y_eo X_oo^{-1} Y_oe in, every stage distributed: the
  // two hops each run one batched (optionally overlapped) halo exchange —
  // the nested-apply structure of an even-odd coarsest solve.  The even
  // input embedding leaves odd sites of full_ zero; each parity kernel
  // writes only its own parity, so the staging fields compose exactly like
  // SchurCoarseOp::apply_block's parity-subset temporaries.
  insert_parity_block(*full_, in, /*parity=*/0);
  din_->scatter(*full_);
  dist_.apply_hopping_parity_block(*dodd_, *din_, /*out_parity=*/1, &stats_,
                                   mode_);
  dist_.apply_diag_inverse_block(*dodd2_, *dodd_, /*parity=*/1);
  dist_.apply_hopping_parity_block(*deven_, *dodd2_, /*out_parity=*/0,
                                   &stats_, mode_);
  dist_.apply_diag_block(*dout_, *din_, /*parity=*/0);
  dist_.sub_parity_block(*dout_, *deven_, /*parity=*/0);
  dout_->gather(*full_);
  extract_parity_block(out, *full_, /*parity=*/0);
  // Restore the invariant that odd sites of full_ are zero for the next
  // embedding (gather wrote X_oo^{-1}-path zeros there anyway: dout_'s odd
  // sites are never written, and its fields start zeroed).
}

template <typename T>
void DistributedSchurCoarseOp<T>::apply(Field& out, const Field& in) const {
  // Single-rhs applies ride the batched path as a 1-rhs block (the
  // distributed Schur is only on the hot path of block cycles; per-rhs
  // bit-identity of the batched kernels makes this exact).
  BlockField bin(in.geometry(), in.nspin(), in.ncolor(), 1, in.subset());
  bin.insert_rhs(in, 0);
  BlockField bout = bin.similar();
  apply_block(bout, bin);
  bout.extract_rhs(out, 0);
}

template <typename T>
void DistributedSchurCoarseOp<T>::apply_dagger(Field& out,
                                               const Field& in) const {
  if (!dagger_tmp_) dagger_tmp_.emplace(create_vector());
  apply_gamma5(*dagger_tmp_, in);
  apply(out, *dagger_tmp_);
  apply_gamma5(out, out);
}

template class DistributedCoarseOp<double>;
template class DistributedCoarseOp<float>;
template class DistributedBlockCoarseOp<double>;
template class DistributedBlockCoarseOp<float>;
template class DistributedSchurCoarseOp<double>;
template class DistributedSchurCoarseOp<float>;

}  // namespace qmg
