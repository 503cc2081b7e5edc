#pragma once
// Internal block views over the coarse operator's storage formats, shared
// by the single-rhs kernels (mg/coarse_op.cpp), the batched MRHS kernels
// (mg/mrhs.cpp) and the distributed operator (comm/dist_coarse.cpp), so the
// stencil-index mapping and the element loads exist exactly once — the
// bit-identity guarantee between those kernel families depends on them
// reading the same values.
//
// Every dense N x N block is column-major: element (r, c) at flat index
// c*N + r (CoarseDirac::elem_offset).  A block handle exposes
//   elem<Tacc>(k)     element k promoted to the accumulation type, and
//   pack<Tacc, W>(k)  elements k .. k+W-1 as one lane pack,
// so a column's consecutive rows load straight into the row lanes of
// mg/coarse_row.h.  Dense handles read in place; Half16 handles dequantize
// on load (fields/halflinks.h), so no format needs a scratch copy.

#include "fields/halflinks.h"
#include "gpusim/kernels.h"
#include "linalg/complex.h"
#include "linalg/simd.h"
#include "mg/coarse_op.h"

namespace qmg {
namespace detail {

/// The device-model precision of a coarse apply: the storage format sets
/// the bytes the SimtModel backend charges for.
template <typename T>
inline SimPrecision sim_precision(CoarseStorage storage) {
  switch (storage) {
    case CoarseStorage::Single: return SimPrecision::Single;
    case CoarseStorage::Half16: return SimPrecision::Half;
    default:
      return sizeof(T) == 4 ? SimPrecision::Single : SimPrecision::Double;
  }
}

/// CoarseDirac<T>::kNLinks for every T.
inline constexpr int kCoarseLinks = 8;

/// Handle on one dense (native T or compressed float) column-major block.
template <typename TM>
struct DenseBlock {
  const Complex<TM>* p;

  template <typename Tacc>
  Complex<Tacc> elem(long k) const {
    return Complex<Tacc>(p[k]);
  }
  template <typename Tacc, int W>
  simd::cpack<Tacc, W> pack(long k) const {
    return simd::cpack<Tacc, W>::load_from(p + k);
  }
};

/// Zero-copy view over dense stencil storage (links + diagonal).
template <typename TM>
struct DenseStencil {
  using Block = DenseBlock<TM>;

  const Complex<TM>* links;
  const Complex<TM>* diag;
  int n;

  Block link(long site, int l) const {
    const size_t nn = static_cast<size_t>(n) * n;
    return {links + (static_cast<size_t>(site) * kCoarseLinks + l) * nn};
  }
  Block diag_block(long site) const {
    return {diag + static_cast<size_t>(site) * n * n};
  }
  /// Stencil index m: 0 = diagonal, 1..8 = link m-1 (the blocks[] order of
  /// the row kernels in mg/coarse_row.h).
  Block block(long site, int m) const {
    return m == 0 ? diag_block(site) : link(site, m - 1);
  }
};

/// Dequantizing view over Half16 stencil storage.
struct HalfStencil {
  using Block = HalfCoarseLinks::Block;

  const HalfCoarseLinks* h;

  Block link(long site, int l) const { return h->block(site, l); }
  Block diag_block(long site) const {
    return h->block(site, HalfCoarseLinks::kDiagBlock);
  }
  Block block(long site, int m) const {
    return m == 0 ? diag_block(site) : link(site, m - 1);
  }
};

}  // namespace detail

/// Run fn(view) with the block view of the ACTIVE stencil storage.
template <typename T>
template <typename Fn>
void CoarseDirac<T>::with_stencil(Fn&& fn) const {
  switch (storage_) {
    case CoarseStorage::Single:
      fn(detail::DenseStencil<float>{links_lo_.data(), diag_lo_.data(), n_});
      break;
    case CoarseStorage::Half16:
      fn(detail::HalfStencil{&half_});
      break;
    default:
      fn(detail::DenseStencil<T>{links_.data(), diag_.data(), n_});
  }
}

/// Run fn(block_of) with block_of(site) the handle of the site's diagonal
/// inverse (T for Native storage, float otherwise).
template <typename T>
template <typename Fn>
void CoarseDirac<T>::with_diag_inverse(Fn&& fn) const {
  if (storage_ == CoarseStorage::Native)
    fn([this](long site) { return detail::DenseBlock<T>{diag_inv_data(site)}; });
  else
    fn([this](long site) {
      return detail::DenseBlock<float>{diag_inv_lo_data(site)};
    });
}

}  // namespace qmg
