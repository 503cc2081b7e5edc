#pragma once
// Galerkin construction of the coarse operator, Mhat = P^dag M P (paper
// section 3.4, step 4).
//
// Rather than applying M to prolongated unit vectors, the coarse link and
// diagonal blocks are accumulated directly from the fine stencil: every fine
// hop either stays inside an aggregate (contributing to the coarse diagonal
// X) or crosses an aggregate boundary (contributing to the coarse link Y in
// that direction).  Nearest-neighbor structure is therefore preserved
// exactly, as the paper notes below Eq. 3.
//
// Per fine site x the builder sums H V over the diagonal term and every
// aggregate-internal hop before a single V(x)^dag product into X, and
// forms V^dag H V only for the forward hops that leave the aggregate.  The
// backward links are then copied from coarse gamma5-Hermiticity,
// Ybwd_mu(b) = Gamma5 Yfwd_mu(b - mu)^dag Gamma5 — exact in exact
// arithmetic for a gamma5-Hermitian fine stencil (Wilson-Clover, and every
// coarse operator this builder emits), since the prolongator preserves
// chirality.  With 2x2x2x4 aggregates that is 2.75 V^dag products per fine
// site instead of 9.

#include "mg/coarse_op.h"
#include "mg/stencil.h"
#include "mg/transfer.h"

namespace qmg {

/// Build the coarse operator for `transfer` from the fine stencil view.
/// The result has ncolor = transfer.nvec() and nspin = 2.  `fine` must be
/// gamma5-Hermitian with gamma5 diagonal over its two chirality halves
/// (the backward links are derived from the forward ones).
///
/// `storage` selects the emitted link/diag storage format (paper section 4,
/// strategy (c)): the Galerkin accumulation always runs in the working
/// precision T — truncating only the finished product keeps the setup
/// numerics independent of the storage choice — and the result is then
/// compressed via CoarseDirac::compress_storage, with the diagonal inverse
/// precomputed from the native blocks first (so Schur preconditioning on
/// the compressed operator never inverts quantized input).  Note that a
/// compressed operator cannot seed a further coarsening (CoarseStencilView
/// needs native blocks), so recursive setups compress only after the full
/// hierarchy exists (what Multigrid does).
template <typename T>
CoarseDirac<T> build_coarse_operator(
    const StencilView<T>& fine, const Transfer<T>& transfer,
    CoarseStorage storage = CoarseStorage::Native);

}  // namespace qmg
