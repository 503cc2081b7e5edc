#pragma once
// The coarse-operator row kernels, shared by the single-process operator
// (mg/coarse_op.cpp), the batched MRHS kernels (mg/mrhs.cpp) and the
// domain-decomposed operator (comm/dist_coarse.cpp) so that all of them
// produce bit-identical results for the same kernel configuration.
//
// Layout: every stencil block is column-major, element (r, c) at flat index
// c*n + r, read through a block handle (mg/coarse_stencil.h):
// `blk.elem<Tacc>(k)` is one element promoted to the accumulation type,
// `blk.pack<Tacc, W>(k)` is W consecutive elements — W consecutive ROWS of
// one column — as a simd::cpack.
//
// Two kernel families:
//
//  * The row-tile kernel (coarse_rows) puts consecutive output color-spin
//    rows on SIMD lanes: the CPU mapping of the paper's section 6.2
//    (Strategy::ColorSpin, one GPU thread per output row).  Lane j of a
//    tile computes row r0 + j with exactly the scalar expression tree of
//    that row — the same (m, c) visiting order, the same accumulators,
//    the same reductions — because lanes are independent systems and every
//    cpack operation is the per-lane Complex operation (linalg/simd.h).
//    Results are therefore bit-identical at every lane width, including
//    the scalar build (W = 1), as long as the compiler does not contract
//    products into FMAs (it does under -march=x86-64-v3).  Two reduction trees are offered:
//      RowChain            one accumulator over all blocks m and columns c
//                          (the hop/diagonal kernels of the Schur path);
//      CoarseKernelConfig  the fine-grained decomposition of section 6:
//                          direction chunks, dot-product split, ILP,
//                          cascade (the full coarse apply).
//  * The multi-rhs kernels (coarse_row_mrhs_span / _pack) keep the rhs
//    axis innermost and compute ONE row per call for a tile of rhs, with
//    the CoarseKernelConfig tree per rhs; per-rhs results are
//    bit-identical to the row-tile kernel at the same config.
//
// Precision is a first-class template axis (paper section 4, strategy
// (c)): the kernels accumulate in Tacc while the stencil storage type
// (the block handle's element type) and the input-vector storage type TX
// may be narrower.  Every element is promoted to Tacc before the multiply,
// so `float storage, double accumulation` reads half the stencil bytes at
// the accumulation order of the all-double kernel.

#include <algorithm>

#include "linalg/complex.h"
#include "linalg/simd.h"
#include "parallel/strategy.h"

namespace qmg {

/// Row lanes per pack for accumulation type Tacc: the build's native
/// double width doubled for float (one hardware vector either way), capped
/// at the pack template limit.  A scalar-only build (QMG_MAX_SIMD_WIDTH=1)
/// runs one lane.
template <typename Tacc>
inline constexpr int kCoarseRowLanes =
    simd::kMaxSimdWidth == 1
        ? 1
        : std::min(simd::kSimdWidthLimit,
                   simd::kMaxSimdWidth *
                       static_cast<int>(sizeof(double) / sizeof(Tacc)));

/// Output rows per row tile: the unit of a ColorSpin dispatch item.  A
/// tile is kCoarseRowTile / W packs wide, so narrow packs still carry
/// several independent accumulator chains.  24 rows (half of the paper's
/// N = 48 block) measured fastest for the N = 48 hop and full apply on an
/// SSE2 build (against 8, 16 and 32: up to 1.5x over 8).
inline constexpr int kCoarseRowTile = 24;

/// Reduction tree of the hop and diagonal kernels: one accumulator per row
/// over `nblk` blocks, m-major, column-minor.
struct RowChain {
  int nblk;
};

/// Rows [r0, r0 + G*W) along the RowChain tree: out[r] = sum over m, c of
/// B_m(r, c) * x_m[c], accumulated in one chain per row.
template <typename Tacc, int W, int G, typename Blk, typename TX>
inline void coarse_row_tile(const RowChain& tree, const Blk* blks,
                            const Complex<TX>* const* xin, int n, int r0,
                            Complex<Tacc>* out) {
  using V = simd::cpack<Tacc, W>;
  V acc[G] = {};
  for (int m = 0; m < tree.nblk; ++m) {
    const Blk& b = blks[m];
    const Complex<TX>* x = xin[m];
    for (int c = 0; c < n; ++c) {
      const Complex<Tacc> xc(x[c]);
      const long off = static_cast<long>(c) * n + r0;
      for (int g = 0; g < G; ++g)
        acc[g] += b.template pack<Tacc, W>(off + g * W) * xc;
    }
  }
  for (int g = 0; g < G; ++g) acc[g].store(out + r0 + g * W);
}

/// Rows [r0, r0 + G*W) along the CoarseKernelConfig tree (9 blocks,
/// blks[0] = diagonal): the 9 stencil blocks are strided over `dir_split`
/// chunks (z threads), each chunk's dot products are partitioned into
/// `dot_split` contiguous column ranges (warp-split threads, Listing 4)
/// with `ilp` independent accumulators (Listing 5); dot partials are
/// combined with a cascading pairwise reduction (the shfl_down tree) and
/// chunk partials with a sequential "shared-memory" reduction.
template <typename Tacc, int W, int G, typename Blk, typename TX>
inline void coarse_row_tile(const CoarseKernelConfig& cfg, const Blk* blks,
                            const Complex<TX>* const* xin, int n, int r0,
                            Complex<Tacc>* out) {
  using V = simd::cpack<Tacc, W>;
  const int dir_split =
      cfg.strategy >= Strategy::StencilDir ? cfg.dir_split : 1;
  const int dot_split =
      cfg.strategy >= Strategy::DotProduct ? std::min(cfg.dot_split, 8) : 1;
  const int ilp = std::min(cfg.ilp, 4);  // accumulator register budget

  V dir_partial[9][G];
  for (int chunk = 0; chunk < dir_split; ++chunk) {
    // Warp-split partials for this direction chunk (power-of-two padded for
    // the cascade; dot_split <= 8 in practice).
    V dot_partial[8][G] = {};
    for (int m = chunk; m < 9; m += dir_split) {
      const Blk& b = blks[m];
      const Complex<TX>* x = xin[m];
      for (int ds = 0; ds < dot_split; ++ds) {
        const int begin = static_cast<int>((static_cast<long>(n) * ds) /
                                           dot_split);
        const int end = static_cast<int>((static_cast<long>(n) * (ds + 1)) /
                                         dot_split);
        // ILP: independent accumulators over the strip (Listing 5).
        V acc[4][G] = {};
        int i = begin;
        for (; i + ilp <= end; i += ilp)
          for (int j = 0; j < ilp; ++j) {
            const Complex<Tacc> xc(x[i + j]);
            const long off = static_cast<long>(i + j) * n + r0;
            for (int g = 0; g < G; ++g)
              acc[j][g] += b.template pack<Tacc, W>(off + g * W) * xc;
          }
        for (; i < end; ++i) {
          const Complex<Tacc> xc(x[i]);
          const long off = static_cast<long>(i) * n + r0;
          for (int g = 0; g < G; ++g)
            acc[0][g] += b.template pack<Tacc, W>(off + g * W) * xc;
        }
        V strip[G] = {};
        for (int j = 0; j < ilp; ++j)
          for (int g = 0; g < G; ++g) strip[g] += acc[j][g];
        for (int g = 0; g < G; ++g) dot_partial[ds][g] += strip[g];
      }
    }
    // Cascading reduction over the warp-split partials (Listing 4); start
    // from the next power of two so non-power-of-two splits also fold in.
    int span = 1;
    while (span < dot_split) span <<= 1;
    for (int offset = span / 2; offset >= 1; offset /= 2)
      for (int i = 0; i < offset && i + offset < 8; ++i)
        for (int g = 0; g < G; ++g)
          dot_partial[i][g] += dot_partial[i + offset][g];
    for (int g = 0; g < G; ++g) dir_partial[chunk][g] = dot_partial[0][g];
  }
  // Shared-memory reduction over direction chunks (section 6.3, step 4).
  for (int g = 0; g < G; ++g) {
    V total{};
    for (int chunk = 0; chunk < dir_split; ++chunk)
      total += dir_partial[chunk][g];
    total.store(out + r0 + g * W);
  }
}

namespace detail {

/// Rows [r, r_end) shorter than a full tile: single packs of width W, then
/// of W/2, ... down to one lane.
template <typename Tacc, int W, typename Tree, typename Blk, typename TX>
inline void coarse_rows_tail(const Tree& tree, const Blk* blks,
                             const Complex<TX>* const* xin, int n, int r,
                             int r_end, Complex<Tacc>* out) {
  for (; r + W <= r_end; r += W)
    coarse_row_tile<Tacc, W, 1>(tree, blks, xin, n, r, out);
  if constexpr (W > 1)
    coarse_rows_tail<Tacc, W / 2>(tree, blks, xin, n, r, r_end, out);
}

}  // namespace detail

/// The row-tile kernel: output rows [r_begin, r_end) of one site, out[r]
/// for r in that range (out points at the site's n-vector).  Full tiles of
/// kCoarseRowTile rows run as kCoarseRowTile / W packs, the rest as
/// narrower packs; the per-row tree is `tree` either way.
template <typename Tacc, typename Tree, typename Blk, typename TX>
inline void coarse_rows(const Tree& tree, const Blk* blks,
                        const Complex<TX>* const* xin, int n, int r_begin,
                        int r_end, Complex<Tacc>* out) {
  constexpr int W = kCoarseRowLanes<Tacc>;
  constexpr int G = W >= kCoarseRowTile ? 1 : kCoarseRowTile / W;
  int r = r_begin;
  for (; r + G * W <= r_end; r += G * W)
    coarse_row_tile<Tacc, W, G>(tree, blks, xin, n, r, out);
  detail::coarse_rows_tail<Tacc, W>(tree, blks, xin, n, r, r_end, out);
}

/// Widest rhs tile coarse_row_mrhs processes per call (register/stack
/// budget); callers sub-tile wider batches.
inline constexpr int kCoarseRowMaxTile = 16;

/// Multi-right-hand-side row kernel (paper section 9): row r of the
/// 9-block stencil for `tile` <= kCoarseRowMaxTile systems at once with the
/// rhs axis innermost.  xin[m] points at the first rhs of neighbor m's site
/// vector in an rhs-contiguous BlockSpinor; element (c, k) lives at
/// xin[m][c*stride+k], so the inner rhs loop is unit stride (the
/// coalesced/vectorizable axis) and every stencil element — (r, c) at
/// flat index c*n + r of its column-major block — is read ONCE for all rhs
/// of the tile.  For each rhs the accumulation sequence (direction chunks,
/// warp-split partials, ILP strips, cascade) is exactly the row-tile
/// kernel's CoarseKernelConfig tree, so per-rhs results are bit-identical
/// to the single-rhs kernel at the same precision axes.
template <typename Tacc, typename Blk, typename TX>
inline void coarse_row_mrhs_span(const Blk* blks, int r,
                                 const Complex<TX>* const xin[9], long stride,
                                 int n, const CoarseKernelConfig& cfg,
                                 int tile, Complex<Tacc>* out) {
  const int dir_split =
      cfg.strategy >= Strategy::StencilDir ? cfg.dir_split : 1;
  const int dot_split =
      cfg.strategy >= Strategy::DotProduct ? std::min(cfg.dot_split, 8) : 1;
  const int ilp = std::min(cfg.ilp, 4);  // accumulator register budget

  Complex<Tacc> dir_partial[9][kCoarseRowMaxTile];
  for (int chunk = 0; chunk < dir_split; ++chunk) {
    Complex<Tacc> dot_partial[8][kCoarseRowMaxTile] = {};
    for (int m = chunk; m < 9; m += dir_split) {
      const Blk& b = blks[m];
      const Complex<TX>* x = xin[m];
      for (int ds = 0; ds < dot_split; ++ds) {
        const int begin = static_cast<int>((static_cast<long>(n) * ds) /
                                           dot_split);
        const int end = static_cast<int>((static_cast<long>(n) * (ds + 1)) /
                                         dot_split);
        Complex<Tacc> acc[4][kCoarseRowMaxTile] = {};
        int i = begin;
        for (; i + ilp <= end; i += ilp)
          for (int j = 0; j < ilp; ++j) {
            const Complex<Tacc> a =
                b.template elem<Tacc>(static_cast<long>(i + j) * n + r);
            const Complex<TX>* xk = x + static_cast<long>(i + j) * stride;
            for (int k = 0; k < tile; ++k)
              acc[j][k] += a * Complex<Tacc>(xk[k]);
          }
        for (; i < end; ++i) {
          const Complex<Tacc> a =
              b.template elem<Tacc>(static_cast<long>(i) * n + r);
          const Complex<TX>* xk = x + static_cast<long>(i) * stride;
          for (int k = 0; k < tile; ++k)
            acc[0][k] += a * Complex<Tacc>(xk[k]);
        }
        Complex<Tacc> strip[kCoarseRowMaxTile] = {};
        for (int j = 0; j < ilp; ++j)
          for (int k = 0; k < tile; ++k) strip[k] += acc[j][k];
        for (int k = 0; k < tile; ++k) dot_partial[ds][k] += strip[k];
      }
    }
    int span = 1;
    while (span < dot_split) span <<= 1;
    for (int offset = span / 2; offset >= 1; offset /= 2)
      for (int i = 0; i < offset && i + offset < 8; ++i)
        for (int k = 0; k < tile; ++k)
          dot_partial[i][k] += dot_partial[i + offset][k];
    for (int k = 0; k < tile; ++k) dir_partial[chunk][k] = dot_partial[0][k];
  }
  for (int k = 0; k < tile; ++k) {
    Complex<Tacc> total{};
    for (int chunk = 0; chunk < dir_split; ++chunk)
      total += dir_partial[chunk][k];
    out[k] = total;
  }
}

/// SIMD-lane variant of coarse_row_mrhs_span: GROUPS W-lane packs of
/// consecutive rhs instead of a scalar tile (GROUPS*W <= kCoarseRowMaxTile
/// lanes total).  Lane k evaluates exactly the scalar per-rhs tree — loads
/// promote each storage element to Tacc before the multiply
/// (cpack::load_from mirrors Complex<Tacc>(xk[k])), the stencil element is
/// broadcast across lanes, and the dir/dot/ILP/cascade accumulation
/// sequence is unchanged — so per-rhs results are bit-identical to
/// coarse_row_mrhs_span at the same precision axes.  The group axis lives
/// INSIDE the column loop for the same reason the span kernel carries a
/// tile: the kernel is bandwidth-bound on the stencil, so each element
/// must be read once for the whole rhs tile, not once per pack.  The group
/// count is a TEMPLATE parameter, not a runtime argument: with a
/// compile-time trip every lane loop unrolls into straight-line pack code,
/// which measured ~1.2-1.6x over the runtime-trip form (the split/ilp
/// config stays runtime, so the win is purely the lane-loop trips; callers
/// dispatch via coarse_row_mrhs_pack_groups below).
template <typename Tacc, typename Blk, typename TX, int W, int GROUPS>
inline void coarse_row_mrhs_pack(const Blk* blks, int r,
                                 const Complex<TX>* const xin[9], long stride,
                                 int n, const CoarseKernelConfig& cfg,
                                 Complex<Tacc>* out) {
  using V = simd::cpack<Tacc, W>;
  // GROUPS * W lanes never exceed the span kernel's tile, so the stack
  // accumulator budget is the same kCoarseRowMaxTile lanes regardless of W.
  static_assert(GROUPS >= 1 && GROUPS * W <= kCoarseRowMaxTile,
                "lane tile exceeds the row kernel's accumulator budget");
  const int dir_split =
      cfg.strategy >= Strategy::StencilDir ? cfg.dir_split : 1;
  const int dot_split =
      cfg.strategy >= Strategy::DotProduct ? std::min(cfg.dot_split, 8) : 1;
  const int ilp = std::min(cfg.ilp, 4);  // accumulator register budget

  V dir_partial[9][GROUPS];
  for (int chunk = 0; chunk < dir_split; ++chunk) {
    V dot_partial[8][GROUPS] = {};
    for (int m = chunk; m < 9; m += dir_split) {
      const Blk& b = blks[m];
      const Complex<TX>* x = xin[m];
      for (int ds = 0; ds < dot_split; ++ds) {
        const int begin = static_cast<int>((static_cast<long>(n) * ds) /
                                           dot_split);
        const int end = static_cast<int>((static_cast<long>(n) * (ds + 1)) /
                                         dot_split);
        V acc[4][GROUPS] = {};
        int i = begin;
        for (; i + ilp <= end; i += ilp)
          for (int j = 0; j < ilp; ++j) {
            const Complex<Tacc> a =
                b.template elem<Tacc>(static_cast<long>(i + j) * n + r);
            const Complex<TX>* xk = x + static_cast<long>(i + j) * stride;
            for (int g = 0; g < GROUPS; ++g)
              acc[j][g] += a * V::load_from(xk + g * W);
          }
        for (; i < end; ++i) {
          const Complex<Tacc> a =
              b.template elem<Tacc>(static_cast<long>(i) * n + r);
          const Complex<TX>* xk = x + static_cast<long>(i) * stride;
          for (int g = 0; g < GROUPS; ++g)
            acc[0][g] += a * V::load_from(xk + g * W);
        }
        V strip[GROUPS] = {};
        for (int j = 0; j < ilp; ++j)
          for (int g = 0; g < GROUPS; ++g) strip[g] += acc[j][g];
        for (int g = 0; g < GROUPS; ++g) dot_partial[ds][g] += strip[g];
      }
    }
    int span = 1;
    while (span < dot_split) span <<= 1;
    for (int offset = span / 2; offset >= 1; offset /= 2)
      for (int i = 0; i < offset && i + offset < 8; ++i)
        for (int g = 0; g < GROUPS; ++g)
          dot_partial[i][g] += dot_partial[i + offset][g];
    for (int g = 0; g < GROUPS; ++g)
      dir_partial[chunk][g] = dot_partial[0][g];
  }
  for (int g = 0; g < GROUPS; ++g) {
    V total{};
    for (int chunk = 0; chunk < dir_split; ++chunk)
      total += dir_partial[chunk][g];
    total.store(out + g * W);
  }
}

/// Runtime -> compile-time group-count dispatch for the pack kernel: an
/// if-chain from the largest group count that fits the row tile down to 1
/// (at most kCoarseRowMaxTile / W compares, trivial next to one row's
/// arithmetic).  groups outside [1, kCoarseRowMaxTile / W] is a caller bug
/// and falls through to a no-op.
template <typename Tacc, typename Blk, typename TX, int W,
          int G = kCoarseRowMaxTile / W>
inline void coarse_row_mrhs_pack_groups(const Blk* blks, int r,
                                        const Complex<TX>* const xin[9],
                                        long stride, int n,
                                        const CoarseKernelConfig& cfg,
                                        int groups, Complex<Tacc>* out) {
  static_assert(G >= 1, "group dispatch needs at least one candidate");
  if (groups == G) {
    coarse_row_mrhs_pack<Tacc, Blk, TX, W, G>(blks, r, xin, stride, n, cfg,
                                              out);
    return;
  }
  if constexpr (G > 1)
    coarse_row_mrhs_pack_groups<Tacc, Blk, TX, W, G - 1>(
        blks, r, xin, stride, n, cfg, groups, out);
}

}  // namespace qmg
