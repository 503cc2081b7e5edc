#pragma once
// 16-bit fixed-point storage of the coarse stencil (paper section 4,
// strategy (c), applied to the coarse operator): each of a site's nine
// dense N x N complex blocks — 8 hop links plus the diagonal — is stored as
// int16 fractions of that block's max magnitude, plus one float scale per
// block.  This is the HalfSpinorField format lifted to link blocks: 4 bytes
// per complex element instead of 16 (double) or 8 (float), so a coarse
// apply that reads this storage moves ~4x fewer stencil bytes than the
// double-precision operator while the kernels accumulate in full precision
// (mg/coarse_row.h's storage-vs-accumulation split).
//
// A block's elements are stored in the order store_block receives them —
// the coarse operator's column-major layout, element (r, c) at flat index
// c*N + r — so a column is N contiguous int16 pairs.  The apply kernels
// dequantize elements on the fly through Block (a whole row tile of one
// column per lane load), so no scratch copy of the stencil exists and only
// the memory traffic shrinks.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "fields/halffield.h"
#include "linalg/complex.h"
#include "linalg/simd.h"

namespace qmg {

class HalfCoarseLinks {
 public:
  /// 8 hop links (2*mu + dir) at block index 0..7, diagonal at kDiagBlock.
  static constexpr int kBlocksPerSite = 9;
  static constexpr int kDiagBlock = 8;

  HalfCoarseLinks() = default;

  HalfCoarseLinks(long nsites, int block_dim)
      : nsites_(nsites), n_(block_dim) {
    comps_.assign(static_cast<size_t>(nsites_) * kBlocksPerSite * n_ * n_ * 2,
                  0);
    scales_.assign(static_cast<size_t>(nsites_) * kBlocksPerSite, 0.0f);
  }

  long nsites() const { return nsites_; }
  int block_dim() const { return n_; }
  bool empty() const { return comps_.empty(); }

  /// Bytes per site (9 quantized blocks + 9 scales) — the bandwidth model's
  /// input.  Audited against allocated_bytes() by the precision tests so
  /// the arithmetic-intensity numbers are not off by the scale bytes.
  size_t bytes_per_site() const {
    return static_cast<size_t>(kBlocksPerSite) * n_ * n_ * 2 *
               sizeof(std::int16_t) +
           kBlocksPerSite * sizeof(float);
  }

  size_t allocated_bytes() const {
    return comps_.size() * sizeof(std::int16_t) +
           scales_.size() * sizeof(float);
  }

  /// Quantize one N x N block.  Like HalfSpinorField::store, the per-block
  /// scale is NaN-safe (non-finite elements do not poison it) and every
  /// element goes through the saturating quantize_q15.
  template <typename T>
  void store_block(long site, int blk, const Complex<T>* src) {
    const size_t nn = static_cast<size_t>(n_) * n_;
    float max_abs = 0.0f;
    for (size_t k = 0; k < nn; ++k) {
      const float ar = std::fabs(static_cast<float>(src[k].re));
      const float ai = std::fabs(static_cast<float>(src[k].im));
      if (std::isfinite(ar) && ar > max_abs) max_abs = ar;
      if (std::isfinite(ai) && ai > max_abs) max_abs = ai;
    }
    const size_t b = block_index(site, blk);
    scales_[b] = max_abs;
    const float scale = max_abs > 0.0f ? 32767.0f / max_abs : 0.0f;
    std::int16_t* dst = comps_.data() + b * nn * 2;
    for (size_t k = 0; k < nn; ++k) {
      dst[2 * k] = quantize_q15(static_cast<float>(src[k].re), scale);
      dst[2 * k + 1] = quantize_q15(static_cast<float>(src[k].im), scale);
    }
  }

  /// Read handle on one quantized block: element k (flat index, the
  /// layout store_block received) dequantizes to
  /// Complex<float>(q_re * scale, q_im * scale) — one expression for the
  /// scalar and the lane loads, so every consumer sees the same floats.
  struct Block {
    const std::int16_t* q;
    float scale;  // block max / 32767

    Complex<float> value(long k) const {
      return Complex<float>(q[2 * k] * scale, q[2 * k + 1] * scale);
    }
    /// Element k promoted to the accumulation type.
    template <typename Tacc>
    Complex<Tacc> elem(long k) const {
      return Complex<Tacc>(value(k));
    }
    /// Elements k .. k+W-1 as one lane pack (lane j = elem(k + j)).
    template <typename Tacc, int W>
    simd::cpack<Tacc, W> pack(long k) const {
      simd::cpack<Tacc, W> r;
      for (int j = 0; j < W; ++j) {
        const Complex<float> e = value(k + j);
        r.re.v[j] = static_cast<Tacc>(e.re);
        r.im.v[j] = static_cast<Tacc>(e.im);
      }
      return r;
    }
  };

  Block block(long site, int blk) const {
    const size_t b = block_index(site, blk);
    return {comps_.data() + b * static_cast<size_t>(n_) * n_ * 2,
            scales_[b] / 32767.0f};
  }

  /// Dequantize a whole block (n_ x n_ values, in store_block's order).
  void load_block(long site, int blk, Complex<float>* out) const {
    const Block b = block(site, blk);
    const long nn = static_cast<long>(n_) * n_;
    for (long k = 0; k < nn; ++k) out[k] = b.value(k);
  }

  /// Raw copy of one site's nine quantized blocks and scales from another
  /// HalfCoarseLinks of the same block dimension — the rank-split path of
  /// DistributedCoarseOp.  No dequantize/requantize round trip, so every
  /// per-rank element dequantizes bit-identically to the global one.
  void copy_site(long dst_site, const HalfCoarseLinks& src, long src_site) {
    const size_t nn2 = static_cast<size_t>(n_) * n_ * 2;
    for (int blk = 0; blk < kBlocksPerSite; ++blk) {
      const size_t bd = block_index(dst_site, blk);
      const size_t bs = src.block_index(src_site, blk);
      scales_[bd] = src.scales_[bs];
      std::copy(src.comps_.begin() + static_cast<long>(bs * nn2),
                src.comps_.begin() + static_cast<long>((bs + 1) * nn2),
                comps_.begin() + static_cast<long>(bd * nn2));
    }
  }

 private:
  size_t block_index(long site, int blk) const {
    return static_cast<size_t>(site) * kBlocksPerSite + blk;
  }

  long nsites_ = 0;
  int n_ = 0;
  std::vector<std::int16_t> comps_;
  std::vector<float> scales_;
};

}  // namespace qmg
