#pragma once
// The coarse-grid operator (paper Eq. 3):
//
//   Mhat_{x,x'} = X_x delta_{x,x'}
//               + sum_mu [ Yfwd_mu(x) delta_{x+mu,x'} + Ybwd_mu(x) delta_{x-mu,x'} ]
//
// where X and the eight Y link matrices are dense (2*Nhat_c)^2 complex
// blocks produced by the Galerkin product P^dag M P.  The tensor-product
// structure between spin and color of the fine grid is lost (section 3.4),
// which is why the coarse operator is both denser per site and far less
// parallel per flop — the motivating problem of the paper.
//
// The apply() kernel is parameterized by the fine-grained parallelization
// strategy of section 6 and, by default, autotuned.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fields/halflinks.h"
#include "lattice/geometry.h"
#include "linalg/smallmat.h"
#include "parallel/dispatch.h"
#include "parallel/strategy.h"
#include "solvers/linear_operator.h"

namespace qmg {

/// Storage format of the coarse links/diagonal (paper section 4, strategy
/// (c)).  The apply kernels READ this storage but ACCUMULATE in the
/// operator's working precision T (the storage-vs-accumulation split of
/// mg/coarse_row.h), so Single/Half16 cut the bandwidth-bound stencil
/// traffic ~2x/~4x relative to a double-precision operator at unchanged
/// accumulation order; the truncation error is bounded by the K-cycle's
/// restarted-GCR true-residual recomputation (the reliable updates).
///   Native — links/diag in Complex<T> (the historical behavior).
///   Single — links/diag truncated to Complex<float> (no-op when T=float).
///   Half16 — links/diag in 16-bit fixed point (fields/halflinks.h), rows
///            dequantized on the fly; the diagonal inverse stays float
///            (its conditioning does not tolerate Q15 quantization).
enum class CoarseStorage { Native, Single, Half16 };

inline const char* to_string(CoarseStorage s) {
  switch (s) {
    case CoarseStorage::Native: return "native";
    case CoarseStorage::Single: return "single";
    default: return "half16";
  }
}

template <typename T>
class CoarseDirac : public LinearOperator<T> {
 public:
  using Field = typename LinearOperator<T>::Field;

  static constexpr int kNSpin = 2;
  /// 8 hop links (2*mu + dir, dir 0 = forward) + diagonal per site.
  static constexpr int kNLinks = 8;

  CoarseDirac(GeometryPtr geom, int ncolor);

  const GeometryPtr& geometry() const { return geom_; }
  int ncolor() const { return nc_; }
  /// Dense block dimension N = Nhat_s * Nhat_c = 2 * ncolor.
  int block_dim() const { return n_; }

  // Raw NATIVE storage: N x N Complex<T> blocks, COLUMN-MAJOR — element
  // (r, c) at block[elem_offset(r, c)] = block[c*N + r], the one layout of
  // every dense block this operator holds (links, diagonal, diagonal
  // inverse, and their compressed copies), so a column's consecutive rows
  // load straight into the row lanes of mg/coarse_row.h.  Written by the
  // Galerkin builder and read by CoarseStencilView / convert_coarse /
  // DistributedCoarseOp.  Released by compress_storage(); callers that
  // need it must check has_native_storage().
  size_t elem_offset(int r, int c) const {
    return static_cast<size_t>(c) * n_ + static_cast<size_t>(r);
  }
  Complex<T>* link_data(long site, int link) {
    return links_.data() + ((static_cast<size_t>(site) * kNLinks + link) *
                            n_) * n_;
  }
  const Complex<T>* link_data(long site, int link) const {
    return links_.data() + ((static_cast<size_t>(site) * kNLinks + link) *
                            n_) * n_;
  }
  Complex<T>* diag_data(long site) {
    return diag_.data() + static_cast<size_t>(site) * n_ * n_;
  }
  const Complex<T>* diag_data(long site) const {
    return diag_.data() + static_cast<size_t>(site) * n_ * n_;
  }
  /// Element (r, c) of link `link` / of the diagonal at `site` (native
  /// storage) — the layout-independent way to address a block entry.
  Complex<T>& link_elem(long site, int link, int r, int c) {
    return link_data(site, link)[elem_offset(r, c)];
  }
  const Complex<T>& link_elem(long site, int link, int r, int c) const {
    return link_data(site, link)[elem_offset(r, c)];
  }
  Complex<T>& diag_elem(long site, int r, int c) {
    return diag_data(site)[elem_offset(r, c)];
  }
  const Complex<T>& diag_elem(long site, int r, int c) const {
    return diag_data(site)[elem_offset(r, c)];
  }

  /// Truncate the links/diagonal (and diagonal inverse, when present) into
  /// `storage` and release the native arrays — the memory AND bandwidth
  /// reduction of strategy (c).  Single with T=float is a no-op (native
  /// already IS single).  Call after Galerkin construction and
  /// compute_diag_inverse(): recursion (CoarseStencilView), convert_coarse
  /// and DistributedCoarseOp construction from Half16 need native data.
  /// Every apply/hopping/diag kernel dispatches on the resulting format and
  /// keeps accumulating in T.
  void compress_storage(CoarseStorage storage);
  CoarseStorage storage() const { return storage_; }
  bool has_native_storage() const { return !links_.empty(); }

  /// Quantized copy of the ACTIVE stencil (8 links + diagonal per site) —
  /// the HierarchyCache snapshot payload.  Works from any storage format:
  /// Half16 copies the already-quantized blocks (no second quantization
  /// pass), Native/Single quantize on the way out.
  HalfCoarseLinks snapshot_half_links() const;
  /// Single-precision copy of the diagonal inverse (float regardless of
  /// source format: the inverse is conditioning-sensitive, so snapshots
  /// never push it through Q15).  Requires compute_diag_inverse().
  std::vector<Complex<float>> snapshot_diag_inverse() const;
  /// Install a snapshot as the ACTIVE storage: Half16 stencil + float
  /// diagonal inverse, releasing every other array (the HierarchyCache
  /// restore path — unlike compress_storage this REPLACES whatever format
  /// was active, including an already-released native one, because the
  /// snapshot carries the full stencil).  Schur complements referencing
  /// this operator follow automatically, exactly as for compress_storage.
  void install_half_storage(HalfCoarseLinks stencil,
                            std::vector<Complex<float>> diag_inv);

  /// Compressed-storage accessors (Single; also the diag-inverse of
  /// Half16).  Null-pointer-free only for the active format.
  const Complex<float>* link_lo_data(long site, int link) const {
    return links_lo_.data() + ((static_cast<size_t>(site) * kNLinks + link) *
                               n_) * n_;
  }
  const Complex<float>* diag_lo_data(long site) const {
    return diag_lo_.data() + static_cast<size_t>(site) * n_ * n_;
  }
  const HalfCoarseLinks& half_links() const { return half_; }

  /// Short (accumulation, storage) tag for tune-cache keys and bench
  /// labels: "d"/"f" for native double/float, plus "f"/"h" for compressed
  /// storage — e.g. "df" = double accumulation over float links.  A float
  /// kernel must never replay a config tuned for double (different
  /// bytes/flops balance), so this feeds coarse_tune_key/mrhs_tune_key.
  std::string precision_tag() const {
    std::string tag(1, sizeof(T) == 4 ? 'f' : 'd');
    if (storage_ == CoarseStorage::Single) tag += 'f';
    if (storage_ == CoarseStorage::Half16) tag += 'h';
    return tag;
  }

  /// Precompute per-site X^{-1} (needed by Schur preconditioning and by the
  /// coarsest-level diagonal smoothing).  The LU factorization always runs
  /// in T regardless of the storage format (the inverse is
  /// conditioning-sensitive); the result is stored in the active format's
  /// precision (T for Native, float otherwise).
  void compute_diag_inverse();
  bool has_diag_inverse() const {
    return !diag_inv_.empty() || !diag_inv_lo_.empty();
  }
  const Complex<T>* diag_inv_data(long site) const {
    return diag_inv_.data() + static_cast<size_t>(site) * n_ * n_;
  }
  const Complex<float>* diag_inv_lo_data(long site) const {
    return diag_inv_lo_.data() + static_cast<size_t>(site) * n_ * n_;
  }

  using BlockField = typename LinearOperator<T>::BlockField;

  /// Stack budget for the per-item gather buffers of the batched kernels;
  /// covers every paper configuration (Nhat_c <= 64).
  static constexpr int kMaxBlockDim = 128;

  // LinearOperator interface.
  void apply(Field& out, const Field& in) const override;
  void apply_dagger(Field& out, const Field& in) const override;
  Field create_vector() const override;
  double flops_per_apply() const override;

  /// Batched apply on the 2D (site x rhs) index space: each site's nine
  /// stencil blocks are loaded once per site tile and streamed over the
  /// rhs axis.  Autotuned (kernel decomposition, backend and rhs-blocking
  /// jointly) per (volume, N, nrhs) shape unless a fixed config was set
  /// with set_kernel_config.  Per-rhs bit-identical to apply() at the same
  /// kernel config.  A narrow batch (narrow_batch()) runs rhs by rhs
  /// through the row-lane kernel instead, since its rhs axis cannot fill
  /// the lanes, and replays apply()'s tuned config (resolve_kernel()).
  /// Implemented in mg/mrhs.cpp.
  void apply_block(BlockField& out, const BlockField& in) const override;

  /// Batched apply with explicit kernel config and launch policy (the
  /// policy's rhs_block selects how many rhs one dispatch item covers).
  void apply_block_with_config(BlockField& out, const BlockField& in,
                               const CoarseKernelConfig& config,
                               const LaunchPolicy& policy) const;

  /// Batched apply with a LOW-PRECISION RHS PAYLOAD: the rhs block is
  /// staged into float storage once per apply and the kernel reads float
  /// vectors (TX = float) while still accumulating in T — on top of the
  /// compressed stencil this also halves the 10*N*nrhs vector-byte term of
  /// bytes_per_apply for T=double.  Output stays in T.  Implemented in
  /// mg/mrhs.cpp.
  void apply_block_staged(BlockField& out, const BlockField& in,
                          const CoarseKernelConfig& config,
                          const LaunchPolicy& policy = default_policy()) const;

  /// Batched parity hopping / diagonal kernels (feed the batched Schur
  /// complement on every level).
  void apply_hopping_parity_block(BlockField& out, const BlockField& in,
                                  int out_parity) const;
  void apply_diag_block(BlockField& out, const BlockField& in,
                        int parity = -1) const;
  void apply_diag_inverse_block(BlockField& out, const BlockField& in,
                                int parity = -1) const;

  /// Apply with an explicit kernel configuration and execution backend
  /// (bypasses the autotuner); used by the strategy-equivalence tests and
  /// the Fig. 2 bench.  The strategy selects the dispatch index space:
  /// GridOnly launches one item per site, ColorSpin and finer launch one
  /// item per (site, row tile) — the tile's output rows run on SIMD lanes
  /// (kCoarseRowTile rows, mg/coarse_row.h); the dir/dot splits shape the
  /// per-row partial sums.
  void apply_with_config(Field& out, const Field& in,
                         const CoarseKernelConfig& config,
                         const LaunchPolicy& policy = default_policy()) const;

  /// Hopping term restricted to parities: out (on out_parity sites, cb
  /// indexed) = sum of link matrices times in (opposite parity).
  void apply_hopping_parity(Field& out, const Field& in,
                            int out_parity) const;

  /// Diagonal / inverse-diagonal on a parity field (cb indexed) or full.
  void apply_diag(Field& out, const Field& in, int parity = -1) const;
  void apply_diag_inverse(Field& out, const Field& in, int parity = -1) const;

  /// Kernel policy: fixed config, or autotuned when enabled (default).
  void set_kernel_config(const CoarseKernelConfig& config) {
    config_ = config;
    autotune_ = false;
  }
  void enable_autotune() { autotune_ = true; }
  const CoarseKernelConfig& kernel_config() const { return config_; }

  /// The (kernel config, launch policy) that apply() (`nrhs` == 0) or
  /// apply_block() on `nrhs` rhs runs: the fixed config when one was set,
  /// else the TuneCache's choice for that shape, tuned here (on scratch
  /// vectors) on its first encounter.  A narrow batch runs rhs by rhs
  /// through apply()'s row-tile kernel, so it shares apply()'s shape.  The
  /// distributed adapters resolve their config here too, which keeps them
  /// bit-identical to this operator whatever the tuner picked.
  std::pair<CoarseKernelConfig, LaunchPolicy> resolve_kernel(
      int nrhs = 0) const;
  /// Whether apply_block on `nrhs` rhs is a narrow batch: fewer rhs than
  /// one native pack (a single rhs always), so the output rows fill the
  /// lanes instead of the rhs axis.
  bool narrow_batch(int nrhs) const {
    return nrhs < std::max(2, simd::kMaxSimdWidth) && n_ <= kMaxBlockDim;
  }

  /// Stencil (links + diagonal) bytes one apply reads per site in the
  /// ACTIVE storage format — the term the precision truncation shrinks.
  /// For Half16 this matches HalfCoarseLinks::bytes_per_site (audited
  /// against the actual allocation by the precision tests).
  double stencil_bytes_per_site() const {
    const double nn = static_cast<double>(n_) * n_;
    switch (storage_) {
      case CoarseStorage::Single:
        return 9.0 * nn * 2 * sizeof(float);
      case CoarseStorage::Half16:
        return 9.0 * (nn * 2 * sizeof(std::int16_t) + sizeof(float));
      default:
        return 9.0 * nn * 2 * sizeof(T);
    }
  }

  /// Memory traffic of one apply in bytes (for roofline modeling):
  /// 9 stencil blocks (in storage precision) + 9 input vectors + 1 output
  /// vector (in working precision T) per site.
  double bytes_per_apply() const {
    const double site_bytes =
        stencil_bytes_per_site() + 10.0 * n_ * 2 * sizeof(T);
    return site_bytes * static_cast<double>(geom_->volume());
  }

 private:
  GeometryPtr geom_;
  int nc_;
  int n_;
  CoarseStorage storage_ = CoarseStorage::Native;
  std::vector<Complex<T>> links_;
  std::vector<Complex<T>> diag_;
  std::vector<Complex<T>> diag_inv_;
  // Compressed storage (active when storage_ != Native): Single keeps
  // float links/diag; Half16 keeps quantized links/diag plus a float
  // diagonal inverse.
  std::vector<Complex<float>> links_lo_;
  std::vector<Complex<float>> diag_lo_;
  std::vector<Complex<float>> diag_inv_lo_;
  HalfCoarseLinks half_;
  CoarseKernelConfig config_;
  bool autotune_ = true;
  mutable std::optional<Field> dagger_tmp_;

  // Storage-generic kernel bodies (defined in coarse_op.cpp / mrhs.cpp):
  // `Stencil` is a block view over the active storage (in-place reads for
  // dense formats, dequantize-on-load for Half16; mg/coarse_stencil.h) and
  // the kernels accumulate in T via the row kernels of mg/coarse_row.h.
  // Storage dispatch (defined in mg/coarse_stencil.h): fn receives the
  // block view of the active stencil / a diagonal-inverse block getter.
  template <typename Fn>
  void with_stencil(Fn&& fn) const;
  template <typename Fn>
  void with_diag_inverse(Fn&& fn) const;
  template <typename Stencil>
  void apply_with_config_st(Field& out, const Field& in,
                            const CoarseKernelConfig& config,
                            const LaunchPolicy& policy,
                            const Stencil& st) const;
  template <typename Stencil, typename TX>
  void apply_block_with_config_st(BlockField& out, const BlockSpinor<TX>& in,
                                  const CoarseKernelConfig& config,
                                  const LaunchPolicy& policy,
                                  const Stencil& st) const;
  template <typename Stencil>
  void apply_hopping_parity_st(Field& out, const Field& in, int out_parity,
                               const Stencil& st) const;
  template <typename Stencil>
  void apply_hopping_parity_block_st(BlockField& out, const BlockField& in,
                                     int out_parity, const Stencil& st) const;
};

/// Even-odd Schur complement of a coarse operator:
///   S = X_ee - Y_eo X_oo^{-1} Y_oe,
/// enabling red-black preconditioning "on all levels" (paper section 7.1).
template <typename T>
class SchurCoarseOp : public LinearOperator<T> {
 public:
  using Field = typename LinearOperator<T>::Field;

  using BlockField = typename LinearOperator<T>::BlockField;

  explicit SchurCoarseOp(const CoarseDirac<T>& op);

  void apply(Field& out, const Field& in) const override;
  void apply_dagger(Field& out, const Field& in) const override;
  Field create_vector() const override;
  double flops_per_apply() const override;

  void prepare(Field& b_hat, const Field& b) const;
  void reconstruct(Field& x_full, const Field& x_even, const Field& b) const;

  /// Batched Schur apply / prepare / reconstruct (per-rhs bit-identical to
  /// the single-rhs versions; all stages run on the 2D index space).
  void apply_block(BlockField& out, const BlockField& in) const override;
  void prepare_block(BlockField& b_hat, const BlockField& b) const;
  void reconstruct_block(BlockField& x_full, const BlockField& x_even,
                         const BlockField& b) const;

  const CoarseDirac<T>& coarse_op() const { return op_; }

 private:
  const CoarseDirac<T>& op_;
  mutable Field tmp_odd_, tmp_odd2_, tmp_even_;
  mutable std::optional<Field> dagger_tmp_;
};

/// Precision conversion of the whole operator (for mixed-precision cycles).
template <typename To, typename From>
CoarseDirac<To> convert_coarse(const CoarseDirac<From>& in);

}  // namespace qmg
