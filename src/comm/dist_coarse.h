#pragma once
// Domain-decomposed coarse-grid operator.  This is the communication side of
// paper section 6.5: the coarse stencil's halo exchange is O(Nhat_s Nhat_c)
// per face site while its compute is O(Nhat_s^2 Nhat_c^2), so communication
// is relatively cheap — but on the coarsest grids (2^4 sites per rank) it is
// latency, not bandwidth, that dominates, which is what the cluster model
// charges for.  Both latency levers are implemented here: the two-phase
// interior/boundary apply (HaloMode::Overlapped) hides the exchange behind
// interior compute, and the batched multi-rhs apply amortizes per-message
// latency over all N right-hand sides via DistributedBlockSpinor's one
// message per (rank, face).
//
// The coarse links Y and diagonal X are indexed by the *output* site
// (Eq. 3's backward link already stores Y^{+mu dagger}_{x-mu} at x), so only
// the spinor field needs ghosts; the link blocks — in whatever storage
// format the global operator carries, including the 16-bit fixed-point
// Half16 format — are split over ranks once at construction by raw copy
// (quantized components and scales byte-identical to the global ones, so
// per-rank dequantized elements are bit-identical too).  Ghost spinor data
// travels at the field's wire precision (WirePrecision on the distributed
// spinor), independent of the link storage.
//
// The per-row arithmetic is mg/coarse_row.h reached through the shared
// column-major block views of mg/coarse_stencil.h — the same row-tile
// kernel as the single-process operator for the same kernel configuration,
// so distributed applies are bit-identical to global ones (asserted by
// tests), and the batched apply uses coarse_row_mrhs_span, whose per-rhs
// partial-sum shape is identical to the row-tile kernel's, so batched
// distributed applies are bit-identical per rhs to single-rhs distributed
// ones.
//
// Beyond the full-operator apply, this file carries the distributed
// even-odd machinery of the K-cycle's coarse levels (paper section 7.1's
// red-black "on all levels" under domain decomposition): parity-restricted
// hopping/diagonal kernels whose site lists are computed from GLOBAL
// lattice parity (a rank whose subdomain origin has odd parity flips the
// local checkerboard), and two solver-facing LinearOperator adapters —
// DistributedBlockCoarseOp (full operator) and DistributedSchurCoarseOp
// (Schur complement) — that scatter global (block) fields, run the
// distributed kernels, and gather, so Multigrid::cycle_block can dispatch
// every coarse-level operator application through the batched-halo path
// while staying bit-identical to the replicated cycle.

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "comm/dist_spinor.h"
#include "mg/coarse_op.h"

namespace qmg {

template <typename T>
class DistributedCoarseOp {
 public:
  /// Splits a (globally built) coarse operator over the ranks, INHERITING
  /// its storage format: a Single-compressed global operator yields
  /// per-rank float links read with T accumulation, and a Half16 global
  /// yields per-rank quantized links (raw int16+scale copies) dequantized
  /// row by row at apply time — strategy (c) under domain decomposition:
  /// the stencil traffic of every rank shrinks the same ~2x/~4x as the
  /// single-process apply.  Combine with WirePrecision::Single ghosts for
  /// the full bandwidth reduction.  The diagonal inverse, when the global
  /// operator has one, is split alongside (float for compressed storage,
  /// exactly the global arrays), so distributed Schur applies read the
  /// same inverse blocks as replicated ones.
  DistributedCoarseOp(const CoarseDirac<T>& global, DecompositionPtr dec);

  const DecompositionPtr& decomposition() const { return dec_; }
  int ncolor() const { return nc_; }
  int block_dim() const { return n_; }
  CoarseStorage storage() const { return storage_; }
  bool has_diag_inverse() const {
    return !diag_inv_.empty() || !diag_inv_lo_.empty();
  }
  /// Tune/bench tag matching CoarseDirac::precision_tag().
  std::string precision_tag() const {
    std::string tag(1, sizeof(T) == 4 ? 'f' : 'd');
    if (storage_ == CoarseStorage::Single) tag += 'f';
    if (storage_ == CoarseStorage::Half16) tag += 'h';
    return tag;
  }

  DistributedSpinor<T> create_vector() const {
    return DistributedSpinor<T>(dec_, CoarseDirac<T>::kNSpin, nc_);
  }
  DistributedBlockSpinor<T> create_block(int nrhs) const {
    return DistributedBlockSpinor<T>(dec_, CoarseDirac<T>::kNSpin, nc_, nrhs);
  }

  /// out = Mhat in with the given fine-grained kernel configuration; in
  /// Overlapped mode the halo exchange hides behind the interior launch.
  void apply(DistributedSpinor<T>& out, DistributedSpinor<T>& in,
             const CoarseKernelConfig& config = {},
             CommStats* stats = nullptr,
             HaloMode mode = HaloMode::Sync) const;

  /// Batched multi-rhs apply on the 2D (site x rhs) index space with one
  /// batched halo exchange per apply; per-rhs bit-identical to apply() at
  /// the same kernel configuration.
  void apply_block(DistributedBlockSpinor<T>& out,
                   DistributedBlockSpinor<T>& in,
                   const CoarseKernelConfig& config = {},
                   CommStats* stats = nullptr,
                   HaloMode mode = HaloMode::Sync,
                   const LaunchPolicy& policy = default_policy()) const;

  // --- distributed even-odd (Schur) kernels --------------------------------
  //
  // All four act on FULL-volume distributed block fields and touch only the
  // sites of the requested global parity; per-(site, rhs) arithmetic is
  // exactly the global batched parity kernels' (coarse_op.cpp), so a Schur
  // apply composed from them is bit-identical to SchurCoarseOp::apply_block.

  /// out(out_parity sites) = sum of the 8 link blocks times in(neighbors),
  /// with one (optionally overlapped) batched halo exchange of `in`.
  void apply_hopping_parity_block(DistributedBlockSpinor<T>& out,
                                  DistributedBlockSpinor<T>& in,
                                  int out_parity, CommStats* stats = nullptr,
                                  HaloMode mode = HaloMode::Sync,
                                  const LaunchPolicy& policy =
                                      default_policy()) const;

  /// out(parity sites) = X in — rank-local, no communication.
  void apply_diag_block(DistributedBlockSpinor<T>& out,
                        const DistributedBlockSpinor<T>& in, int parity,
                        const LaunchPolicy& policy = default_policy()) const;

  /// out(parity sites) = X^{-1} in — rank-local; requires the global
  /// operator to have had compute_diag_inverse() called before the split.
  void apply_diag_inverse_block(DistributedBlockSpinor<T>& out,
                                const DistributedBlockSpinor<T>& in,
                                int parity,
                                const LaunchPolicy& policy =
                                    default_policy()) const;

  /// y -= x on the given global-parity sites (rank-local elementwise; the
  /// Schur complement's final subtraction).
  void sub_parity_block(DistributedBlockSpinor<T>& y,
                        const DistributedBlockSpinor<T>& x, int parity,
                        const LaunchPolicy& policy = default_policy()) const;

  /// Local sites of the given GLOBAL parity on `rank` (ascending).
  const std::vector<long>& parity_sites(int rank, int parity) const {
    return parity_all_[static_cast<size_t>(rank)][static_cast<size_t>(parity)];
  }

 private:
  DecompositionPtr dec_;
  int nc_;
  int n_;
  CoarseStorage storage_ = CoarseStorage::Native;
  // Per rank: 8 link blocks + diagonal per local site (same layout as
  // CoarseDirac, local indexing).  Exactly one of links_/links_lo_/half_
  // is populated, per storage_; the diagonal inverse mirrors the global
  // operator's precision (T for Native, float otherwise).
  std::vector<std::vector<Complex<T>>> links_;
  std::vector<std::vector<Complex<T>>> diag_;
  std::vector<std::vector<Complex<float>>> links_lo_;
  std::vector<std::vector<Complex<float>>> diag_lo_;
  std::vector<HalfCoarseLinks> half_;
  std::vector<std::vector<Complex<T>>> diag_inv_;
  std::vector<std::vector<Complex<float>>> diag_inv_lo_;
  // Global-parity partition of each rank's local sites (a subdomain with an
  // odd-parity origin flips the local checkerboard), plus the intersections
  // with the interior/boundary sets for overlapped parity hops.
  std::vector<std::array<std::vector<long>, 2>> parity_all_;
  std::vector<std::array<std::vector<long>, 2>> parity_interior_;
  std::vector<std::array<std::vector<long>, 2>> parity_boundary_;

  /// Invoke fn with the active storage format's stencil row view for
  /// `rank` (mg/coarse_stencil.h protocol; defined in the .cpp).
  template <typename Fn>
  void with_stencil(int rank, Fn&& fn) const;

  // Storage-generic kernel bodies (St = stencil row view; accumulation in
  // T via the row kernels of mg/coarse_row.h).
  template <typename St>
  void site_row_update(const St& st, int rank, const DistributedSpinor<T>& in,
                       ColorSpinorField<T>& dst_field, long site,
                       const CoarseKernelConfig& config) const;
  template <typename St>
  void site_rows_update_rhs(const St& st, int rank,
                            const DistributedBlockSpinor<T>& in,
                            BlockSpinor<T>& dst_field, long site, long k0,
                            long k1, const CoarseKernelConfig& config) const;
  template <typename St>
  void site_hop_rhs(const St& st, int rank,
                    const DistributedBlockSpinor<T>& in,
                    BlockSpinor<T>& dst_field, long site, int k) const;
};

/// The batched distributed coarse operator behind the solver-facing
/// LinearOperator interface (the coarse-level analog of
/// DistributedBlockWilsonOp): apply_block scatters a global BlockSpinor
/// over the virtual ranks, runs the batched distributed apply — one
/// batched halo exchange per apply, interior compute hiding it in
/// Overlapped mode — and gathers the result.  Applies run the kernel config
/// the global operator's own apply/apply_block would run at that rhs count
/// (CoarseDirac::resolve_kernel: pinned or tuned), so a K-cycle solve
/// through this operator iterates bit-identically to the replicated one
/// (the contract Multigrid::cycle_block's distributed dispatch relies on).
/// Communication of every apply accumulates in comm_stats(), counted
/// exactly once per exchange.
template <typename T>
class DistributedBlockCoarseOp : public LinearOperator<T> {
 public:
  using Field = typename LinearOperator<T>::Field;
  using BlockField = typename LinearOperator<T>::BlockField;

  DistributedBlockCoarseOp(const CoarseDirac<T>& global,
                           const DistributedCoarseOp<T>& dist,
                           HaloMode mode = HaloMode::Overlapped,
                           WirePrecision wire = WirePrecision::Native)
      : global_(global), dist_(dist), mode_(mode), wire_(wire) {}

  Field create_vector() const override {
    return Field(dist_.decomposition()->global(), CoarseDirac<T>::kNSpin,
                 dist_.ncolor());
  }
  double flops_per_apply() const override {
    return global_.flops_per_apply();
  }

  void apply(Field& out, const Field& in) const override;
  void apply_dagger(Field& out, const Field& in) const override;
  void apply_block(BlockField& out, const BlockField& in) const override;

  HaloMode mode() const { return mode_; }
  const CommStats& comm_stats() const { return stats_; }
  void reset_comm_stats() { stats_.reset(); }

 private:
  const CoarseDirac<T>& global_;
  const DistributedCoarseOp<T>& dist_;
  HaloMode mode_;
  WirePrecision wire_;
  mutable CommStats stats_;
  // Scatter/gather staging, reused across applies (rebuilt when the rhs
  // count changes).
  mutable std::unique_ptr<DistributedSpinor<T>> sin_, sout_;
  mutable std::unique_ptr<DistributedBlockSpinor<T>> bin_, bout_;
  mutable std::optional<Field> dagger_tmp_;
};

/// The distributed even-odd Schur complement behind the LinearOperator
/// interface: apply_block embeds the even-parity block into a full-volume
/// field, scatters it, and runs the Schur sequence
///   X_ee in - Y_eo X_oo^{-1} Y_oe in
/// through the distributed parity kernels — two (optionally overlapped)
/// batched halo exchanges per apply, which is the nested-apply structure
/// the latency-bound coarsest grids exercise.  Per-(site, rhs) arithmetic
/// matches SchurCoarseOp::apply_block exactly, so distributed Schur solves
/// iterate bit-identically to replicated ones.  prepare/reconstruct run
/// once per solve outside the iteration loop and forward to the replicated
/// SchurCoarseOp (bit-identical by construction).  Communication
/// accumulates in comm_stats() — each of the two exchanges of a nested
/// Schur apply is metered exactly once, into this adapter only.
template <typename T>
class DistributedSchurCoarseOp : public LinearOperator<T> {
 public:
  using Field = typename LinearOperator<T>::Field;
  using BlockField = typename LinearOperator<T>::BlockField;

  DistributedSchurCoarseOp(const SchurCoarseOp<T>& schur,
                           const DistributedCoarseOp<T>& dist,
                           HaloMode mode = HaloMode::Overlapped,
                           WirePrecision wire = WirePrecision::Native)
      : schur_(schur), dist_(dist), mode_(mode), wire_(wire) {}

  Field create_vector() const override {
    return Field(dist_.decomposition()->global(), CoarseDirac<T>::kNSpin,
                 dist_.ncolor(), Subset::Even);
  }
  double flops_per_apply() const override {
    return schur_.flops_per_apply();
  }

  void apply(Field& out, const Field& in) const override;
  void apply_dagger(Field& out, const Field& in) const override;
  void apply_block(BlockField& out, const BlockField& in) const override;

  /// Solve-setup stages (outside the iteration loop): replicated, exactly
  /// the global Schur operator's.
  void prepare_block(BlockField& b_hat, const BlockField& b) const {
    schur_.prepare_block(b_hat, b);
  }
  void reconstruct_block(BlockField& x_full, const BlockField& x_even,
                         const BlockField& b) const {
    schur_.reconstruct_block(x_full, x_even, b);
  }

  const SchurCoarseOp<T>& schur_op() const { return schur_; }
  HaloMode mode() const { return mode_; }
  const CommStats& comm_stats() const { return stats_; }
  void reset_comm_stats() { stats_.reset(); }

 private:
  const SchurCoarseOp<T>& schur_;
  const DistributedCoarseOp<T>& dist_;
  HaloMode mode_;
  WirePrecision wire_;
  mutable CommStats stats_;
  // Full-volume staging: the global embedding field plus the distributed
  // temporaries of the Schur sequence.  Odd sites of full_ and even sites
  // of the odd temporaries stay zero across applies (each kernel writes
  // only its own parity), so reuse is deterministic.
  mutable std::unique_ptr<BlockField> full_;
  mutable std::unique_ptr<DistributedBlockSpinor<T>> din_, dodd_, dodd2_,
      deven_, dout_;
  mutable std::optional<Field> dagger_tmp_;

  void ensure_staging(int nrhs) const;
};

}  // namespace qmg
