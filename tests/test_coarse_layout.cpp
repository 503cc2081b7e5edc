// Layout equivalence of the coarse operator: every kernel that reads the
// column-major stencil blocks through the row-tile (SIMD-lane) kernel or the
// batched multi-rhs kernels must reproduce, bit for bit, a plain scalar
// reference that keeps its OWN row-major copy of the stencil and runs the
// textbook loops — the full apply for every kernel configuration, the Schur
// hop, diagonal and diagonal inverse, single-rhs and batched (nrhs 1, 3,
// 12), replicated and split over two virtual ranks — for block dimensions
// that are and are not multiples of the row tile, in float and double.
// Compressed storage is covered by feeding the reference the stored
// values: Single's truncated floats bit-exactly, Half16's dequantized
// values bit-exactly plus the documented Q15 bound against the native
// operator.  Runs in the unit label, so the SIMD-width CI matrix checks it
// at every lane width.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "comm/dist_coarse.h"
#include "fields/blockspinor.h"
#include "linalg/smallmat.h"
#include "mg/coarse_op.h"
#include "parallel/autotune.h"
#include "util/rng.h"

namespace qmg {
namespace {

/// Scalar row-major reference: rows are contiguous, every row is one plain
/// loop nest.  Values are copied out of the operator once through the
/// layout-independent element accessors.
template <typename T>
struct RowMajorRef {
  int n = 0;
  GeometryPtr geom;
  std::vector<Complex<T>> links;  // [site][l][r*n + c]
  std::vector<Complex<T>> diag;   // [site][r*n + c]
  std::vector<Complex<T>> inv;    // [site][r*n + c]

  size_t nn() const { return static_cast<size_t>(n) * n; }
  const Complex<T>* link(long s, int l) const {
    return links.data() + (static_cast<size_t>(s) * 8 + l) * nn();
  }
  const Complex<T>* dg(long s) const {
    return diag.data() + static_cast<size_t>(s) * nn();
  }
  const Complex<T>* dinv(long s) const {
    return inv.data() + static_cast<size_t>(s) * nn();
  }

  /// One row of the section-6 decomposition (dir chunks, dot split, ILP,
  /// cascade) over row-major rows — the historical scalar kernel.
  Complex<T> config_row(const Complex<T>* const rows[9],
                        const Complex<T>* const xin[9],
                        const CoarseKernelConfig& cfg) const {
    const int dir_split =
        cfg.strategy >= Strategy::StencilDir ? cfg.dir_split : 1;
    const int dot_split = cfg.strategy >= Strategy::DotProduct
                              ? std::min(cfg.dot_split, 8)
                              : 1;
    const int ilp = std::min(cfg.ilp, 4);
    Complex<T> dir_partial[9];
    for (int chunk = 0; chunk < dir_split; ++chunk) {
      Complex<T> dot_partial[8] = {};
      for (int m = chunk; m < 9; m += dir_split) {
        for (int ds = 0; ds < dot_split; ++ds) {
          const int begin = static_cast<int>((static_cast<long>(n) * ds) /
                                             dot_split);
          const int end = static_cast<int>(
              (static_cast<long>(n) * (ds + 1)) / dot_split);
          Complex<T> acc[4] = {};
          int i = begin;
          for (; i + ilp <= end; i += ilp)
            for (int j = 0; j < ilp; ++j)
              acc[j] += rows[m][i + j] * xin[m][i + j];
          for (; i < end; ++i) acc[0] += rows[m][i] * xin[m][i];
          Complex<T> strip{};
          for (int j = 0; j < ilp; ++j) strip += acc[j];
          dot_partial[ds] += strip;
        }
      }
      int span = 1;
      while (span < dot_split) span <<= 1;
      for (int offset = span / 2; offset >= 1; offset /= 2)
        for (int i = 0; i < offset && i + offset < 8; ++i)
          dot_partial[i] += dot_partial[i + offset];
      dir_partial[chunk] = dot_partial[0];
    }
    Complex<T> total{};
    for (int chunk = 0; chunk < dir_split; ++chunk)
      total += dir_partial[chunk];
    return total;
  }

  void apply(ColorSpinorField<T>& out, const ColorSpinorField<T>& in,
             const CoarseKernelConfig& cfg) const {
    for (long s = 0; s < geom->volume(); ++s) {
      const Complex<T>* xin[9];
      xin[0] = in.site_data(s);
      for (int mu = 0; mu < kNDim; ++mu) {
        xin[1 + 2 * mu] = in.site_data(geom->neighbor_fwd(s, mu));
        xin[2 + 2 * mu] = in.site_data(geom->neighbor_bwd(s, mu));
      }
      for (int r = 0; r < n; ++r) {
        const Complex<T>* rows[9];
        rows[0] = dg(s) + static_cast<size_t>(r) * n;
        for (int l = 0; l < 8; ++l)
          rows[1 + l] = link(s, l) + static_cast<size_t>(r) * n;
        out.site_data(s)[r] = config_row(rows, xin, cfg);
      }
    }
  }

  /// Parity hop (cb-indexed out): one accumulator, link-major.
  void hop(ColorSpinorField<T>& out, const ColorSpinorField<T>& in,
           int out_parity) const {
    for (long cb = 0; cb < geom->half_volume(); ++cb) {
      const long s = geom->full_index(out_parity, cb);
      const Complex<T>* xin[8];
      for (int mu = 0; mu < kNDim; ++mu) {
        xin[2 * mu] = in.site_data(geom->cb_index(geom->neighbor_fwd(s, mu)));
        xin[2 * mu + 1] =
            in.site_data(geom->cb_index(geom->neighbor_bwd(s, mu)));
      }
      for (int r = 0; r < n; ++r) {
        Complex<T> acc{};
        for (int l = 0; l < 8; ++l)
          for (int c = 0; c < n; ++c)
            acc += link(s, l)[static_cast<size_t>(r) * n + c] * xin[l][c];
        out.site_data(cb)[r] = acc;
      }
    }
  }

  /// Block-diagonal apply with `blk(site)` on a parity (or full) field.
  template <typename Blk>
  void diag_apply(ColorSpinorField<T>& out, const ColorSpinorField<T>& in,
                  int parity, Blk&& blk) const {
    for (long i = 0; i < in.nsites(); ++i) {
      const long s = parity >= 0 ? geom->full_index(parity, i) : i;
      for (int r = 0; r < n; ++r) {
        Complex<T> acc{};
        for (int c = 0; c < n; ++c)
          acc += blk(s)[static_cast<size_t>(r) * n + c] * in.site_data(i)[c];
        out.site_data(i)[r] = acc;
      }
    }
  }

  /// SchurCoarseOp::apply's composition: X_ee in - H_eo X_oo^-1 H_oe in.
  void schur(ColorSpinorField<T>& out, const ColorSpinorField<T>& in) const {
    ColorSpinorField<T> odd(geom, 2, n / 2, Subset::Odd);
    ColorSpinorField<T> odd2(geom, 2, n / 2, Subset::Odd);
    ColorSpinorField<T> even(geom, 2, n / 2, Subset::Even);
    hop(odd, in, 1);
    diag_apply(odd2, odd, 1, [&](long s) { return dinv(s); });
    hop(even, odd2, 0);
    diag_apply(out, in, 0, [&](long s) { return dg(s); });
    for (long k = 0; k < out.size(); ++k) out.data()[k] -= even.data()[k];
  }
};

/// A random, diagonally dominated coarse operator on 2^3 x 4 sites (the
/// long axis splits over two ranks).
template <typename T>
CoarseDirac<T> random_coarse(int n, std::uint64_t seed) {
  CoarseDirac<T> op(make_geometry(Coord{2, 2, 2, 4}), n / 2);
  const SiteRng rng(seed);
  for (long s = 0; s < op.geometry()->volume(); ++s)
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c) {
        const auto slot = static_cast<std::uint64_t>(r * n + c);
        for (int l = 0; l < 8; ++l)
          op.link_elem(s, l, r, c) = Complex<T>(
              static_cast<T>(rng.normal(s * 64 + l, 2 * slot)),
              static_cast<T>(rng.normal(s * 64 + l, 2 * slot + 1)));
        op.diag_elem(s, r, c) = Complex<T>(
            static_cast<T>(rng.normal(s * 64 + 9, 2 * slot)),
            static_cast<T>(rng.normal(s * 64 + 9, 2 * slot + 1)));
        if (r == c) op.diag_elem(s, r, c) += Complex<T>(static_cast<T>(3 * n));
      }
  op.compute_diag_inverse();
  return op;
}

/// Reference copy of `op`'s NATIVE stencil, each value mapped through
/// `stored` (the storage format's round trip), and the inverse through
/// `stored_inv`; the LU runs on the native diagonal, like
/// compute_diag_inverse before compression.
template <typename T, typename Stored, typename StoredInv>
RowMajorRef<T> make_ref(const CoarseDirac<T>& op, Stored&& stored,
                        StoredInv&& stored_inv) {
  RowMajorRef<T> ref;
  ref.n = op.block_dim();
  ref.geom = op.geometry();
  const int n = ref.n;
  const long v = op.geometry()->volume();
  ref.links.resize(static_cast<size_t>(v) * 8 * ref.nn());
  ref.diag.resize(static_cast<size_t>(v) * ref.nn());
  ref.inv.resize(static_cast<size_t>(v) * ref.nn());
  for (long s = 0; s < v; ++s) {
    SmallMatrix<T> m(n, n);
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c) {
        const size_t rc = static_cast<size_t>(r) * n + c;
        for (int l = 0; l < 8; ++l)
          ref.links[(static_cast<size_t>(s) * 8 + l) * ref.nn() + rc] =
              stored(s, l, r, c, op.link_elem(s, l, r, c));
        ref.diag[static_cast<size_t>(s) * ref.nn() + rc] =
            stored(s, 8, r, c, op.diag_elem(s, r, c));
        m(r, c) = op.diag_elem(s, r, c);
      }
    const SmallMatrix<T> inverse = LuFactor<T>(m).inverse();
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c)
        ref.inv[static_cast<size_t>(s) * ref.nn() +
                static_cast<size_t>(r) * n + c] = stored_inv(inverse(r, c));
  }
  return ref;
}

template <typename T>
RowMajorRef<T> native_ref(const CoarseDirac<T>& op) {
  return make_ref(
      op, [](long, int, int, int, Complex<T> v) { return v; },
      [](Complex<T> v) { return v; });
}

template <typename T>
::testing::AssertionResult same_bits(const ColorSpinorField<T>& a,
                                     const ColorSpinorField<T>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size mismatch";
  for (long k = 0; k < a.size(); ++k)
    if (a.data()[k].re != b.data()[k].re || a.data()[k].im != b.data()[k].im)
      return ::testing::AssertionFailure()
             << "first mismatch at element " << k << ": " << a.data()[k]
             << " vs " << b.data()[k];
  return ::testing::AssertionSuccess();
}

/// Every strategy x dir_split x dot_split x ilp the kernels distinguish,
/// plus the autotuner's own candidate list.
std::vector<CoarseKernelConfig> all_configs(int n) {
  std::vector<CoarseKernelConfig> cfgs = TuneCache::coarse_candidates(n);
  for (int ilp = 1; ilp <= 4; ++ilp) {
    cfgs.push_back({Strategy::GridOnly, 1, 1, ilp});
    cfgs.push_back({Strategy::ColorSpin, 1, 1, ilp});
    for (int dir : {2, 3, 9}) cfgs.push_back({Strategy::StencilDir, dir, 1, ilp});
    for (int dir : {1, 3, 9})
      for (int dot : {2, 3, 8})
        cfgs.push_back({Strategy::DotProduct, dir, dot, ilp});
  }
  return cfgs;
}

constexpr int kBlockDims[] = {8, 12, 48, 64};
constexpr int kBatchSizes[] = {1, 3, 12};

LaunchPolicy lanes_policy() {
  LaunchPolicy p;
  p.backend = Backend::Simd;
  return p;
}

template <typename T>
class CoarseLayout : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(CoarseLayout, Precisions);

TYPED_TEST(CoarseLayout, FullApplyMatchesRowMajorReferenceForEveryConfig) {
  using T = TypeParam;
  for (const int n : kBlockDims) {
    const CoarseDirac<T> op = random_coarse<T>(n, 11 + n);
    const RowMajorRef<T> ref = native_ref(op);
    auto x = op.create_vector();
    x.gaussian(3);
    auto want = op.create_vector();
    auto got = op.create_vector();
    for (const auto& cfg : all_configs(n)) {
      ref.apply(want, x, cfg);
      op.apply_with_config(got, x, cfg);
      ASSERT_TRUE(same_bits(got, want)) << "n=" << n << " " << cfg.to_string();
      op.apply_with_config(got, x, cfg, lanes_policy());
      ASSERT_TRUE(same_bits(got, want))
          << "simd policy n=" << n << " " << cfg.to_string();
    }
  }
}

TYPED_TEST(CoarseLayout, BatchedApplyMatchesReferencePerRhs) {
  using T = TypeParam;
  for (const int n : kBlockDims) {
    const CoarseDirac<T> op = random_coarse<T>(n, 21 + n);
    const RowMajorRef<T> ref = native_ref(op);
    for (const int nrhs : kBatchSizes) {
      BlockSpinor<T> in(op.geometry(), 2, n / 2, nrhs);
      std::vector<ColorSpinorField<T>> want;
      for (int k = 0; k < nrhs; ++k) {
        auto x = op.create_vector();
        x.gaussian(100 + k);
        in.insert_rhs(x, k);
        want.push_back(op.create_vector());
      }
      BlockSpinor<T> out = in.similar();
      for (const auto& cfg : TuneCache::coarse_candidates(n)) {
        for (int k = 0; k < nrhs; ++k)
          ref.apply(want[static_cast<size_t>(k)], in.extract_rhs(k), cfg);
        for (const auto& policy : {default_policy(), lanes_policy()}) {
          op.apply_block_with_config(out, in, cfg, policy);
          for (int k = 0; k < nrhs; ++k)
            ASSERT_TRUE(
                same_bits(out.extract_rhs(k), want[static_cast<size_t>(k)]))
                << "n=" << n << " nrhs=" << nrhs << " rhs " << k << " "
                << cfg.to_string() << " backend " << to_string(policy.backend);
        }
      }
    }
  }
}

TYPED_TEST(CoarseLayout, SchurKernelsMatchReferenceSingleAndBatched) {
  using T = TypeParam;
  for (const int n : kBlockDims) {
    const CoarseDirac<T> op = random_coarse<T>(n, 31 + n);
    const RowMajorRef<T> ref = native_ref(op);
    const auto geom = op.geometry();
    const int nc = n / 2;
    ColorSpinorField<T> even(geom, 2, nc, Subset::Even);
    even.gaussian(7);
    ColorSpinorField<T> odd(geom, 2, nc, Subset::Odd);
    odd.gaussian(8);
    ColorSpinorField<T> want_odd(geom, 2, nc, Subset::Odd);
    ColorSpinorField<T> got_odd(geom, 2, nc, Subset::Odd);
    ColorSpinorField<T> want_even(geom, 2, nc, Subset::Even);
    ColorSpinorField<T> got_even(geom, 2, nc, Subset::Even);

    ref.hop(want_odd, even, 1);
    op.apply_hopping_parity(got_odd, even, 1);
    ASSERT_TRUE(same_bits(got_odd, want_odd)) << "hop n=" << n;
    ref.diag_apply(want_odd, odd, 1, [&](long s) { return ref.dg(s); });
    op.apply_diag(got_odd, odd, 1);
    ASSERT_TRUE(same_bits(got_odd, want_odd)) << "diag n=" << n;
    ref.diag_apply(want_odd, odd, 1, [&](long s) { return ref.dinv(s); });
    op.apply_diag_inverse(got_odd, odd, 1);
    ASSERT_TRUE(same_bits(got_odd, want_odd)) << "diag inverse n=" << n;
    const SchurCoarseOp<T> schur(op);
    ref.schur(want_even, even);
    schur.apply(got_even, even);
    ASSERT_TRUE(same_bits(got_even, want_even)) << "schur n=" << n;

    for (const int nrhs : kBatchSizes) {
      BlockSpinor<T> in(geom, 2, nc, nrhs, Subset::Even);
      for (int k = 0; k < nrhs; ++k) {
        ColorSpinorField<T> x(geom, 2, nc, Subset::Even);
        x.gaussian(200 + k);
        in.insert_rhs(x, k);
      }
      BlockSpinor<T> hop_out(geom, 2, nc, nrhs, Subset::Odd);
      op.apply_hopping_parity_block(hop_out, in, 1);
      BlockSpinor<T> inv_out = hop_out.similar();
      op.apply_diag_inverse_block(inv_out, hop_out, 1);
      BlockSpinor<T> diag_out = in.similar();
      op.apply_diag_block(diag_out, in, 0);
      BlockSpinor<T> schur_out = in.similar();
      schur.apply_block(schur_out, in);
      for (int k = 0; k < nrhs; ++k) {
        const ColorSpinorField<T> x = in.extract_rhs(k);
        ref.hop(want_odd, x, 1);
        ASSERT_TRUE(same_bits(hop_out.extract_rhs(k), want_odd))
            << "hop n=" << n << " nrhs=" << nrhs << " rhs " << k;
        ref.diag_apply(want_odd, hop_out.extract_rhs(k), 1,
                       [&](long s) { return ref.dinv(s); });
        ASSERT_TRUE(same_bits(inv_out.extract_rhs(k), want_odd))
            << "diag inverse n=" << n << " nrhs=" << nrhs << " rhs " << k;
        ref.diag_apply(want_even, x, 0, [&](long s) { return ref.dg(s); });
        ASSERT_TRUE(same_bits(diag_out.extract_rhs(k), want_even))
            << "diag n=" << n << " nrhs=" << nrhs << " rhs " << k;
        ref.schur(want_even, x);
        ASSERT_TRUE(same_bits(schur_out.extract_rhs(k), want_even))
            << "schur n=" << n << " nrhs=" << nrhs << " rhs " << k;
      }
    }
  }
}

TYPED_TEST(CoarseLayout, TwoRankSplitMatchesReference) {
  using T = TypeParam;
  for (const int n : kBlockDims) {
    const CoarseDirac<T> op = random_coarse<T>(n, 41 + n);
    const RowMajorRef<T> ref = native_ref(op);
    const DistributedCoarseOp<T> dist(op, make_decomposition(op.geometry(), 2));
    auto x = op.create_vector();
    x.gaussian(9);
    auto dx = dist.create_vector();
    dx.scatter(x);
    auto dy = dist.create_vector();
    auto want = op.create_vector();
    auto got = op.create_vector();
    for (const auto& cfg : TuneCache::coarse_candidates(n)) {
      ref.apply(want, x, cfg);
      dist.apply(dy, dx, cfg);
      dy.gather(got);
      ASSERT_TRUE(same_bits(got, want)) << "n=" << n << " " << cfg.to_string();
    }
    const CoarseKernelConfig cfg{Strategy::DotProduct, 3, 2, 2};
    for (const int nrhs : kBatchSizes) {
      BlockSpinor<T> in(op.geometry(), 2, n / 2, nrhs);
      BlockSpinor<T> even_in(op.geometry(), 2, n / 2, nrhs, Subset::Even);
      for (int k = 0; k < nrhs; ++k) {
        auto xk = op.create_vector();
        xk.gaussian(300 + k);
        in.insert_rhs(xk, k);
        ColorSpinorField<T> ek(op.geometry(), 2, n / 2, Subset::Even);
        extract_parity(ek, xk, 0);
        even_in.insert_rhs(ek, k);
      }
      auto din = dist.create_block(nrhs);
      din.scatter(in);
      auto dout = dist.create_block(nrhs);
      dist.apply_block(dout, din, cfg);
      BlockSpinor<T> out = in.similar();
      dout.gather(out);
      const SchurCoarseOp<T> schur(op);
      const DistributedSchurCoarseOp<T> dschur(schur, dist);
      BlockSpinor<T> schur_out = even_in.similar();
      dschur.apply_block(schur_out, even_in);
      ColorSpinorField<T> want_even(op.geometry(), 2, n / 2, Subset::Even);
      for (int k = 0; k < nrhs; ++k) {
        ref.apply(want, in.extract_rhs(k), cfg);
        ASSERT_TRUE(same_bits(out.extract_rhs(k), want))
            << "n=" << n << " nrhs=" << nrhs << " rhs " << k;
        ref.schur(want_even, even_in.extract_rhs(k));
        ASSERT_TRUE(same_bits(schur_out.extract_rhs(k), want_even))
            << "schur n=" << n << " nrhs=" << nrhs << " rhs " << k;
      }
    }
  }
}

TEST(CoarseLayoutStorage, SingleStorageMatchesTruncatedReference) {
  for (const int n : kBlockDims) {
    const CoarseDirac<double> native = random_coarse<double>(n, 51 + n);
    // Single keeps each element rounded to float.  The rounded values are
    // taken from a float operator in memory and only promoted here: GCC
    // 12's SLP vectorizer was seen to drop an in-register double -> float
    // -> double round trip inside make_ref's loops, which would silently
    // turn this reference back into the native one.
    const CoarseDirac<float> lo = convert_coarse<float>(native);
    const RowMajorRef<double> ref = make_ref(
        native,
        [&](long s, int blk, int r, int c, Complex<double>) {
          return Complex<double>(blk == 8 ? lo.diag_elem(s, r, c)
                                          : lo.link_elem(s, blk, r, c));
        },
        [](Complex<double> v) { return Complex<double>(Complex<float>(v)); });
    CoarseDirac<double> op = random_coarse<double>(n, 51 + n);
    op.compress_storage(CoarseStorage::Single);
    auto x = op.create_vector();
    x.gaussian(4);
    auto want = op.create_vector();
    auto got = op.create_vector();
    for (const auto& cfg : TuneCache::coarse_candidates(n)) {
      ref.apply(want, x, cfg);
      op.apply_with_config(got, x, cfg);
      ref.apply(want, x, cfg);
      ASSERT_TRUE(same_bits(got, want)) << "n=" << n << " " << cfg.to_string();
    }
    ColorSpinorField<double> even(op.geometry(), 2, n / 2, Subset::Even);
    even.gaussian(5);
    ColorSpinorField<double> want_even(op.geometry(), 2, n / 2, Subset::Even);
    ColorSpinorField<double> got_even(op.geometry(), 2, n / 2, Subset::Even);
    ref.schur(want_even, even);
    SchurCoarseOp<double>(op).apply(got_even, even);
    ASSERT_TRUE(same_bits(got_even, want_even)) << "schur n=" << n;
  }
}

TEST(CoarseLayoutStorage, Half16MatchesDequantizedReferenceAndBound) {
  for (const int n : kBlockDims) {
    const CoarseDirac<double> native = random_coarse<double>(n, 61 + n);
    const HalfCoarseLinks half = native.snapshot_half_links();
    // The dequantized value of (r, c) is per element (one scale per
    // block), so the reference reads it through the documented layout.
    const RowMajorRef<double> deq = make_ref(
        native,
        [&](long s, int blk, int r, int c, Complex<double>) {
          return Complex<double>(half.block(s, blk).value(
              static_cast<long>(native.elem_offset(r, c))));
        },
        [](Complex<double> v) { return Complex<double>(Complex<float>(v)); });
    const RowMajorRef<double> exact = native_ref(native);
    CoarseDirac<double> op = random_coarse<double>(n, 61 + n);
    op.compress_storage(CoarseStorage::Half16);
    auto x = op.create_vector();
    x.gaussian(6);
    auto want = op.create_vector();
    auto got = op.create_vector();
    auto ideal = op.create_vector();
    for (const auto& cfg : TuneCache::coarse_candidates(n)) {
      deq.apply(want, x, cfg);
      op.apply_with_config(got, x, cfg);
      ASSERT_TRUE(same_bits(got, want)) << "n=" << n << " " << cfg.to_string();
    }
    // Documented bound: each element within max_abs(block) * 2^-15 per
    // component, so row r of the apply is off by at most
    // sum_m sqrt(2) max_abs_m 2^-15 sum_c |x_m[c]| (plus double rounding).
    exact.apply(ideal, x, {Strategy::GridOnly, 1, 1, 1});
    const auto& geom = *op.geometry();
    for (long s = 0; s < geom.volume(); ++s) {
      double slack = 0;
      for (int m = 0; m < 9; ++m) {
        const long nb = m == 0 ? s
                        : (m - 1) % 2 == 0
                            ? geom.neighbor_fwd(s, (m - 1) / 2)
                            : geom.neighbor_bwd(s, (m - 1) / 2);
        double max_abs = 0, xsum = 0;
        for (size_t k = 0; k < static_cast<size_t>(n) * n; ++k) {
          const Complex<double> v = m == 0 ? native.diag_data(s)[k]
                                           : native.link_data(s, m - 1)[k];
          max_abs = std::max({max_abs, std::fabs(v.re), std::fabs(v.im)});
        }
        for (int c = 0; c < n; ++c) xsum += std::sqrt(norm2(x.site_data(nb)[c]));
        slack += std::sqrt(2.0) * max_abs * std::pow(2.0, -15) * xsum;
      }
      for (int r = 0; r < n; ++r) {
        const Complex<double> d = got.site_data(s)[r] - ideal.site_data(s)[r];
        EXPECT_LE(std::sqrt(norm2(d)), slack * (1 + 1e-6))
            << "n=" << n << " site " << s << " row " << r;
      }
    }
  }
}

}  // namespace
}  // namespace qmg
