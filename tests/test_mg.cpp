// Multigrid tests: transfer-operator identities, Galerkin consistency,
// coarse-operator properties (gamma5-Hermiticity, Schur equivalence),
// recursive coarsening, and end-to-end K-cycle convergence.  Null-vector
// relaxation: one operator apply per sweep, against a two-apply reference.

#include <gtest/gtest.h>

#include "dirac/clover.h"
#include "dirac/wilson.h"
#include "fields/blas.h"
#include "gauge/ensemble.h"
#include "mg/galerkin.h"
#include "mg/multigrid.h"
#include "mg/nullspace.h"
#include "mg/stencil.h"
#include "mg/transfer.h"
#include "solvers/bicgstab.h"
#include "solvers/gcr.h"

namespace qmg {
namespace {

struct MgFixture {
  GeometryPtr geom;
  GaugeField<double> gauge;
  CloverField<double> clover;
  std::unique_ptr<WilsonCloverOp<double>> op;
  std::shared_ptr<const BlockMap> map;
  std::unique_ptr<Transfer<double>> transfer;

  explicit MgFixture(int nvec = 4, double mass = 0.1, double roughness = 0.4,
                     Coord dims = {4, 4, 4, 4}, Coord block = {2, 2, 2, 2})
      : geom(make_geometry(dims)),
        gauge(disordered_gauge<double>(geom, roughness, 71)),
        clover(build_clover_with_inverse(gauge, 1.0, mass)) {
    op = std::make_unique<WilsonCloverOp<double>>(
        gauge, WilsonParams<double>{.mass = mass, .csw = 1.0}, &clover);
    NullSpaceParams ns;
    ns.nvec = nvec;
    ns.iters = 30;
    auto vecs = generate_null_vectors(*op, ns);
    map = std::make_shared<const BlockMap>(geom, block);
    transfer = std::make_unique<Transfer<double>>(map, 4, 3, nvec);
    transfer->set_null_vectors(vecs);
  }
};

/// Relative gap |Mhat v - P^dag M P v| / |Mhat v| for a random coarse v:
/// the Galerkin identity Mhat = P^dag M P checked through one apply each.
double triple_product_gap(const LinearOperator<double>& fine,
                          const Transfer<double>& transfer,
                          const CoarseDirac<double>& coarse) {
  auto v = transfer.create_coarse_vector();
  v.gaussian(5);
  auto mv = coarse.create_vector();
  coarse.apply(mv, v);
  auto pv = transfer.create_fine_vector();
  transfer.prolongate(pv, v);
  auto mpv = fine.create_vector();
  fine.apply(mpv, pv);
  auto rmpv = transfer.create_coarse_vector();
  transfer.restrict_to_coarse(rmpv, mpv);
  blas::axpy(-1.0, mv, rmpv);
  return std::sqrt(blas::norm2(rmpv) / blas::norm2(mv));
}

/// Every backward link is bit-for-bit Gamma5 Yfwd^dag Gamma5 of its coarse
/// neighbour's forward link; in a coarse extent-1 direction both links are
/// zero (every hop folded into the diagonal).
void expect_backward_links_exact(const CoarseDirac<double>& coarse) {
  const auto& cgeom = *coarse.geometry();
  const int n = coarse.block_dim();
  const int nc = coarse.ncolor();
  for (long x = 0; x < cgeom.volume(); ++x)
    for (int mu = 0; mu < 4; ++mu) {
      const long xm = cgeom.neighbor_bwd(x, mu);
      for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c) {
          const complexd got = coarse.link_elem(x, 2 * mu + 1, r, c);
          const complexd fwd = coarse.link_elem(xm, 2 * mu, c, r);
          if (xm == x) {
            ASSERT_EQ(norm2(got), 0.0) << "site " << x << " mu " << mu;
            ASSERT_EQ(norm2(fwd), 0.0) << "site " << x << " mu " << mu;
            continue;
          }
          const complexd expect =
              (r / nc) == (c / nc) ? conj(fwd) : -conj(fwd);
          ASSERT_EQ(got.re, expect.re) << x << " " << mu << " " << r << c;
          ASSERT_EQ(got.im, expect.im) << x << " " << mu << " " << r << c;
        }
    }
}

/// A second Galerkin level on top of `level1` (coarse-on-coarse through
/// CoarseStencilView) with `block` aggregates and 3 null vectors.
struct CoarseOnCoarse {
  std::unique_ptr<Transfer<double>> transfer;
  std::unique_ptr<CoarseDirac<double>> op;

  CoarseOnCoarse(const CoarseDirac<double>& level1, Coord block) {
    NullSpaceParams ns;
    ns.nvec = 3;
    ns.iters = 20;
    auto vecs = generate_null_vectors(level1, ns);
    auto map = std::make_shared<const BlockMap>(level1.geometry(), block);
    transfer = std::make_unique<Transfer<double>>(map, 2, level1.ncolor(), 3);
    transfer->set_null_vectors(vecs);
    const CoarseStencilView<double> view(level1);
    op = std::make_unique<CoarseDirac<double>>(
        build_coarse_operator(view, *transfer));
  }
};

TEST(Transfer, RestrictorIsAdjointOfProlongator) {
  MgFixture f;
  auto coarse = f.transfer->create_coarse_vector();
  auto fine = f.transfer->create_fine_vector();
  coarse.gaussian(1);
  fine.gaussian(2);
  auto p_coarse = f.transfer->create_fine_vector();
  f.transfer->prolongate(p_coarse, coarse);
  auto r_fine = f.transfer->create_coarse_vector();
  f.transfer->restrict_to_coarse(r_fine, fine);
  // <fine, P coarse> == <P^dag fine, coarse>.
  const complexd a = blas::cdot(fine, p_coarse);
  const complexd b = blas::cdot(r_fine, coarse);
  EXPECT_NEAR(a.re, b.re, 1e-9);
  EXPECT_NEAR(a.im, b.im, 1e-9);
}

TEST(Transfer, ProlongatorIsIsometry) {
  // After block orthonormalization, P^dag P = identity on the coarse space.
  MgFixture f;
  auto coarse = f.transfer->create_coarse_vector();
  coarse.gaussian(3);
  auto fine = f.transfer->create_fine_vector();
  f.transfer->prolongate(fine, coarse);
  auto back = f.transfer->create_coarse_vector();
  f.transfer->restrict_to_coarse(back, fine);
  blas::axpy(-1.0, coarse, back);
  EXPECT_LT(std::sqrt(blas::norm2(back) / blas::norm2(coarse)), 1e-11);
  // Norm preservation: |P v| = |v|.
  EXPECT_NEAR(blas::norm2(fine), blas::norm2(coarse),
              1e-10 * blas::norm2(coarse));
}

TEST(Transfer, ChiralityIsPreserved) {
  // Prolongating a coarse vector supported on spin 0 (positive chirality)
  // must produce a fine vector supported on spins 0,1 only.
  MgFixture f;
  auto coarse = f.transfer->create_coarse_vector();
  for (long i = 0; i < coarse.nsites(); ++i)
    for (int k = 0; k < coarse.ncolor(); ++k)
      coarse(i, 0, k) = complexd(1.0, -0.5);
  auto fine = f.transfer->create_fine_vector();
  f.transfer->prolongate(fine, coarse);
  double lower = 0;
  for (long i = 0; i < fine.nsites(); ++i)
    for (int s = 2; s < 4; ++s)
      for (int c = 0; c < 3; ++c) lower += norm2(fine(i, s, c));
  EXPECT_EQ(lower, 0.0);
}

TEST(Galerkin, CoarseOperatorMatchesTripleProduct) {
  // The fundamental consistency check: Mhat v = P^dag M P v for random v.
  MgFixture f;
  const WilsonStencilView<double> view(*f.op);
  const CoarseDirac<double> coarse = build_coarse_operator(view, *f.transfer);

  auto v = f.transfer->create_coarse_vector();
  v.gaussian(5);
  // Direct coarse apply.
  auto mv = coarse.create_vector();
  coarse.apply(mv, v);
  // Triple product.
  auto pv = f.transfer->create_fine_vector();
  f.transfer->prolongate(pv, v);
  auto mpv = f.op->create_vector();
  f.op->apply(mpv, pv);
  auto rmpv = f.transfer->create_coarse_vector();
  f.transfer->restrict_to_coarse(rmpv, mpv);

  blas::axpy(-1.0, mv, rmpv);
  EXPECT_LT(std::sqrt(blas::norm2(rmpv) / blas::norm2(mv)), 1e-10);
}

TEST(Galerkin, MixedPrecisionCoarseApplyEquivalence) {
  // Strategy (c): float coarse-link storage with double accumulation must
  // equal the all-double apply on float-truncated links bit-for-bit, and
  // sit within float truncation of the native double apply.
  MgFixture f;
  const WilsonStencilView<double> view(*f.op);
  const CoarseDirac<double> native = build_coarse_operator(view, *f.transfer);
  const CoarseDirac<double> mixed =
      build_coarse_operator(view, *f.transfer, CoarseStorage::Single);
  const CoarseDirac<double> truncated =
      convert_coarse<double>(convert_coarse<float>(native));

  auto v = native.create_vector();
  v.gaussian(55);
  auto y_native = native.create_vector();
  auto y_mixed = native.create_vector();
  auto y_trunc = native.create_vector();
  const CoarseKernelConfig config{Strategy::DotProduct, 3, 2, 2};
  native.apply_with_config(y_native, v, config);
  mixed.apply_with_config(y_mixed, v, config);
  truncated.apply_with_config(y_trunc, v, config);

  for (long k = 0; k < y_mixed.size(); ++k) {
    ASSERT_EQ(y_mixed.data()[k].re, y_trunc.data()[k].re) << k;
    ASSERT_EQ(y_mixed.data()[k].im, y_trunc.data()[k].im) << k;
  }
  blas::axpy(-1.0, y_native, y_mixed);
  const double gap =
      std::sqrt(blas::norm2(y_mixed) / blas::norm2(y_native));
  EXPECT_GT(gap, 0.0);   // the truncation is real...
  EXPECT_LT(gap, 1e-6);  // ...and float-sized
}

TEST(Galerkin, CoarseGamma5Hermiticity) {
  // Coarse gamma5 = diag(+1, -1) over coarse spin; Mhat must satisfy
  // <u, Mhat v> = <Gamma5 Mhat Gamma5 u, v>, inherited from the fine grid.
  MgFixture f;
  const WilsonStencilView<double> view(*f.op);
  const CoarseDirac<double> coarse = build_coarse_operator(view, *f.transfer);

  auto u = coarse.create_vector();
  auto v = coarse.create_vector();
  u.gaussian(6);
  v.gaussian(7);
  auto mv = coarse.create_vector();
  auto mdag_u = coarse.create_vector();
  coarse.apply(mv, v);
  coarse.apply_dagger(mdag_u, u);
  const complexd a = blas::cdot(u, mv);
  const complexd b = blas::cdot(mdag_u, v);
  EXPECT_NEAR(a.re, b.re, 1e-8 * std::abs(a.re) + 1e-9);
  EXPECT_NEAR(a.im, b.im, 1e-8 * std::abs(a.im) + 1e-9);
}

TEST(Galerkin, BackwardLinksAreGamma5ConjugateOfForward) {
  // Structure property below Eq. 3: Ybwd_mu(x) = Gamma5 Yfwd_mu(x-mu)^dag
  // Gamma5 with Gamma5 = diag(1, -1) in coarse spin.
  MgFixture f;
  const WilsonStencilView<double> view(*f.op);
  const CoarseDirac<double> coarse = build_coarse_operator(view, *f.transfer);
  const auto& cgeom = *coarse.geometry();
  const int n = coarse.block_dim();
  const int nc = coarse.ncolor();

  for (long x = 0; x < cgeom.volume(); ++x)
    for (int mu = 0; mu < 4; ++mu) {
      const long xm = cgeom.neighbor_bwd(x, mu);
      for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c) {
          const double sign = ((r / nc) + (c / nc)) % 2 == 0 ? 1.0 : -1.0;
          const complexd expect =
              sign * conj(coarse.link_elem(xm, 2 * mu, c, r));
          const complexd got = coarse.link_elem(x, 2 * mu + 1, r, c);
          ASSERT_NEAR(got.re, expect.re, 1e-10);
          ASSERT_NEAR(got.im, expect.im, 1e-10);
        }
    }
}

TEST(Galerkin, CoarseOperatorMatchesTripleProductOnCoarseGrid) {
  // Coarse-on-coarse: the 4x2x2x2 level-1 grid with 2x1x1x1 aggregates
  // gives a 2^4 level-2 grid — aggregate-internal hops in direction 0,
  // boundary-crossing hops (derived backward links) in every direction.
  MgFixture f(4, 0.2, 0.4, Coord{8, 4, 4, 4}, Coord{2, 2, 2, 2});
  const WilsonStencilView<double> view(*f.op);
  const CoarseDirac<double> level1 = build_coarse_operator(view, *f.transfer);
  const CoarseOnCoarse level2(level1, Coord{2, 1, 1, 1});
  EXPECT_EQ(level2.op->geometry()->volume(), 16);
  EXPECT_LT(triple_product_gap(level1, *level2.transfer, *level2.op), 1e-10);
  expect_backward_links_exact(*level2.op);
}

TEST(Galerkin, UnitCoarseExtentFoldsHopsIntoDiagonal) {
  // 4x2x2x2 aggregates on a 4^4 lattice: coarse extent 1 in direction 0,
  // so every direction-0 hop (forward and backward, including the
  // wrap-around) stays inside its aggregate and lands in X.
  MgFixture f(4, 0.1, 0.4, Coord{4, 4, 4, 4}, Coord{4, 2, 2, 2});
  const WilsonStencilView<double> view(*f.op);
  const CoarseDirac<double> coarse = build_coarse_operator(view, *f.transfer);
  EXPECT_EQ(coarse.geometry()->dims()[0], 1);
  EXPECT_LT(triple_product_gap(*f.op, *f.transfer, coarse), 1e-10);
  expect_backward_links_exact(coarse);

  // The same on a coarse-on-coarse build: 2x2x2x2 aggregates of a
  // 4x2x2x2 level-1 grid leave extent 1 in directions 1-3.
  MgFixture g(4, 0.2, 0.4, Coord{8, 4, 4, 4}, Coord{2, 2, 2, 2});
  const WilsonStencilView<double> gview(*g.op);
  const CoarseDirac<double> level1 = build_coarse_operator(gview, *g.transfer);
  const CoarseOnCoarse level2(level1, Coord{2, 2, 2, 2});
  EXPECT_EQ(level2.op->geometry()->volume(), 2);
  EXPECT_LT(triple_product_gap(level1, *level2.transfer, *level2.op), 1e-10);
  expect_backward_links_exact(*level2.op);
}

TEST(Galerkin, BackwardLinksAreExactlyDerivedFromForward) {
  // The builder copies each backward link from its neighbour's forward
  // link, so the gamma5 relation holds bit for bit on level 0.
  MgFixture f;
  const WilsonStencilView<double> view(*f.op);
  expect_backward_links_exact(build_coarse_operator(view, *f.transfer));
}

TEST(CoarseOp, SchurMatchesFullCoarseSolve) {
  MgFixture f(4, 0.2);
  const WilsonStencilView<double> view(*f.op);
  CoarseDirac<double> coarse = build_coarse_operator(view, *f.transfer);
  coarse.compute_diag_inverse();
  SchurCoarseOp<double> schur(coarse);

  auto b = coarse.create_vector();
  b.gaussian(8);
  SolverParams params;
  params.tol = 1e-10;
  params.max_iter = 2000;
  params.restart = 20;

  auto x_full = coarse.create_vector();
  const auto res_full = GcrSolver<double>(coarse, params).solve(x_full, b);
  ASSERT_TRUE(res_full.converged);

  auto b_hat = schur.create_vector();
  schur.prepare(b_hat, b);
  auto x_even = schur.create_vector();
  const auto res_schur =
      GcrSolver<double>(schur, params).solve(x_even, b_hat);
  ASSERT_TRUE(res_schur.converged);
  auto x_rec = coarse.create_vector();
  schur.reconstruct(x_rec, x_even, b);

  blas::axpy(-1.0, x_full, x_rec);
  EXPECT_LT(std::sqrt(blas::norm2(x_rec) / blas::norm2(x_full)), 1e-7);
}

TEST(CoarseOp, RecursiveCoarseningIsConsistent) {
  // Coarsen the coarse operator once more (3-level structure) and check the
  // Galerkin identity at the second level.
  MgFixture f(4, 0.2, 0.4, Coord{8, 4, 4, 4}, Coord{2, 2, 2, 2});
  const WilsonStencilView<double> view(*f.op);
  CoarseDirac<double> level2 = build_coarse_operator(view, *f.transfer);

  NullSpaceParams ns;
  ns.nvec = 3;
  ns.iters = 20;
  auto vecs2 = generate_null_vectors(level2, ns);
  auto map2 =
      std::make_shared<const BlockMap>(level2.geometry(), Coord{2, 2, 2, 2});
  Transfer<double> transfer2(map2, 2, level2.ncolor(), 3);
  transfer2.set_null_vectors(vecs2);

  const CoarseStencilView<double> view2(level2);
  const CoarseDirac<double> level3 = build_coarse_operator(view2, transfer2);
  EXPECT_EQ(level3.geometry()->volume(), 2);
  EXPECT_EQ(level3.ncolor(), 3);

  auto v = transfer2.create_coarse_vector();
  v.gaussian(9);
  auto mv = level3.create_vector();
  level3.apply(mv, v);
  auto pv = transfer2.create_fine_vector();
  transfer2.prolongate(pv, v);
  auto mpv = level2.create_vector();
  level2.apply(mpv, pv);
  auto rmpv = transfer2.create_coarse_vector();
  transfer2.restrict_to_coarse(rmpv, mpv);
  blas::axpy(-1.0, mv, rmpv);
  EXPECT_LT(std::sqrt(blas::norm2(rmpv) / blas::norm2(mv)), 1e-10);
}

TEST(Multigrid, TwoLevelKCycleConverges) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  const auto gauge = disordered_gauge<double>(geom, 0.4, 81);
  const auto clover = build_clover_with_inverse(gauge, 1.0, 0.05);
  WilsonCloverOp<double> op(gauge, {.mass = 0.05, .csw = 1.0}, &clover);

  MgConfig config;
  MgLevelConfig lvl;
  lvl.block = {2, 2, 2, 2};
  lvl.nvec = 6;
  lvl.null_iters = 50;
  config.levels = {lvl};
  const Multigrid<double> mg(op, config);
  EXPECT_EQ(mg.num_levels(), 2);

  ColorSpinorField<double> b(geom, 4, 3);
  b.gaussian(99);
  SolverParams params;
  params.tol = 1e-8;
  params.max_iter = 200;
  params.restart = 10;

  MgPreconditioner<double> precond(mg);
  auto x = op.create_vector();
  const auto res = GcrSolver<double>(op, params, &precond).solve(x, b);
  ASSERT_TRUE(res.converged);

  auto r = op.create_vector();
  op.apply(r, x);
  blas::xpay(b, -1.0, r);
  EXPECT_LT(std::sqrt(blas::norm2(r) / blas::norm2(b)), 5e-8);
}

TEST(Multigrid, MgBeatsUnpreconditionedGcr) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  const auto gauge = disordered_gauge<double>(geom, 0.5, 83);
  const auto clover = build_clover_with_inverse(gauge, 1.0, 0.02);
  WilsonCloverOp<double> op(gauge, {.mass = 0.02, .csw = 1.0}, &clover);

  MgConfig config;
  MgLevelConfig lvl;
  lvl.block = {2, 2, 2, 2};
  lvl.nvec = 8;
  lvl.null_iters = 60;
  config.levels = {lvl};
  const Multigrid<double> mg(op, config);

  ColorSpinorField<double> b(geom, 4, 3);
  b.gaussian(101);
  SolverParams params;
  params.tol = 1e-8;
  params.max_iter = 3000;
  params.restart = 10;

  auto x_plain = op.create_vector();
  const auto res_plain = GcrSolver<double>(op, params).solve(x_plain, b);

  MgPreconditioner<double> precond(mg);
  params.max_iter = 200;
  auto x_mg = op.create_vector();
  const auto res_mg = GcrSolver<double>(op, params, &precond).solve(x_mg, b);

  ASSERT_TRUE(res_plain.converged);
  ASSERT_TRUE(res_mg.converged);
  EXPECT_LT(res_mg.iterations, res_plain.iterations / 2);
}

TEST(Multigrid, ThreeLevelHierarchyConverges) {
  auto geom = make_geometry(Coord{8, 4, 4, 4});
  const auto gauge = disordered_gauge<double>(geom, 0.4, 85);
  const auto clover = build_clover_with_inverse(gauge, 1.0, 0.05);
  WilsonCloverOp<double> op(gauge, {.mass = 0.05, .csw = 1.0}, &clover);

  MgConfig config;
  MgLevelConfig l1;
  l1.block = {2, 2, 2, 2};
  l1.nvec = 6;
  l1.null_iters = 40;
  MgLevelConfig l2;
  l2.block = {2, 2, 2, 2};
  l2.nvec = 4;
  l2.null_iters = 30;
  config.levels = {l1, l2};
  const Multigrid<double> mg(op, config);
  EXPECT_EQ(mg.num_levels(), 3);
  EXPECT_EQ(mg.coarse_op(1).geometry()->volume(), 2);

  ColorSpinorField<double> b(geom, 4, 3);
  b.gaussian(103);
  SolverParams params;
  params.tol = 1e-8;
  params.max_iter = 200;
  params.restart = 10;
  MgPreconditioner<double> precond(mg);
  auto x = op.create_vector();
  const auto res = GcrSolver<double>(op, params, &precond).solve(x, b);
  ASSERT_TRUE(res.converged);
}

TEST(Multigrid, VCycleAlsoConverges) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  const auto gauge = disordered_gauge<double>(geom, 0.4, 87);
  const auto clover = build_clover_with_inverse(gauge, 1.0, 0.1);
  WilsonCloverOp<double> op(gauge, {.mass = 0.1, .csw = 1.0}, &clover);

  MgConfig config;
  MgLevelConfig lvl;
  lvl.block = {2, 2, 2, 2};
  lvl.nvec = 6;
  lvl.null_iters = 40;
  config.levels = {lvl};
  config.cycle = CycleType::VCycle;
  const Multigrid<double> mg(op, config);

  ColorSpinorField<double> b(geom, 4, 3);
  b.gaussian(105);
  SolverParams params;
  params.tol = 1e-8;
  params.max_iter = 400;
  params.restart = 10;
  MgPreconditioner<double> precond(mg);
  auto x = op.create_vector();
  const auto res = GcrSolver<double>(op, params, &precond).solve(x, b);
  ASSERT_TRUE(res.converged);
}

TEST(Multigrid, MixedPrecisionPreconditionerConverges) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  const auto gauge = disordered_gauge<double>(geom, 0.4, 89);
  const auto clover = build_clover_with_inverse(gauge, 1.0, 0.1);
  WilsonCloverOp<double> op(gauge, {.mass = 0.1, .csw = 1.0}, &clover);

  // Single-precision hierarchy inside a double outer GCR (paper layout).
  const auto gauge_f = convert_gauge<float>(gauge);
  const auto clover_f = convert_clover<float>(clover);
  WilsonCloverOp<float> op_f(gauge_f, {.mass = 0.1f, .csw = 1.0f}, &clover_f);

  MgConfig config;
  MgLevelConfig lvl;
  lvl.block = {2, 2, 2, 2};
  lvl.nvec = 6;
  lvl.null_iters = 40;
  config.levels = {lvl};
  const Multigrid<float> mg(op_f, config);

  ColorSpinorField<double> b(geom, 4, 3);
  b.gaussian(107);
  SolverParams params;
  params.tol = 1e-9;  // below float epsilon: needs the double outer solve
  params.max_iter = 300;
  params.restart = 10;
  MixedPrecisionMgPreconditioner precond(mg);
  auto x = op.create_vector();
  const auto res = GcrSolver<double>(op, params, &precond).solve(x, b);
  ASSERT_TRUE(res.converged);

  auto r = op.create_vector();
  op.apply(r, x);
  blas::xpay(b, -1.0, r);
  EXPECT_LT(std::sqrt(blas::norm2(r) / blas::norm2(b)), 5e-9);
}

TEST(NullSpace, VectorsAreLowModeRich) {
  // After relaxation, the Rayleigh quotient |Mv|/|v| of a null vector must
  // be much smaller than that of a random vector.
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  const auto gauge = disordered_gauge<double>(geom, 0.4, 91);
  const auto clover = build_clover_with_inverse(gauge, 1.0, 0.05);
  WilsonCloverOp<double> op(gauge, {.mass = 0.05, .csw = 1.0}, &clover);

  NullSpaceParams ns;
  ns.nvec = 2;
  ns.iters = 80;
  const auto vecs = generate_null_vectors(op, ns);

  auto random = op.create_vector();
  random.gaussian(55);
  blas::scale(1.0 / std::sqrt(blas::norm2(random)), random);

  auto mv = op.create_vector();
  op.apply(mv, random);
  const double rq_random = blas::norm2(mv);
  op.apply(mv, vecs[0]);
  const double rq_null = blas::norm2(mv);
  EXPECT_LT(rq_null, 0.25 * rq_random);
}

/// The two-apply MR relaxation on M x = 0 (r recomputed as -M x on every
/// sweep), the reference the one-apply recursion must match to rounding.
template <typename T>
void two_apply_relax(const LinearOperator<T>& op, ColorSpinorField<T>& x,
                     int iters, double omega) {
  auto r = op.create_vector();
  auto mr = op.create_vector();
  for (int it = 0; it < iters; ++it) {
    op.apply(r, x);
    blas::scale(T(-1), r);
    op.apply(mr, r);
    const double mr2 = blas::norm2(mr);
    if (mr2 == 0.0) break;
    const complexd a = blas::cdot(mr, r);
    const Complex<T> alpha(static_cast<T>(a.re / mr2),
                           static_cast<T>(a.im / mr2));
    blas::caxpy(alpha * static_cast<T>(omega), r, x);
  }
  blas::scale(static_cast<T>(1.0 / std::sqrt(blas::norm2(x))), x);
}

template <typename T>
double rel_diff(const ColorSpinorField<T>& a, const ColorSpinorField<T>& b) {
  double d2 = 0, b2 = 0;
  for (long i = 0; i < a.size(); ++i) {
    const Complex<T> d = a.data()[i] - b.data()[i];
    d2 += static_cast<double>(norm2(d));
    b2 += static_cast<double>(norm2(b.data()[i]));
  }
  return std::sqrt(d2 / b2);
}

/// Null-vector relaxation costs iters + 1 applies per vector, from scratch
/// (generate_null_vectors) and on refresh (relax_null_vectors), and matches
/// the two-apply reference to rounding.
template <typename T>
void check_relaxation(double tol) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  const auto gauge = disordered_gauge<T>(geom, 0.4, 93);
  const auto clover = build_clover_with_inverse(gauge, T(1), T(0.05));
  WilsonCloverOp<T> op(gauge, {.mass = T(0.05), .csw = T(1)}, &clover);

  NullSpaceParams ns;
  ns.nvec = 3;
  ns.iters = 6;
  op.reset_apply_count();
  const auto vecs = generate_null_vectors(op, ns);
  EXPECT_EQ(op.apply_count(), ns.nvec * (ns.iters + 1));
  for (int k = 0; k < ns.nvec; ++k) {
    auto ref = op.create_vector();
    ref.gaussian(ns.seed + 1000 * static_cast<std::uint64_t>(k));
    two_apply_relax(op, ref, ns.iters, ns.omega);
    EXPECT_LE(rel_diff(vecs[static_cast<size_t>(k)], ref), tol) << k;
  }

  const int refresh_iters = 4;
  auto refreshed = vecs;
  op.reset_apply_count();
  relax_null_vectors(op, refreshed, refresh_iters, ns.omega);
  EXPECT_EQ(op.apply_count(), ns.nvec * (refresh_iters + 1));
  for (int k = 0; k < ns.nvec; ++k) {
    auto ref = vecs[static_cast<size_t>(k)];
    two_apply_relax(op, ref, refresh_iters, ns.omega);
    EXPECT_LE(rel_diff(refreshed[static_cast<size_t>(k)], ref), tol) << k;
  }
}

TEST(NullSpace, RelaxationAppliesOncePerSweepDouble) {
  check_relaxation<double>(1e-12);
}

TEST(NullSpace, RelaxationAppliesOncePerSweepFloat) {
  check_relaxation<float>(1e-5);
}

}  // namespace
}  // namespace qmg
