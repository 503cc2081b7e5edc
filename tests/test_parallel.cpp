// Tests of the fine-grained parallelization kernels (section 6): every
// strategy/split/ILP combination must compute the same coarse-operator
// apply up to floating-point reassociation, and the autotuner must cache a
// valid policy.  Also the thread pool's launch protocol: concurrent
// callers and throwing jobs (the TSan job runs this file).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "dirac/clover.h"
#include "dirac/wilson.h"
#include "fields/blas.h"
#include "gauge/ensemble.h"
#include "mg/galerkin.h"
#include "mg/nullspace.h"
#include "parallel/autotune.h"
#include "parallel/thread_pool.h"

namespace qmg {
namespace {

/// A small but non-trivial coarse operator built from a real Galerkin
/// coarsening of a disordered Wilson-Clover problem.
class CoarseKernelTest : public ::testing::TestWithParam<CoarseKernelConfig> {
 protected:
  static void SetUpTestSuite() {
    geom_ = make_geometry(Coord{4, 4, 4, 4});
    gauge_ = new GaugeField<double>(
        disordered_gauge<double>(geom_, 0.45, 117));
    clover_ = new CloverField<double>(
        build_clover_with_inverse(*gauge_, 1.0, 0.1));
    op_ = new WilsonCloverOp<double>(
        *gauge_, WilsonParams<double>{.mass = 0.1, .csw = 1.0}, clover_);
    NullSpaceParams ns;
    ns.nvec = 6;
    ns.iters = 25;
    auto vecs = generate_null_vectors(*op_, ns);
    auto map = std::make_shared<const BlockMap>(geom_, Coord{2, 2, 2, 2});
    transfer_ = new Transfer<double>(map, 4, 3, 6);
    transfer_->set_null_vectors(vecs);
    const WilsonStencilView<double> view(*op_);
    coarse_ = new CoarseDirac<double>(build_coarse_operator(view, *transfer_));
    input_ = new ColorSpinorField<double>(coarse_->create_vector());
    input_->gaussian(5);
    reference_ = new ColorSpinorField<double>(coarse_->create_vector());
    coarse_->apply_with_config(*reference_, *input_,
                               {Strategy::GridOnly, 1, 1, 1});
  }

  static void TearDownTestSuite() {
    delete reference_;
    delete input_;
    delete coarse_;
    delete transfer_;
    delete op_;
    delete clover_;
    delete gauge_;
  }

  static GeometryPtr geom_;
  static GaugeField<double>* gauge_;
  static CloverField<double>* clover_;
  static WilsonCloverOp<double>* op_;
  static Transfer<double>* transfer_;
  static CoarseDirac<double>* coarse_;
  static ColorSpinorField<double>* input_;
  static ColorSpinorField<double>* reference_;
};

GeometryPtr CoarseKernelTest::geom_;
GaugeField<double>* CoarseKernelTest::gauge_ = nullptr;
CloverField<double>* CoarseKernelTest::clover_ = nullptr;
WilsonCloverOp<double>* CoarseKernelTest::op_ = nullptr;
Transfer<double>* CoarseKernelTest::transfer_ = nullptr;
CoarseDirac<double>* CoarseKernelTest::coarse_ = nullptr;
ColorSpinorField<double>* CoarseKernelTest::input_ = nullptr;
ColorSpinorField<double>* CoarseKernelTest::reference_ = nullptr;

TEST_P(CoarseKernelTest, StrategyMatchesReference) {
  auto out = coarse_->create_vector();
  coarse_->apply_with_config(out, *input_, GetParam());
  blas::axpy(-1.0, *reference_, out);
  const double rel =
      std::sqrt(blas::norm2(out) / blas::norm2(*reference_));
  EXPECT_LT(rel, 1e-13) << GetParam().to_string();
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, CoarseKernelTest,
    ::testing::Values(
        CoarseKernelConfig{Strategy::GridOnly, 1, 1, 2},
        CoarseKernelConfig{Strategy::ColorSpin, 1, 1, 1},
        CoarseKernelConfig{Strategy::ColorSpin, 1, 1, 2},
        CoarseKernelConfig{Strategy::ColorSpin, 1, 1, 3},
        CoarseKernelConfig{Strategy::StencilDir, 2, 1, 1},
        CoarseKernelConfig{Strategy::StencilDir, 3, 1, 2},
        CoarseKernelConfig{Strategy::StencilDir, 9, 1, 2},
        CoarseKernelConfig{Strategy::DotProduct, 1, 2, 1},
        CoarseKernelConfig{Strategy::DotProduct, 3, 2, 2},
        CoarseKernelConfig{Strategy::DotProduct, 3, 4, 2},
        CoarseKernelConfig{Strategy::DotProduct, 9, 4, 1},
        CoarseKernelConfig{Strategy::DotProduct, 9, 8, 4}));

TEST(CoarseKernelConfigTest, ThreadCountsAreCumulative) {
  const long v = 16;
  const int n = 64;
  const CoarseKernelConfig base{Strategy::GridOnly, 4, 4, 1};
  const CoarseKernelConfig cs{Strategy::ColorSpin, 4, 4, 1};
  const CoarseKernelConfig sd{Strategy::StencilDir, 4, 4, 1};
  const CoarseKernelConfig dp{Strategy::DotProduct, 4, 4, 1};
  EXPECT_EQ(base.threads(v, n), 16);
  EXPECT_EQ(cs.threads(v, n), 16 * 64);
  EXPECT_EQ(sd.threads(v, n), 16 * 64 * 4);
  EXPECT_EQ(dp.threads(v, n), 16 * 64 * 4 * 4);
}

TEST(Autotune, CachesPolicyPerShape) {
  TuneCache::instance().clear();
  int runs = 0;
  const auto run = [&](const CoarseKernelConfig&) {
    ++runs;
    return static_cast<double>(runs);  // first candidate is fastest
  };
  const auto best = TuneCache::instance().tune("test_key", 48, run);
  EXPECT_EQ(best.strategy, Strategy::GridOnly);
  const int first_round = runs;
  EXPECT_GT(first_round, 4);  // several candidates explored
  // Second call: cached, no re-timing.
  const auto again = TuneCache::instance().tune("test_key", 48, run);
  EXPECT_EQ(runs, first_round);
  EXPECT_EQ(again.strategy, best.strategy);
  TuneCache::instance().clear();
}

TEST(Autotune, KeysSeparateShapes) {
  EXPECT_NE(coarse_tune_key(16, 48, "d"), coarse_tune_key(16, 64, "d"));
  EXPECT_NE(coarse_tune_key(16, 48, "d"), coarse_tune_key(256, 48, "d"));
  // Element precision is part of the key: a float (or compressed-storage)
  // kernel must never replay a config tuned for double.
  EXPECT_NE(coarse_tune_key(16, 48, "d"), coarse_tune_key(16, 48, "f"));
  EXPECT_NE(coarse_tune_key(16, 48, "d"), coarse_tune_key(16, 48, "df"));
  EXPECT_NE(mrhs_tune_key(16, 48, 8, "d"), mrhs_tune_key(16, 48, 8, "df"));
}

TEST(Autotune, AutotunedApplyMatchesExplicit) {
  // The autotuned path must produce the same numerics as a fixed config.
  auto geom = make_geometry(Coord{2, 2, 2, 2});
  CoarseDirac<double> op(geom, 4);
  // Fill with a reproducible pseudo-random stencil.
  const SiteRng rng(13);
  for (long s = 0; s < geom->volume(); ++s) {
    for (int l = 0; l < 8; ++l) {
      auto* y = op.link_data(s, l);
      for (int k = 0; k < 64; ++k)
        y[k] = complexd(rng.normal(s * 100 + l, k),
                        rng.normal(s * 100 + l, 100 + k));
    }
    auto* d = op.diag_data(s);
    for (int k = 0; k < 64; ++k)
      d[k] = complexd(rng.normal(s * 100 + 99, k),
                      rng.normal(s * 100 + 99, 100 + k));
  }
  auto x = op.create_vector();
  x.gaussian(3);
  auto y_tuned = op.create_vector();
  auto y_fixed = op.create_vector();
  TuneCache::instance().clear();
  op.apply(y_tuned, x);  // triggers tuning
  op.apply(y_tuned, x);  // uses cache
  op.apply_with_config(y_fixed, x, {Strategy::GridOnly, 1, 1, 1});
  blas::axpy(-1.0, y_fixed, y_tuned);
  EXPECT_LT(std::sqrt(blas::norm2(y_tuned) / blas::norm2(y_fixed)), 1e-12);
  EXPECT_GE(TuneCache::instance().size(), 1u);
  TuneCache::instance().clear();
}

/// Re-shapes the process pool for one test and restores its width after.
class PoolWidth {
 public:
  explicit PoolWidth(int n) : saved_(ThreadPool::instance().num_threads()) {
    ThreadPool::instance().resize(n);
  }
  ~PoolWidth() { ThreadPool::instance().resize(saved_); }

 private:
  int saved_;
};

TEST(ThreadPoolLaunch, ConcurrentCallersNeverLoseWork) {
  // Two non-pool threads launch 2000 jobs each on a 4-wide pool; every
  // launch must run every worker id exactly once.  Before launches were
  // serialized, the second caller overwrote the first one's job and
  // pending count: worker chunks went missing or run() deadlocked.
  constexpr int kWidth = 4;
  constexpr long kLaunches = 2000;
  const PoolWidth width(kWidth);
  ThreadPool& pool = ThreadPool::instance();
  std::array<std::array<std::atomic<long>, kWidth>, 2> hits{};
  auto caller = [&](int t) {
    for (long i = 0; i < kLaunches; ++i)
      pool.run([&hits, t](int w) {
        hits[static_cast<size_t>(t)][static_cast<size_t>(w)].fetch_add(
            1, std::memory_order_relaxed);
      });
  };
  std::thread a(caller, 0);
  std::thread b(caller, 1);
  a.join();
  b.join();
  for (int t = 0; t < 2; ++t)
    for (int w = 0; w < kWidth; ++w)
      EXPECT_EQ(hits[static_cast<size_t>(t)][static_cast<size_t>(w)].load(),
                kLaunches)
          << "caller " << t << " worker " << w;
}

TEST(ThreadPoolLaunch, ExceptionIsRethrownAfterEveryWorkerJoined) {
  constexpr int kWidth = 4;
  const PoolWidth width(kWidth);
  ThreadPool& pool = ThreadPool::instance();
  // A worker throws: run() rethrows on the caller once all workers ran.
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run([&](int w) {
    ran.fetch_add(1);
    if (w == kWidth - 1) throw std::runtime_error("worker");
  }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), kWidth);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  // The caller (worker 0) throws: same contract.
  ran = 0;
  EXPECT_THROW(pool.run([&](int w) {
    ran.fetch_add(1);
    if (w == 0) throw std::logic_error("caller");
  }),
               std::logic_error);
  EXPECT_EQ(ran.load(), kWidth);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  // The pool is still whole: the next launch reaches every worker.
  std::array<std::atomic<int>, kWidth> hit{};
  pool.run([&](int w) { hit[static_cast<size_t>(w)].fetch_add(1); });
  for (int w = 0; w < kWidth; ++w)
    EXPECT_EQ(hit[static_cast<size_t>(w)].load(), 1) << w;
}

TEST(ThreadPoolLaunch, SerialPathRestoresRegionFlagOnThrow) {
  const PoolWidth width(1);
  EXPECT_THROW(ThreadPool::instance().run(
                   [](int) { throw std::runtime_error("serial"); }),
               std::runtime_error);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

}  // namespace
}  // namespace qmg
