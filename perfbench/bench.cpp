// perfbench: the repository's end-to-end and per-layer benchmark.
//
// One binary runs one seeded workload against the public qmg API and prints
// a single JSON object as its last stdout line (run.py turns it into the
// benchmark's result line):
//
//   critical_single   The Iso48 proxy's couplings and coarse grids on a
//                     4^3x16 lattice (m=-0.20, 2x2x2x4 -> 2^4, nvec 24/24,
//                     three levels, coarsest grid 2 sites).  The 12
//                     spin-color point sources are solved one at a time with
//                     MG to the ensemble's target residual (1e-7).
//   critical_block12  Same problem and hierarchy; the 12 sources as ONE
//                     batched solve (section-9 MRHS path).
//
// A run has three rounds: each sets up the hierarchy, then solves the 12
// sources over and over for a third of --seconds.  With --baseline (and in every traced run) the
// BiCGStab baseline then solves three of the sources, and MG and BiCGStab
// must agree on them.
//
// Kernel configurations, launch backends and the CA s-depth are chosen by
// timing the first time a shape is met (TuneCache), and the chosen config
// fixes the order of floating-point sums.  --tune-cache names the file that
// pins those choices across processes, loaded and saved with the calls
// ContextOptions::tune_cache_file makes: every run replays it, and an
// untraced run saves what it had to tune, so the exact counters repeat from
// one process to the next.  Traced runs never save, so the shapes only
// their probes meet cannot change what later untraced runs execute.
// run.py starts the file from pinned.tune, which holds the workloads'
// coarse-kernel choices for a 4-thread pool, so that two builds choose
// alike.
//
// End-to-end metrics are measured with tracing off.  With --trace 1 the
// same workload runs with bench-side spans around every call into a layer,
// followed by per-layer probes that time public entry points at the
// workload's shapes, read the counters the layers already expose, and run
// a short SolveQueue open loop for the service, comm and lifecycle layers.
// Nothing here reaches below the public API (no Profiler keys, no
// single-rhs Multigrid::cycle), and no tracing lives inside src/.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tune-cache <file>] [--trace-out <file>] [--setups <n>]
//             [--baseline]
//   perfbench --selftest [--tune-cache <file>]
//             (determinism self-check, exit 0 on pass)

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/qmg.h"
#include "gpusim/kernels.h"
#include "parallel/thread_pool.h"

using namespace qmg;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (p in (0, 1]); the SolveQueue's own convention.
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(xs.size())));
  return xs[std::min(xs.size(), std::max<size_t>(rank, 1)) - 1];
}

double median(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  std::vector<double> s = xs;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

// --- result -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  // Counters that must repeat bit for bit across processes for one seed:
  // the traced and untraced runs are compared on these.
  std::map<std::string, long> exact;
  double solve_seconds = 0;  // wall time of the measured solves
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
  void e(const std::string& n, double v, const std::string& u) {
    e2e.push_back({n, v, u});
  }
  void l(const std::string& n, double v, const std::string& u) {
    layer.push_back({n, v, u});
  }
};

// --- bench-side spans (the traced run) ----------------------------------------

/// Spans recorded from the benchmark's own code around each call into a
/// layer: name, layer, start, end, parent.  Kept in memory and written as
/// Chrome trace-event JSON when the run ends.  Disabled spans cost one
/// branch.
class Tracer {
 public:
  struct Span {
    std::string name, layer;
    double t0 = 0, t1 = 0;
    int parent = -1;
  };
  class Scope {
   public:
    Scope(Tracer* tr, int id) : tr_(tr), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tr_) tr_->close(id_);
    }

   private:
    Tracer* tr_;
    int id_;
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const { return on_; }

  /// Progress line on stderr (both modes) so a slow phase is visible.
  void note(const std::string& what) const {
    std::fprintf(stderr, "[%8.3f s] %s\n", since(origin_), what.c_str());
  }

  Scope span(const std::string& layer, const std::string& name) {
    if (!on_) return Scope(nullptr, -1);
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.t0 = since(origin_);
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return Scope(this, stack_.back());
  }

  /// A span recorded after the fact (e.g. a request's due -> retire
  /// interval measured on another thread).
  void record(const std::string& layer, const std::string& name,
              Clock::time_point t0, Clock::time_point t1) {
    if (!on_) return;
    Span s;
    s.name = name;
    s.layer = layer;
    s.t0 = std::chrono::duration<double>(t0 - origin_).count();
    s.t1 = std::chrono::duration<double>(t1 - origin_).count();
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(s);
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                   "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                   s.name.c_str(), s.layer.c_str(), s.t0 * 1e6,
                   (s.t1 - s.t0) * 1e6, i, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  void close(int id) {
    spans_[static_cast<size_t>(id)].t1 = since(origin_);
    stack_.pop_back();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- shared helpers -------------------------------------------------------------

/// Online CPUs, recorded in the host line as nproc.
int host_threads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

/// Pool width of every workload (ContextOptions::threads), recorded in the
/// host line as pool_threads.  One: every kernel runs on the calling
/// thread.  On a shared 4-CPU host, over the same 95 s of alternating
/// single-rhs MG solves, the quartile spread of one solve's time was 0.12
/// of its median with one pool thread, 0.46 with two and 1.13 with four
/// (slowest solve 1.2x, 2.6x and 4.3x the median): a fork-join waits for
/// every CPU it wakes, and a neighbour's load delays those wake-ups.  No
/// bound the benchmark may set absorbs the spread at four threads.
constexpr int kPoolThreads = 1;

/// Process CPU seconds: user + system time of every thread.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Hypervisor steal time of this machine in seconds per online CPU (the
/// "cpu" line of /proc/stat); 0 where it cannot be read.
double steal_seconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return 0;
  unsigned long long t[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &t[0], &t[1], &t[2], &t[3], &t[4], &t[5], &t[6],
                            &t[7]);
  std::fclose(f);
  if (n != 8) return 0;
  return static_cast<double>(t[7]) / static_cast<double>(sysconf(_SC_CLK_TCK)) /
         host_threads();
}

/// Seconds of one interval, from construction.  time() is the wall time
/// less the steal per CPU over the interval: on a shared host the
/// hypervisor running another guest on our CPUs stretched wall times by up
/// to 3.7x between runs.  The mean steal is a lower bound on that stretch
/// (steal on the CPU the solve runs on stalls it), so time() never reads
/// faster than the run was.  A change that adds blocking waits shows in
/// time() and not in cpu() (a blocked thread costs no CPU).
struct Interval {
  Clock::time_point t0 = Clock::now();
  double c0 = cpu_seconds();
  double s0 = steal_seconds();
  double wall() const { return since(t0); }
  double steal() const { return steal_seconds() - s0; }
  double time() const { return std::max(wall() - steal(), 0.0); }
  double cpu() const { return cpu_seconds() - c0; }
};

/// Replays the tune-cache file, if there is one yet, into the process-wide
/// TuneCache.
void load_tuning(QmgContext& ctx, const std::string& path) {
  if (!path.empty() && !ctx.load_tune_cache(path))
    std::fprintf(stderr, "no tune cache at %s yet: tuning\n", path.c_str());
}

/// Saves the process-wide TuneCache to `path` through a temporary file, so
/// a run stopped mid-write leaves the previous file intact.
void save_tuning(const QmgContext& ctx, const std::string& path) {
  if (path.empty()) return;
  const std::string tmp = path + ".tmp" + std::to_string(getpid());
  if (!ctx.save_tune_cache(tmp) || std::rename(tmp.c_str(), path.c_str()) != 0)
    std::fprintf(stderr, "cannot save tune cache %s\n", path.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// True relative residual |b - M x| / |b| in double against `op`.
double true_residual(const WilsonCloverOp<double>& op,
                     const ColorSpinorField<double>& x,
                     const ColorSpinorField<double>& b) {
  auto r = op.create_vector();
  op.apply(r, x);
  blas::xpay(b, -1.0, r);  // r = b - M x
  return std::sqrt(blas::norm2(r) / blas::norm2(b));
}

double rel_diff(const ColorSpinorField<double>& a,
                const ColorSpinorField<double>& b) {
  auto d = a;
  blas::axpy(-1.0, b, d);
  return std::sqrt(blas::norm2(d) / blas::norm2(a));
}

/// Median over `batches` timed batches of `reps` calls, in microseconds
/// per call.  One untimed call first so lazy tuning is not measured.
double time_us(int reps, int batches, const std::function<void()>& fn) {
  fn();
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) fn();
    per_call.push_back(since(t0) * 1e6 / reps);
  }
  return median(per_call);
}

template <typename T>
BlockSpinor<T> random_block(const LinearOperator<T>& op, int nrhs,
                            std::uint64_t seed) {
  BlockSpinor<T> blk = op.create_block(nrhs);
  auto f = op.create_vector();
  for (int k = 0; k < nrhs; ++k) {
    f.gaussian(seed + static_cast<std::uint64_t>(k));
    blk.insert_rhs(f, k);
  }
  return blk;
}

// --- host: bandwidth ceiling and fingerprint -----------------------------------

struct Bandwidth {
  double copy_gbps = 0, triad_gbps = 0;
  double array_mib = 0, llc_mib = 0;
};

/// STREAM-style copy and triad over the pool's threads, with the three
/// arrays together at least 4x the last-level cache (computed bytes:
/// 16 B/element for copy, 24 B/element for triad).
Bandwidth measure_bandwidth() {
  Bandwidth bw;
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  bw.llc_mib = static_cast<double>(llc) / (1 << 20);
  const long n = std::max<long>(4 * llc / 3 / 8, 1L << 20);
  bw.array_mib = static_cast<double>(n) * 8 / (1 << 20);
  std::vector<double> a(static_cast<size_t>(n)), b(static_cast<size_t>(n), 1.0),
      c(static_cast<size_t>(n), 2.0);
  auto& pool = ThreadPool::instance();
  const int nt = pool.num_threads();
  auto chunk = [&](int w, long& lo, long& hi) {
    lo = n * w / nt;
    hi = n * (w + 1) / nt;
  };
  pool.run([&](int w) {  // first touch by the workers that stream it
    long lo, hi;
    chunk(w, lo, hi);
    for (long i = lo; i < hi; ++i) a[static_cast<size_t>(i)] = 0.0;
  });
  std::vector<double> copy_t, triad_t;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    pool.run([&](int w) {
      long lo, hi;
      chunk(w, lo, hi);
      std::memcpy(a.data() + lo, b.data() + lo,
                  static_cast<size_t>(hi - lo) * sizeof(double));
    });
    copy_t.push_back(since(t0));
    t0 = Clock::now();
    pool.run([&](int w) {
      long lo, hi;
      chunk(w, lo, hi);
      for (long i = lo; i < hi; ++i)
        a[static_cast<size_t>(i)] =
            b[static_cast<size_t>(i)] + 3.0 * c[static_cast<size_t>(i)];
    });
    triad_t.push_back(since(t0));
  }
  bw.copy_gbps = 16.0 * static_cast<double>(n) /
                 *std::min_element(copy_t.begin(), copy_t.end()) / 1e9;
  bw.triad_gbps = 24.0 * static_cast<double>(n) /
                  *std::min_element(triad_t.begin(), triad_t.end()) / 1e9;
  return bw;
}

void print_host() {
  __builtin_cpu_init();
  std::string isa;
  auto flag = [&](const char* name, bool on) {
    if (on) isa += std::string(isa.empty() ? "" : " ") + name;
  };
  flag("sse4.2", __builtin_cpu_supports("sse4.2"));
  flag("avx", __builtin_cpu_supports("avx"));
  flag("avx2", __builtin_cpu_supports("avx2"));
  flag("fma", __builtin_cpu_supports("fma"));
  flag("avx512f", __builtin_cpu_supports("avx512f"));
#if defined(__AVX512F__)
  const char* compiled_isa = "avx512f";
#elif defined(__AVX2__)
  const char* compiled_isa = "avx2";
#elif defined(__AVX__)
  const char* compiled_isa = "avx";
#else
  const char* compiled_isa = "baseline";
#endif
  std::printf("host {\"nproc\": %d, \"isa_flags\": \"%s\", "
              "\"compiled_isa\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"simd_width\": %d, "
              "\"pool_threads\": %d, \"llc_bytes\": %ld}\n",
              host_threads(), isa.c_str(), compiled_isa,
#if defined(__clang__)
              "clang " __VERSION__,
#elif defined(__GNUC__)
              "gcc " __VERSION__,
#else
              "unknown",
#endif
              PERFBENCH_BUILD_TYPE, simd::kMaxSimdWidth,
              ThreadPool::instance().num_threads(),
              sysconf(_SC_LEVEL3_CACHE_SIZE));
}

// --- per-layer probes shared by every workload ------------------------------------

/// Time public entry points of each layer at the hierarchy's shapes (three
/// levels: metric names carry l0..l2).
void probe_layers(QmgContext& ctx, Result& res, Tracer& tr) {
  tr.note("layer probes");
  const auto sp = tr.span("bench", "layer probes");
  auto& mg = ctx.multigrid();
  const int levels = mg.num_levels();

  {
    // At the workloads' pool width an empty run() is a plain call, so the
    // launch is timed with one pool thread per CPU, the width a production
    // run would use, and the pool is put back.
    const auto s = tr.span("parallel", "ThreadPool::run empty");
    auto& pool = ThreadPool::instance();
    pool.resize(host_threads());
    res.l("parallel.launch_us", time_us(2000, 9, [&] { pool.run([](int) {}); }),
          "us");
    pool.resize(kPoolThreads);
  }

  {
    const auto s = tr.span("fields", "blas");
    auto blas_shape = [&](const LinearOperator<float>& op,
                          const std::string& tag) {
      auto x = op.create_vector();
      auto y = op.create_vector();
      x.gaussian(11);
      y.gaussian(12);
      const int reps = x.size() > 100000 ? 200 : 4000;
      res.l("fields.axpy_us." + tag,
            time_us(reps, 9, [&] { blas::axpy(0.5f, x, y); }), "us");
      res.l("fields.cdot_us." + tag, time_us(reps, 9, [&] {
              volatile double v = blas::cdot(x, y).re;
              (void)v;
            }),
            "us");
      res.l("fields.norm2_us." + tag, time_us(reps, 9, [&] {
              volatile double v = blas::norm2(x);
              (void)v;
            }),
            "us");
    };
    blas_shape(mg.op(0), "fine");
    blas_shape(mg.op(levels - 1), "coarsest");
    const auto x = random_block(mg.op(0), 12, 21);
    const auto y = random_block(mg.op(0), 12, 41);
    res.l("fields.block_cdot_us_per_rhs.b12", time_us(20, 9, [&] {
            volatile double v = blas::block_cdot(x, y)[0].re;
            (void)v;
          }) / 12,
          "us");
  }

  double dslash_gbps = 0;
  {
    const auto s = tr.span("dirac", "dslash");
    const auto& op = ctx.op_single();
    auto in = op.create_vector();
    auto out = op.create_vector();
    in.gaussian(5);
    const double us = time_us(20, 9, [&] { op.apply(out, in); });
    const auto bin = random_block(op, 12, 61);
    auto bout = bin.similar();
    res.l("dirac.dslash_us", us, "us");
    res.l("dirac.dslash_block_us_per_rhs.b12",
          time_us(2, 9, [&] { op.apply_block(bout, bin); }) / 12, "us");
    // Computed bytes: the gpusim model of one single-precision Wilson-Clover
    // apply (18-real links, clover on), not a hardware counter.
    const double bytes =
        wilson_work(ctx.geometry()->volume(), SimPrecision::Single, 18, true)
            .bytes;
    dslash_gbps = bytes / (us * 1e-6) / 1e9;
    res.l("dirac.dslash_gbps", dslash_gbps, "GB/s");
  }

  {
    const auto s = tr.span("mg", "cycle_block / coarse apply / transfer");
    for (int l = 0; l < levels; ++l) {
      const std::string tag = std::to_string(l);
      auto b1 = random_block(mg.op(l), 1, 71);
      auto x1 = b1.similar();
      auto b12 = random_block(mg.op(l), 12, 81);
      auto x12 = b12.similar();
      res.l("mg.cycle_l" + tag + "_us",
            time_us(l == 0 ? 1 : 5, 5, [&] { mg.cycle_block(l, x1, b1); }),
            "us");
      res.l("mg.cycle_l" + tag + "_us_per_rhs.b12",
            time_us(1, l == 0 ? 2 : 5, [&] { mg.cycle_block(l, x12, b12); }) /
                12,
            "us");
    }
    for (int l = 1; l < levels; ++l) {
      const std::string tag = std::to_string(l);
      const auto& cop = mg.coarse_op(l - 1);
      auto b1 = random_block(cop, 1, 91);
      auto x1 = b1.similar();
      auto b12 = random_block(cop, 12, 101);
      auto x12 = b12.similar();
      res.l("mg.coarse_apply_us_l" + tag,
            time_us(200, 9, [&] { cop.apply_block(x1, b1); }), "us");
      res.l("mg.coarse_apply_us_per_rhs_l" + tag + ".b12",
            time_us(50, 9, [&] { cop.apply_block(x12, b12); }) / 12, "us");
    }
    for (int l = 0; l + 1 < levels; ++l) {
      const std::string tag = std::to_string(l);
      const auto& t = mg.transfer(l);
      auto fine = random_block(mg.op(l), 1, 111);
      auto coarse = t.create_coarse_block(1);
      const int reps = l == 0 ? 50 : 500;
      res.l("mg.restrict_us_l" + tag,
            time_us(reps, 9, [&] { t.restrict_to_coarse(coarse, fine); }),
            "us");
      res.l("mg.prolong_us_l" + tag,
            time_us(reps, 9, [&] { t.prolongate(fine, coarse); }), "us");
    }
  }

  const auto s = tr.span("host", "copy/triad");
  const Bandwidth bw = measure_bandwidth();
  res.l("dirac.dslash_roofline_frac", dslash_gbps / bw.triad_gbps, "ratio");
  res.l("host.triad_gbps", bw.triad_gbps, "GB/s");
  res.l("host.copy_gbps", bw.copy_gbps, "GB/s");
  std::printf("bandwidth arrays %.0f MiB each (3 arrays), last-level cache "
              "%.0f MiB\n",
              bw.array_mib, bw.llc_mib);
}

// --- service probe (traced runs) --------------------------------------------------
//
// The bench_service problem (4^3x8, two levels, tol 1e-6, 2 virtual ranks)
// behind a SolveQueue fed by a short open loop, with a GaugeStream pushing
// new configurations and a revisit through SolveQueue::update_gauge.  It
// measures the service, comm and hierarchy-lifecycle layers, which the
// critical workloads bypass.  It runs only in traced runs: on a 4-CPU host
// with four pool threads its latencies moved by 20-60% from run to run
// (launch-bound kernels on a 512-site lattice), too much for a bound.

// Offered load of the open loop.  A lone request takes ~0.15 s on one
// pool thread, so 3 rhs/s keeps the dispatcher about half busy.
constexpr double kOfferedRate = 3.0;
constexpr int kRequests = 30;
// Every kUpdateEvery requests the generator pushes a configuration; every
// kRevisitEvery-th push revisits an earlier one (a HierarchyCache restore).
constexpr int kUpdateEvery = 8;
constexpr int kRevisitEvery = 3;
// Latency limit of goodput: a request answered later counts as a miss.
constexpr double kServiceLimitSeconds = 2.0;

ContextOptions service_options() {
  ContextOptions o;
  o.dims = {4, 4, 4, 8};
  o.mass = -0.01;
  o.roughness = 0.4;
  o.seed = 7;  // the GaugeStream below starts from this configuration
  o.threads = kPoolThreads;
  return o;
}

MgConfig service_mg(std::uint64_t seed) {
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 4;
  level.null_iters = 10;
  level.adaptive_passes = 0;
  MgConfig mg;
  mg.levels = {level};
  mg.seed = seed;
  return mg;
}

struct Config {
  std::string id;
  GaugeField<double> gauge;
};

/// Runs the probe and appends its per-layer metrics and its correctness
/// outcome to `res`.  The seed drives the arrivals, the rhs and the
/// null-vector start; the configuration sequence is fixed.
void service_probe(std::uint64_t seed, Tracer& tr, Result& res) {
  const auto sp = tr.span("service", "service probe");
  tr.note("service probe");
  const double tol = 1e-6;
  const int max_nrhs = 8;
  std::mt19937_64 rng(seed);
  QmgContext ctx(service_options());
  SolveSpec spec;
  spec.tol = tol;
  spec.nranks = 2;

  // Warm-up: setup and a solve at every batch width the queue can form.
  ctx.setup_multigrid(service_mg(seed));
  {
    SolveSpec loose = spec;
    loose.max_iter = 2;
    for (int n = 1; n <= max_nrhs; ++n) {
      std::vector<ColorSpinorField<double>> bs(static_cast<size_t>(n)), xs;
      for (auto& v : bs) {
        v = ctx.create_vector();
        v.gaussian(900 + static_cast<std::uint64_t>(n));
        xs.push_back(v.similar());
      }
      (void)ctx.solve(xs, bs, loose);
    }
  }

  // Inputs.  Arrivals: a Poisson process conditioned on its count, i.e.
  // kRequests times drawn uniformly over kRequests / rate seconds, sorted,
  // so every seed offers exactly the same rate.
  const int n_req = kRequests;
  const double window = n_req / kOfferedRate;
  std::vector<double> due(static_cast<size_t>(n_req));
  for (auto& d : due)
    d = window * static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
  std::sort(due.begin(), due.end());
  const std::uint64_t rhs_seed = rng();
  std::vector<ColorSpinorField<double>> rhs(static_cast<size_t>(n_req));
  for (int i = 0; i < n_req; ++i) {
    rhs[static_cast<size_t>(i)] = ctx.create_vector();
    rhs[static_cast<size_t>(i)].gaussian(rhs_seed + static_cast<std::uint64_t>(i));
  }
  const std::vector<ColorSpinorField<double>> rhs_copy = rhs;
  // configs[0] is the context's own; update u (1-based) is pushed just
  // before request u * kUpdateEvery.
  std::vector<Config> configs;
  configs.push_back({ctx.config_id(), ctx.gauge()});
  std::vector<int> update_cfg;  // config index pushed by each update
  std::vector<bool> update_new;
  {
    GaugeStream::Params p;
    p.roughness = 0.4;
    p.step = 0.2;  // the stream's stationary step
    p.seed = 7;
    GaugeStream stream(ctx.geometry(), p);
    for (int u = 1; u * kUpdateEvery < n_req; ++u) {
      if (u % kRevisitEvery == 0) {
        // Revisit the configuration two pushes back (still cached).
        update_cfg.push_back(update_cfg[update_cfg.size() - 2]);
        update_new.push_back(false);
      } else {
        stream.advance();
        configs.push_back({stream.config_id(), stream.current()});
        update_cfg.push_back(static_cast<int>(configs.size()) - 1);
        update_new.push_back(true);
      }
    }
  }
  // Configuration each request is solved against: the one current when it
  // was submitted (the queue's epoch protocol).
  auto config_of = [&](int i) {
    const int u = i / kUpdateEvery;
    return u == 0 ? 0 : update_cfg[static_cast<size_t>(u - 1)];
  };

  QueueOptions qo;
  qo.max_nrhs = max_nrhs;
  qo.max_wait_seconds = 0.02;
  SolveQueue queue(qo);
  queue.add_tenant("tenant", ctx);
  ctx.multigrid().reset_coarsest_comm_stats();

  // Open loop: one generator thread submits on the schedule however far
  // behind the queue is.  It touches no thread-pool kernel (inputs are
  // prepared above); only the dispatcher runs solves.
  std::vector<SolveTicket> tickets(static_cast<size_t>(n_req));
  std::vector<Clock::time_point> submitted(static_cast<size_t>(n_req));
  std::vector<std::atomic<bool>> posted(static_cast<size_t>(n_req));
  for (auto& p : posted) p.store(false);
  std::atomic<long> update_errors{0};
  const auto t0 = Clock::now() + std::chrono::milliseconds(10);
  auto due_at = [&](int i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due[static_cast<size_t>(i)]));
  };
  std::thread generator([&] {
    for (int i = 0; i < n_req; ++i) {
      std::this_thread::sleep_until(due_at(i));
      if (i > 0 && i % kUpdateEvery == 0) {
        const auto& c = configs[static_cast<size_t>(
            update_cfg[static_cast<size_t>(i / kUpdateEvery - 1)])];
        try {
          queue.update_gauge("tenant", c.id, c.gauge);
        } catch (const std::exception&) {
          ++update_errors;
        }
      }
      SolveRequest req;
      req.tenant = "tenant";
      req.rhs = std::move(rhs[static_cast<size_t>(i)]);
      req.spec = spec;
      submitted[static_cast<size_t>(i)] = Clock::now();
      tickets[static_cast<size_t>(i)] = queue.submit(std::move(req));
      posted[static_cast<size_t>(i)].store(true, std::memory_order_release);
    }
  });

  // Collector: tickets retire in submission order (one tenant, one spec,
  // FIFO batches), so waiting in order timestamps each retirement.
  std::vector<Clock::time_point> retired(static_cast<size_t>(n_req));
  for (int i = 0; i < n_req; ++i) {
    while (!posted[static_cast<size_t>(i)].load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    tickets[static_cast<size_t>(i)].wait();
    retired[static_cast<size_t>(i)] = Clock::now();
  }
  generator.join();
  queue.stop();
  const QueueStats qs = queue.stats();
  const long coarsest_allreduces =
      ctx.multigrid().coarsest_comm_stats().allreduces;
  const double run_wall =
      std::chrono::duration<double>(retired.back() - t0).count();

  // Per-request outcomes.  Batch-level quantities are shared by every rhs
  // of a batch, so each ticket contributes 1/batch_nrhs of them.
  std::vector<double> latency, lag, waits;
  std::vector<bool> ok(static_cast<size_t>(n_req), false);
  double messages = 0, coarse_messages = 0, bytes = 0, allreduces = 0,
         exchange_s = 0, exposed_s = 0, block_matvecs = 0,
         block_reductions = 0;
  for (int i = 0; i < n_req; ++i) {
    const auto& tk = tickets[static_cast<size_t>(i)];
    latency.push_back(std::chrono::duration<double>(
                          retired[static_cast<size_t>(i)] - due_at(i))
                          .count());
    lag.push_back(std::chrono::duration<double>(
                      submitted[static_cast<size_t>(i)] - due_at(i))
                      .count());
    tr.record("service", "request " + std::to_string(i), due_at(i),
              retired[static_cast<size_t>(i)]);
    try {
      const SolveReport& r = tk.report();
      ok[static_cast<size_t>(i)] = r.all_converged();
      waits.push_back(r.queue_wait_seconds);
      const double share = 1.0 / r.batch_nrhs;
      messages += static_cast<double>(r.comm.messages) * share;
      coarse_messages += static_cast<double>(r.coarse_comm.messages) * share;
      bytes += static_cast<double>(r.comm.message_bytes) * share;
      allreduces += static_cast<double>(r.comm.allreduces) * share;
      exchange_s += r.comm.exchange_seconds * share;
      exposed_s += r.comm.exposed_exchange_seconds() * share;
      block_matvecs += static_cast<double>(r.block_matvecs) * share;
      block_reductions += static_cast<double>(r.block_reductions) * share;
    } catch (const std::exception& e) {
      res.fail(std::string("service ticket failed: ") + e.what());
    }
  }

  // update_s: hierarchy cost of each NEW configuration, read from the
  // first batch that ran on it (restores are counted apart).
  std::vector<double> updates;
  for (size_t u = 0; u < update_cfg.size(); ++u) {
    const size_t first = (u + 1) * kUpdateEvery;
    if (update_new[u] && ok[first])
      updates.push_back(tickets[first].report().mg_setup.total_seconds());
  }

  // Correctness gate: each solution's true residual against the
  // configuration it was submitted under, on a separate context that holds
  // no hierarchy.
  {
    const auto s = tr.span("bench", "verify service");
    QmgContext verifier(service_options());
    int current = 0;
    for (int i = 0; i < n_req; ++i) {
      if (!ok[static_cast<size_t>(i)]) continue;
      const int cfg = config_of(i);
      if (cfg != current) {
        const auto& c = configs[static_cast<size_t>(cfg)];
        (void)verifier.update_gauge(c.id, c.gauge);
        current = cfg;
      }
      const double r =
          true_residual(verifier.op(), tickets[static_cast<size_t>(i)].solution(),
                        rhs_copy[static_cast<size_t>(i)]);
      if (!(r <= 10 * tol)) {
        ok[static_cast<size_t>(i)] = false;
        res.fail("service request " + std::to_string(i) + " residual " +
                 std::to_string(r));
      }
    }
  }

  long good = 0, bad = 0;
  for (int i = 0; i < n_req; ++i) {
    if (!ok[static_cast<size_t>(i)]) ++bad;
    else if (latency[static_cast<size_t>(i)] <= kServiceLimitSeconds) ++good;
  }
  const long bad_updates = qs.failed_updates + update_errors.load();
  res.attempted += n_req + static_cast<long>(update_cfg.size());
  res.failed += bad + bad_updates;
  if (bad > 0) res.fail(std::to_string(bad) + " service requests failed");
  if (bad_updates > 0) res.fail("gauge update failed");

  const double n = static_cast<double>(n_req);
  res.l("service.latency_p50_s", percentile(latency, 0.5), "s");
  res.l("service.latency_p90_s", percentile(latency, 0.9), "s");
  res.l("service.goodput_rhs_per_s", static_cast<double>(good) / run_wall,
        "1/s");
  res.l("service.update_s", median(updates), "s");
  res.l("service.queue_wait_p50_s", percentile(waits, 0.5), "s");
  res.l("service.batch_fill", qs.batch_fill, "ratio");
  res.l("service.batches", static_cast<double>(qs.batches), "count");
  res.l("service.generator_lag_s", percentile(lag, 0.9), "s");
  res.l("mg.refreshes", static_cast<double>(qs.hierarchy_refreshes), "count");
  res.l("mg.cache_restores", static_cast<double>(qs.cache_restores), "count");
  res.l("mg.full_rebuilds", static_cast<double>(qs.full_rebuilds), "count");
  // Batch-dependent: these follow how the queue happened to batch.
  res.l("service.block_matvecs", std::round(block_matvecs), "count");
  res.l("service.block_reductions", std::round(block_reductions), "count");
  res.l("service.coarsest_allreduces", static_cast<double>(coarsest_allreduces),
        "count");
  res.l("comm.messages_per_rhs", messages / n, "count");
  res.l("comm.coarse_messages_per_rhs", coarse_messages / n, "count");
  res.l("comm.bytes_per_rhs", bytes / n, "bytes");
  res.l("comm.allreduces_per_rhs", allreduces / n, "count");
  res.l("comm.exchange_s", exchange_s, "s");
  res.l("comm.exposed_exchange_s", exposed_s, "s");
}

// --- critical_single / critical_block12 ------------------------------------------

constexpr int kSources = 12;  // spin x color point sources of a propagator

/// The Iso48 proxy's couplings (mass -0.20, csw, roughness 0.58) and coarse
/// grids (32 and 2 sites, nvec 24/24) under a 4^3x16 fine lattice, half the
/// proxy's 8^3x16 in each spatial direction.  On the proxy lattice itself
/// one set-up took 6-9 s on a 4-CPU host and 15 s under load, so the
/// set-ups and solves of a run did not fit the benchmark's time budget.
/// Here a set-up takes ~3 s, MG needs 10 iterations per source and
/// BiCGStab 510-530, ~2.4x MG's time: still the regime where MG must win.
ContextOptions critical_options() {
  const EnsembleSpec e = EnsembleSpec::iso48();
  ContextOptions o;
  o.dims = {4, 4, 4, 16};
  o.mass = e.proxy_mass;
  o.csw = e.proxy_csw;
  o.roughness = e.proxy_roughness;
  // The gauge configuration stays at the ensemble's own seed: the proxy
  // mass is calibrated against it (both solvers converge; a different
  // configuration can cross the critical point).
  o.seed = 7;
  o.threads = kPoolThreads;
  return o;
}

/// Three-level hierarchy, null vectors started from seed 7: 2x2x2x4
/// aggregates give Iso48's 2x2x2x4 level-1 grid, and its level-2 blocking a
/// 2-site coarsest grid.  `warm` runs every set-up phase with almost no
/// work, so the first-call tuning sweeps and the first adaptive pass run
/// before anything is timed.
MgConfig critical_mg(bool warm) {
  const EnsembleSpec e = EnsembleSpec::iso48();
  MgLevelConfig l1;
  l1.block = {2, 2, 2, 4};
  l1.nvec = 24;
  // 10 sweeps and an adaptive pass of 2 iterations: MG takes 10
  // iterations per source and a set-up ~2.8 s on one thread.  20 sweeps and
  // the default 4 adaptive iterations took 12 iterations and ~7.7 s.
  l1.null_iters = warm ? 1 : 10;
  l1.adaptive_iters = warm ? 1 : 2;
  MgLevelConfig l2 = l1;
  l2.block = e.proxy_block2;
  MgConfig mg;
  mg.levels = {l1, l2};
  mg.seed = 7;
  return mg;
}

void reset_counters(QmgContext& ctx) {
  ctx.op().reset_apply_count();
  ctx.op_single().reset_apply_count();
  auto& mg = ctx.multigrid();
  for (int l = 0; l < mg.num_levels(); ++l) mg.op(l).reset_apply_count();
  mg.reset_coarsest_comm_stats();
}

/// Set-ups per untraced run; setup_s is their median.  The traced run and
/// its untraced twin set up once (`setups`): the exact counters follow the
/// hierarchy, not the repeat count.
constexpr int kSetups = 3;

Result run_critical(bool block, std::uint64_t seed, int setups, bool baseline,
                    double seconds, const std::string& tune_cache,
                    Tracer& tr) {
  const bool trace = tr.on();
  Result res;
  const double tol = EnsembleSpec::iso48().target_residuum;
  QmgContext ctx(critical_options());
  load_tuning(ctx, tune_cache);
  // The work is the same on every seed: the propagator's sources sit at the
  // origin, the setup starts from one null-vector seed, and the BiCGStab
  // baseline solves the first three sources.  (A seeded site or setup start
  // moved MG iteration counts by +-7% from run to run, which is the input's
  // spread, not the solver's.)  The seed permutes the order in which the
  // sources are solved, or stacked in the block.
  const long site = 0;
  const int n_bicg = baseline ? 3 : 0;
  std::vector<int> order(kSources);
  for (int k = 0; k < kSources; ++k) order[static_cast<size_t>(k)] = k;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(seed));

  // b[k] is source order[k]: spin order[k] / 3, color order[k] % 3.
  std::vector<ColorSpinorField<double>> b(kSources), x(kSources);
  std::vector<int> slot(kSources);  // slot[source] = index into b
  for (int k = 0; k < kSources; ++k) {
    const int src = order[static_cast<size_t>(k)];
    slot[static_cast<size_t>(src)] = k;
    b[static_cast<size_t>(k)] = ctx.create_vector();
    b[static_cast<size_t>(k)].point_source(site, src / 3, src % 3);
    x[static_cast<size_t>(k)] = ctx.create_vector();
  }
  SolveSpec mg_spec;
  mg_spec.tol = tol;
  SolveSpec bicg_spec = mg_spec;
  bicg_spec.method = SolveMethod::BiCgStab;

  // Warm-up: every shape the measured part uses, so that a shape missing
  // from the tune-cache file is tuned here and not in a timed call.
  {
    const auto s = tr.span("bench", "warm-up");
    tr.note("warm-up");
    ctx.setup_multigrid(critical_mg(true));
    // Two outer iterations run every level's kernels at the measured
    // shapes; convergence is not the point here.
    SolveSpec loose = mg_spec;
    loose.max_iter = 2;
    if (block) {
      (void)ctx.solve(x, b, loose);
    } else {
      (void)ctx.solve(x[0], b[0], loose);
    }
    if (baseline) {
      // BiCGStab needs enough iterations to reach its reliable updates.
      loose = bicg_spec;
      loose.tol = 1e-2;
      (void)ctx.solve(x[0], b[0], loose);
    }
  }

  // Rounds: each sets up from scratch, then solves the propagator (the 12
  // sources, in the seed's order) over and over for its share of
  // `seconds`, at least once.  Spread over the run like this, a slow spell
  // of the host shorter than a round reaches one set-up and a share of the
  // solves, and leaves the medians alone; back to back, one 10 s spell
  // once made two of three set-ups 2.6x slower.  Every set-up builds the
  // same hierarchy and every pass does the same work (solve() starts each
  // rhs from zero), so the exact counters and the latencies are read in
  // the first pass and the times are medians over the run.
  const Interval work;
  std::vector<double> setup_time, setup_cpu;
  std::vector<double> solve_time, solve_cpu, pass_time, pass_cpu, latency;
  std::vector<SolverResult> results;
  long block_matvecs = 0, block_reductions = 0;
  double first_pass_wall = 0;
  SetupTimings st;
  auto& mc = res.exact;
  int pass = 0;
  for (int round = 0; round < setups; ++round) {
    {
      const auto s = tr.span("core", "setup_multigrid");
      tr.note("setup_multigrid");
      const Interval one;
      ctx.setup_multigrid(critical_mg(false));
      setup_time.push_back(one.time());
      setup_cpu.push_back(one.cpu());
    }
    if (round == 0) {
      st = ctx.multigrid().setup_timings();
      reset_counters(ctx);
    }
    tr.note("mg solves");
    const Interval window;
    for (bool first = true; first || window.wall() < seconds / setups;
         first = false, ++pass) {
      const std::string tag = " pass=" + std::to_string(pass);
      const Interval one_pass;
      if (block) {
        const auto s = tr.span("core", "solve mg nrhs=12" + tag);
        const SolveReport rep = ctx.solve(x, b, mg_spec);
        solve_time.push_back(one_pass.time() / kSources);
        solve_cpu.push_back(one_pass.cpu() / kSources);
        if (pass == 0) {
          latency.assign(kSources, one_pass.wall());
          results = rep.rhs;
          block_matvecs = rep.block_matvecs;
          block_reductions = rep.block_reductions;
        }
      } else {
        for (int k = 0; k < kSources; ++k) {
          const auto s =
              tr.span("core", "solve mg src=" + std::to_string(k) + tag);
          const Interval one;
          const SolveReport rep =
              ctx.solve(x[static_cast<size_t>(k)], b[static_cast<size_t>(k)],
                        mg_spec);
          solve_time.push_back(one.time());
          solve_cpu.push_back(one.cpu());
          if (pass == 0) {
            latency.push_back(one_pass.wall());
            results.push_back(rep.result());
            block_matvecs += rep.block_matvecs;
            block_reductions += rep.block_reductions;
          }
        }
      }
      pass_time.push_back(one_pass.time());
      pass_cpu.push_back(one_pass.cpu());
      if (pass == 0) {
        first_pass_wall = one_pass.wall();
        long outer_iters = 0;
        for (const auto& r : results) outer_iters += r.iterations;
        auto& mg = ctx.multigrid();
        mc["dirac.fine_applies"] =
            ctx.op().apply_count() + ctx.op_single().apply_count();
        mc["mg.coarse_applies_l1"] = mg.op(1).apply_count();
        mc["mg.coarse_applies_l2"] = mg.op(2).apply_count();
        mc["mg.coarsest_allreduces"] = mg.coarsest_comm_stats().allreduces;
        mc["solvers.outer_iters"] = outer_iters;
        mc["solvers.block_matvecs"] = block_matvecs;
        mc["solvers.block_reductions"] = block_reductions;
      }
    }
  }
  std::printf("mg passes over the propagator: %zu (%zu timed solves)\n",
              pass_time.size(), solve_time.size());

  if (baseline) tr.note("bicgstab baseline");
  // BiCGStab baseline on sources 0..n_bicg-1 of the same propagator.
  std::vector<ColorSpinorField<double>> x_bicg;
  std::vector<double> bicg_time, bicg_cpu;
  std::vector<SolverResult> bicg_res;
  const Interval bicg_all;
  for (int src = 0; src < n_bicg; ++src) {
    const auto s = tr.span("core", "solve bicgstab src=" + std::to_string(src));
    x_bicg.push_back(ctx.create_vector());
    const Interval one;
    const SolveReport rep = ctx.solve(
        x_bicg.back(), b[static_cast<size_t>(slot[static_cast<size_t>(src)])],
        bicg_spec);
    bicg_time.push_back(one.time());
    bicg_cpu.push_back(one.cpu());
    bicg_res.push_back(rep.result());
  }
  long bicg_iters = 0;
  for (const auto& r : bicg_res) bicg_iters += r.iterations;
  if (baseline) mc["solvers.bicgstab_iters"] = bicg_iters;
  res.solve_seconds = first_pass_wall + bicg_all.wall();
  std::printf("steal per CPU during the measured part: %.3f s\n",
              work.steal());

  // Correctness gate: true double residual of every solution, and MG and
  // BiCGStab agreeing on the shared sources.  The solvers stop on the
  // even-odd Schur residual, so the full-system check allows 10x tol.
  {
    const auto s = tr.span("bench", "verify");
    tr.note("verify");
    res.attempted = kSources + n_bicg;
    for (int k = 0; k < kSources; ++k) {
      const double r = true_residual(ctx.op(), x[static_cast<size_t>(k)],
                                     b[static_cast<size_t>(k)]);
      if (!results[static_cast<size_t>(k)].converged || !(r <= 10 * tol)) {
        ++res.failed;
        res.fail("mg source " + std::to_string(k) + " residual " +
                 std::to_string(r));
      }
    }
    for (int src = 0; src < n_bicg; ++src) {
      const auto& bs = b[static_cast<size_t>(slot[static_cast<size_t>(src)])];
      const auto& xm = x[static_cast<size_t>(slot[static_cast<size_t>(src)])];
      const auto& xb = x_bicg[static_cast<size_t>(src)];
      const double rb = true_residual(ctx.op(), xb, bs);
      if (!bicg_res[static_cast<size_t>(src)].converged || !(rb <= 10 * tol)) {
        ++res.failed;
        res.fail("bicgstab source " + std::to_string(src) + " residual " +
                 std::to_string(rb));
      }
      const double agree = rel_diff(xm, xb);
      std::printf("source %d: mg-vs-bicgstab relative difference %.3e\n", src,
                  agree);
      if (!(agree <= 1e-4)) {
        ++res.failed;
        res.fail("mg and bicgstab disagree on source " + std::to_string(src) +
                 ": " + std::to_string(agree));
      }
    }
  }

  // End-to-end times are wall seconds less steal (Interval::time).  The
  // time to solution amortizes one set-up over one propagator.
  const double setup_s = median(setup_time);
  res.e("setup_s", setup_s, "s");
  res.e("solve_s_per_rhs", median(solve_time), "s");
  res.e("tts_s_per_rhs", (setup_s + median(pass_time)) / kSources, "s");
  res.e("peak_rss_mb", peak_rss_mb(), "MB");

  if (trace) {
    // CPU-second twins: with time() they tell lost parallelism (time up,
    // CPU flat) from added work (both up).
    res.l("cpu.setup_s", median(setup_cpu), "s");
    res.l("cpu.solve_s_per_rhs", median(solve_cpu), "s");
    res.l("cpu.tts_s_per_rhs",
          (median(setup_cpu) + median(pass_cpu)) / kSources, "s");
    // The baseline is not bounded and runs only with the traced run and
    // its twin: on the 8^3x16 proxy lattice a slow spell of the host
    // stretched it by ~45% where it stretched the MG solves by ~15%, and
    // its quartile spread over ten runs (0.27) exceeded 0.25, the largest
    // bound BENCHMARK.json may set.
    res.l("solvers.bicgstab_s_per_rhs", median(bicg_time), "s");
    res.l("cpu.bicgstab_s_per_rhs", median(bicg_cpu), "s");
    res.l("wall.latency_p50_s", percentile(latency, 0.5), "s");
    res.l("wall.latency_p90_s", percentile(latency, 0.9), "s");
    res.l("mg.setup.null_gen_s", st.null_gen_seconds, "s");
    res.l("mg.setup.galerkin_s", st.galerkin_seconds, "s");
    res.l("mg.setup.adaptive_s", st.adaptive_seconds, "s");
    probe_layers(ctx, res, tr);
    service_probe(seed, tr, res);
  } else {
    save_tuning(ctx, tune_cache);
  }
  return res;
}

// --- output ---------------------------------------------------------------------

void print_result(const Result& res, const std::string& workload, bool trace) {
  for (const auto& err : res.errors) std::printf("ERROR %s\n", err.c_str());
  const auto& list = trace ? res.layer : res.e2e;
  for (const auto& m : list)
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string out = "{\"workload\": \"" + workload + "\", \"correct\": ";
  out += res.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", res.solve_seconds);
  out += ", \"solve_seconds\": " + std::string(buf);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < list.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", list[i].value);
    out += (i ? ", \"" : "\"") + list[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + list[i].unit + "\"}";
  }
  auto counters = [&](const char* key, const std::map<std::string, long>& m) {
    out += std::string("}, \"") + key + "\": {";
    size_t i = 0;
    for (const auto& [k, v] : m)
      out += (i++ ? ", \"" : "\"") + k + "\": " + std::to_string(v);
  };
  counters("exact", res.exact);
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// --- determinism self-check --------------------------------------------------------

/// A tiny two-level problem run twice in fresh contexts: every exact counter
/// (and every iteration count) must repeat bit for bit.
std::map<std::string, long> tiny_counters(const std::string& tune_cache) {
  ContextOptions o = service_options();
  o.dims = {4, 4, 4, 4};
  QmgContext ctx(o);
  load_tuning(ctx, tune_cache);
  ctx.setup_multigrid(service_mg(3));
  reset_counters(ctx);
  std::vector<ColorSpinorField<double>> b(3), x(3);
  for (int k = 0; k < 3; ++k) {
    b[static_cast<size_t>(k)] = ctx.create_vector();
    b[static_cast<size_t>(k)].point_source(5, k, k);
    x[static_cast<size_t>(k)] = ctx.create_vector();
  }
  SolveSpec spec;
  spec.tol = 1e-8;
  std::map<std::string, long> c;
  const SolveReport single = ctx.solve(x[0], b[0], spec);
  const SolveReport blockr = ctx.solve(x, b, spec);
  spec.method = SolveMethod::BiCgStab;
  const SolveReport bicg = ctx.solve(x[1], b[1], spec);
  c["single_iters"] = single.result().iterations;
  for (int k = 0; k < 3; ++k)
    c["block_iters_" + std::to_string(k)] =
        blockr.rhs[static_cast<size_t>(k)].iterations;
  c["block_matvecs"] = blockr.block_matvecs;
  c["block_reductions"] = blockr.block_reductions;
  c["bicgstab_iters"] = bicg.result().iterations;
  c["fine_applies"] = ctx.op().apply_count() + ctx.op_single().apply_count();
  c["coarse_applies_l1"] = ctx.multigrid().op(1).apply_count();
  c["coarsest_allreduces"] = ctx.multigrid().coarsest_comm_stats().allreduces;
  save_tuning(ctx, tune_cache);
  return c;
}

int selftest(const std::string& tune_cache) {
  const auto a = tiny_counters(tune_cache);
  const auto b = tiny_counters(tune_cache);
  bool same = a == b;
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    const long w = it == b.end() ? -1 : it->second;
    std::printf("%-22s %8ld %8ld%s\n", k.c_str(), v, w, v == w ? "" : "  DIFF");
  }
  std::printf("determinism self-check: %s\n", same ? "PASS" : "FAIL");
  return same ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out, tune_cache;
  std::uint64_t seed = 1;
  int trace = 0, setups = kSetups;
  double seconds = 15;
  bool self_check = false, baseline = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") workload = next();
    else if (a == "--seed") seed = std::stoull(next());
    // Length of the measured solve window (the set-ups come before it).
    else if (a == "--seconds") seconds = std::stod(next());
    else if (a == "--trace") trace = std::stoi(next());
    else if (a == "--trace-out") trace_out = next();
    else if (a == "--tune-cache") tune_cache = next();
    else if (a == "--setups") setups = std::max(1, std::stoi(next()));
    else if (a == "--baseline") baseline = true;
    else if (a == "--selftest") self_check = true;
    else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }

  if (self_check) return selftest(tune_cache);

  Result res;
  Tracer tr(trace != 0);
  try {
    if (workload == "critical_single" || workload == "critical_block12") {
      res = run_critical(workload == "critical_block12", seed,
                         trace ? 1 : setups, baseline || trace, seconds,
                         tune_cache, tr);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload failed: %s\n", e.what());
    return 3;
  }
  print_host();
  if (trace && !trace_out.empty() && !tr.write(trace_out))
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
  if (trace) {
    for (const auto& [k, v] : res.exact)
      res.l(k, static_cast<double>(v), "count");
  }
  print_result(res, workload, trace != 0);
  return res.correct ? 0 : 1;
}
