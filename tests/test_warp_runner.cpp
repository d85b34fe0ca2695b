// Oracle for the whole-warp runner: SelfJoinKernel::run_warp must
// reproduce the generic lockstep loop (simt::detail::warp_step_loop
// over step(), the specification) exactly — every KernelStats field,
// the WarpRecord stream, the raw pair emission order and the work-queue
// counter — for every paper variant, Self and R×S, count-only and pair
// storage, two warp sizes and both host paths, plus an overflowing
// batch that aborts and rolls back.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "data/generators.hpp"
#include "grid/workload.hpp"
#include "simt/launch.hpp"
#include "sj/kernels.hpp"
#include "sj/selfjoin.hpp"

namespace gsj {
namespace {

/// Forwards everything but run_warp, so simt::launch falls back to the
/// generic per-step loop on both host paths.
class StepOnly {
 public:
  using LaneState = SelfJoinKernel::LaneState;

  explicit StepOnly(SelfJoinKernel& k) : k_(k) {}

  simt::InitResult init_lane(LaneState& s, const simt::LaneCtx& ctx,
                             simt::WarpScratch& scratch) {
    return k_.init_lane(s, ctx, scratch);
  }
  simt::StepResult step(LaneState& s) { return k_.step(s); }
  [[nodiscard]] SelfJoinKernel::Shard make_shard() const {
    return k_.make_shard();
  }
  simt::StepResult step(LaneState& s, SelfJoinKernel::Shard& shard) {
    return k_.step(s, shard);
  }
  void merge_shard(SelfJoinKernel::Shard&& shard) {
    k_.merge_shard(std::move(shard));
  }

 private:
  SelfJoinKernel& k_;
};

static_assert(simt::WarpRunnerKernel<SelfJoinKernel>);
static_assert(simt::ParallelHostKernel<SelfJoinKernel>);
static_assert(!simt::WarpRunnerKernel<StepOnly>);
static_assert(simt::ParallelHostKernel<StepOnly>);

struct Variant {
  const char* name;
  SelfJoinConfig (*make)(double);
};

constexpr Variant kVariants[] = {
    {"FULL", [](double e) { return SelfJoinConfig::gpu_calc_global(e); }},
    {"UNICOMP", [](double e) { return SelfJoinConfig::unicomp(e); }},
    {"LID_UNICOMP", [](double e) { return SelfJoinConfig::lid_unicomp(e); }},
    {"SORTBYWL", [](double e) { return SelfJoinConfig::sort_by_wl(e); }},
    {"WORKQUEUE", [](double e) { return SelfJoinConfig::work_queue_cfg(e); }},
    {"COMBINED", [](double e) { return SelfJoinConfig::combined(e); }},
};

/// Inputs of one launch: the gridded dataset, an optional probe side,
/// and the query order (identity for plain STATIC, workload-sorted D'
/// for SORTBYWL and the work queue).
struct Inputs {
  Dataset ds;
  Dataset probe;
  double eps;

  Inputs(std::size_t n, int dims, double epsilon, std::uint64_t seed)
      : ds(gen_exponential(n, dims, seed)),
        probe(gen_exponential(n / 2, dims, seed + 1)),
        eps(epsilon) {}
};

struct Outcome {
  simt::KernelStats stats;
  std::vector<simt::WarpRecord> warps;
  std::vector<ResultPair> pairs;
  std::uint64_t count = 0;
  std::uint64_t counter = 0;
  std::uint64_t atomics = 0;
  std::uint64_t emitted = 0;
};

/// Launches `kernel` for `nthreads` threads through run_warp
/// (`generic == false`) or the per-step loop, and records the outcome.
Outcome run_kernel(SelfJoinKernel& kernel, ResultSet& results,
                   const simt::DeviceCounter& counter,
                   const simt::DeviceConfig& device, std::uint64_t nthreads,
                   bool generic, const simt::LaunchAbort& abort_hook = {}) {
  Outcome o;
  const simt::WarpObserver observer = [&o](const simt::WarpRecord& r) {
    o.warps.push_back(r);
  };
  if (generic) {
    StepOnly wrapped(kernel);
    o.stats = simt::launch(device, nthreads, wrapped, observer, abort_hook);
  } else {
    o.stats = simt::launch(device, nthreads, kernel, observer, abort_hook);
  }
  if (results.batch_overflowed()) results.rollback_batch();
  o.pairs = results.pairs();
  o.count = results.count();
  o.counter = counter.value();
  o.atomics = kernel.atomics_executed();
  o.emitted = kernel.results_emitted();
  return o;
}

/// The query order of `cfg` over `grid`: identity for plain STATIC,
/// workload-sorted D' for SORTBYWL and the work queue.
std::vector<PointId> query_order(const GridIndex& grid, const Inputs& in,
                                 const SelfJoinConfig& cfg, bool rxs) {
  std::vector<PointId> order;
  if (rxs) {
    order.resize(in.probe.size());
    std::iota(order.begin(), order.end(), PointId{0});
    if (cfg.sort_by_workload || cfg.work_queue) {
      const auto wl = probe_point_workloads(grid, in.probe);
      std::stable_sort(order.begin(), order.end(),
                       [&](PointId a, PointId b) { return wl[a] > wl[b]; });
    }
  } else if (cfg.sort_by_workload || cfg.work_queue) {
    order = sort_by_workload(grid, cfg.pattern);
  } else {
    order.resize(in.ds.size());
    std::iota(order.begin(), order.end(), PointId{0});
  }
  return order;
}

KernelParams kernel_params(const GridIndex& grid, const Inputs& in,
                           const SelfJoinConfig& cfg, bool rxs,
                           std::span<const PointId> order,
                           simt::DeviceCounter& counter,
                           const simt::DeviceConfig& device,
                           ResultSet& results) {
  KernelParams p;
  p.grid = &grid;
  p.pattern = cfg.pattern;
  p.probe = rxs ? &in.probe : nullptr;
  p.assignment = cfg.work_queue ? Assignment::WorkQueue : Assignment::Static;
  p.k = cfg.k;
  p.points = order;
  p.queue = order;
  p.counter = &counter;
  p.device = &device;
  p.results = &results;
  return p;
}

/// Runs one launch of `cfg`'s kernel over `in`, through run_warp
/// (`generic == false`) or the per-step loop. A finite `capacity`
/// arms the overflow abort hook and rolls an overflowed batch back.
Outcome launch_once(const Inputs& in, const SelfJoinConfig& cfg, bool rxs,
                    bool store, int warp_size, int host_threads,
                    bool generic,
                    std::uint64_t capacity = ResultSet::kUnlimited) {
  const GridIndex grid(in.ds, in.eps);
  const std::vector<PointId> order = query_order(grid, in, cfg, rxs);
  simt::DeviceConfig device = cfg.device;
  device.warp_size = warp_size;
  device.host.num_threads = host_threads;
  ResultSet results(store);
  simt::DeviceCounter counter;
  SelfJoinKernel kernel(
      kernel_params(grid, in, cfg, rxs, order, counter, device, results));

  simt::LaunchAbort abort_hook;
  if (capacity != ResultSet::kUnlimited) {
    abort_hook = [&results] { return results.batch_overflowed(); };
  }
  results.begin_batch(capacity);
  return run_kernel(kernel, results, counter, device,
                    order.size() * static_cast<std::uint64_t>(cfg.k), generic,
                    abort_hook);
}

void expect_same(const Outcome& spec, const Outcome& fast) {
  EXPECT_EQ(spec.stats.launches, fast.stats.launches);
  EXPECT_EQ(spec.stats.aborted_launches, fast.stats.aborted_launches);
  EXPECT_EQ(spec.stats.warps_launched, fast.stats.warps_launched);
  EXPECT_EQ(spec.stats.warp_steps, fast.stats.warp_steps);
  EXPECT_EQ(spec.stats.active_lane_steps, fast.stats.active_lane_steps);
  EXPECT_EQ(spec.stats.busy_cycles, fast.stats.busy_cycles);
  EXPECT_EQ(spec.stats.makespan_cycles, fast.stats.makespan_cycles);
  EXPECT_EQ(spec.stats.tail_idle_cycles, fast.stats.tail_idle_cycles);
  ASSERT_EQ(spec.warps.size(), fast.warps.size());
  for (std::size_t i = 0; i < spec.warps.size(); ++i) {
    const simt::WarpRecord& a = spec.warps[i];
    const simt::WarpRecord& b = fast.warps[i];
    ASSERT_EQ(a.warp_id, b.warp_id) << "warp record " << i;
    ASSERT_EQ(a.dispatch_seq, b.dispatch_seq) << "warp record " << i;
    ASSERT_EQ(a.start_cycle, b.start_cycle) << "warp record " << i;
    ASSERT_EQ(a.cycles, b.cycles) << "warp record " << i;
    ASSERT_EQ(a.steps, b.steps) << "warp record " << i;
    ASSERT_EQ(a.active_lane_steps, b.active_lane_steps) << "warp record " << i;
    ASSERT_EQ(a.slot, b.slot) << "warp record " << i;
  }
  EXPECT_EQ(spec.pairs, fast.pairs);  // raw emission order, not canonical
  EXPECT_EQ(spec.count, fast.count);
  EXPECT_EQ(spec.counter, fast.counter);
  EXPECT_EQ(spec.atomics, fast.atomics);
  EXPECT_EQ(spec.emitted, fast.emitted);
}

// (variant, rxs, store_pairs, warp_size, host_threads)
using OracleParam = std::tuple<int, bool, bool, int, int>;

class WarpRunnerOracle : public ::testing::TestWithParam<OracleParam> {};

TEST_P(WarpRunnerOracle, MatchesGenericStepLoop) {
  const auto [vi, rxs, store, warp_size, threads] = GetParam();
  static const Inputs in(1500, 2, 0.25, 91);
  const SelfJoinConfig cfg = kVariants[vi].make(in.eps);
  const Outcome spec =
      launch_once(in, cfg, rxs, store, warp_size, threads, true);
  const Outcome fast =
      launch_once(in, cfg, rxs, store, warp_size, threads, false);
  ASSERT_GT(spec.count, 0u);
  ASSERT_GT(spec.warps.size(), 1u);
  expect_same(spec, fast);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, WarpRunnerOracle,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Bool(),
                       ::testing::Bool(), ::testing::Values(8, 32),
                       ::testing::Values(0, 2)),
    [](const ::testing::TestParamInfo<OracleParam>& param_info) {
      const OracleParam& p = param_info.param;
      return std::string(kVariants[std::get<0>(p)].name) +
             (std::get<1>(p) ? "_RxS" : "_Self") +
             (std::get<2>(p) ? "_pairs" : "_count") + "_ws" +
             std::to_string(std::get<3>(p)) + "_t" +
             std::to_string(std::get<4>(p));
    });

TEST(WarpRunner, MatchesGenericStepLoopInEveryDimensionality) {
  // run_warp is compiled once per dimensionality 1..8; each must agree
  // with the specification, for a bidirectional and a unidirectional
  // pattern (the centre slot's rank rule and self pair differ).
  for (int dims = 1; dims <= kMaxDims; ++dims) {
    SCOPED_TRACE("dims=" + std::to_string(dims));
    const Inputs in(dims <= 4 ? 800 : 300, dims, dims <= 2 ? 0.2 : 0.6,
                    100 + static_cast<std::uint64_t>(dims));
    for (const int vi : {0, 5}) {
      const SelfJoinConfig cfg = kVariants[vi].make(in.eps);
      for (const bool rxs : {false, true}) {
        const Outcome spec = launch_once(in, cfg, rxs, true, 32, 0, true);
        EXPECT_GT(spec.count, rxs ? 0u : in.ds.size());  // beyond self pairs
        expect_same(spec, launch_once(in, cfg, rxs, true, 32, 0, false));
      }
    }
  }
}

TEST(WarpRunner, OverflowAbortAndRollbackMatchGenericStepLoop) {
  // More than one abort-polling block of warps (kWarpBlock) and a
  // capacity far below the result: both runners must stop after the
  // same block with identical stats, then roll back to the same state.
  const int warp_size = 8;
  const std::uint64_t n = simt::detail::kWarpBlock * warp_size + 4000;
  // Sparse uniform points (a few per cell) keep the run short.
  Inputs in(16, 2, 0.1, 7);
  in.ds = gen_uniform(static_cast<std::size_t>(n), 2, 7, 0.0, 10.0);
  SelfJoinConfig cfg = SelfJoinConfig::gpu_calc_global(in.eps);
  cfg.batching.inject_capacity = 1000;
  for (const int threads : {0, 2}) {
    SCOPED_TRACE("host_threads=" + std::to_string(threads));
    const Outcome spec = launch_once(in, cfg, false, true, warp_size, threads,
                                     true, cfg.batching.effective_capacity());
    const Outcome fast = launch_once(in, cfg, false, true, warp_size, threads,
                                     false, cfg.batching.effective_capacity());
    EXPECT_EQ(spec.stats.aborted_launches, 1u);
    EXPECT_EQ(spec.stats.warps_launched, simt::detail::kWarpBlock);
    EXPECT_EQ(spec.count, 0u);
    EXPECT_TRUE(spec.pairs.empty());
    EXPECT_GT(spec.emitted, cfg.batching.effective_capacity());
    expect_same(spec, fast);
  }
}

/// A device cost set under which run_warp's cost classes tie or change
/// order (retire 1, check, check+probe, check+emit, dist, dist+emit).
struct CostSet {
  const char* name;
  void (*apply)(simt::DeviceConfig&);
};

constexpr CostSet kCostSets[] = {
    // Hits cost what misses do, the self pair what a check does.
    {"EmitFree", [](simt::DeviceConfig& d) { d.cost_emit = 0; }},
    // A probing slot costs what a plain slot does.
    {"ProbeFree", [](simt::DeviceConfig& d) { d.cost_cell_probe = 0; }},
    // Slot steps outrank every scan step.
    {"CheckAboveHit",
     [](simt::DeviceConfig& d) {
       d.cost_pattern_check = d.cost_dist(kMaxDims) + d.cost_emit + 7;
     }},
    // Distances are cheaper than probes and than plain checks.
    {"DistBelowCheck",
     [](simt::DeviceConfig& d) {
       d.cost_dist_base = 1;
       d.cost_dist_per_dim = 0;
       d.cost_pattern_check = 3;
     }},
    // Every class costs 1 except free emits and probes: all tie.
    {"AllTie",
     [](simt::DeviceConfig& d) {
       d.cost_dist_base = 1;
       d.cost_dist_per_dim = 0;
       d.cost_pattern_check = 1;
       d.cost_cell_probe = 0;
       d.cost_emit = 0;
     }},
};

TEST(WarpRunner, MatchesGenericStepLoopUnderReorderedCostClasses) {
  // run_warp charges each step the costliest class present, with the
  // classes sorted by cost at kernel construction; every order and tie
  // must reproduce the per-step max.
  for (const int dims : {2, 6}) {
    const Inputs in(dims == 2 ? 1200 : 400, dims, dims == 2 ? 0.25 : 0.6,
                    300 + static_cast<std::uint64_t>(dims));
    for (const CostSet& costs : kCostSets) {
      for (const int vi : {0, 5}) {
        SelfJoinConfig cfg = kVariants[vi].make(in.eps);
        costs.apply(cfg.device);
        for (const bool rxs : {false, true}) {
          for (const bool store : {false, true}) {
            SCOPED_TRACE(std::string(costs.name) + " dims=" +
                         std::to_string(dims) + " " + kVariants[vi].name +
                         (rxs ? " RxS" : " Self") +
                         (store ? " pairs" : " count"));
            const Outcome spec =
                launch_once(in, cfg, rxs, store, 32, 0, true);
            ASSERT_GT(spec.count, 0u);
            expect_same(spec, launch_once(in, cfg, rxs, store, 32, 0, false));
          }
        }
      }
    }
  }
}

TEST(WarpRunner, MatchesGenericStepLoopOnScanRunsLongerThanAWord) {
  // Dense cells: k=1 lanes scan runs of well over 64 candidates, and
  // each run starts after the slot steps before it, i.e. at step
  // offsets that are not word-aligned — hit masks span two words.
  Inputs in(16, 2, 0.2, 17);
  in.ds = gen_uniform(3000, 2, 17, 0.0, 1.0);
  const GridIndex grid(in.ds, in.eps);
  std::uint32_t largest = 0;
  for (const GridCell& c : grid.cells()) {
    largest = std::max(largest, c.end - c.begin);
  }
  ASSERT_GT(largest, 2u * 64u);
  for (const int vi : {0, 1, 5}) {
    const SelfJoinConfig cfg = kVariants[vi].make(in.eps);
    for (const bool store : {false, true}) {
      for (const int threads : {0, 2}) {
        SCOPED_TRACE(std::string(kVariants[vi].name) +
                     (store ? " pairs" : " count") +
                     " host_threads=" + std::to_string(threads));
        expect_same(launch_once(in, cfg, false, store, 32, threads, true),
                    launch_once(in, cfg, false, store, 32, threads, false));
      }
    }
  }
}

TEST(WarpRunner, MatchesGenericStepLoopOnSixDimProgramsWithK1AndK8) {
  // 3^6 = 729 slots: a slot program's probe bitset spans 12 words and
  // its slot runs are copied across word boundaries.
  const Inputs in(1500, 6, 0.8, 606);
  for (const int k : {1, 8}) {
    for (const int vi : {0, 2, 5}) {
      SelfJoinConfig cfg = kVariants[vi].make(in.eps);
      cfg.k = k;
      for (const bool rxs : {false, true}) {
        for (const bool store : {false, true}) {
          SCOPED_TRACE(std::string(kVariants[vi].name) + " k=" +
                       std::to_string(k) + (rxs ? " RxS" : " Self") +
                       (store ? " pairs" : " count"));
          const Outcome spec = launch_once(in, cfg, rxs, store, 32, 0, true);
          ASSERT_GT(spec.count, rxs ? 0u : in.ds.size());
          expect_same(spec, launch_once(in, cfg, rxs, store, 32, 0, false));
        }
      }
    }
  }
}

TEST(WarpRunner, ProgramCacheReusedAcrossOverflowRetry) {
  // One kernel object launched twice, as a batch retried after an
  // overflow: the aborted launch fills the slot-program cache and the
  // retry (same kernel) replays it. Both launches must match the
  // per-step loop driven through the same sequence. Two abort-polling
  // blocks of warps over ~32k sparse cells: the retry's programs hold
  // more events than the cache keeps, so it also flushes and refills.
  const int warp_size = 8;
  Inputs in(16, 2, 0.1, 7);
  in.ds = gen_uniform(2 * simt::detail::kWarpBlock * warp_size, 2, 7, 0.0,
                      20.0);
  for (const int vi : {0, 3}) {
    const SelfJoinConfig cfg = kVariants[vi].make(in.eps);
    for (const int threads : {0, 2}) {
      SCOPED_TRACE(std::string(kVariants[vi].name) +
                   " host_threads=" + std::to_string(threads));
      const GridIndex grid(in.ds, in.eps);
      const std::vector<PointId> order = query_order(grid, in, cfg, false);
      simt::DeviceConfig device = cfg.device;
      device.warp_size = warp_size;
      device.host.num_threads = threads;
      std::vector<Outcome> runs[2];
      for (const bool generic : {true, false}) {
        ResultSet results(true);
        simt::DeviceCounter counter;
        SelfJoinKernel kernel(kernel_params(grid, in, cfg, false, order,
                                            counter, device, results));
        const std::uint64_t nthreads = order.size();
        // Overflow: a tiny window aborts after the first warp block.
        results.begin_batch(50);
        runs[generic ? 0 : 1].push_back(run_kernel(
            kernel, results, counter, device, nthreads, generic,
            [&results] { return results.batch_overflowed(); }));
        // Retry with room.
        results.begin_batch(ResultSet::kUnlimited);
        runs[generic ? 0 : 1].push_back(
            run_kernel(kernel, results, counter, device, nthreads, generic));
      }
      ASSERT_EQ(runs[0].size(), 2u);
      EXPECT_EQ(runs[0][0].stats.aborted_launches, 1u);
      EXPECT_EQ(runs[0][1].stats.aborted_launches, 0u);
      EXPECT_GT(runs[0][1].count, in.ds.size());
      expect_same(runs[0][0], runs[1][0]);
      expect_same(runs[0][1], runs[1][1]);
    }
  }
}

TEST(WarpRunner, MatchesGenericStepLoopWhenEightDimProgramsFillTheCache) {
  // An 8-D program's probe-slot bitset takes 103 words, so a sparse
  // input with many occupied origin cells fills the slot-program cache
  // by words rather than by events, and one launch flushes and refills
  // it several times.
  Inputs in(16, 8, 0.9, 808);
  in.ds = gen_uniform(1000, 8, 808, 0.0, 10.0);
  const GridIndex grid(in.ds, in.eps);
  ASSERT_GT(grid.cells().size(), 2u * (std::size_t{1} << 15) / 103);
  for (const int vi : {0, 2}) {
    const SelfJoinConfig cfg = kVariants[vi].make(in.eps);
    for (const bool store : {false, true}) {
      SCOPED_TRACE(std::string(kVariants[vi].name) +
                   (store ? " pairs" : " count"));
      expect_same(launch_once(in, cfg, false, store, 32, 0, true),
                  launch_once(in, cfg, false, store, 32, 0, false));
    }
  }
}

TEST(WarpRunner, BackToBackKernelsOnDifferentGridsDoNotShareCachedPrograms) {
  // Kernels on two different grids alternate on one host thread; the
  // thread-local program cache is keyed by cell index, which the grids
  // share, so a stale program would change the second kernel's result.
  const Inputs a(1500, 2, 0.25, 91);
  const Inputs b(900, 2, 0.4, 92);
  for (const bool store : {false, true}) {
    std::vector<Outcome> spec;
    std::vector<Outcome> fast;
    for (const Inputs* in : {&a, &b, &a, &b}) {
      const SelfJoinConfig c = SelfJoinConfig::lid_unicomp(in->eps);
      spec.push_back(launch_once(*in, c, false, store, 32, 0, true));
      fast.push_back(launch_once(*in, c, false, store, 32, 0, false));
    }
    for (std::size_t i = 0; i < spec.size(); ++i) {
      SCOPED_TRACE("launch " + std::to_string(i) +
                   (store ? " pairs" : " count"));
      expect_same(spec[i], fast[i]);
    }
    EXPECT_NE(spec[0].count, spec[1].count);
  }
}

}  // namespace
}  // namespace gsj
