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

/// Runs one launch of `cfg`'s kernel over `in`, through run_warp
/// (`generic == false`) or the per-step loop. A finite `capacity`
/// arms the overflow abort hook and rolls an overflowed batch back.
Outcome launch_once(const Inputs& in, const SelfJoinConfig& cfg, bool rxs,
                    bool store, int warp_size, int host_threads,
                    bool generic,
                    std::uint64_t capacity = ResultSet::kUnlimited) {
  const GridIndex grid(in.ds, in.eps);
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

  simt::DeviceConfig device = cfg.device;
  device.warp_size = warp_size;
  device.host.num_threads = host_threads;
  ResultSet results(store);
  simt::DeviceCounter counter;

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

  Outcome o;
  const simt::WarpObserver observer = [&o](const simt::WarpRecord& r) {
    o.warps.push_back(r);
  };
  simt::LaunchAbort abort_hook;
  if (capacity != ResultSet::kUnlimited) {
    abort_hook = [&results] { return results.batch_overflowed(); };
  }
  results.begin_batch(capacity);
  const std::uint64_t nthreads =
      order.size() * static_cast<std::uint64_t>(cfg.k);
  SelfJoinKernel kernel(p);
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

}  // namespace
}  // namespace gsj
