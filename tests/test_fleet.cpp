// Multi-device fleet tests (docs/SIMULATOR.md §fleet): grain
// partitioning invariants, the KernelStats merge compositions, the
// config validators, fleet-vs-single-device bit-identity, the
// adaptive-vs-static rebalancer comparison and the fleet observability
// surfaces (stats, sj.fleet.* / svc.fleet.* metrics, snapshot rows),
// plus the fleet's overflow-rollback and cancellation paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "grid/grain.hpp"
#include "grid/grid_index.hpp"
#include "grid/workload.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "simt/fleet.hpp"
#include "sj/selfjoin.hpp"
#include "sj/service.hpp"
#include "support/oracle.hpp"

namespace gsj {
namespace {

using testsupport::all_variants;
using testsupport::make_adversarial_case;

/// A skewed-cluster dataset: a few dense piles on a sparse background —
/// the load shape §IV's variants (and the fleet's rebalancer) target.
Dataset make_skewed_clusters(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Dataset ds(2);
  const double centers[][2] = {{0.1, 0.1}, {0.12, 0.11}, {0.85, 0.2}};
  std::vector<double> p(2);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.7) {
      const auto& c = centers[rng.uniform_index(3)];
      p[0] = c[0] + rng.uniform(-0.02, 0.02);
      p[1] = c[1] + rng.uniform(-0.02, 0.02);
    } else {
      p[0] = rng.uniform(0.0, 1.0);
      p[1] = rng.uniform(0.0, 1.0);
    }
    ds.push_back(p);
  }
  return ds;
}

SelfJoinConfig fleet_cfg(const SelfJoinConfig& base, int devices,
                         bool adaptive = true) {
  SelfJoinConfig cfg = base;
  cfg.fleet.num_devices = devices;
  cfg.fleet.adaptive = adaptive;
  return cfg;
}

/// A heterogeneous 4-device fleet: a big/fast device down to a small/
/// slow one (SM count and clock both vary).
void make_hetero4(SelfJoinConfig& cfg) {
  cfg.fleet.num_devices = 4;
  cfg.fleet.devices.assign(4, cfg.device);
  const int sms[] = {56, 28, 14, 7};
  const double ghz[] = {1.3, 1.0, 0.8, 0.6};
  for (int d = 0; d < 4; ++d) {
    cfg.fleet.devices[static_cast<std::size_t>(d)].num_sms = sms[d];
    cfg.fleet.devices[static_cast<std::size_t>(d)].clock_ghz = ghz[d];
  }
}

// ---------------------------------------------------------------------------
// Grain partitioning (grid/grain.hpp).

TEST(Grain, PartitionCoversEveryCellExactlyOnce) {
  const Dataset ds = make_skewed_clusters(1500, 11);
  const GridIndex grid(ds, 0.03, nullptr);
  const std::vector<std::uint64_t> pw =
      point_workloads(grid, CellPattern::Full, nullptr);
  const std::vector<std::uint64_t> weights = grain_cell_weights(grid, pw);
  for (const std::size_t max_grains : {1u, 2u, 3u, 5u, 8u, 64u, 100000u}) {
    for (const bool weighted : {false, true}) {
      const auto grains = partition_grains(
          grid, weighted ? std::span<const std::uint64_t>(weights)
                         : std::span<const std::uint64_t>{},
          max_grains);
      ASSERT_FALSE(grains.empty());
      EXPECT_LE(grains.size(), std::min(max_grains, grid.cells().size()));
      // Contiguous cover of the cell array, grain point ranges matching
      // the underlying cell ranges, workloads summing to the total.
      std::size_t cell_cursor = 0;
      std::uint64_t total_weight = 0;
      for (const WorkGrain& g : grains) {
        EXPECT_EQ(g.cell_begin, cell_cursor);
        ASSERT_GT(g.cell_end, g.cell_begin);  // never an empty grain
        EXPECT_EQ(g.point_begin, grid.cells()[g.cell_begin].begin);
        EXPECT_EQ(g.point_end, grid.cells()[g.cell_end - 1].end);
        cell_cursor = g.cell_end;
        total_weight += g.workload;
      }
      EXPECT_EQ(cell_cursor, grid.cells().size());
      const std::uint64_t want =
          weighted ? std::accumulate(weights.begin(), weights.end(),
                                     std::uint64_t{0})
                   : grid.point_ids().size();
      EXPECT_EQ(total_weight, want);
    }
  }
}

TEST(Grain, CellWeightsAreWorkloadPlusOnePerPoint) {
  const Dataset ds = make_skewed_clusters(400, 3);
  const GridIndex grid(ds, 0.05, nullptr);
  const std::vector<std::uint64_t> pw =
      point_workloads(grid, CellPattern::Full, nullptr);
  const std::vector<std::uint64_t> weights = grain_cell_weights(grid, pw);
  ASSERT_EQ(weights.size(), grid.cells().size());
  for (std::size_t c = 0; c < grid.cells().size(); ++c) {
    std::uint64_t want = 0;
    for (const PointId p : grid.cell_points(c)) want += pw[p] + 1;
    EXPECT_EQ(weights[c], want) << "cell " << c;
  }
}

TEST(Grain, SingleHugeCellBecomesItsOwnGrain) {
  // One pile of duplicates (one cell with ~all the weight) plus a few
  // scattered points: the pile must not drag neighbours into its grain.
  Dataset ds(2);
  const double pile[] = {0.5, 0.5};
  for (int i = 0; i < 200; ++i) ds.push_back(pile);
  std::vector<double> p(2);
  for (int i = 0; i < 8; ++i) {
    p[0] = 10.0 + i;
    p[1] = 10.0;
    ds.push_back(p);
  }
  const GridIndex grid(ds, 0.1, nullptr);
  const std::vector<std::uint64_t> pw =
      point_workloads(grid, CellPattern::Full, nullptr);
  const std::vector<std::uint64_t> weights = grain_cell_weights(grid, pw);
  const auto grains = partition_grains(grid, weights, 4);
  // The pile's cell is the heaviest grain; it holds exactly one cell.
  const auto heaviest = std::max_element(
      grains.begin(), grains.end(),
      [](const WorkGrain& a, const WorkGrain& b) {
        return a.workload < b.workload;
      });
  EXPECT_EQ(heaviest->cells(), 1u);
  EXPECT_EQ(heaviest->points(), 200u);
}

// ---------------------------------------------------------------------------
// KernelStats composition: sequential merge sums makespans (batches on
// one device queue behind each other); merge_concurrent takes the max
// (devices overlap in time) while summing every throughput counter.

TEST(Fleet, MergeVsMergeConcurrentPinned) {
  simt::KernelStats a;
  a.launches = 2;
  a.warps_launched = 10;
  a.warp_steps = 100;
  a.active_lane_steps = 3100;
  a.busy_cycles = 900;
  a.makespan_cycles = 120;
  a.tail_idle_cycles = 30;
  a.atomics_executed = 7;
  a.results_emitted = 40;
  simt::KernelStats b;
  b.launches = 1;
  b.warps_launched = 4;
  b.warp_steps = 50;
  b.active_lane_steps = 1500;
  b.busy_cycles = 500;
  b.makespan_cycles = 200;
  b.tail_idle_cycles = 10;
  b.atomics_executed = 3;
  b.results_emitted = 25;

  simt::KernelStats seq = a;
  seq.merge(b);
  EXPECT_EQ(seq.makespan_cycles, 320u);  // queued: 120 + 200

  simt::KernelStats con = a;
  con.merge_concurrent(b);
  EXPECT_EQ(con.makespan_cycles, 200u);  // overlapped: max(120, 200)

  // Every other field sums identically under both compositions.
  EXPECT_EQ(con.launches, seq.launches);
  EXPECT_EQ(con.warps_launched, seq.warps_launched);
  EXPECT_EQ(con.warp_steps, seq.warp_steps);
  EXPECT_EQ(con.active_lane_steps, seq.active_lane_steps);
  EXPECT_EQ(con.busy_cycles, seq.busy_cycles);
  EXPECT_EQ(con.tail_idle_cycles, seq.tail_idle_cycles);
  EXPECT_EQ(con.atomics_executed, seq.atomics_executed);
  EXPECT_EQ(con.results_emitted, seq.results_emitted);
  EXPECT_EQ(seq.busy_cycles, 1400u);
  EXPECT_EQ(seq.launches, 3u);
}

// ---------------------------------------------------------------------------
// Config validators.

TEST(Fleet, DeviceConfigValidateRejectsEdgeCases) {
  simt::DeviceConfig ok;
  EXPECT_NO_THROW(ok.validate());

  simt::DeviceConfig d = ok;
  d.warp_size = 0;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.warp_size = 33;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.num_sms = 0;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.resident_warps_per_sm = 0;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.issue_width = 0;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.dispatch_window = 0;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.clock_ghz = 0.0;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.clock_ghz = -1.0;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.clock_ghz = std::numeric_limits<double>::infinity();
  EXPECT_THROW(d.validate(), CheckError);
}

TEST(Fleet, LaunchEntryValidatesDeviceConfig) {
  // The validator runs at launch entry, so a malformed device config
  // fails any join up front — not deep inside the simulator.
  Dataset ds(2);
  const double p[] = {0.0, 0.0};
  ds.push_back(p);
  SelfJoinConfig cfg = SelfJoinConfig::gpu_calc_global(0.1);
  cfg.device.clock_ghz = 0.0;
  EXPECT_THROW((void)self_join(ds, cfg), CheckError);
}

TEST(Fleet, FleetConfigValidateRejectsEdgeCases) {
  const simt::DeviceConfig base;
  simt::FleetConfig fc;
  EXPECT_NO_THROW(fc.validate(base));
  EXPECT_FALSE(fc.active());

  fc.num_devices = 0;
  EXPECT_THROW(fc.validate(base), CheckError);
  fc.num_devices = 2;
  fc.grains_per_device = 0;
  EXPECT_THROW(fc.validate(base), CheckError);
  fc.grains_per_device = 8;
  EXPECT_NO_THROW(fc.validate(base));
  EXPECT_TRUE(fc.active());

  // Override count must match num_devices.
  fc.devices.assign(3, base);
  EXPECT_THROW(fc.validate(base), CheckError);
  fc.devices.assign(2, base);
  EXPECT_NO_THROW(fc.validate(base));

  // Heterogeneity never extends to warp shape.
  fc.devices[1].warp_size = 16;
  EXPECT_THROW(fc.validate(base), CheckError);
  fc.devices[1].warp_size = base.warp_size;
  fc.devices[1].num_sms = 0;  // overrides are validated too
  EXPECT_THROW(fc.validate(base), CheckError);
}

TEST(Fleet, ResolveCopiesHostKnobsFromBase) {
  simt::DeviceConfig base;
  base.host.num_threads = 3;
  simt::FleetConfig fc;
  fc.num_devices = 2;
  fc.devices.assign(2, simt::DeviceConfig{});
  fc.devices[1].num_sms = 7;
  fc.devices[0].host.num_threads = 99;  // must be ignored
  const auto resolved = fc.resolve(base);
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0].host.num_threads, 3);
  EXPECT_EQ(resolved[1].host.num_threads, 3);
  EXPECT_EQ(resolved[1].num_sms, 7);

  fc.devices.clear();  // homogeneous: copies of base
  const auto homo = fc.resolve(base);
  ASSERT_EQ(homo.size(), 2u);
  EXPECT_EQ(homo[0].num_sms, base.num_sms);
}

// ---------------------------------------------------------------------------
// Bit-identity: every variant, homogeneous and heterogeneous fleets,
// against the single-device run and the brute-force oracle.

void fleet_matches_single(int devices, bool hetero, bool adaptive) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto c = make_adversarial_case(seed);
    for (auto& [name, base] : all_variants(c.epsilon)) {
      base.store_pairs = true;
      const SelfJoinOutput single = self_join(c.dataset, base);
      SelfJoinConfig cfg = fleet_cfg(base, devices, adaptive);
      if (hetero) make_hetero4(cfg);
      const SelfJoinOutput out = self_join(c.dataset, cfg);
      ASSERT_EQ(out.results.pairs(), single.results.pairs())
          << name << " devices=" << devices << " " << c.describe();
      EXPECT_EQ(out.stats.result_pairs, single.stats.result_pairs)
          << name << " " << c.describe();
      EXPECT_TRUE(out.stats.fleet.ran()) << name;
      EXPECT_EQ(out.stats.fleet.devices.size(),
                static_cast<std::size_t>(devices))
          << name;
    }
  }
}

TEST(Fleet, TwoDevicesBitIdenticalToSingle) {
  fleet_matches_single(2, /*hetero=*/false, /*adaptive=*/true);
}

TEST(Fleet, FourDevicesBitIdenticalToSingle) {
  fleet_matches_single(4, /*hetero=*/false, /*adaptive=*/true);
}

TEST(Fleet, HeterogeneousFourDevicesBitIdenticalToSingle) {
  fleet_matches_single(4, /*hetero=*/true, /*adaptive=*/true);
}

TEST(Fleet, StaticShardingBitIdenticalToSingle) {
  fleet_matches_single(4, /*hetero=*/false, /*adaptive=*/false);
}

TEST(Fleet, CountOnlyModeMatchesStoredPairs) {
  const auto c = make_adversarial_case(9);
  SelfJoinConfig cfg = fleet_cfg(SelfJoinConfig::combined(c.epsilon), 4);
  cfg.store_pairs = true;
  const std::uint64_t want = self_join(c.dataset, cfg).stats.result_pairs;
  cfg.store_pairs = false;
  const SelfJoinOutput counted = self_join(c.dataset, cfg);
  EXPECT_EQ(counted.stats.result_pairs, want);
  EXPECT_EQ(counted.results.count(), want);
  EXPECT_FALSE(counted.results.stores_pairs());
}

TEST(Fleet, DeterministicAcrossRuns) {
  const Dataset ds = make_skewed_clusters(800, 5);
  SelfJoinConfig cfg = fleet_cfg(SelfJoinConfig::combined(0.04), 4);
  make_hetero4(cfg);
  cfg.store_pairs = true;
  const SelfJoinOutput a = self_join(ds, cfg);
  const SelfJoinOutput b = self_join(ds, cfg);
  EXPECT_EQ(a.results.pairs(), b.results.pairs());
  EXPECT_EQ(a.stats.fleet.makespan_seconds, b.stats.fleet.makespan_seconds);
  EXPECT_EQ(a.stats.fleet.rebalances, b.stats.fleet.rebalances);
  EXPECT_EQ(a.stats.kernel.busy_cycles, b.stats.kernel.busy_cycles);
}

// ---------------------------------------------------------------------------
// Fleet stats coherence and the adaptive-vs-static comparison.

TEST(Fleet, StatsAreInternallyConsistent) {
  const Dataset ds = make_skewed_clusters(2000, 7);
  SelfJoinConfig cfg = fleet_cfg(SelfJoinConfig::combined(0.03), 4);
  const SelfJoinOutput out = self_join(ds, cfg);
  const simt::FleetStats& fs = out.stats.fleet;
  ASSERT_TRUE(fs.ran());
  ASSERT_EQ(fs.devices.size(), 4u);

  double max_busy = 0.0, sum_busy = 0.0, sum_tail = 0.0;
  std::uint64_t grains = 0;
  for (const simt::DeviceLoad& d : fs.devices) {
    max_busy = std::max(max_busy, d.busy_seconds);
    sum_busy += d.busy_seconds;
    sum_tail += d.tail_idle_seconds;
    grains += d.grains;
    EXPECT_NEAR(d.tail_idle_seconds, fs.makespan_seconds - d.busy_seconds,
                1e-12);
  }
  EXPECT_DOUBLE_EQ(fs.makespan_seconds, max_busy);
  EXPECT_NEAR(fs.tail_idle_seconds, sum_tail, 1e-12);
  EXPECT_EQ(grains, fs.num_grains);
  EXPECT_GT(fs.num_grains, 4u);  // adaptive: grains_per_device * devices
  const double mean = sum_busy / 4.0;
  EXPECT_NEAR(fs.imbalance, fs.makespan_seconds / mean, 1e-9);
  EXPECT_GE(fs.imbalance, 1.0);
  // The fleet's kernel seconds are the makespan, not the busy sum.
  EXPECT_DOUBLE_EQ(out.stats.kernel_seconds, fs.makespan_seconds);
  EXPECT_LE(out.stats.kernel_seconds, sum_busy);
  // Slot vectors are device-level now; empty by design on fleet runs.
  EXPECT_TRUE(out.stats.slots.empty());
}

TEST(Fleet, AdaptiveBeatsStaticOnHeterogeneousSkew) {
  // The acceptance benchmark: a skewed-cluster dataset on a
  // heterogeneous 4-device fleet. Static uniform sharding ignores both
  // the data skew and the device speeds; the LPT + measured-rate
  // rebalancer must win on makespan imbalance (and not lose makespan —
  // true once the dataset is large enough that per-launch overheads
  // stop dominating, ~6k points on this shape).
  const Dataset ds = make_skewed_clusters(10000, 13);
  SelfJoinConfig base = SelfJoinConfig::combined(0.03);

  SelfJoinConfig adaptive = base;
  make_hetero4(adaptive);
  SelfJoinConfig static_cfg = adaptive;
  static_cfg.fleet.adaptive = false;

  const SelfJoinOutput a = self_join(ds, adaptive);
  const SelfJoinOutput s = self_join(ds, static_cfg);
  ASSERT_TRUE(a.stats.fleet.ran());
  ASSERT_TRUE(s.stats.fleet.ran());
  EXPECT_EQ(a.stats.result_pairs, s.stats.result_pairs);
  EXPECT_GT(a.stats.fleet.rebalances, 0u);
  EXPECT_EQ(s.stats.fleet.rebalances, 0u);
  EXPECT_LT(a.stats.fleet.imbalance, s.stats.fleet.imbalance);
  EXPECT_LE(a.stats.fleet.makespan_seconds, s.stats.fleet.makespan_seconds);
}

// ---------------------------------------------------------------------------
// Observability: sj.fleet.* metrics, service accounting and snapshot.

TEST(Fleet, MetricsExported) {
  const Dataset ds = make_skewed_clusters(600, 17);
  obs::Registry reg;
  SelfJoinConfig cfg = fleet_cfg(SelfJoinConfig::work_queue_cfg(0.05), 2);
  cfg.metrics = &reg;
  const SelfJoinOutput out = self_join(ds, cfg);
  EXPECT_EQ(reg.gauge("sj.fleet.devices").value(), 2.0);
  EXPECT_EQ(reg.counter("sj.fleet.grains").value(),
            out.stats.fleet.num_grains);
  EXPECT_EQ(reg.counter("sj.fleet.rebalances").value(),
            out.stats.fleet.rebalances);
  EXPECT_DOUBLE_EQ(reg.gauge("sj.fleet.makespan_seconds").value(),
                   out.stats.fleet.makespan_seconds);
  EXPECT_DOUBLE_EQ(reg.gauge("sj.fleet.device_cov").value(),
                   out.stats.fleet.device_cov);
  EXPECT_DOUBLE_EQ(reg.gauge("sj.fleet.imbalance").value(),
                   out.stats.fleet.imbalance);
  // Single-device runs leave the family untouched.
  obs::Registry reg2;
  SelfJoinConfig single = SelfJoinConfig::work_queue_cfg(0.05);
  single.metrics = &reg2;
  (void)self_join(ds, single);
  EXPECT_FALSE(reg2.gauge("sj.fleet.devices").is_set());
}

TEST(Fleet, ServiceAccountsFleetRuns) {
  const Dataset ds = make_skewed_clusters(600, 19);
  obs::Registry reg;
  ServiceConfig scfg;
  scfg.obs.metrics = &reg;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  SelfJoinConfig cfg = fleet_cfg(SelfJoinConfig::combined(0.05), 2);
  const SelfJoinOutput out = svc.run(*sd, cfg);
  ASSERT_TRUE(out.stats.fleet.ran());

  const ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.fleet_runs, 1u);
  EXPECT_EQ(snap.fleet_rebalances, out.stats.fleet.rebalances);
  EXPECT_DOUBLE_EQ(snap.fleet_device_cov, out.stats.fleet.device_cov);
  EXPECT_DOUBLE_EQ(snap.fleet_imbalance, out.stats.fleet.imbalance);
  ASSERT_EQ(snap.fleet_devices.size(), 2u);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(snap.fleet_devices[d].device, static_cast<int>(d));
    EXPECT_EQ(snap.fleet_devices[d].grains,
              out.stats.fleet.devices[d].grains);
    EXPECT_DOUBLE_EQ(snap.fleet_devices[d].busy_seconds,
                     out.stats.fleet.devices[d].busy_seconds);
  }
  EXPECT_EQ(reg.counter("svc.fleet.runs").value(), 1u);
  EXPECT_EQ(reg.counter("svc.fleet.rebalances").value(),
            out.stats.fleet.rebalances);
  EXPECT_DOUBLE_EQ(reg.gauge("svc.fleet.device_cov").value(),
                   out.stats.fleet.device_cov);
  EXPECT_TRUE(
      reg.gauge(obs::labeled("svc.fleet.device_busy_seconds", {{"device", "0"}}))
          .is_set());

  // A second run accumulates; single-device runs do not.
  (void)svc.run(*sd, cfg);
  (void)svc.run(*sd, SelfJoinConfig::combined(0.05));
  EXPECT_EQ(svc.snapshot().fleet_runs, 2u);
  EXPECT_EQ(reg.counter("svc.fleet.runs").value(), 2u);
}

// ---------------------------------------------------------------------------
// Overflow recovery and cancellation on the fleet path: an injected
// detection capacity far below what planning assumed forces rollback
// and split-retry on every device. One-lane warps and one static grain
// per device make a grain's first launch span more than one warp block
// (simt::detail::kWarpBlock warps), so the overflow is caught by the
// abort hook mid-launch, not only at the launch's end.

SelfJoinConfig overflowing_fleet_cfg(SelfJoinConfig cfg, int devices,
                                     const Dataset* probe) {
  if (probe != nullptr) {
    cfg.mode = JoinMode::RxS;
    cfg.probe = probe;
  }
  cfg.store_pairs = true;
  cfg.device.warp_size = 1;
  cfg.fleet.num_devices = devices;
  cfg.fleet.adaptive = false;
  cfg.batching.inject_capacity = 3000;
  cfg.batching.max_overflow_retries = 1'000'000;
  return cfg;
}

TEST(Fleet, OverflowRecoveryMatchesUnbatchedSingleDevice) {
  const Dataset ds = gen_uniform(20'000, 2, 23, 0.0, 1.0);
  const Dataset probe = gen_uniform(20'000, 2, 29, 0.0, 1.0);
  const double eps = 0.01;
  const SelfJoinConfig variants[] = {SelfJoinConfig::work_queue_cfg(eps),
                                     SelfJoinConfig::sort_by_wl(eps)};
  for (const Dataset* p : {static_cast<const Dataset*>(nullptr), &probe}) {
    for (const SelfJoinConfig& base : variants) {
      SelfJoinConfig ref = base;
      if (p != nullptr) {
        ref.mode = JoinMode::RxS;
        ref.probe = p;
      }
      ref.store_pairs = true;
      ref.batching.enabled = false;
      const SelfJoinOutput want = self_join(ds, ref);
      for (const int devices : {2, 4}) {
        SCOPED_TRACE(std::string(p != nullptr ? "RxS" : "Self") +
                     (base.work_queue ? " work-queue" : " strided") +
                     " devices=" + std::to_string(devices));
        const SelfJoinConfig cfg = overflowing_fleet_cfg(base, devices, p);
        const SelfJoinOutput out = self_join(ds, cfg);
        ASSERT_TRUE(out.stats.fleet.ran());
        EXPECT_EQ(out.results.pairs(), want.results.pairs());
        EXPECT_EQ(out.stats.result_pairs, want.stats.result_pairs);
        EXPECT_GT(out.stats.overflow_retries, 0u);
        EXPECT_GT(out.stats.wasted.aborted_launches, 0u);
        EXPECT_LE(out.stats.max_batch_pairs, 3000u);
      }
    }
  }
}

TEST(Fleet, ExhaustedOverflowRetriesThrow) {
  const Dataset ds = make_skewed_clusters(1500, 23);
  for (const bool wq : {true, false}) {
    SelfJoinConfig cfg = overflowing_fleet_cfg(
        wq ? SelfJoinConfig::work_queue_cfg(0.03)
           : SelfJoinConfig::sort_by_wl(0.03),
        2, nullptr);
    cfg.batching.max_overflow_retries = 0;
    EXPECT_THROW((void)self_join(ds, cfg), OverflowError) << wq;
  }
}

TEST(Fleet, MidFlightCancelThrowsCancelled) {
  // A fleet run long enough (~1 s of kernel work) that the cancel lands
  // inside the execution stage, where the token is polled at grain,
  // batch and warp-block boundaries.
  const Dataset ds = gen_uniform(100'000, 2, 77, 0.0, 1.0);
  JoinService svc;
  const auto sd = svc.attach(ds);
  JoinRequest req;
  req.config = fleet_cfg(SelfJoinConfig::combined(0.05), 2);
  req.config.store_pairs = false;
  JoinService::Ticket t = svc.submit(sd, req);
  while (!t.started()) std::this_thread::yield();
  t.cancel();
  const JoinResponse r = t.get();
  EXPECT_EQ(r.status, JoinStatus::Cancelled);
  // The execution stage observed the token (the plan stage never polls
  // it): its breadcrumb is on the request's recorder trail.
  std::ostringstream os;
  svc.recorder().dump(os, r.request_id);
  EXPECT_NE(os.str().find(" cancelled value="), std::string::npos) << os.str();
}

TEST(Fleet, WeePercentUsesConfiguredWarpSize) {
  // The satellite bugfix pinned: wee_percent must divide by the run's
  // configured warp size. A warp_size=8 run with every lane active has
  // WEE 100%; the old hardcoded-32 computation reported 25%.
  Dataset ds(2);
  const double p[] = {0.0, 0.0};
  for (int i = 0; i < 64; ++i) ds.push_back(p);
  SelfJoinConfig cfg = SelfJoinConfig::gpu_calc_global(0.1);
  cfg.device.warp_size = 8;
  cfg.k = 1;
  const SelfJoinOutput out = self_join(ds, cfg);
  EXPECT_EQ(out.stats.warp_size, 8);
  EXPECT_GT(out.stats.wee_percent(), 99.0);
  EXPECT_LE(out.stats.wee_percent(), 100.0);
}

}  // namespace
}  // namespace gsj
