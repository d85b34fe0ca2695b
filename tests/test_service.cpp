// JoinService concurrency tests: the correctness bar is that any
// interleaving of concurrent clients is bit-identical to running the
// same requests serially on a cold engine. CI runs this suite under
// ThreadSanitizer (twice) in the service-stress job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sj/engine.hpp"
#include "sj/selfjoin.hpp"
#include "sj/service.hpp"

namespace gsj {
namespace {

/// One run's observable outcome: pairs, stats and the logical trace —
/// the byte-level identity witness.
struct RunRecord {
  SelfJoinOutput out;
  std::string trace_json;
};

RunRecord record_run(JoinService& svc, SharedDataset& sd, SelfJoinConfig cfg) {
  obs::Tracer tracer(obs::TimeMode::Logical);
  cfg.tracer = &tracer;
  RunRecord r;
  r.out = svc.run(sd, cfg);
  std::ostringstream os;
  tracer.write_chrome_json(os);
  r.trace_json = os.str();
  return r;
}

/// The serial oracle: the same request on a fresh, cold JoinEngine.
RunRecord record_cold_engine_run(const Dataset& ds, SelfJoinConfig cfg) {
  obs::Tracer tracer(obs::TimeMode::Logical);
  cfg.tracer = &tracer;
  JoinEngine engine;
  RunRecord r;
  r.out = engine.self_join(ds, cfg);
  std::ostringstream os;
  tracer.write_chrome_json(os);
  r.trace_json = os.str();
  return r;
}

void expect_bit_identical(const RunRecord& got, const RunRecord& want,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.out.results.pairs(), want.out.results.pairs());
  const auto& a = got.out.stats;
  const auto& b = want.out.stats;
  EXPECT_EQ(a.result_pairs, b.result_pairs);
  EXPECT_EQ(a.num_batches, b.num_batches);
  EXPECT_EQ(a.estimated_total_pairs, b.estimated_total_pairs);
  EXPECT_EQ(a.kernel.busy_cycles, b.kernel.busy_cycles);
  EXPECT_EQ(a.kernel.makespan_cycles, b.kernel.makespan_cycles);
  EXPECT_EQ(a.kernel.warps_launched, b.kernel.warps_launched);
  EXPECT_EQ(a.kernel.results_emitted, b.kernel.results_emitted);
  EXPECT_EQ(a.max_batch_pairs, b.max_batch_pairs);
  EXPECT_EQ(a.overflow_retries, b.overflow_retries);
  EXPECT_EQ(got.trace_json, want.trace_json);
}

/// The request mix one stress client issues: every variant, two radii,
/// sequential and host-parallel execution, multi-batch plans.
std::vector<SelfJoinConfig> client_mix() {
  std::vector<SelfJoinConfig> cfgs;
  for (const double eps : {0.03, 0.06}) {
    cfgs.push_back(SelfJoinConfig::gpu_calc_global(eps));
    cfgs.push_back(SelfJoinConfig::unicomp(eps));
    cfgs.push_back(SelfJoinConfig::lid_unicomp(eps));
    cfgs.push_back(SelfJoinConfig::sort_by_wl(eps));
    cfgs.push_back(SelfJoinConfig::work_queue_cfg(eps));
    cfgs.push_back(SelfJoinConfig::combined(eps));
  }
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    cfgs[i].store_pairs = true;
    // Small buffer -> several batches, so concurrent runs exercise the
    // multi-batch execution loop, not just one launch each.
    cfgs[i].batching.buffer_pairs = 20000;
    // Alternate sequential and host-parallel simulation so the pool
    // depot is exercised alongside the shared caches.
    cfgs[i].device.host.num_threads = (i % 2 == 0) ? 0 : 2;
  }
  return cfgs;
}

/// Input of a request that must still be running when a test acts on
/// it (pins a worker, or is cancelled mid-flight): about a second of
/// kernel work, which a cancel still stops within one warp block. A
/// small input would finish first on a fast host and turn a timing race
/// into the test's outcome.
Dataset long_run_dataset() { return gen_uniform(100'000, 2, 77, 0.0, 1.0); }

JoinRequest long_run_request() {
  JoinRequest r;
  r.config = SelfJoinConfig::combined(0.05);
  r.config.store_pairs = false;
  return r;
}

// ---------------------------------------------------------------------------
// The acceptance-bar stress: 4 client threads with mixed variants and
// epsilons against one service, plus a mid-flight cancellation riding
// the worker pool, all bit-identical to a serial cold-engine replay.

TEST(Service, ConcurrentClientsBitIdenticalToSerialColdReplay) {
  const Dataset ds = gen_uniform(1200, 2, /*seed=*/2025, 0.0, 1.0);
  const Dataset long_ds = long_run_dataset();
  JoinService svc;
  const auto sd = svc.attach(ds);

  constexpr int kClients = 4;
  const std::vector<SelfJoinConfig> mix = client_mix();
  std::vector<std::vector<RunRecord>> results(kClients);
  std::latch start(kClients);

  // One queued request cancelled genuinely mid-flight while the client
  // threads hammer the shared caches.
  JoinService::Ticket victim_ticket =
      svc.submit(svc.attach(long_ds), long_run_request());

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      start.arrive_and_wait();
      // Each client walks the mix at a different phase so distinct
      // (epsilon, variant) cells are in flight simultaneously.
      for (std::size_t i = 0; i < mix.size(); ++i) {
        const std::size_t j = (i + static_cast<std::size_t>(t) * 3) % mix.size();
        results[t].push_back(record_run(svc, *sd, mix[j]));
      }
    });
  }
  while (!victim_ticket.started()) std::this_thread::yield();
  victim_ticket.cancel();
  for (auto& c : clients) c.join();

  const JoinResponse victim_response = victim_ticket.get();
  EXPECT_EQ(victim_response.status, JoinStatus::Cancelled);

  // Serial replay: every request on its own cold engine.
  for (int t = 0; t < kClients; ++t) {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const std::size_t j = (i + static_cast<std::size_t>(t) * 3) % mix.size();
      const RunRecord want = record_cold_engine_run(ds, mix[j]);
      expect_bit_identical(results[t][i], want,
                           "client " + std::to_string(t) + " req " +
                               std::to_string(i) + " (" + mix[j].name() +
                               " eps=" + std::to_string(mix[j].epsilon) + ")");
    }
  }
}

// ---------------------------------------------------------------------------
// Single-flight: N clients racing on a cold cache build each artifact
// exactly once — the misses counter IS the build counter.

TEST(Service, SingleFlightBuildsEachArtifactOnce) {
  const Dataset ds = gen_uniform(3000, 2, 7, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  constexpr int kClients = 8;
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  std::latch start(kClients);
  std::vector<std::thread> clients;
  std::vector<std::uint64_t> pair_counts(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      start.arrive_and_wait();
      pair_counts[static_cast<std::size_t>(t)] =
          svc.run(*sd, cfg).stats.result_pairs;
    });
  }
  for (auto& c : clients) c.join();

  for (int t = 1; t < kClients; ++t) {
    EXPECT_EQ(pair_counts[static_cast<std::size_t>(t)], pair_counts[0]);
  }
  // Exactly one build per artifact; every other client was served from
  // the cache (including waiters that arrived while it was building).
  EXPECT_EQ(metrics.counter("sj.cache.grid.misses").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.cache.grid.hits").value(), kClients - 1u);
  EXPECT_EQ(metrics.counter("sj.cache.workload.misses").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.cache.order.misses").value(), 1u);
  EXPECT_EQ(sd->cached_grid_count(), 1u);
  EXPECT_EQ(sd->cached_plan_count(), 1u);
}

// ---------------------------------------------------------------------------
// Admission-queue semantics. A long-running "blocker" pins the single
// worker so queue behaviour is deterministic; it is cancelled once the
// interesting part is over.

JoinRequest make_request(const Dataset&, double eps, int priority) {
  JoinRequest r;
  r.config = SelfJoinConfig::combined(eps);
  r.config.store_pairs = false;
  r.priority = priority;
  return r;
}

TEST(Service, PriorityOrdersQueuedRequests) {
  const Dataset ds = gen_uniform(1500, 2, 11, 0.0, 1.0);
  const Dataset long_ds = long_run_dataset();
  ServiceConfig scfg;
  scfg.workers = 1;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  // Occupy the only worker, then queue low/mid/high priority requests
  // in worst-case submission order.
  JoinService::Ticket blocker =
      svc.submit(svc.attach(long_ds), long_run_request());
  while (!blocker.started()) std::this_thread::yield();
  JoinService::Ticket low = svc.submit(sd, make_request(ds, 0.02, 0));
  JoinService::Ticket mid = svc.submit(sd, make_request(ds, 0.02, 5));
  JoinService::Ticket high = svc.submit(sd, make_request(ds, 0.02, 10));
  EXPECT_EQ(svc.queue_depth(), 3u);
  blocker.cancel();

  const JoinResponse rb = blocker.get();
  EXPECT_EQ(rb.status, JoinStatus::Cancelled);
  const JoinResponse rl = low.get();
  const JoinResponse rm = mid.get();
  const JoinResponse rh = high.get();
  ASSERT_EQ(rl.status, JoinStatus::Ok);
  ASSERT_EQ(rm.status, JoinStatus::Ok);
  ASSERT_EQ(rh.status, JoinStatus::Ok);
  // A single worker dequeues strictly by priority, and wait time is
  // measured at dequeue — so the waits order inversely to priority
  // regardless of scheduling jitter.
  EXPECT_LT(rh.wait_seconds, rm.wait_seconds);
  EXPECT_LT(rm.wait_seconds, rl.wait_seconds);
}

TEST(Service, DeadlineExpiresInQueue) {
  const Dataset ds = gen_uniform(1500, 2, 12, 0.0, 1.0);
  const Dataset long_ds = long_run_dataset();
  ServiceConfig scfg;
  scfg.workers = 1;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  JoinService::Ticket blocker =
      svc.submit(svc.attach(long_ds), long_run_request());
  while (!blocker.started()) std::this_thread::yield();
  JoinRequest doomed = make_request(ds, 0.02, 0);
  doomed.deadline_seconds = 0.0;  // any queue wait at all exceeds this
  JoinService::Ticket t = svc.submit(sd, doomed);
  blocker.cancel();
  (void)blocker.get();

  const JoinResponse r = t.get();
  EXPECT_EQ(r.status, JoinStatus::Expired);
  EXPECT_FALSE(t.started());
}

TEST(Service, CancelledWhileQueuedNeverRuns) {
  const Dataset ds = gen_uniform(1500, 2, 13, 0.0, 1.0);
  const Dataset long_ds = long_run_dataset();
  ServiceConfig scfg;
  scfg.workers = 1;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  JoinService::Ticket blocker =
      svc.submit(svc.attach(long_ds), long_run_request());
  while (!blocker.started()) std::this_thread::yield();
  JoinService::Ticket t = svc.submit(sd, make_request(ds, 0.02, 0));
  t.cancel();  // still queued: the worker is pinned by the blocker
  blocker.cancel();
  (void)blocker.get();

  const JoinResponse r = t.get();
  EXPECT_EQ(r.status, JoinStatus::Cancelled);
  EXPECT_FALSE(t.started());
}

TEST(Service, MidFlightCancellationAbortsTheRun) {
  const Dataset ds = long_run_dataset();
  JoinService svc;
  const auto sd = svc.attach(ds);

  // A run long enough that the cancel lands while the launch loop is
  // executing (the token is polled at every warp-block and batch
  // boundary).
  JoinService::Ticket t = svc.submit(sd, long_run_request());
  while (!t.started()) std::this_thread::yield();
  t.cancel();
  const JoinResponse r = t.get();
  EXPECT_EQ(r.status, JoinStatus::Cancelled);
  EXPECT_TRUE(t.started());
}

TEST(Service, FullQueueRejectsImmediately) {
  const Dataset ds = gen_uniform(1500, 2, 15, 0.0, 1.0);
  const Dataset long_ds = long_run_dataset();
  ServiceConfig scfg;
  scfg.workers = 1;
  scfg.max_queue_depth = 1;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  JoinService::Ticket blocker =
      svc.submit(svc.attach(long_ds), long_run_request());
  while (!blocker.started()) std::this_thread::yield();
  JoinService::Ticket queued = svc.submit(sd, make_request(ds, 0.02, 0));
  JoinService::Ticket overflow = svc.submit(sd, make_request(ds, 0.02, 0));
  const JoinResponse r = overflow.get();  // ready immediately
  EXPECT_EQ(r.status, JoinStatus::Rejected);

  queued.cancel();
  blocker.cancel();
  (void)blocker.get();
  (void)queued.get();
}

// ---------------------------------------------------------------------------
// The thread_local-engine regression (PR 5): resident working memory is
// bounded by the service depots, not by how many threads ever joined.

TEST(Service, ShortLivedThreadsDoNotGrowResidentState) {
  const Dataset ds = gen_uniform(400, 2, 16, 0.0, 1.0);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.device.host.num_threads = 2;  // exercise the pool depot too

  const auto spin_threads = [&](int n) {
    for (int i = 0; i < n; ++i) {
      std::thread([&] { (void)self_join(ds, cfg); }).join();
    }
  };

  JoinService& svc = JoinService::shared();
  spin_threads(4);
  const std::size_t arenas_after_4 = svc.resident_arenas();
  const std::size_t pools_after_4 = svc.resident_thread_pools();
  spin_threads(28);
  // With one thread_local engine per caller this grew linearly in the
  // number of threads; through the shared service it stays flat.
  EXPECT_EQ(svc.resident_arenas(), arenas_after_4);
  EXPECT_EQ(svc.resident_thread_pools(), pools_after_4);
  EXPECT_LE(svc.resident_arenas(), svc.config().max_pooled_arenas);
  EXPECT_LE(svc.resident_thread_pools(),
            svc.config().max_pooled_thread_pools);
}

// ---------------------------------------------------------------------------
// Sequential API semantics of the service layer.

TEST(Service, OneShotSelfJoinMatchesSharedRun) {
  const Dataset ds = gen_uniform(900, 2, 18, 0.0, 1.0);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.store_pairs = true;
  JoinService svc;
  const auto sd = svc.attach(ds);
  const SelfJoinOutput via_run = svc.run(*sd, cfg);
  const SelfJoinOutput one_shot = svc.self_join(ds, cfg);
  EXPECT_EQ(one_shot.results.pairs(), via_run.results.pairs());
  EXPECT_EQ(one_shot.stats.kernel.busy_cycles,
            via_run.stats.kernel.busy_cycles);
  // The ephemeral one-shot shell leaves no artifacts behind; the shared
  // handle keeps its single grid/plan.
  EXPECT_EQ(sd->cached_grid_count(), 1u);
  EXPECT_EQ(sd->cached_plan_count(), 1u);
}

TEST(Service, ConcurrentDistinctEpsilonsBuildEachGridOnce) {
  const Dataset ds = gen_uniform(2000, 2, 19, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  // Two racing clients per epsilon: single-flight must still build
  // each of the three grids exactly once.
  const double epsilons[] = {0.02, 0.04, 0.08};
  constexpr int kClients = 6;
  std::latch start(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      SelfJoinConfig cfg = SelfJoinConfig::unicomp(epsilons[t % 3]);
      start.arrive_and_wait();
      (void)svc.run(*sd, cfg);
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(metrics.counter("sj.cache.grid.misses").value(), 3u);
  EXPECT_EQ(metrics.counter("sj.cache.grid.hits").value(), 3u);
  EXPECT_EQ(sd->cached_grid_count(), 3u);
}

TEST(Service, CacheEvictionRespectsBounds) {
  const Dataset ds = gen_uniform(1000, 2, 20, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.max_cached_grids = 2;
  scfg.max_cached_plans = 2;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);
  for (const double eps : {0.01, 0.02, 0.03, 0.04, 0.05}) {
    (void)svc.run(*sd, SelfJoinConfig::sort_by_wl(eps));
  }
  EXPECT_LE(sd->cached_grid_count(), 2u);
  EXPECT_LE(sd->cached_plan_count(), 2u);
  EXPECT_GE(metrics.counter("sj.cache.evictions").value(), 3u);
}

TEST(Service, MutationRepairsSharedCachesInPlace) {
  Dataset ds = gen_uniform(800, 2, 21, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.store_pairs = true;
  const SelfJoinOutput before = svc.run(*sd, cfg);
  ds.set_coord(0, 0, ds.coord(0, 0));  // a self-move still bumps the generation
  const SelfJoinOutput after = svc.run(*sd, cfg);
  // The logged move repairs the shared grid in place: the second run is
  // a cache hit on the repaired artifact, nothing is dropped.
  EXPECT_EQ(metrics.counter("sj.cache.invalidations").value(), 0u);
  EXPECT_GE(metrics.counter("sj.incr.repairs").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.cache.grid.misses").value(), 1u);
  EXPECT_GE(metrics.counter("sj.cache.grid.hits").value(), 1u);
  EXPECT_EQ(before.results.pairs(), after.results.pairs());

  // A bulk load loses the mutation window: the shared grid rebuilds and
  // dependent plans drop — full invalidation is now the fallback.
  { auto col = ds.fill_dim(0); (void)col; }
  const SelfJoinOutput rebuilt = svc.run(*sd, cfg);
  EXPECT_GE(metrics.counter("sj.incr.rebuild_fallbacks").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.cache.invalidations").value(), 1u);
  EXPECT_EQ(after.results.pairs(), rebuilt.results.pairs());
}

TEST(Service, AttachedDatasetsHaveIndependentCaches) {
  const Dataset a = gen_uniform(600, 2, 22, 0.0, 1.0);
  const Dataset b = gen_uniform(700, 3, 23, 0.0, 1.0);
  JoinService svc;
  const auto sa = svc.attach(a);
  const auto sb = svc.attach(b);
  SelfJoinConfig cfg = SelfJoinConfig::unicomp(0.06);
  cfg.store_pairs = true;
  const SelfJoinOutput ra = svc.run(*sa, cfg);
  const SelfJoinOutput rb = svc.run(*sb, cfg);
  EXPECT_EQ(sa->cached_grid_count(), 1u);
  EXPECT_EQ(sb->cached_grid_count(), 1u);
  // Same config, different datasets: results must come from the right
  // cache shell.
  JoinEngine engine;
  EXPECT_EQ(ra.results.pairs(), engine.self_join(a, cfg).results.pairs());
  EXPECT_EQ(rb.results.pairs(), engine.self_join(b, cfg).results.pairs());
}

TEST(Service, RecycleKeepsSubsequentRunsCorrect) {
  const Dataset ds = gen_uniform(800, 2, 24, 0.0, 1.0);
  JoinService svc;
  const auto sd = svc.attach(ds);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.store_pairs = true;
  SelfJoinOutput first = svc.run(*sd, cfg);
  const auto want = first.results.pairs();
  svc.recycle(std::move(first));
  const SelfJoinOutput second = svc.run(*sd, cfg);
  EXPECT_EQ(second.results.pairs(), want);
}

TEST(Service, GenerousDeadlineCompletes) {
  const Dataset ds = gen_uniform(600, 2, 25, 0.0, 1.0);
  JoinService svc;
  const auto sd = svc.attach(ds);
  JoinRequest req = make_request(ds, 0.05, 0);
  req.deadline_seconds = 3600.0;
  JoinService::Ticket t = svc.submit(sd, req);
  const JoinResponse r = t.get();
  EXPECT_EQ(r.status, JoinStatus::Ok);
}

TEST(Service, CancelAfterCompletionIsBenign) {
  const Dataset ds = gen_uniform(600, 2, 26, 0.0, 1.0);
  JoinService svc;
  const auto sd = svc.attach(ds);
  JoinService::Ticket t = svc.submit(sd, make_request(ds, 0.05, 0));
  const JoinResponse r = t.get();
  EXPECT_EQ(r.status, JoinStatus::Ok);
  t.cancel();  // the race with completion is documented as benign
}

TEST(Service, DestructorDrainsOutstandingQueue) {
  const Dataset ds = gen_uniform(600, 2, 27, 0.0, 1.0);
  std::vector<JoinService::Ticket> tickets;
  {
    ServiceConfig scfg;
    scfg.workers = 1;
    JoinService svc(scfg);
    const auto sd = svc.attach(ds);
    for (int i = 0; i < 4; ++i) {
      tickets.push_back(svc.submit(sd, make_request(ds, 0.03, i)));
    }
    // Service destroyed with requests still queued: the shutdown
    // contract is drain-then-join, so every ticket gets an answer.
  }
  for (auto& t : tickets) {
    EXPECT_EQ(t.get().status, JoinStatus::Ok);
  }
}

TEST(Service, MixedPrioritySubmitStormAllReachTerminalStates) {
  const Dataset ds = gen_uniform(700, 2, 28, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.workers = 4;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  constexpr int kRequests = 32;
  std::vector<JoinService::Ticket> tickets;
  for (int i = 0; i < kRequests; ++i) {
    tickets.push_back(svc.submit(sd, make_request(ds, 0.02 + (i % 3) * 0.02,
                                                  /*priority=*/i % 4)));
    if (i % 5 == 0) tickets.back().cancel();
  }
  std::uint64_t ok = 0, cancelled = 0;
  for (auto& t : tickets) {
    const JoinResponse r = t.get();
    ASSERT_TRUE(r.status == JoinStatus::Ok ||
                r.status == JoinStatus::Cancelled)
        << to_string(r.status) << " " << r.error;
    (r.status == JoinStatus::Ok ? ok : cancelled) += 1;
  }
  EXPECT_EQ(ok + cancelled, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(metrics.counter("svc.submitted").value(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(metrics.counter("svc.completed").value(), ok);
  EXPECT_EQ(metrics.counter("svc.cancelled").value(), cancelled);
  EXPECT_EQ(svc.queue_depth(), 0u);
}

TEST(Service, QueueDepthReturnsToZeroAfterDraining) {
  const Dataset ds = gen_uniform(600, 2, 29, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.workers = 2;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);
  std::vector<JoinService::Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(svc.submit(sd, make_request(ds, 0.04, 0)));
  }
  for (auto& t : tickets) (void)t.get();
  EXPECT_EQ(svc.queue_depth(), 0u);
  EXPECT_EQ(metrics.gauge("svc.queue_depth").value(), 0.0);
}

// ---------------------------------------------------------------------------
// Service metrics: the svc.* instruments reflect the request stream.

TEST(Service, MetricsCountTerminalStates) {
  const Dataset ds = gen_uniform(800, 2, 17, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.workers = 2;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  std::vector<JoinService::Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(svc.submit(sd, make_request(ds, 0.05, 0)));
  }
  for (auto& t : tickets) {
    const JoinResponse r = t.get();
    EXPECT_EQ(r.status, JoinStatus::Ok);
    EXPECT_GE(r.service_seconds, 0.0);
  }
  EXPECT_EQ(metrics.counter("svc.submitted").value(), 4u);
  EXPECT_EQ(metrics.counter("svc.completed").value(), 4u);
  EXPECT_EQ(metrics.counter("svc.cancelled").value(), 0u);
  EXPECT_EQ(metrics.time_histogram("svc.queue_wait_seconds").total(), 4u);
  EXPECT_EQ(metrics.time_histogram("svc.service_seconds").total(), 4u);
  EXPECT_TRUE(metrics.gauge("svc.queue_depth").is_set());
}

// ---------------------------------------------------------------------------
// Result-serving layer (docs/SERVICE.md): request coalescing, the
// exact-hit result cache, byte-budget eviction and generation
// invalidation. Differential subsumption coverage lives in
// test_differential.cpp.

TEST(Service, ResultCoalescingExecutesOnce) {
  const Dataset ds = gen_uniform(2500, 2, 31, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.workers = 4;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.store_pairs = true;
  constexpr int kRequests = 8;
  std::vector<JoinService::Ticket> tickets;
  for (int i = 0; i < kRequests; ++i) {
    JoinRequest req;
    req.config = cfg;
    tickets.push_back(svc.submit(sd, req));
  }
  JoinEngine engine;
  const SelfJoinOutput want = engine.self_join(ds, cfg);

  int executed = 0;
  for (auto& t : tickets) {
    const JoinResponse r = t.get();
    ASSERT_EQ(r.status, JoinStatus::Ok) << r.error;
    EXPECT_EQ(r.output.results.pairs(), want.results.pairs());
    EXPECT_EQ(r.output.stats.result_pairs, want.stats.result_pairs);
    if (r.breakdown.served_from == obs::ServedFrom::Execution) ++executed;
  }
  // The result gate decides exact-hit / attach / primary inside one
  // critical section, and publish swaps flight -> cache entry
  // atomically: however the 4 workers interleave, exactly one request
  // executes and the other seven attach to its flight or hit the
  // published entry.
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(metrics.counter("svc.result_cache.misses").value(), 1u);
  EXPECT_EQ(metrics.counter("svc.result_cache.hits").value() +
                metrics.counter("svc.result_cache.coalesced").value(),
            static_cast<std::uint64_t>(kRequests - 1));
  // Served responses still count as completed requests.
  EXPECT_EQ(metrics.counter("svc.completed").value(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(metrics.time_histogram("svc.service_seconds").total(),
            static_cast<std::uint64_t>(kRequests));
}

TEST(Service, ResultCacheServesExactRepeatVariantAgnostic) {
  const Dataset ds = gen_uniform(1000, 2, 32, 0.0, 1.0);
  JoinService svc;
  const auto sd = svc.attach(ds);

  JoinRequest req;
  req.config = SelfJoinConfig::unicomp(0.05);
  req.config.store_pairs = true;
  const JoinResponse cold = svc.submit(sd, req).get();
  ASSERT_EQ(cold.status, JoinStatus::Ok) << cold.error;
  EXPECT_EQ(cold.breakdown.served_from, obs::ServedFrom::Execution);

  const JoinResponse warm = svc.submit(sd, req).get();
  ASSERT_EQ(warm.status, JoinStatus::Ok) << warm.error;
  EXPECT_EQ(warm.breakdown.served_from, obs::ServedFrom::ResultCache);
  EXPECT_EQ(warm.output.results.pairs(), cold.output.results.pairs());

  // The key is variant-agnostic: a different kernel variant at the same
  // epsilon is the same answer, so it is served, not executed.
  JoinRequest other_variant;
  other_variant.config = SelfJoinConfig::work_queue_cfg(0.05);
  other_variant.config.store_pairs = true;
  const JoinResponse across = svc.submit(sd, other_variant).get();
  ASSERT_EQ(across.status, JoinStatus::Ok) << across.error;
  EXPECT_EQ(across.breakdown.served_from, obs::ServedFrom::ResultCache);
  EXPECT_EQ(across.output.results.pairs(), cold.output.results.pairs());

  // A count-only request is servable from a pairs-bearing entry.
  JoinRequest count_only;
  count_only.config = SelfJoinConfig::combined(0.05);
  count_only.config.store_pairs = false;
  const JoinResponse counted = svc.submit(sd, count_only).get();
  ASSERT_EQ(counted.status, JoinStatus::Ok) << counted.error;
  EXPECT_EQ(counted.breakdown.served_from, obs::ServedFrom::ResultCache);
  EXPECT_FALSE(counted.output.results.stores_pairs());
  EXPECT_EQ(counted.output.results.count(), cold.output.results.count());

  // Occupancy surfaces through both the handle and the snapshot.
  EXPECT_EQ(sd->result_cache_entries(), 1u);
  EXPECT_GT(sd->result_cache_bytes(), 0u);
  const ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.result_entries, 1u);
  EXPECT_EQ(snap.result_bytes, sd->result_cache_bytes());
  EXPECT_EQ(snap.result_budget_bytes, svc.config().max_result_cache_bytes);
}

TEST(Service, ResultCacheEvictionUnderLoadStaysCorrect) {
  const Dataset ds = gen_uniform(1200, 2, 33, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.workers = 4;
  // A budget that holds only a couple of the five answers below, so
  // concurrent serving and LRU eviction constantly interleave. Entries
  // being served are pinned by shared_ptr: eviction only drops the
  // cache's reference, never the bytes under an in-flight response.
  scfg.max_result_cache_bytes = std::size_t{96} * 1024;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  const std::vector<double> epsilons = {0.01, 0.02, 0.03, 0.04, 0.05};
  JoinEngine engine;
  std::vector<std::vector<ResultPair>> want;
  for (const double eps : epsilons) {
    SelfJoinConfig cfg = SelfJoinConfig::combined(eps);
    cfg.store_pairs = true;
    want.push_back(engine.self_join(ds, cfg).results.pairs());
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::vector<std::vector<JoinResponse>> responses(kThreads);
  std::vector<std::vector<std::size_t>> eps_index(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int r = 0; r < kRounds; ++r) {
        // Phase-shifted walk: distinct epsilons are in flight at once,
        // so inserts evict entries other threads are serving from.
        const std::size_t j =
            (static_cast<std::size_t>(r) + static_cast<std::size_t>(t) * 2) %
            epsilons.size();
        JoinRequest req;
        req.config = SelfJoinConfig::combined(epsilons[j]);
        req.config.store_pairs = true;
        responses[t].push_back(svc.submit(sd, req).get());
        eps_index[t].push_back(j);
      }
    });
  }
  for (auto& c : clients) c.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      const JoinResponse& resp = responses[t][static_cast<std::size_t>(r)];
      ASSERT_EQ(resp.status, JoinStatus::Ok)
          << "client " << t << " round " << r << ": " << resp.error;
      EXPECT_EQ(resp.output.results.pairs(),
                want[eps_index[t][static_cast<std::size_t>(r)]])
          << "client " << t << " round " << r;
    }
  }
  EXPECT_GT(metrics.counter("svc.result_cache.evictions").value(), 0u);
  // The byte budget held throughout: whatever survived fits under it.
  EXPECT_LE(sd->result_cache_bytes(), scfg.max_result_cache_bytes);
  EXPECT_EQ(svc.snapshot().result_bytes, sd->result_cache_bytes());
}

TEST(Service, ZeroResultBudgetDisablesRetentionNotCoalescing) {
  const Dataset ds = gen_uniform(2500, 2, 34, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.workers = 4;
  scfg.max_result_cache_bytes = 0;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  SelfJoinConfig cfg = SelfJoinConfig::sort_by_wl(0.05);
  cfg.store_pairs = true;
  constexpr int kRequests = 8;
  std::vector<JoinService::Ticket> tickets;
  for (int i = 0; i < kRequests; ++i) {
    JoinRequest req;
    req.config = cfg;
    tickets.push_back(svc.submit(sd, req));
  }
  std::vector<JoinResponse> responses;
  for (auto& t : tickets) responses.push_back(t.get());
  for (const JoinResponse& r : responses) {
    ASSERT_EQ(r.status, JoinStatus::Ok) << r.error;
    EXPECT_EQ(r.output.results.pairs(), responses[0].output.results.pairs());
  }
  // No retention: nothing is ever an exact hit, and nothing is kept.
  EXPECT_EQ(metrics.counter("svc.result_cache.hits").value(), 0u);
  // Single-flight attachment still works — every request either misses
  // (and executes) or rides an in-flight duplicate.
  EXPECT_EQ(metrics.counter("svc.result_cache.misses").value() +
                metrics.counter("svc.result_cache.coalesced").value(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(sd->result_cache_entries(), 0u);
  EXPECT_EQ(sd->result_cache_bytes(), 0u);

  // A serial repeat with no duplicate in flight executes again.
  JoinRequest again;
  again.config = cfg;
  const JoinResponse repeat = svc.submit(sd, again).get();
  ASSERT_EQ(repeat.status, JoinStatus::Ok) << repeat.error;
  EXPECT_EQ(repeat.breakdown.served_from, obs::ServedFrom::Execution);
}

TEST(Service, MutationInvalidatesResultCache) {
  Dataset ds = gen_uniform(900, 2, 35, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  JoinRequest req;
  req.config = SelfJoinConfig::combined(0.05);
  req.config.store_pairs = true;
  const JoinResponse first = svc.submit(sd, req).get();
  ASSERT_EQ(first.status, JoinStatus::Ok) << first.error;
  EXPECT_EQ(first.breakdown.served_from, obs::ServedFrom::Execution);
  const JoinResponse cached = svc.submit(sd, req).get();
  ASSERT_EQ(cached.status, JoinStatus::Ok) << cached.error;
  EXPECT_EQ(cached.breakdown.served_from, obs::ServedFrom::ResultCache);

  ds.set_coord(0, 0, ds.coord(0, 0));  // a self-move still bumps the generation

  // The stale-generation entry must never serve the new dataset state.
  const JoinResponse fresh = svc.submit(sd, req).get();
  ASSERT_EQ(fresh.status, JoinStatus::Ok) << fresh.error;
  EXPECT_EQ(fresh.breakdown.served_from, obs::ServedFrom::Execution);
  // The value-preserving write keeps the answer itself unchanged.
  EXPECT_EQ(fresh.output.results.pairs(), first.output.results.pairs());
  EXPECT_GE(metrics.counter("svc.result_cache.invalidations").value(), 1u);
  // The fresh execution repopulated the cache under the new generation.
  EXPECT_EQ(sd->result_cache_entries(), 1u);
}

TEST(Service, ResultSetMemoryBytesTracksCapacity) {
  ResultSet rs(true);
  EXPECT_EQ(rs.memory_bytes(), 0u);
  rs.reserve(100);
  EXPECT_GE(rs.memory_bytes(), 100u * sizeof(ResultPair));
  rs.emit(1, 2);
  EXPECT_EQ(rs.memory_bytes(), rs.pairs().capacity() * sizeof(ResultPair));
  // Count-only mode holds no pair storage, whatever is reserved.
  ResultSet counts(false);
  counts.add_count(5);
  counts.reserve(1000);
  EXPECT_EQ(counts.memory_bytes(), 0u);
}

}  // namespace
}  // namespace gsj
