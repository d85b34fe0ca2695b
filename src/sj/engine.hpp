// JoinEngine: the single-threaded session API over the artifact store.
//
// The one-shot self_join(ds, cfg) rebuilds every plan artifact — the
// epsilon grid, per-point workloads, the workload-sorted order D', the
// result-size estimate — on each call. Parameter sweeps (multi-epsilon,
// multi-variant — the paper's Tables IV–VI and every figure bench)
// repeat that host-side work even though most artifacts depend only on
// (dataset, epsilon) or (dataset, epsilon, pattern).
//
//   prepare(ds)        -> PreparedDataset   dataset admission
//   run(prepared, cfg) -> SelfJoinOutput    cache-served plan + batched
//                                           execution
//   delta_join(...)    -> PairDelta         churn delta through the cache
//
// JoinEngine is a facade: it owns a private JoinService (sj/service.hpp)
// configured from EngineConfig, a PreparedDataset holds that service's
// SharedDataset, and run/self_join/recycle/delta_join forward to the
// service. There is one artifact cache and one churn-repair path
// (JoinService::sync_shared), so an engine run and a service run of the
// same request are the same code — see docs/SERVICE.md for the cache
// keys, LRU bounds and clone-and-repair under churn, and docs/ENGINE.md
// for this API.
//
// Correctness bar: a cache-served run is bit-identical to a cold run —
// same result pairs, same SelfJoinStats, and byte-identical logical
// traces — for every variant, at any host thread count. The per-run
// channel (SelfJoinConfig::tracer / ::metrics) sees the same spans and
// counters on a hit as on a miss; the engine's own channel
// (EngineConfig::obs) carries the cache story.
//
// Thread safety: a JoinEngine and its PreparedDatasets are meant for
// one owner thread at a time (the store underneath is locked, so
// uncontended locks are all it costs). Concurrent callers belong on
// JoinService directly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "obs/context.hpp"
#include "sj/delta.hpp"
#include "sj/selfjoin.hpp"
#include "sj/service.hpp"

namespace gsj {

class ThreadPool;

/// Maps onto the private service's ServiceConfig field by field.
struct EngineConfig {
  /// Bound on cached GridIndex instances per PreparedDataset (one per
  /// distinct epsilon); least-recently-used beyond it. Clamped to >= 1.
  std::size_t max_cached_grids = 4;
  /// Bound on cached workload/order entries per PreparedDataset (one
  /// per distinct (grid, pattern)); LRU beyond it. Clamped to >= 1.
  std::size_t max_cached_plans = 8;

  // --- the engine's own observability channel (optional, non-owning).
  // Deliberately separate from the per-run SelfJoinConfig sinks so that
  // cache-dependent events never perturb per-run traces. The same
  // ObsContext value can be handed to a ServiceConfig, so an engine and
  // a service share one registry by construction (obs/context.hpp). ---
  /// obs.tracer receives "prepare" spans and a "plan_reuse" span per
  /// cache-served run; obs.metrics receives the "sj.cache.*" counters
  /// (aggregate and per-artifact hits/misses, evictions,
  /// invalidations), the "sj.incr.*" churn-repair and delta counters,
  /// and the "svc.fleet.*" family for fleet runs. obs.recorder, when
  /// set, replaces the private service's flight recorder.
  obs::ObsContext obs;
};

class JoinEngine;

/// A dataset admitted to an engine: a handle on its SharedDataset in
/// the engine's store. Holds a reference to the Dataset — it must
/// outlive this object. Move-only; create via JoinEngine::prepare.
class PreparedDataset {
 public:
  PreparedDataset(PreparedDataset&&) noexcept = default;
  PreparedDataset& operator=(PreparedDataset&&) noexcept = default;
  PreparedDataset(const PreparedDataset&) = delete;
  PreparedDataset& operator=(const PreparedDataset&) = delete;

  [[nodiscard]] const Dataset& dataset() const noexcept {
    return sd_->dataset();
  }
  /// Dataset generation captured at the last cache sync; a mismatch
  /// with dataset().generation() means the caches are repaired on the
  /// next run or delta_join.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return sd_->generation();
  }
  [[nodiscard]] std::size_t cached_grid_count() const noexcept {
    return sd_->cached_grid_count();
  }
  [[nodiscard]] std::size_t cached_plan_count() const noexcept {
    return sd_->cached_plan_count();
  }

 private:
  friend class JoinEngine;
  explicit PreparedDataset(std::shared_ptr<SharedDataset> sd)
      : sd_(std::move(sd)) {}

  std::shared_ptr<SharedDataset> sd_;
};

class JoinEngine {
 public:
  explicit JoinEngine(EngineConfig cfg = {});
  ~JoinEngine();
  JoinEngine(const JoinEngine&) = delete;
  JoinEngine& operator=(const JoinEngine&) = delete;

  /// Admits a dataset: attaches it to the engine's store and returns
  /// an empty cache shell; artifacts are built (and cached) lazily by
  /// run().
  /// The dataset must outlive the returned PreparedDataset.
  [[nodiscard]] PreparedDataset prepare(const Dataset& ds);

  /// Runs one self-join against the prepared dataset, serving every
  /// plan artifact from the cache when warm. Identical contract to the
  /// free self_join (same validation, same OverflowError behaviour) and
  /// bit-identical output to a cold run.
  [[nodiscard]] SelfJoinOutput run(PreparedDataset& prep,
                                   const SelfJoinConfig& cfg);

  /// One-shot convenience: prepare + run on a fresh PreparedDataset.
  /// No plan caching across calls, but the store's pooled host pools
  /// and scratch arenas are still reused.
  [[nodiscard]] SelfJoinOutput self_join(const Dataset& ds,
                                         const SelfJoinConfig& cfg);

  /// Streaming delta join (docs/STREAMING.md): JoinService::delta_join
  /// on the prepared dataset — the exact gained/lost ordered-pair sets
  /// of the `epsilon` self-join across [from_generation, now], or
  /// nullopt when the mutation window is unavailable (the caller then
  /// falls back to a full join).
  [[nodiscard]] std::optional<PairDelta> delta_join(
      PreparedDataset& prep, double epsilon, std::uint64_t from_generation);

  /// Reclaims a consumed output's allocations (pair buffer, batch
  /// stats, slot vectors) into the store's idle scratch arena.
  void recycle(SelfJoinOutput&& out);

  /// An engine-owned host pool with `num_threads` workers, created on
  /// first use and cached for the engine's lifetime, for callers that
  /// pass an explicit pool (DeviceConfig::host.pool). Runs that ask for
  /// threads without one lease a pooled one from the store.
  /// Requires num_threads > 0.
  [[nodiscard]] ThreadPool* pool(int num_threads);

  [[nodiscard]] const EngineConfig& config() const noexcept { return cfg_; }

 private:
  EngineConfig cfg_;
  JoinService svc_;
  std::map<int, std::unique_ptr<ThreadPool>> pools_;
};

}  // namespace gsj
