// The join pipeline over the artifact store (internal; sj/pipeline.hpp).
//
// ServicePlanSource resolves a run's artifacts from one SharedDataset's
// locked caches; plan_and_execute and knn_execute are the plan stage
// on top of it, handing a resolved plan to the execution drivers
// (sj/execute.hpp). JoinService::execute — the path every run, submit,
// self_join and JoinEngine call takes — and JoinService::delta_join,
// the one delta path for JoinEngine::delta_join and subscription
// polls, are defined here because they are the store's two consumers.
#include "sj/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "data/churn.hpp"
#include "grid/grid_index.hpp"
#include "grid/workload.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sj/execute.hpp"
#include "sj/service.hpp"

namespace gsj {
namespace detail {

/// The plan stage's view of one SharedDataset's artifact store: the
/// reader/writer-locked grid, workload, D' and estimate caches, one per
/// run. Discipline:
///
///  * hits take the shared lock only (scan, bump the atomic LRU tick,
///    copy the slot's shared_future) — concurrent hits never serialize;
///  * misses double-check under the exclusive lock, install a
///    promise-backed future (single-flight), then build *outside* any
///    lock and publish through the promise; waiters block on their
///    future copy, also outside the lock;
///  * every resolved slot/artifact is pinned by a shared_ptr member for
///    the run's duration, so concurrent LRU eviction can drop a slot
///    from the cache vectors without invalidating anything this run
///    still references (the pipeline's artifact-lifetime contract);
///  * a builder that throws publishes the exception to its waiters and
///    rolls the slot back so later requests rebuild.
///
/// The builder counts the miss; waiters and fast-path readers count
/// hits (a waiter is served from the cache — it just arrives early).
class ServicePlanSource {
 public:
  /// `cfg` makes the source mode-aware: for R×S requests, workloads/D'
  /// resolve against the probe dataset and plan slots are keyed by
  /// probe_signature. Null `cfg` (delta polls) behaves as Self.
  ServicePlanSource(JoinService& svc, SharedDataset& sd,
                    const SelfJoinConfig* cfg,
                    obs::RequestObs* robs = nullptr)
      : svc_(svc),
        sd_(sd),
        probe_(cfg != nullptr && cfg->mode == JoinMode::RxS ? cfg->probe
                                                            : nullptr),
        probe_sig_(cfg != nullptr ? probe_signature(*cfg) : 0),
        robs_(robs) {}

  ~ServicePlanSource() {
    if (pool_ != nullptr) svc_.return_pool(pool_threads_, std::move(pool_));
  }

  void sync() { svc_.sync_shared(sd_); }

  ThreadPool* pool(int n) {
    if (pool_ == nullptr) {
      pool_threads_ = n;
      pool_ = svc_.checkout_pool(n);
    }
    return pool_.get();
  }

  obs::Tracer* channel_tracer() { return svc_.config().obs.tracer; }

  obs::RequestObs* request_obs() { return robs_; }
  obs::SpanContext request_ctx() const {
    return robs_ != nullptr ? robs_->ctx : obs::SpanContext{};
  }
  /// The service tracer for a submitted request's spans; null for
  /// run()/self_join()/engine runs (request id 0), which emit none.
  obs::Tracer* request_tracer() const {
    return robs_ != nullptr && robs_->ctx.request_id != 0 ? robs_->tracer
                                                          : nullptr;
  }

  void resolve_grid(double eps, ThreadPool* p, bool* hit) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(eps);
    std::shared_future<SharedDataset::GridPtr> fut;
    std::promise<SharedDataset::GridPtr> prom;
    bool builder = false;
    {
      std::shared_lock lk(sd_.mu_);
      if (auto* s = find_grid_locked(bits)) {
        gslot_ = shared_of(sd_.grids_, s);
        fut = s->grid;
      }
    }
    if (!fut.valid()) {
      std::unique_lock lk(sd_.mu_);
      if (auto* s = find_grid_locked(bits)) {
        gslot_ = shared_of(sd_.grids_, s);
        fut = s->grid;
      } else {
        builder = true;
        fut = prom.get_future().share();
        auto slot = std::make_shared<SharedDataset::GridSlot>();
        slot->eps_bits = bits;
        slot->grid = fut;
        slot->last_used.store(next_tick(), std::memory_order_relaxed);
        gslot_ = slot;
        sd_.grids_.push_back(std::move(slot));
        evict_lru_locked(sd_.grids_, sd_.max_grids_);
      }
    }
    cache_event("grid", !builder);
    if (builder) {
      try {
        prom.set_value(std::make_shared<const GridIndex>(sd_.dataset(), eps, p));
      } catch (...) {
        prom.set_exception(std::current_exception());
        std::unique_lock lk(sd_.mu_);
        std::erase(sd_.grids_, gslot_);
        throw;
      }
    }
    grid_ = fut.get();  // waits outside any lock; rethrows build failures
    *hit = !builder;
  }

  [[nodiscard]] const GridIndex& grid() const { return *grid_; }

  std::span<const std::uint64_t> resolve_workloads(CellPattern pattern,
                                                   ThreadPool* p) {
    ensure_plan_slot(pattern);
    workloads_ = resolve_in_slot<SharedDataset::WorkloadsPtr>(
        "workload", [&](SharedDataset::PlanSlot& s) { return &s.workloads; },
        [&] {
          return std::make_shared<const std::vector<std::uint64_t>>(
              probe_ != nullptr ? probe_point_workloads(*grid_, *probe_, p)
                                : point_workloads(*grid_, pattern, p));
        });
    return *workloads_;
  }

  std::span<const PointId> resolve_order(CellPattern pattern, ThreadPool* p) {
    ensure_plan_slot(pattern);
    order_ = resolve_in_slot<SharedDataset::OrderPtr>(
        "order", [&](SharedDataset::PlanSlot& s) { return &s.order; },
        [&] {
          // The pipeline resolves workloads before the order, so
          // workloads_ is pinned by the time a builder runs. R×S
          // orders rank probe ids (the workloads already index them).
          std::vector<PointId> order(probe_ != nullptr
                                         ? probe_->size()
                                         : sd_.dataset().size());
          std::iota(order.begin(), order.end(), PointId{0});
          parallel_stable_sort(
              order,
              [&pw = *workloads_](PointId a, PointId b) {
                return pw[a] > pw[b];
              },
              p);
          return std::make_shared<const std::vector<PointId>>(
              std::move(order));
        });
    return *order_;
  }

  std::optional<std::uint64_t> find_estimate(bool queue,
                                             detail::EstimateKey key) {
    auto [mu, map] = estimate_map(queue);
    std::lock_guard lk(*mu);
    if (const auto it = map->find(key); it != map->end()) {
      cache_event("estimate", true);
      return it->second;
    }
    cache_event("estimate", false);
    return std::nullopt;
  }

  void put_estimate(bool queue, detail::EstimateKey key, std::uint64_t value) {
    auto [mu, map] = estimate_map(queue);
    std::lock_guard lk(*mu);
    // emplace = first-wins: concurrent runs compute the same pure
    // function of (grid, config), so whichever lands is the value.
    map->emplace(key, value);
  }

 private:
  [[nodiscard]] std::uint64_t next_tick() {
    return sd_.tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  SharedDataset::GridSlot* find_grid_locked(std::uint64_t bits) {
    for (auto& s : sd_.grids_) {
      if (s->eps_bits == bits) {
        s->last_used.store(next_tick(), std::memory_order_relaxed);
        return s.get();
      }
    }
    return nullptr;
  }

  SharedDataset::PlanSlot* find_plan_locked(std::uint64_t key,
                                            CellPattern pattern) {
    for (auto& s : sd_.plans_) {
      if (s->grid_key == key && s->pattern == pattern &&
          s->probe_sig == probe_sig_) {
        s->last_used.store(next_tick(), std::memory_order_relaxed);
        return s.get();
      }
    }
    return nullptr;
  }

  template <typename Slot>
  static std::shared_ptr<Slot> shared_of(
      const std::vector<std::shared_ptr<Slot>>& v, Slot* raw) {
    for (const auto& s : v) {
      if (s.get() == raw) return s;
    }
    return nullptr;  // unreachable: caller found `raw` in `v` under lock
  }

  /// LRU-evicts beyond `bound`. The just-inserted slot holds the max
  /// tick, so it is never the victim; pinned runs keep evicted slots
  /// alive through their shared_ptrs.
  template <typename Slot>
  void evict_lru_locked(std::vector<std::shared_ptr<Slot>>& v,
                        std::size_t bound) {
    bound = std::max<std::size_t>(1, bound);
    if (v.size() <= bound) return;
    const auto victim = std::min_element(
        v.begin(), v.end(), [](const auto& a, const auto& b) {
          return a->last_used.load(std::memory_order_relaxed) <
                 b->last_used.load(std::memory_order_relaxed);
        });
    v.erase(victim);
    count("evictions");
  }

  void ensure_plan_slot(CellPattern pattern) {
    if (pslot_ != nullptr) return;
    const std::uint64_t key = grid_->content_key();
    {
      std::shared_lock lk(sd_.mu_);
      if (auto* s = find_plan_locked(key, pattern)) {
        pslot_ = shared_of(sd_.plans_, s);
        return;
      }
    }
    std::unique_lock lk(sd_.mu_);
    if (auto* s = find_plan_locked(key, pattern)) {
      pslot_ = shared_of(sd_.plans_, s);
      return;
    }
    auto slot = std::make_shared<SharedDataset::PlanSlot>();
    slot->grid_key = key;
    slot->pattern = pattern;
    slot->probe_sig = probe_sig_;
    slot->last_used.store(next_tick(), std::memory_order_relaxed);
    pslot_ = slot;
    sd_.plans_.push_back(std::move(slot));
    evict_lru_locked(sd_.plans_, sd_.max_plans_);
  }

  /// Single-flight resolution of one future-valued artifact inside the
  /// pinned plan slot. `member` picks the future, `build` produces the
  /// artifact (runs outside any lock).
  template <typename Ptr, typename Member, typename Build>
  Ptr resolve_in_slot(const char* artifact, Member member, Build build) {
    std::shared_future<Ptr> fut;
    std::promise<Ptr> prom;
    bool builder = false;
    {
      std::shared_lock lk(sd_.mu_);
      if (member(*pslot_)->valid()) fut = *member(*pslot_);
    }
    if (!fut.valid()) {
      std::unique_lock lk(sd_.mu_);
      if (member(*pslot_)->valid()) {
        fut = *member(*pslot_);
      } else {
        builder = true;
        fut = prom.get_future().share();
        *member(*pslot_) = fut;
      }
    }
    cache_event(artifact, !builder);
    if (builder) {
      try {
        prom.set_value(build());
      } catch (...) {
        prom.set_exception(std::current_exception());
        std::unique_lock lk(sd_.mu_);
        *member(*pslot_) = {};  // roll back so later requests rebuild
        throw;
      }
    }
    return fut.get();
  }

  std::pair<std::mutex*, SharedDataset::EstimateMap*> estimate_map(
      bool queue) {
    if (queue) return {&pslot_->est_mu, &pslot_->queue_estimates};
    return {&gslot_->est_mu, &gslot_->strided_estimates};
  }

  void count(const char* event) {
    if (svc_.config().obs.metrics != nullptr) {
      svc_.config().obs.metrics->counter(std::string("sj.cache.") + event)
          .add(1);
    }
  }

  void cache_event(const char* artifact, bool hit) {
    if (robs_ != nullptr && robs_->breakdown != nullptr) {
      robs_->breakdown->count_cache(artifact, hit);
    }
    obs::Registry* m = svc_.config().obs.metrics;
    if (m == nullptr) return;
    m->counter(hit ? "sj.cache.hits" : "sj.cache.misses").add(1);
    m->counter(std::string("sj.cache.") + artifact +
               (hit ? ".hits" : ".misses"))
        .add(1);
  }

  JoinService& svc_;
  SharedDataset& sd_;
  const Dataset* probe_ = nullptr;    ///< R×S only; null for Self/KNN
  std::uint64_t probe_sig_ = 0;
  obs::RequestObs* robs_;             ///< request attribution (may be null)
  std::unique_ptr<ThreadPool> pool_;  ///< depot lease, returned in dtor
  int pool_threads_ = 0;

  // Pins for the run's duration (artifact-lifetime contract).
  std::shared_ptr<SharedDataset::GridSlot> gslot_;
  std::shared_ptr<SharedDataset::PlanSlot> pslot_;
  SharedDataset::GridPtr grid_;
  SharedDataset::WorkloadsPtr workloads_;
  SharedDataset::OrderPtr order_;
};

namespace {

/// A fresh ResultSet in the requested storage mode, reusing the arena's
/// spare pair buffer (capacity only; no content).
void init_results(const SelfJoinConfig& cfg, ScratchArena& arena,
                  SelfJoinOutput& out) {
  out.results = ResultSet(cfg.store_pairs);
  if (cfg.store_pairs) {
    out.results.adopt_storage(std::move(arena.spare_pairs));
    arena.spare_pairs = {};
  }
}

/// The device config handed to every launch: when the config asks for
/// host threads without supplying a pool, the store's leased pool of
/// that size is attached — one pool across the grid build, planning and
/// every batch launch.
simt::DeviceConfig effective_device(const SelfJoinConfig& cfg,
                                    ServicePlanSource& src) {
  simt::DeviceConfig device = cfg.device;
  if (device.host.num_threads > 0 && device.host.pool == nullptr) {
    device.host.pool = src.pool(device.host.num_threads);
  }
  return device;
}

/// KNN-join by per-query iterative ε-widening (docs/JOINS.md, after the
/// Hybrid KNN-Join reduction): round r probes the ε_r = ε₀·growth^r
/// grid — resolved through the same store grid cache the ε-joins
/// use, so repeated requests (and the shared schedule across queries)
/// hit the per-ε LRU — and a query resolves once ≥ k candidates sit
/// within ε_r. That is exact: the k-th nearest distance is then ≤ ε_r,
/// so every potential member of the answer set (distance ≤ k-th,
/// boundary ties included) is already a candidate; selection sorts by
/// (distance², id), the canonical tie-break. ε₀ comes from
/// cfg.knn_initial_epsilon or the density estimate
/// 0.5·(k·volume/n)^(1/dims) of the gridded dataset's bounding box.
void knn_execute(const SelfJoinConfig& cfg, const Dataset& ds,
                 ServicePlanSource& src, ScratchArena& arena,
                 const std::atomic<bool>* cancel, SelfJoinOutput& out) {
  GSJ_CHECK_MSG(cfg.probe != nullptr, "knn join requires cfg.probe");
  GSJ_CHECK_MSG(cfg.knn_k >= 1, "knn_k must be >= 1, got " << cfg.knn_k);
  GSJ_CHECK_MSG(cfg.knn_growth > 1.0,
                "knn_growth must be > 1, got " << cfg.knn_growth);
  GSJ_CHECK_MSG(cfg.knn_initial_epsilon >= 0.0,
                "knn_initial_epsilon must be >= 0");
  GSJ_CHECK_MSG(!ds.empty(), "empty dataset");
  const Dataset& probe = *cfg.probe;
  GSJ_CHECK_MSG(probe.dims() == ds.dims(),
                "probe dims=" << probe.dims() << " vs dataset dims="
                              << ds.dims());
  src.sync();
  init_results(cfg, arena, out);
  Timer host;
  const simt::DeviceConfig device = effective_device(cfg, src);
  ThreadPool* p = device.host.num_threads > 0 ? device.host.pool : nullptr;

  obs::Tracer* tracer = cfg.tracer;
  if (tracer != nullptr) tracer->set_device_config(device);
  auto pipeline_span = obs::span(tracer, "knn_join");

  obs::RequestObs* robs = src.request_obs();
  const obs::SpanContext rctx = src.request_ctx();
  obs::Tracer* req_tracer = src.request_tracer();
  auto plan_span = obs::span(req_tracer, "plan", rctx);

  const std::size_t n = ds.size();
  const std::size_t nq = probe.size();
  const int dims = ds.dims();
  const auto k_eff = static_cast<std::size_t>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(cfg.knn_k), static_cast<std::uint64_t>(n)));

  // ε₀: explicit override, else seeded so a uniform-density region
  // holds ~k points per 2ε₀-ball — the round-0 grid then has on the
  // order of n/k non-empty cells, and the geometric schedule reaches
  // any realistic neighborhood within a handful of rounds.
  double eps0 = cfg.knn_initial_epsilon;
  if (!(eps0 > 0.0)) {
    const auto lo = ds.min_corner();
    const auto hi = ds.max_corner();
    double volume = 1.0;
    for (int d = 0; d < dims; ++d) {
      volume *= hi[static_cast<std::size_t>(d)] - lo[static_cast<std::size_t>(d)];
    }
    eps0 = volume > 0.0
               ? 0.5 * std::pow(static_cast<double>(k_eff) * volume /
                                    static_cast<double>(n),
                                1.0 / static_cast<double>(dims))
               : 0.0;
    // Degenerate boxes (single point, axis-flat data) have zero volume;
    // any positive seed works — widening corrects it geometrically.
    if (!(eps0 > 0.0) || !std::isfinite(eps0)) eps0 = 1.0;
  }
  out.stats.host_prep_seconds = host.seconds();
  plan_span.finish();
  if (robs != nullptr && robs->breakdown != nullptr) {
    robs->breakdown->plan_seconds = out.stats.host_prep_seconds;
  }

  struct Hit {
    double d2;
    PointId id;
  };
  const auto hit_before = [](const Hit& a, const Hit& b) {
    return a.d2 != b.d2 ? a.d2 < b.d2 : a.id < b.id;
  };

  Timer exec_timer;
  auto exec_span = obs::span(req_tracer, "execute", rctx);
  std::vector<std::vector<Hit>> answers(nq);
  std::vector<std::uint8_t> done(nq, 0);
  std::size_t unresolved = nq;
  std::vector<double> qc(static_cast<std::size_t>(dims));
  std::vector<Hit> cand;

  // Hard round cap: 64 doublings from any positive seed exceed every
  // representable spread, so only an adversarial (tiny ε₀, growth→1)
  // schedule gets here — the stragglers fall back to brute force below.
  constexpr int kMaxRounds = 64;
  double eps_r = eps0;
  for (int round = 0; round < kMaxRounds && unresolved > 0;
       ++round, eps_r *= cfg.knn_growth) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      throw CancelledError(out.stats.knn_rounds);
    }
    bool grid_hit = false;
    {
      const auto sp = obs::span(tracer, "grid_build");
      src.resolve_grid(eps_r, p, &grid_hit);
    }
    const GridIndex& grid = src.grid();
    const double eps2 = eps_r * eps_r;
    out.stats.knn_rounds = static_cast<std::uint64_t>(round) + 1;
    out.stats.knn_final_epsilon = eps_r;
    for (std::size_t q = 0; q < nq; ++q) {
      if (done[q] != 0) continue;
      for (int d = 0; d < dims; ++d) {
        qc[static_cast<std::size_t>(d)] = probe.coord(q, d);
      }
      cand.clear();
      grid.for_each_within(
          qc, /*shells=*/1,
          [&](std::size_t nidx, const CellCoords&, std::uint64_t) {
            for (const PointId c : grid.cell_points(nidx)) {
              double sum = 0.0;
              for (int d = 0; d < dims; ++d) {
                const double diff =
                    qc[static_cast<std::size_t>(d)] - ds.coord(c, d);
                sum += diff * diff;
              }
              if (sum <= eps2) cand.push_back({sum, c});
            }
          });
      if (cand.size() >= k_eff) {
        std::sort(cand.begin(), cand.end(), hit_before);
        cand.resize(k_eff);
        answers[q].assign(cand.begin(), cand.end());
        done[q] = 1;
        --unresolved;
      }
    }
  }

  if (unresolved > 0) {
    // Schedule exhausted: answer the stragglers exactly by brute force.
    for (std::size_t q = 0; q < nq && unresolved > 0; ++q) {
      if (done[q] != 0) continue;
      cand.clear();
      cand.reserve(n);
      for (PointId c = 0; c < static_cast<PointId>(n); ++c) {
        double sum = 0.0;
        for (int d = 0; d < dims; ++d) {
          const double diff = probe.coord(q, d) - ds.coord(c, d);
          sum += diff * diff;
        }
        cand.push_back({sum, c});
      }
      std::sort(cand.begin(), cand.end(), hit_before);
      cand.resize(k_eff);
      answers[q].assign(cand.begin(), cand.end());
      done[q] = 1;
      --unresolved;
    }
  }

  std::uint64_t total = 0;
  for (const auto& a : answers) total += a.size();
  if (cfg.store_pairs) {
    out.results.reserve(total);
    for (std::size_t q = 0; q < nq; ++q) {
      for (const Hit& h : answers[q]) {
        out.results.emit(static_cast<PointId>(q), h.id);
      }
    }
    out.results.canonicalize();
  } else {
    out.results.add_count(total);
  }
  out.stats.result_pairs = total;
  out.stats.warp_size = device.warp_size;
  // KNN runs no SIMT launch, so it has no modeled time: total_seconds
  // is modeled-only and stays 0 (the wall time is execute_seconds on
  // the request breakdown, or the caller's own timer).
  out.stats.total_seconds = 0.0;
  exec_span.finish();
  if (robs != nullptr) {
    if (robs->breakdown != nullptr) {
      obs::RequestBreakdown& b = *robs->breakdown;
      b.execute_seconds = exec_timer.seconds();
      b.result_pairs = total;
    }
    if (robs->recorder != nullptr) {
      robs->recorder->record("knn_done", rctx.request_id,
                             out.stats.knn_rounds);
    }
  }
}

/// The join pipeline: validation, artifact resolution with the
/// monolith's per-run span sequence, batch planning, then the batched
/// execution stage (sj/execute.hpp).
void plan_and_execute(const SelfJoinConfig& cfg, const Dataset& ds,
                      ServicePlanSource& src, ScratchArena& arena,
                      const std::atomic<bool>* cancel, SelfJoinOutput& out) {
  // KNN takes its own host-iterative path (no batched device launches),
  // dispatched before the ε validation — a KNN request's `epsilon` is
  // free for cache-key purposes (the widening schedule ignores it).
  if (cfg.mode == JoinMode::Knn) {
    knn_execute(cfg, ds, src, arena, cancel, out);
    return;
  }
  const bool rxs = cfg.mode == JoinMode::RxS;
  GSJ_CHECK_MSG(cfg.epsilon > 0.0, "epsilon must be positive");
  GSJ_CHECK_MSG(!ds.empty(), "empty dataset");
  if (rxs) {
    GSJ_CHECK_MSG(cfg.probe != nullptr, "rxs join requires cfg.probe");
    GSJ_CHECK_MSG(cfg.probe->dims() == ds.dims(),
                  "probe dims=" << cfg.probe->dims() << " vs dataset dims="
                                << ds.dims());
  }
  GSJ_CHECK_MSG(cfg.k >= 1 && cfg.device.warp_size % cfg.k == 0,
                "k=" << cfg.k << " must divide warp_size="
                     << cfg.device.warp_size);
  cfg.batching.validate();
  // Fleet validation covers the base device config too; num_devices==1
  // keeps the classic single-device path below byte-identical.
  cfg.fleet.validate(cfg.device);
  const bool fleet_active = cfg.fleet.active();
  src.sync();

  init_results(cfg, arena, out);
  if (rxs && cfg.probe->empty()) {
    // No queries — the answer is empty without gridding anything (an
    // empty *gridded* dataset stays a config error, matching Self).
    return;
  }
  Timer host;
  const simt::DeviceConfig device = effective_device(cfg, src);
  ThreadPool* p = device.host.num_threads > 0 ? device.host.pool : nullptr;

  obs::Tracer* tracer = cfg.tracer;
  if (tracer != nullptr) tracer->set_device_config(device);
  auto pipeline_span = obs::span(tracer, "self_join");

  // Request attribution (JoinService::submit): "plan"/"execute" spans
  // on the service channel parented under the request root, plus the
  // RequestBreakdown totals. request_id == 0 (engine runs, run()/
  // self_join()) emits nothing, keeping those channels' span sequences
  // exactly as before.
  obs::RequestObs* robs = src.request_obs();
  const obs::SpanContext rctx = src.request_ctx();
  obs::Tracer* req_tracer = src.request_tracer();
  auto plan_span = obs::span(req_tracer, "plan", rctx);

  // --- plan stage: resolve every artifact from the cache, computing
  // and caching on miss. The per-run span sequence below is exactly the
  // monolith's (grid_build; for WQ: workload_quantify, sortbywl_sort,
  // batch_plan; otherwise batch_plan with nested sub-spans opened by
  // the planner), so logical traces are byte-identical on hit and miss.
  bool grid_hit = false;
  {
    const auto sp = obs::span(tracer, "grid_build");
    src.resolve_grid(cfg.epsilon, p, &grid_hit);
  }
  const GridIndex& grid = src.grid();
  // Engine/service-channel span marking a cache-served plan stage.
  auto reuse_span = obs::span(grid_hit ? src.channel_tracer() : nullptr,
                              "plan_reuse");

  // The unidirectional patterns' pair-once trick has no meaning when
  // queries and candidates come from different datasets: R×S probes
  // every window cell, i.e. LID-UNICOMP degenerates to plain neighbor
  // probing. Forcing Full here keys the workload/order artifacts (and
  // the kernels, which additionally ignore the pattern in R×S mode)
  // uniformly across the six variants.
  const CellPattern pattern = rxs ? CellPattern::Full : cfg.pattern;
  const Dataset* probe = rxs ? cfg.probe : nullptr;

  const EstimateKey est_key{
      std::bit_cast<std::uint64_t>(cfg.batching.sample_fraction),
      std::bit_cast<std::uint64_t>(cfg.batching.inject_estimator_skew),
      probe_signature(cfg)};

  std::span<const PointId> queue_order;
  std::span<const std::uint64_t> fleet_workloads;
  BatchPlan plan;
  if (fleet_active) {
    // Fleet plan stage: grain partitioning and the per-grain chunk
    // budgets need per-point workloads regardless of variant, the
    // work-queue variants need D', and the whole-join size estimate is
    // resolved through the same shared cache the batch planners use —
    // then execute_fleet does its own per-grain chunking, so no batch
    // plan is built here.
    {
      const auto sp = obs::span(tracer, "workload_quantify");
      fleet_workloads = src.resolve_workloads(pattern, p);
    }
    if (cfg.work_queue) {
      const auto sp = obs::span(tracer, "sortbywl_sort");
      queue_order = src.resolve_order(pattern, p);
    }
    const auto sp = obs::span(tracer, "batch_plan");
    std::optional<std::uint64_t> est =
        src.find_estimate(cfg.work_queue, est_key);
    if (!est.has_value()) {
      if (rxs) {
        est = cfg.work_queue ? estimate_rxs_queue_total(grid, *probe,
                                                        cfg.batching,
                                                        queue_order)
                             : estimate_rxs_strided_total(grid, *probe,
                                                          cfg.batching);
      } else {
        est = cfg.work_queue
                  ? estimate_queue_total(grid, cfg.batching, queue_order)
                  : estimate_strided_total(grid, cfg.batching);
      }
      src.put_estimate(cfg.work_queue, est_key, *est);
    }
    plan.estimated_total_pairs = *est;
    plan.num_batches = 0;  // execute_fleet chunks per grain
  } else if (cfg.work_queue) {
    std::span<const std::uint64_t> pw;
    {
      const auto sp = obs::span(tracer, "workload_quantify");
      pw = src.resolve_workloads(pattern, p);
    }
    {
      const auto sp = obs::span(tracer, "sortbywl_sort");
      queue_order = src.resolve_order(pattern, p);
    }
    const auto sp = obs::span(tracer, "batch_plan");
    std::optional<std::uint64_t> est = src.find_estimate(true, est_key);
    plan = plan_queue(grid, cfg.batching, queue_order, pw, tracer, est, probe);
    if (!est.has_value()) {
      src.put_estimate(true, est_key, plan.estimated_total_pairs);
    }
  } else {
    const auto sp = obs::span(tracer, "batch_plan");
    std::span<const std::uint64_t> pw;
    if (cfg.sort_by_workload) pw = src.resolve_workloads(pattern, p);
    std::optional<std::uint64_t> est = src.find_estimate(false, est_key);
    plan = plan_strided(grid, cfg.batching, cfg.sort_by_workload, pattern,
                        tracer, p, pw, est, probe);
    if (!est.has_value()) {
      src.put_estimate(false, est_key, plan.estimated_total_pairs);
    }
  }
  reuse_span.finish();

  out.stats.num_batches = plan.num_batches;
  out.stats.estimated_total_pairs = plan.estimated_total_pairs;
  out.stats.host_prep_seconds = host.seconds();
  plan_span.finish();
  if (robs != nullptr) {
    if (robs->breakdown != nullptr) {
      robs->breakdown->plan_seconds = out.stats.host_prep_seconds;
    }
    if (robs->recorder != nullptr) {
      robs->recorder->record("plan_done", rctx.request_id,
                             plan.estimated_total_pairs);
    }
  }

  // --- execute stage (sj/execute.cpp) ---
  Timer exec_timer;
  auto exec_span = obs::span(req_tracer, "execute", rctx);
  ExecutionInputs in;
  in.grid = &grid;
  in.plan = &plan;
  in.probe = probe;
  in.queue_order = queue_order;
  in.device = device;
  in.cancel = cancel;
  in.channel_tracer = req_tracer;
  // Batch spans parent under this run's execute span. Built by hand
  // (not exec_span.child_context()) so the request id survives even
  // when no tracer is attached — the flight recorder still wants it.
  in.channel_ctx = obs::SpanContext{rctx.request_id, exec_span.id()};
  in.recorder = robs != nullptr ? robs->recorder : nullptr;
  if (fleet_active) {
    in.point_workloads = fleet_workloads;
    execute_fleet(cfg, in, arena, out);
  } else {
    execute_self_join(cfg, in, arena, out);
  }
  exec_span.finish();
  if (robs != nullptr && robs->breakdown != nullptr) {
    obs::RequestBreakdown& b = *robs->breakdown;
    b.execute_seconds = exec_timer.seconds();
    b.batches = out.stats.num_batches;
    b.overflow_retries = out.stats.overflow_retries;
    b.result_pairs = out.stats.result_pairs;
  }
}

}  // namespace
}  // namespace detail

SelfJoinOutput JoinService::execute(SharedDataset& sd,
                                    const SelfJoinConfig& cfg,
                                    const std::atomic<bool>* cancel,
                                    obs::RequestObs* robs) {
  // Arena lease: returned to the depot on every exit path (including
  // OverflowError / CancelledError) so working memory stays bounded.
  struct ArenaLease {
    JoinService& svc;
    std::unique_ptr<detail::ScratchArena> arena;
    ~ArenaLease() { svc.return_arena(std::move(arena)); }
  } lease{*this, checkout_arena()};
  // Returns its pool lease in dtor.
  detail::ServicePlanSource src(*this, sd, &cfg, robs);

  SelfJoinOutput out;
  detail::plan_and_execute(cfg, sd.dataset(), src, *lease.arena, cancel, out);
  if (out.stats.fleet.ran()) record_fleet(out.stats.fleet);
  return out;
}

std::optional<PairDelta> JoinService::delta_join(
    SharedDataset& sd, double epsilon, std::uint64_t from_generation) {
  GSJ_CHECK_MSG(epsilon > 0.0, "delta_join requires epsilon > 0");
  const Dataset& ds = sd.dataset();
  if (ds.empty()) return std::nullopt;
  // Capture the window before sync: sync advances the store's
  // generation, but the log itself is only bounded by further
  // mutations, so the view stays valid across the repair below.
  const auto window = ds.mutations_since(from_generation);
  if (!window.has_value()) return std::nullopt;
  const ChurnSummary churn = summarize_churn(ds, *window);
  // Resolve (and repair) the ε grid through the shared artifact cache:
  // a delta warms the same grid later join requests hit.
  detail::ServicePlanSource src(*this, sd, /*cfg=*/nullptr);
  src.sync();
  bool hit = false;
  src.resolve_grid(epsilon, nullptr, &hit);
  PairDelta delta = compute_pair_delta(src.grid(), churn, epsilon);
  count("sj.incr.delta_joins");
  count("sj.incr.delta_candidates", delta.stats.candidates);
  return delta;
}

}  // namespace gsj
