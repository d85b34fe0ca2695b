#include "sj/engine.hpp"

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace gsj {
namespace {

ServiceConfig service_config(const EngineConfig& cfg) {
  ServiceConfig s;
  s.max_cached_grids = cfg.max_cached_grids;
  s.max_cached_plans = cfg.max_cached_plans;
  s.obs = cfg.obs;
  return s;
}

}  // namespace

JoinEngine::JoinEngine(EngineConfig cfg)
    : cfg_(cfg), svc_(service_config(cfg)) {}

JoinEngine::~JoinEngine() = default;

PreparedDataset JoinEngine::prepare(const Dataset& ds) {
  // Admission is deliberately lazy — caches fill on first use — so
  // prepare() performs no validation beyond what run() will do; the
  // one-shot wrapper must keep the monolith's exact error behaviour.
  return PreparedDataset(svc_.attach(ds));
}

ThreadPool* JoinEngine::pool(int num_threads) {
  GSJ_CHECK_MSG(num_threads > 0, "pool requires num_threads > 0");
  auto& slot = pools_[num_threads];
  if (slot == nullptr) {
    slot = std::make_unique<ThreadPool>(static_cast<std::size_t>(num_threads));
  }
  return slot.get();
}

SelfJoinOutput JoinEngine::run(PreparedDataset& prep,
                               const SelfJoinConfig& cfg) {
  return svc_.run(*prep.sd_, cfg);
}

SelfJoinOutput JoinEngine::self_join(const Dataset& ds,
                                     const SelfJoinConfig& cfg) {
  PreparedDataset prep = prepare(ds);
  return run(prep, cfg);
}

std::optional<PairDelta> JoinEngine::delta_join(PreparedDataset& prep,
                                                double epsilon,
                                                std::uint64_t from_generation) {
  return svc_.delta_join(*prep.sd_, epsilon, from_generation);
}

void JoinEngine::recycle(SelfJoinOutput&& out) {
  svc_.recycle(std::move(out));
}

}  // namespace gsj
