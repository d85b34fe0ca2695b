// The join pipeline's cache keys (internal; the pipeline itself is in
// sj/pipeline.cpp).
//
// Every run — JoinService::run/submit/self_join and the JoinEngine
// facade over the same store — goes through one pipeline: validation,
// artifact resolution from the dataset's SharedDataset store with the
// monolith's per-run span sequence, batch planning, then the batched
// execution stage (sj/execute.hpp). The store is the one artifact
// cache, so a cache-served run and a cold run are the same code on the
// same data.
//
// Artifact lifetime: everything the plan stage resolves is pinned for
// the run's duration, except on the KNN path, which resolves one grid
// per widening round and uses each only until the next round.
//
// Resolution is mode-aware: for R×S requests the workload and D'
// artifacts index the *probe* dataset, and every plan/estimate cache
// entry is keyed with probe_signature(cfg) so artifacts of different
// modes or probe datasets/generations never alias (Self artifacts
// carry signature 0).
#pragma once

#include <bit>
#include <cstdint>
#include <tuple>

#include "sj/selfjoin.hpp"

namespace gsj::detail {

/// Result-size-estimate cache key: (sample_fraction bits,
/// inject_estimator_skew bits, probe signature) — skew is part of the
/// key so fault-injection runs never collide with honest ones, and the
/// probe signature (0 for Self) keeps R×S estimates of different probe
/// datasets/generations apart.
using EstimateKey =
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

/// Identity of the *second* dataset of an R×S/KNN request for the plan
/// and estimate caches: a mix of the probe's process-unique uid and its
/// mutation generation, forced odd so it can never collide with the 0
/// that tags Self-join artifacts. Self (or a missing probe — caught by
/// validation) maps to 0.
[[nodiscard]] inline std::uint64_t probe_signature(const SelfJoinConfig& cfg) {
  if (cfg.mode == JoinMode::Self || cfg.probe == nullptr) return 0;
  std::uint64_t h = cfg.probe->uid() * 0x9e3779b97f4a7c15ull;
  h ^= cfg.probe->generation() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h | 1u;
}

/// Identity of a submitted request's *answer* for the service's
/// result-serving layer (docs/SERVICE.md). Deliberately
/// variant-agnostic: all six kernel variants compute the same pair set
/// for (dataset, ε, mode) — the invariant the paper's variant
/// comparison rests on — so the key folds only the dataset generation,
/// the exact ε bits, and a digest of the request *class*: the join
/// mode, the second dataset's identity (uid + generation) for R×S/KNN,
/// and the KNN parameters. k / cell pattern / batching / device knobs
/// shape how the answer is computed, never what it is; the storage
/// mode is deliberately NOT folded — pairs vs count-only is an
/// asymmetry the gate's has_pairs logic handles, so a stored-pairs
/// entry can serve a count-only request.
struct ResultKey {
  std::uint64_t generation = 0;
  std::uint64_t eps_bits = 0;
  std::uint64_t config_digest = 0;
  friend bool operator==(const ResultKey&, const ResultKey&) = default;
};

[[nodiscard]] inline ResultKey make_result_key(std::uint64_t generation,
                                               const SelfJoinConfig& cfg) {
  // FNV-1a over the result-class knobs, full 64-bit values byte by
  // byte: a single truncated byte per knob is exactly the latent
  // collision the pinned regression test guards against (a probe
  // generation and a mode sharing a low byte must not share a digest).
  std::uint64_t digest = 1469598103934665603ull;
  const auto fold = [&digest](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xffu;
      digest *= 1099511628211ull;
    }
  };
  fold(static_cast<std::uint64_t>(cfg.mode));
  if (cfg.mode != JoinMode::Self && cfg.probe != nullptr) {
    fold(cfg.probe->uid());
    fold(cfg.probe->generation());
  }
  if (cfg.mode == JoinMode::Knn) {
    fold(static_cast<std::uint64_t>(static_cast<std::int64_t>(cfg.knn_k)));
    fold(std::bit_cast<std::uint64_t>(cfg.knn_growth));
    fold(std::bit_cast<std::uint64_t>(cfg.knn_initial_epsilon));
  }
  return {generation, std::bit_cast<std::uint64_t>(cfg.epsilon), digest};
}

}  // namespace gsj::detail
