#include "sj/batching.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "sj/reference.hpp"

namespace gsj {

void BatchingConfig::validate() const {
  GSJ_CHECK_MSG(buffer_pairs >= 1, "batching.buffer_pairs must be >= 1");
  GSJ_CHECK_MSG(nstreams >= 1, "batching.nstreams must be >= 1");
  GSJ_CHECK_MSG(sample_fraction > 0.0 && sample_fraction <= 1.0,
                "batching.sample_fraction must be in (0, 1], got "
                    << sample_fraction);
  GSJ_CHECK_MSG(safety >= 1.0, "batching.safety must be >= 1, got " << safety);
  GSJ_CHECK_MSG(pcie_gbps > 0.0,
                "batching.pcie_gbps must be > 0, got " << pcie_gbps);
  GSJ_CHECK_MSG(inject_estimator_skew > 0.0,
                "batching.inject_estimator_skew must be > 0, got "
                    << inject_estimator_skew);
}

namespace {

/// Applies the fault-injection skew to an estimate (identity at 1.0).
std::uint64_t skewed(std::uint64_t estimate, const BatchingConfig& cfg) {
  if (cfg.inject_estimator_skew == 1.0) return estimate;
  return static_cast<std::uint64_t>(static_cast<double>(estimate) *
                                    cfg.inject_estimator_skew);
}

/// Number of batches for an estimated total, >= 1. Capped at `n` (one
/// point per batch): a wildly high estimate — e.g. a skew-injected one —
/// must not plan millions of empty batches.
std::size_t batch_count(std::uint64_t estimated, const BatchingConfig& cfg,
                        std::size_t n) {
  if (!cfg.enabled || estimated == 0) return 1;
  const double padded = static_cast<double>(estimated) * cfg.safety;
  const auto wanted = static_cast<std::size_t>(
      std::max(1.0, std::ceil(padded / static_cast<double>(cfg.buffer_pairs))));
  return std::min(wanted, n);
}

}  // namespace

std::uint64_t estimate_strided_total(const GridIndex& grid,
                                     const BatchingConfig& cfg) {
  const std::size_t n = grid.dataset().size();
  const auto stride = static_cast<std::size_t>(
      std::max(1.0, std::floor(1.0 / cfg.sample_fraction)));
  std::vector<PointId> sample;
  sample.reserve(n / stride + 1);
  for (std::size_t i = 0; i < n; i += stride) {
    sample.push_back(static_cast<PointId>(i));
  }
  const auto counts = neighbor_counts(grid, sample);
  std::uint64_t sample_sum = 0;
  for (auto c : counts) sample_sum += c;
  return skewed(static_cast<std::uint64_t>(static_cast<double>(sample_sum) *
                                           static_cast<double>(n) /
                                           static_cast<double>(sample.size())),
                cfg);
}

std::uint64_t estimate_queue_total(const GridIndex& grid,
                                   const BatchingConfig& cfg,
                                   std::span<const PointId> queue_order) {
  const std::size_t n = grid.dataset().size();
  GSJ_CHECK(queue_order.size() == n);
  // First 1% of D' — the heaviest-workload points — extrapolated to the
  // whole dataset; the paper's deliberate over-estimate (§III-D).
  //
  // Deviation from the paper: points with the largest *workload*
  // (candidate count) do not always have the largest *result* count —
  // a small cell adjacent to a very dense cell scans many candidates
  // but keeps few — so the first-1% estimate can in fact undershoot on
  // heavily skewed data. We take the max of the first-1% and the
  // strided estimate, preserving the paper's "at least as many batches"
  // behaviour while staying safe (see DESIGN.md §2).
  const auto sample_n = static_cast<std::size_t>(
      std::max(1.0, std::floor(static_cast<double>(n) * cfg.sample_fraction)));
  const auto counts = neighbor_counts(grid, queue_order.subspan(0, sample_n));
  std::uint64_t sample_sum = 0;
  for (auto c : counts) sample_sum += c;
  const auto first_pct_estimate =
      skewed(static_cast<std::uint64_t>(static_cast<double>(sample_sum) /
                                        static_cast<double>(sample_n) *
                                        static_cast<double>(n)),
             cfg);
  return std::max(first_pct_estimate, estimate_strided_total(grid, cfg));
}

std::uint64_t estimate_rxs_strided_total(const GridIndex& grid,
                                         const Dataset& probe,
                                         const BatchingConfig& cfg) {
  const std::size_t n = probe.size();
  const auto stride = static_cast<std::size_t>(
      std::max(1.0, std::floor(1.0 / cfg.sample_fraction)));
  std::vector<PointId> sample;
  sample.reserve(n / stride + 1);
  for (std::size_t i = 0; i < n; i += stride) {
    sample.push_back(static_cast<PointId>(i));
  }
  const auto counts = probe_neighbor_counts(grid, probe, sample);
  std::uint64_t sample_sum = 0;
  for (auto c : counts) sample_sum += c;
  return skewed(static_cast<std::uint64_t>(static_cast<double>(sample_sum) *
                                           static_cast<double>(n) /
                                           static_cast<double>(sample.size())),
                cfg);
}

std::uint64_t estimate_rxs_queue_total(const GridIndex& grid,
                                       const Dataset& probe,
                                       const BatchingConfig& cfg,
                                       std::span<const PointId> queue_order) {
  const std::size_t n = probe.size();
  GSJ_CHECK(queue_order.size() == n);
  // Same first-1%-of-D' over-estimate as the self-join queue estimator,
  // maxed with the strided one (same undershoot caveat — see
  // estimate_queue_total).
  const auto sample_n = static_cast<std::size_t>(
      std::max(1.0, std::floor(static_cast<double>(n) * cfg.sample_fraction)));
  const auto counts =
      probe_neighbor_counts(grid, probe, queue_order.subspan(0, sample_n));
  std::uint64_t sample_sum = 0;
  for (auto c : counts) sample_sum += c;
  const auto first_pct_estimate =
      skewed(static_cast<std::uint64_t>(static_cast<double>(sample_sum) /
                                        static_cast<double>(sample_n) *
                                        static_cast<double>(n)),
             cfg);
  return std::max(first_pct_estimate,
                  estimate_rxs_strided_total(grid, probe, cfg));
}

BatchPlan plan_strided(const GridIndex& grid, const BatchingConfig& cfg,
                       bool sort_batches_by_workload, CellPattern pattern,
                       obs::Tracer* tracer, ThreadPool* pool,
                       std::span<const std::uint64_t> workloads,
                       std::optional<std::uint64_t> precomputed_estimate,
                       const Dataset* probe) {
  const std::size_t n = probe != nullptr ? probe->size() : grid.dataset().size();
  GSJ_CHECK(n > 0);
  cfg.validate();
  BatchPlan plan;
  {
    // The span opens on the cached path too: downstream logical traces
    // must be byte-identical whether the estimate was sampled here or
    // fetched from the engine cache.
    const auto sp = obs::span(tracer, "estimation_sample");
    plan.estimated_total_pairs =
        precomputed_estimate.has_value() ? *precomputed_estimate
        : probe != nullptr ? estimate_rxs_strided_total(grid, *probe, cfg)
                           : estimate_strided_total(grid, cfg);
  }
  plan.num_batches = batch_count(plan.estimated_total_pairs, cfg, n);
  plan.batches.resize(plan.num_batches);
  for (auto& b : plan.batches) b.reserve(n / plan.num_batches + 1);
  for (std::size_t i = 0; i < n; ++i) {
    plan.batches[i % plan.num_batches].push_back(static_cast<PointId>(i));
  }

  if (sort_batches_by_workload) {
    std::vector<std::uint64_t> pw_storage;
    std::span<const std::uint64_t> pw = workloads;
    {
      const auto sp = obs::span(tracer, "workload_quantify");
      if (pw.empty()) {
        pw_storage = probe != nullptr
                         ? probe_point_workloads(grid, *probe, pool)
                         : point_workloads(grid, pattern, pool);
        pw = pw_storage;
      }
      GSJ_CHECK(pw.size() == n);
    }
    const auto sp = obs::span(tracer, "sortbywl_sort");
    const auto sort_batch = [&](std::size_t bi) {
      auto& b = plan.batches[bi];
      std::stable_sort(b.begin(), b.end(), [&pw](PointId a, PointId c) {
        return pw[a] > pw[c];
      });
    };
    // Batches are disjoint vectors and each gets a plain stable sort,
    // so running them on pool workers changes nothing but wall time.
    if (pool != nullptr && pool->size() > 1 && plan.num_batches > 1) {
      pool->parallel_for(plan.num_batches, sort_batch);
    } else {
      for (std::size_t bi = 0; bi < plan.num_batches; ++bi) sort_batch(bi);
    }
  }
  return plan;
}

BatchPlan plan_queue(const GridIndex& grid, const BatchingConfig& cfg,
                     std::span<const PointId> queue_order,
                     std::span<const std::uint64_t> workloads,
                     obs::Tracer* tracer,
                     std::optional<std::uint64_t> precomputed_estimate,
                     const Dataset* probe) {
  const std::size_t n = probe != nullptr ? probe->size() : grid.dataset().size();
  GSJ_CHECK(queue_order.size() == n);
  GSJ_CHECK(workloads.size() == n);
  cfg.validate();
  BatchPlan plan;
  {
    // Opens even when the estimate is precomputed — see plan_strided.
    const auto sp = obs::span(tracer, "estimation_sample");
    plan.estimated_total_pairs =
        precomputed_estimate.has_value() ? *precomputed_estimate
        : probe != nullptr
            ? estimate_rxs_queue_total(grid, *probe, cfg, queue_order)
            : estimate_queue_total(grid, cfg, queue_order);
  }

  if (!cfg.enabled) {
    plan.queue_ranges.emplace_back(0, n);
    plan.num_batches = 1;
    return plan;
  }

  // Greedy chunking. Two cut conditions:
  //  * hard bound — one point contributes at most 2*workload + 1 pairs
  //    (every candidate evaluation emits at most two ordered pairs,
  //    plus the self pair), so keeping the summed bound within the
  //    buffer can never overflow;
  //  * estimate — mean pairs/point from the sample, scaled by the
  //    safety factor, keeps chunk sizes close to the paper's
  //    equal-share scheme when the bound is loose.
  const double est_per_point =
      static_cast<double>(plan.estimated_total_pairs) /
      static_cast<double>(n) * cfg.safety;
  plan.queue_ranges =
      cut_queue_chunks(queue_order, workloads, est_per_point, cfg.buffer_pairs);
  plan.num_batches = plan.queue_ranges.size();
  return plan;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> cut_queue_chunks(
    std::span<const PointId> queue, std::span<const std::uint64_t> workloads,
    double est_per_point, std::uint64_t buffer_pairs) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  const auto budget = static_cast<double>(buffer_pairs);
  const std::size_t n = queue.size();
  std::size_t begin = 0;
  while (begin < n) {
    std::uint64_t bound_sum = 0;
    double est_sum = 0.0;
    std::size_t end = begin;
    while (end < n) {
      const std::uint64_t b = 2 * workloads[queue[end]] + 1;
      if (end > begin && (static_cast<double>(bound_sum + b) > budget ||
                          est_sum + est_per_point > budget)) {
        break;
      }
      bound_sum += b;
      est_sum += est_per_point;
      ++end;
    }
    ranges.emplace_back(begin, end);
    begin = end;
  }
  return ranges;
}

double transfer_seconds(std::uint64_t pairs, const BatchingConfig& cfg) {
  // One result pair = two 4-byte point ids.
  const double bytes = static_cast<double>(pairs) * 8.0;
  return bytes / (cfg.pcie_gbps * 1e9);
}

double pipeline_seconds(std::span<const double> kernel_secs,
                        std::span<const double> transfer_secs, int nstreams) {
  GSJ_CHECK(kernel_secs.size() == transfer_secs.size());
  GSJ_CHECK(nstreams >= 1);
  const std::size_t nb = kernel_secs.size();
  if (nb == 0) return 0.0;

  std::vector<double> transfer_end(nb, 0.0);
  double device_free = 0.0;  // kernels serialize on the device
  double pcie_free = 0.0;    // transfers serialize on the link
  double last = 0.0;
  for (std::size_t b = 0; b < nb; ++b) {
    // The stream's previous operation: batch b - nstreams.
    const double stream_free =
        b >= static_cast<std::size_t>(nstreams)
            ? transfer_end[b - static_cast<std::size_t>(nstreams)]
            : 0.0;
    const double kstart = std::max(device_free, stream_free);
    const double kend = kstart + kernel_secs[b];
    device_free = kend;
    const double tstart = std::max(kend, pcie_free);
    transfer_end[b] = tstart + transfer_secs[b];
    pcie_free = transfer_end[b];
    last = std::max(last, transfer_end[b]);
  }
  return last;
}

}  // namespace gsj
