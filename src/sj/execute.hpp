// Execution stage of the join pipeline (internal).
//
// The pipeline (sj/pipeline.cpp) resolves a plan from the dataset's
// artifact store and hands it here. Two drivers run the batched kernel
// launches — execute_self_join on one device, execute_fleet across a
// modeled device fleet — and both run each batch through one shared
// lifecycle in execute.cpp: capacity window, launch with the overflow/
// cancel abort hook, rollback or commit, LIFO split-retry, and one
// sj.* metrics block. The drivers differ only in how batches are cut
// and where they are accounted: the fleet tags BatchStats with the
// device, keeps one modeled timeline per device and reports device-
// level stats; the single device keeps per-slot accounting and the
// per-run tracer's warp and batch events.
//
// ScratchArena is the reusable working memory of one run: every vector
// the execution stage needs (per-batch timing, warp-cycle collection,
// slot accounting, buffered warp records) plus spare storage reclaimed
// by JoinService::recycle / JoinEngine::recycle (the result-pair
// buffer, batch-stats and slot vectors of a consumed output). Arenas
// are pooled by the service; a fresh arena and a warm one produce
// bit-identical outputs.
#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "obs/context.hpp"
#include "simt/launch.hpp"
#include "sj/selfjoin.hpp"

namespace gsj::detail {

struct ScratchArena {
  // --- per-run working vectors (cleared, capacity kept) ---
  std::vector<double> kernel_secs;
  std::vector<double> xfer_secs;
  std::vector<std::uint64_t> all_warp_cycles;
  std::vector<std::uint64_t> slot_finish;
  std::vector<simt::WarpRecord> launch_records;

  // --- spare storage donated to the next run (JoinEngine::recycle) ---
  std::vector<ResultPair> spare_pairs;
  std::vector<BatchStats> spare_batch_stats;
  std::vector<obs::SlotStats> spare_slots;
};

/// Everything the execution stage needs, resolved by the plan stage.
struct ExecutionInputs {
  const GridIndex* grid = nullptr;
  /// The resolved plan. The fleet driver reads only its estimate and
  /// cuts its own per-grain batches.
  const BatchPlan* plan = nullptr;
  /// R×S probe dataset (JoinMode::RxS): batch/queue point ids index it
  /// instead of the gridded dataset, and the kernels run in probing
  /// mode (sj/kernels.hpp). nullptr for the self-join.
  const Dataset* probe = nullptr;
  /// D' (workload-sorted order) for the work-queue variants; empty
  /// otherwise. Must outlive the call.
  std::span<const PointId> queue_order;
  /// Effective device config: the host pool is already attached.
  simt::DeviceConfig device;
  /// Optional cooperative-cancellation token (JoinService). When set,
  /// it is polled at every batch boundary and folded into the
  /// LaunchAbort hook (polled at kWarpBlock boundaries inside a
  /// launch); once observed true the run throws CancelledError and the
  /// partial output is discarded by the caller.
  const std::atomic<bool>* cancel = nullptr;

  // --- fleet path only (sj/pipeline.cpp fleet branch) ---
  /// Per-point workloads under cfg.pattern (grid/workload.hpp): grain
  /// weights for the partitioner and the 2w+1 chunk bounds of the
  /// work-queue driver. Empty on the single-device path.
  std::span<const std::uint64_t> point_workloads;

  // --- request-scoped channel (JoinService::submit path) ---
  /// Service-channel tracer for per-launch request spans ("batch N",
  /// "overflow_retry") parented under `channel_ctx`. Only consulted
  /// when channel_ctx.request_id != 0, so engine/direct runs never
  /// emit request spans.
  obs::Tracer* channel_tracer = nullptr;
  obs::SpanContext channel_ctx;
  /// Flight-recorder breadcrumbs (batch commits, overflow retries,
  /// cancellation, overflow exhaustion). Null disables.
  obs::FlightRecorder* recorder = nullptr;
};

/// Runs the batched kernel launches for a planned self-join and fills
/// `out` (whose ResultSet is already constructed in the right storage
/// mode; stats.host_prep_seconds / estimated_total_pairs are set by the
/// caller). Throws OverflowError exactly as the public API documents.
void execute_self_join(const SelfJoinConfig& cfg, const ExecutionInputs& in,
                       ScratchArena& arena, SelfJoinOutput& out);

/// Fleet execution (docs/SIMULATOR.md §fleet): shards the grid into
/// work grains (grid/grain.hpp), schedules them across
/// cfg.fleet.num_devices modeled devices with the LPT/measured-rate
/// rebalancer (simt/fleet.hpp), and runs each grain's batches with the
/// same capacity/overflow/cancellation discipline as the single-device
/// driver (the same batch runner). The merged ResultSet is
/// bit-identical to a single-device run
/// (canonical order when store_pairs; counts add otherwise); per-device
/// makespan/CoV/tail-idle land in out.stats.fleet and the sj.fleet.*
/// metric family. Per-warp dispersion is still collected fleet-wide;
/// per-slot vectors and tracer device events are not (device-level
/// accounting supersedes them at this scale). Requires
/// in.point_workloads and the plan's whole-join estimate from the fleet
/// plan branch.
void execute_fleet(const SelfJoinConfig& cfg, const ExecutionInputs& in,
                   ScratchArena& arena, SelfJoinOutput& out);

/// ε-subsumption filter (docs/SERVICE.md result-serving layer): keeps
/// the pairs of a cached ε-result whose dist² ≤ epsilon², for a
/// requested epsilon ≤ the cached ε. `pairs` must be the *canonical*
/// (lexicographically sorted) pair list of the superset result —
/// filtering preserves order, so the output is exactly what a cold run
/// at `epsilon` would canonicalize to. When `out` is non-null each kept
/// pair is emitted into it (its storage mode decides pairs vs count);
/// the kept count is returned either way. One linear pass, dimension-
/// specialized so the hot loop vectorizes.
std::uint64_t subsume_filter(const Dataset& ds,
                             std::span<const ResultPair> pairs,
                             double epsilon, ResultSet* out);

}  // namespace gsj::detail
