#include "sj/execute.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "grid/grain.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simt/counter.hpp"
#include "simt/fleet.hpp"

namespace gsj::detail {
namespace {

using Range = std::pair<std::uint64_t, std::uint64_t>;

/// Where one device's launches are accounted: its config, its index on
/// BatchStats, its modeled kernel/transfer timeline, and the KernelStats
/// that committed launches merge into.
struct DeviceLane {
  const simt::DeviceConfig& device;
  int index;
  std::vector<double>& kernel_secs;
  std::vector<double>& xfer_secs;
  simt::KernelStats& committed;
};

/// The batch lifecycle both drivers share: the capacity window, one
/// launch with its abort hook, overflow rollback or commit, and the
/// LIFO split-retry loop over [begin, end) ranges of a point sequence.
/// A work-queue range is consumed through the global counter from
/// `seq` (D' or a grain's slice of it); a strided range is the point
/// list seq[begin, end).
///
/// `device_events` is the single-device driver's choice: per-slot
/// accounting plus per-run tracer warp and batch events. The fleet
/// reports device-level stats instead (simt/fleet.hpp).
class BatchRunner {
 public:
  BatchRunner(const SelfJoinConfig& cfg, const ExecutionInputs& in,
              ScratchArena& arena, SelfJoinOutput& out, bool device_events)
      : cfg_(cfg),
        in_(in),
        arena_(arena),
        out_(out),
        device_events_(device_events),
        tracer_(cfg.tracer),
        req_tracer_(in.channel_ctx.request_id != 0 ? in.channel_tracer
                                                   : nullptr),
        req_id_(in.channel_ctx.request_id),
        collect_(cfg.collect_diagnostics || cfg.metrics != nullptr ||
                 (device_events && cfg.tracer != nullptr)),
        warp_cycle_hist_(cfg.metrics != nullptr
                             ? &cfg.metrics->cycle_histogram("sj.warp_cycles")
                             : nullptr) {
    out.stats.warp_size = in.device.warp_size;
    // Pre-size pair storage from the batch estimator so stored-pair
    // joins don't pay realloc churn while the kernel emits. The
    // estimate is untrusted — clamped to one buffer's capacity so a
    // wildly high value cannot bad_alloc before the join starts.
    if (cfg.store_pairs) {
      out.results.reserve(std::min(in.plan->estimated_total_pairs,
                                   cfg.batching.buffer_pairs));
    }
    // Per-batch result capacity: the fixed pinned buffer of a real GPU
    // join. Overflow detection (and its fault-injection override) only
    // applies while batching is on; a disabled batcher runs one
    // unbounded batch unless a capacity is injected for testing.
    capacity_ = cfg.batching.enabled ? cfg.batching.effective_capacity()
                : cfg.batching.inject_capacity != 0
                    ? cfg.batching.inject_capacity
                    : ResultSet::kUnlimited;
    out.stats.batches = std::move(arena.spare_batch_stats);
    arena.spare_batch_stats = {};
    out.stats.batches.clear();
    arena.all_warp_cycles.clear();
    if (device_events_) {
      slots_ = std::move(arena.spare_slots);
      arena.spare_slots = {};
      slots_.assign(
          collect_ ? static_cast<std::size_t>(in.device.total_slots()) : 0,
          obs::SlotStats{});
      arena.slot_finish.assign(slots_.size(), 0);
    }
    // Warp records are buffered per launch and committed to the obs
    // sinks only once the launch is known not to have overflowed — a
    // rolled-back launch must leave no trace in diagnostics, metrics or
    // the exported timeline (its cost is accounted in stats.wasted).
    arena.launch_records.clear();
    if (collect_) {
      observer_ = [&records = arena.launch_records](const simt::WarpRecord& r) {
        records.push_back(r);
      };
    }
  }

  /// Runs `ranges` of `seq` on one device, first range first. A range
  /// whose launch overflows is rolled back, halved, and both halves
  /// re-run (first half next, so the consumption order is kept; a
  /// contiguous slice of a SORTBYWL-sorted list stays sorted).
  void run_ranges(const DeviceLane& lane, std::span<const PointId> seq,
                  std::span<const Range> ranges) {
    std::vector<Range> work(ranges.rbegin(), ranges.rend());
    while (!work.empty()) {
      throw_if_cancelled();
      const auto [begin, end] = work.back();
      work.pop_back();
      if (begin == end) continue;
      if (run_batch(lane, seq, begin, end)) continue;
      const auto sp = obs::span(tracer_, "overflow_retry");
      const auto rsp =
          obs::span(req_tracer_, "overflow_retry", in_.channel_ctx);
      check_recoverable(end - begin);
      const std::uint64_t mid = begin + (end - begin) / 2;
      work.emplace_back(mid, end);
      work.emplace_back(begin, mid);
    }
  }

  /// Closes the batch window (the returned ResultSet is unclamped) and
  /// fills the stats every driver reports the same way. Recovery may
  /// have executed more (smaller) batches than planned.
  void finish() {
    out_.stats.num_batches = out_.stats.batches.size();
    out_.results.begin_batch(ResultSet::kUnlimited);
    out_.stats.result_pairs = out_.results.count();
    if (collect_) {
      out_.stats.warp_imbalance =
          obs::analyze_warp_cycles(arena_.all_warp_cycles);
      if (device_events_) out_.stats.slots = std::move(slots_);
    }
    if (cfg_.store_pairs) out_.results.canonicalize();
  }

 private:
  /// One launch of seq[begin, end) against the fixed-capacity buffer.
  /// On overflow the launch is aborted (block granularity), every side
  /// effect rolled back and the wasted device time accounted; returns
  /// false so the caller can split and retry.
  bool run_batch(const DeviceLane& lane, std::span<const PointId> seq,
                 std::uint64_t begin, std::uint64_t end) {
    const std::uint32_t batch_index =
        static_cast<std::uint32_t>(out_.stats.batches.size());
    auto batch_span = obs::span(
        req_tracer_,
        req_tracer_ != nullptr ? "batch " + std::to_string(batch_index)
                               : std::string(),
        in_.channel_ctx);
    const std::uint64_t len = end - begin;
    KernelParams params;
    params.grid = in_.grid;
    params.pattern = cfg_.pattern;
    params.probe = in_.probe;
    params.k = cfg_.k;
    if (cfg_.work_queue) {
      params.assignment = Assignment::WorkQueue;
      params.queue = seq;
      counter_.reset(begin);
    } else {
      params.assignment = Assignment::Static;
      params.points = seq.subspan(begin, len);
    }
    params.counter = &counter_;
    params.device = &lane.device;
    params.results = &out_.results;

    out_.results.begin_batch(capacity_);
    SelfJoinKernel kernel(params);
    arena_.launch_records.clear();
    // Polled at warp-block boundaries: buffer overflow and cooperative
    // cancellation both stop the launch early.
    simt::LaunchAbort abort_hook;
    const bool bounded = capacity_ != ResultSet::kUnlimited;
    if (bounded || in_.cancel != nullptr) {
      abort_hook = [&results = out_.results, bounded, cancel = in_.cancel] {
        return (bounded && results.batch_overflowed()) ||
               (cancel != nullptr && cancel->load(std::memory_order_relaxed));
      };
    }
    simt::KernelStats ks =
        simt::launch(lane.device, len * static_cast<std::uint64_t>(cfg_.k),
                     kernel, observer_, abort_hook);
    ks.atomics_executed = kernel.atomics_executed();
    ks.results_emitted = kernel.results_emitted();

    // A launch aborted by cancellation is not an overflow: the whole
    // run's output is about to be discarded, so surface the
    // cancellation before the overflow/commit bookkeeping.
    throw_if_cancelled();

    const double secs = ks.seconds(lane.device);
    lane.kernel_secs.push_back(secs);
    if (out_.results.batch_overflowed()) {
      // The device time is spent either way; the overflowed buffer is
      // never transferred. Partial results are discarded bit-exactly.
      overflow_pairs_ = out_.results.batch_count();
      out_.results.rollback_batch();
      out_.stats.buffer_overflowed = true;
      ++out_.stats.overflow_retries;
      out_.stats.wasted.merge(ks);
      lane.xfer_secs.push_back(0.0);
      cycle_offset_ += ks.makespan_cycles;
      breadcrumb("batch_overflow", overflow_pairs_);
      return false;
    }

    lane.committed.merge(ks);
    const std::uint64_t batch_pairs = out_.results.batch_count();
    out_.stats.max_batch_pairs =
        std::max(out_.stats.max_batch_pairs, batch_pairs);
    lane.xfer_secs.push_back(transfer_seconds(batch_pairs, cfg_.batching));

    BatchStats bs;
    bs.device = lane.index;
    bs.query_points = len;
    bs.result_pairs = batch_pairs;
    bs.warps = ks.warps_launched;
    bs.makespan_cycles = ks.makespan_cycles;
    bs.kernel_seconds = secs;
    bs.transfer_seconds = lane.xfer_secs.back();
    bs.wee_percent =
        ks.warp_execution_efficiency(lane.device.warp_size) * 100.0;
    if (collect_) commit_records(ks.makespan_cycles, batch_index, bs);
    if (device_events_ && tracer_ != nullptr) {
      obs::BatchEvent ev;
      ev.index = batch_index;
      ev.start_cycle = cycle_offset_;
      ev.makespan_cycles = ks.makespan_cycles;
      ev.warps = ks.warps_launched;
      ev.result_pairs = batch_pairs;
      ev.wee_percent = bs.wee_percent;
      tracer_->record_batch(ev);
    }
    cycle_offset_ += ks.makespan_cycles;
    out_.stats.batches.push_back(bs);
    breadcrumb("batch_commit", batch_pairs);
    return true;
  }

  /// Commits a launch's buffered warp records: run-wide warp cycles and
  /// the histogram always; with device events also the per-slot busy
  /// and tail-idle accounting against the launch's makespan (slots
  /// that never ran a warp idled for the whole launch — the same
  /// accounting simt::launch uses internally) and the tracer's warps.
  void commit_records(std::uint64_t makespan, std::uint32_t batch_index,
                      BatchStats& bs) {
    auto& all_warp_cycles = arena_.all_warp_cycles;
    auto& slot_finish = arena_.slot_finish;
    if (device_events_) std::fill(slot_finish.begin(), slot_finish.end(), 0);
    for (const simt::WarpRecord& r : arena_.launch_records) {
      all_warp_cycles.push_back(r.cycles);
      if (device_events_) {
        const auto slot = static_cast<std::size_t>(r.slot);
        ++slots_[slot].warps;
        slots_[slot].busy_cycles += r.cycles;
        slot_finish[slot] =
            std::max(slot_finish[slot], r.start_cycle + r.cycles);
        if (tracer_ != nullptr) {
          tracer_->record_warp(r, cycle_offset_, batch_index);
        }
      }
      if (warp_cycle_hist_ != nullptr) warp_cycle_hist_->record(r.cycles);
    }
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      slots_[s].tail_idle_cycles += makespan - slot_finish[s];
    }
    const std::span<const std::uint64_t> batch_cycles{
        all_warp_cycles.data() + batch_first_warp_,
        all_warp_cycles.size() - batch_first_warp_};
    bs.warp_cycle_cov = obs::analyze_warp_cycles(batch_cycles).cov;
    batch_first_warp_ = all_warp_cycles.size();
  }

  /// Cooperative cancellation (JoinService): polled at batch boundaries
  /// and after every launch. The caller discards the partial output, so
  /// nothing needs rolling back beyond what overflow recovery does.
  void throw_if_cancelled() {
    if (in_.cancel != nullptr &&
        in_.cancel->load(std::memory_order_relaxed)) {
      breadcrumb("cancelled", out_.stats.batches.size());
      throw CancelledError(out_.stats.batches.size());
    }
  }

  /// A failed batch is recoverable while it is still divisible and the
  /// retry budget holds; otherwise the join surfaces the structured,
  /// caller-actionable error.
  void check_recoverable(std::uint64_t batch_points) {
    if (batch_points <= 1 ||
        out_.stats.overflow_retries > cfg_.batching.max_overflow_retries) {
      breadcrumb("overflow_exhausted", out_.stats.overflow_retries);
      throw OverflowError(capacity_, overflow_pairs_, batch_points,
                          out_.stats.overflow_retries);
    }
  }

  /// Flight-recorder breadcrumb (request id 0 for run()-path runs —
  /// still useful in a failure dump). `name` must be a literal.
  void breadcrumb(const char* name, std::uint64_t value) {
    if (in_.recorder != nullptr) in_.recorder->record(name, req_id_, value);
  }

  const SelfJoinConfig& cfg_;
  const ExecutionInputs& in_;
  ScratchArena& arena_;
  SelfJoinOutput& out_;
  const bool device_events_;
  obs::Tracer* const tracer_;
  /// Request-scoped channel: "batch N" / "overflow_retry" spans land on
  /// the service tracer under the request's execute span; engine and
  /// direct runs (request id 0) emit none.
  obs::Tracer* const req_tracer_;
  const std::uint64_t req_id_;
  const bool collect_;
  obs::CycleHistogram* const warp_cycle_hist_;
  std::uint64_t capacity_ = ResultSet::kUnlimited;
  simt::DeviceCounter counter_;
  simt::WarpObserver observer_;
  std::vector<obs::SlotStats> slots_;  ///< device events only
  std::uint64_t cycle_offset_ = 0;     ///< batches execute back-to-back
  std::size_t batch_first_warp_ = 0;   ///< index into all_warp_cycles
  std::uint64_t overflow_pairs_ = 0;   ///< count at the last detection
};

/// The sj.* metric family, identical for both drivers; the fleet adds
/// its sj.fleet.* gauges after it.
void publish_metrics(obs::Registry& m, const SelfJoinStats& s) {
  m.counter("sj.batches").add(s.num_batches);
  m.counter("sj.result_pairs").add(s.result_pairs);
  m.counter("sj.warps_launched").add(s.kernel.warps_launched);
  m.counter("sj.warp_steps").add(s.kernel.warp_steps);
  m.counter("sj.active_lane_steps").add(s.kernel.active_lane_steps);
  m.counter("sj.atomics").add(s.kernel.atomics_executed);
  m.counter("sj.overflow_retries").add(s.overflow_retries);
  m.counter("sj.aborted_launches").add(s.wasted.aborted_launches);
  m.counter("sj.wasted_pairs").add(s.wasted.results_emitted);
  m.counter("sj.wasted_cycles").add(s.wasted.busy_cycles);
  m.gauge("sj.wee_percent").set(s.wee_percent());
  m.gauge("sj.warp_cycle_cov").set(s.warp_cycle_cov());
  m.gauge("sj.warp_cycle_gini").set(s.warp_cycle_gini());
  m.gauge("sj.estimated_total_pairs")
      .set(static_cast<double>(s.estimated_total_pairs));
  m.gauge("sj.kernel_seconds").set(s.kernel_seconds);
  m.gauge("sj.total_seconds").set(s.total_seconds);
  m.gauge("sj.host_prep_seconds").set(s.host_prep_seconds);
}

}  // namespace

void execute_self_join(const SelfJoinConfig& cfg, const ExecutionInputs& in,
                       ScratchArena& arena, SelfJoinOutput& out) {
  const BatchPlan& plan = *in.plan;
  BatchRunner runner(cfg, in, arena, out, /*device_events=*/true);
  auto& kernel_secs = arena.kernel_secs;
  auto& xfer_secs = arena.xfer_secs;
  kernel_secs.clear();
  xfer_secs.clear();
  kernel_secs.reserve(plan.num_batches);
  xfer_secs.reserve(plan.num_batches);
  const DeviceLane lane{in.device, 0, kernel_secs, xfer_secs,
                        out.stats.kernel};
  if (cfg.work_queue) {
    runner.run_ranges(lane, in.queue_order, plan.queue_ranges);
  } else {
    // The strided batch lists, laid back to back so a batch (and each
    // half of a split one) is a range of one sequence.
    std::vector<PointId> points;
    std::vector<Range> ranges;
    ranges.reserve(plan.batches.size());
    for (const std::vector<PointId>& b : plan.batches) {
      ranges.emplace_back(points.size(), points.size() + b.size());
      points.insert(points.end(), b.begin(), b.end());
    }
    runner.run_ranges(lane, points, ranges);
  }
  runner.finish();
  out.stats.kernel_seconds = 0.0;
  for (double s : kernel_secs) out.stats.kernel_seconds += s;
  out.stats.total_seconds =
      pipeline_seconds(kernel_secs, xfer_secs, cfg.batching.nstreams);
  if (cfg.metrics != nullptr) publish_metrics(*cfg.metrics, out.stats);
}

void execute_fleet(const SelfJoinConfig& cfg, const ExecutionInputs& in,
                   ScratchArena& arena, SelfJoinOutput& out) {
  const GridIndex& grid = *in.grid;
  const simt::FleetConfig& fc = cfg.fleet;
  const std::vector<simt::DeviceConfig> devices = fc.resolve(in.device);
  const std::size_t ndev = devices.size();
  const std::uint64_t estimated_total = in.plan->estimated_total_pairs;
  BatchRunner runner(cfg, in, arena, out, /*device_events=*/false);

  // --- grain partition (grid/grain.hpp) ---
  // Adaptive: workload-weighted grains, several per device, so the
  // scheduler has something to rebalance. Static baseline: exactly one
  // cell-count-uniform grain per device, grain i pinned to device i.
  // R×S (in.probe set): grains are contiguous *probe-id* ranges — the
  // grid's cell ranges shard the gridded side, but the fleet partitions
  // query points, which here live in the probe dataset.
  const Dataset* probe = in.probe;
  std::vector<WorkGrain> grains;
  if (probe != nullptr) {
    grains = partition_probe_grains(
        probe->size(),
        fc.adaptive ? in.point_workloads : std::span<const std::uint64_t>{},
        fc.adaptive ? ndev * static_cast<std::size_t>(fc.grains_per_device)
                    : ndev);
  } else if (fc.adaptive) {
    const std::vector<std::uint64_t> weights =
        grain_cell_weights(grid, in.point_workloads);
    grains = partition_grains(
        grid, weights,
        ndev * static_cast<std::size_t>(fc.grains_per_device));
  } else {
    grains = partition_grains(grid, {}, ndev);
  }
  const std::size_t num_grains = grains.size();
  std::uint64_t total_weight = 0;
  for (const WorkGrain& g : grains) total_weight += g.workload;

  // Bucket D' into per-grain queues in one stable pass: each grain's
  // queue preserves the global workload-sorted consumption order. For
  // the self-join a point's grain is found through its cell; probe
  // points have no cell in the gridded index, but probe grains are
  // contiguous id ranges so the id→grain table is direct.
  std::vector<std::vector<PointId>> grain_queues;
  if (cfg.work_queue) {
    // grain_of: probe id → grain for R×S, cell → grain for the self-join.
    std::vector<std::uint32_t> grain_of(
        probe != nullptr ? probe->size() : grid.cells().size());
    grain_queues.resize(num_grains);
    for (std::size_t g = 0; g < num_grains; ++g) {
      const WorkGrain& w = grains[g];
      std::fill(grain_of.begin() + (probe != nullptr ? w.point_begin
                                                     : w.cell_begin),
                grain_of.begin() + (probe != nullptr ? w.point_end
                                                     : w.cell_end),
                static_cast<std::uint32_t>(g));
      grain_queues[g].reserve(w.points());
    }
    for (const PointId p : in.queue_order) {
      grain_queues[grain_of[probe != nullptr ? p : grid.cell_of_point(p)]]
          .push_back(p);
    }
  }

  std::vector<std::vector<double>> dev_kernel_secs(ndev);
  std::vector<std::vector<double>> dev_xfer_secs(ndev);

  // --- schedule + execute: LPT order, predicted-finish placement,
  // measured-rate feedback after every grain ---
  std::vector<std::size_t> order(num_grains);
  for (std::size_t i = 0; i < num_grains; ++i) order[i] = i;
  if (fc.adaptive) {
    std::stable_sort(order.begin(), order.end(),
                     [&grains](std::size_t a, std::size_t b) {
                       return grains[a].workload > grains[b].workload;
                     });
  }
  simt::DeviceFleet fleet(devices);
  std::uint64_t rebalances = 0;
  std::vector<PointId> probe_ids;
  std::vector<PointId> strided_points;
  std::vector<Range> ranges;

  for (const std::size_t gidx : order) {
    const WorkGrain& grain = grains[gidx];
    const std::size_t owner = gidx * ndev / num_grains;
    const std::size_t dev = fc.adaptive ? fleet.pick(grain.workload) : owner;
    if (dev != owner) ++rebalances;
    simt::KernelStats grain_kernel;
    const DeviceLane lane{devices[dev], static_cast<int>(dev),
                          dev_kernel_secs[dev], dev_xfer_secs[dev],
                          grain_kernel};
    const std::size_t first_launch = dev_kernel_secs[dev].size();
    ranges.clear();

    if (cfg.work_queue) {
      // Contiguous chunks over the grain's queue slice, cut by the
      // same two budgets as plan_queue: the 2w+1 hard bound and the
      // grain-scaled statistical estimate.
      const std::vector<PointId>& q = grain_queues[gidx];
      if (!cfg.batching.enabled) {
        if (!q.empty()) ranges.emplace_back(0, q.size());
      } else if (!q.empty()) {
        const std::uint64_t est_g =
            total_weight == 0
                ? 0
                : static_cast<std::uint64_t>(
                      static_cast<double>(estimated_total) *
                      (static_cast<double>(grain.workload) /
                       static_cast<double>(total_weight)));
        const double est_per_point =
            static_cast<double>(est_g) * cfg.batching.safety /
            static_cast<double>(q.size());
        ranges = cut_queue_chunks(q, in.point_workloads, est_per_point,
                                  cfg.batching.buffer_pairs);
      }
      runner.run_ranges(lane, q, ranges);
    } else {
      // Probe grains own an id *range*, not a slice of point_ids();
      // materialize it (reused buffer, cleared per grain).
      std::span<const PointId> gp;
      if (probe != nullptr) {
        probe_ids.resize(grain.points());
        std::iota(probe_ids.begin(), probe_ids.end(),
                  static_cast<PointId>(grain.point_begin));
        gp = probe_ids;
      } else {
        gp = grid.point_ids().subspan(grain.point_begin, grain.points());
      }
      // Strided chunks within the grain, count scaled from the grain's
      // share of the whole-join estimate (plan_strided's scheme at
      // grain granularity): point i goes to batch i mod nb, and the
      // batches are laid back to back.
      std::size_t nb = 1;
      if (cfg.batching.enabled && total_weight != 0 && !gp.empty()) {
        const double est_g =
            static_cast<double>(estimated_total) *
            (static_cast<double>(grain.workload) /
             static_cast<double>(total_weight)) *
            cfg.batching.safety;
        nb = static_cast<std::size_t>(
            est_g / static_cast<double>(cfg.batching.buffer_pairs)) + 1;
        nb = std::min(nb, gp.size());
      }
      strided_points.clear();
      for (std::size_t b = 0; b < nb; ++b) {
        const std::size_t begin = strided_points.size();
        for (std::size_t i = b; i < gp.size(); i += nb) {
          strided_points.push_back(gp[i]);
        }
        if (cfg.sort_by_workload) {
          std::stable_sort(strided_points.begin() +
                               static_cast<std::ptrdiff_t>(begin),
                           strided_points.end(),
                           [&in](PointId a, PointId c) {
                             return in.point_workloads[a] >
                                    in.point_workloads[c];
                           });
        }
        ranges.emplace_back(begin, strided_points.size());
      }
      runner.run_ranges(lane, strided_points, ranges);
    }
    // Modeled device time of every launch of this grain, wasted ones
    // included, in launch order: the scheduler's rate feedback.
    double grain_secs = 0.0;
    for (std::size_t i = first_launch; i < dev_kernel_secs[dev].size(); ++i) {
      grain_secs += dev_kernel_secs[dev][i];
    }
    fleet.record(dev, grain.workload, grain_secs, grain_kernel);
  }
  runner.finish();

  // --- device-level stats, concurrent composition ---
  out.stats.fleet = fleet.finish(num_grains, rebalances);
  out.stats.kernel = simt::KernelStats{};
  for (const simt::DeviceLoad& l : out.stats.fleet.devices) {
    out.stats.kernel.merge_concurrent(l.kernel);
  }
  out.stats.kernel_seconds = out.stats.fleet.makespan_seconds;
  out.stats.total_seconds = 0.0;
  for (std::size_t d = 0; d < ndev; ++d) {
    out.stats.total_seconds = std::max(
        out.stats.total_seconds,
        pipeline_seconds(dev_kernel_secs[d], dev_xfer_secs[d],
                         cfg.batching.nstreams));
  }
  if (cfg.metrics != nullptr) {
    obs::Registry& m = *cfg.metrics;
    publish_metrics(m, out.stats);
    const simt::FleetStats& fs = out.stats.fleet;
    m.gauge("sj.fleet.devices").set(static_cast<double>(ndev));
    m.counter("sj.fleet.grains").add(fs.num_grains);
    m.counter("sj.fleet.rebalances").add(fs.rebalances);
    m.gauge("sj.fleet.device_cov").set(fs.device_cov);
    m.gauge("sj.fleet.makespan_seconds").set(fs.makespan_seconds);
    m.gauge("sj.fleet.tail_idle_seconds").set(fs.tail_idle_seconds);
    m.gauge("sj.fleet.imbalance").set(fs.imbalance);
  }
}

std::uint64_t subsume_filter(const Dataset& ds,
                             std::span<const ResultPair> pairs,
                             double epsilon, ResultSet* out) {
  const double eps2 = epsilon * epsilon;
  std::uint64_t kept = 0;
  // The 2-D specialization reads the two coordinate columns through
  // spans so the distance math in the hot loop is branch-free and
  // auto-vectorizable; higher dimensions fall back to dist2 (which
  // early-exits per dimension).
  if (ds.dims() == 2) {
    const std::span<const double> x = ds.dim(0);
    const std::span<const double> y = ds.dim(1);
    for (const auto& [a, b] : pairs) {
      const double dx = x[a] - x[b];
      const double dy = y[a] - y[b];
      if (dx * dx + dy * dy <= eps2) {
        ++kept;
        if (out != nullptr) out->emit(a, b);
      }
    }
  } else {
    for (const auto& [a, b] : pairs) {
      if (ds.dist2(a, b) <= eps2) {
        ++kept;
        if (out != nullptr) out->emit(a, b);
      }
    }
  }
  return kept;
}

}  // namespace gsj::detail
