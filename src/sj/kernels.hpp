// The self-join GPU kernel, expressed for the SIMT simulator.
//
// One kernel type covers all of the paper's variants; the configuration
// selects behaviour exactly the way the CUDA implementations differ:
//
//  * GPUCALCGLOBAL [18]        — pattern FULL, Static assignment, k=1
//  * UNICOMP [18]              — pattern UNICOMP
//  * LID-UNICOMP (§III-B)      — pattern LID-UNICOMP
//  * k-granularity (§III-A)    — k>1 lanes per query point; candidate
//                                ranges are strided across the k lanes
//                                of a cooperative group
//  * WORKQUEUE (§III-D)        — points taken from a device-global
//                                atomic counter over the workload-sorted
//                                order D'; with k>1 only the group
//                                leader increments and broadcasts the
//                                grabbed index (cooperative groups /
//                                __shfl_sync)
//
// A lane's program is the CUDA kernel's loop nest unrolled into lockstep
// work units:
//   NextCell step — advance the 3^n adjacency odometer by one slot:
//       bounds check + pattern predicate (cost_pattern_check), plus a
//       binary search into the non-empty cell array when the slot
//       survives (cost_cell_probe);
//   Scan step     — one candidate distance calculation (cost_dist) and,
//       within epsilon, result emission (cost_emit).
//
// That per-step form (init_lane + step) is the specification, and the
// one the generic simt loop and the oracle tests drive. The launch
// itself calls run_warp (simt::WarpRunnerKernel), which executes the
// same programs lane-major in one tight routine and reproduces every
// modeled quantity bit for bit:
//   * each lane walks its own program — one step per adjacency slot and
//     a scan run per non-empty cell at stride k — with no per-step call,
//     reading candidates from the grid's cell-ordered coordinates
//     (GridIndex::cell_coords), so a cell's candidates are contiguous;
//   * every step costs one of six values (retire 1, pattern check,
//     check+probe, check+emit for the centre self pair, distance,
//     distance+emit), so each value is a bitset over the warp's steps:
//     a lane ORs its slot runs in as ranges plus a shifted copy of its
//     program's probe-slot bitset, and each scan run as one range plus
//     64-wide hit masks from a branch-free distance loop. The warp's
//     cycles are init + Σ_c cost_c·|B_c \ ∪_{cost_c' > cost_c} B_c'|,
//     a word at a time, which equals Σ_t max_lane cost — exactly what
//     simt::detail::warp_step_loop computes; its steps are the longest
//     lane and its active lane-steps the sum of lane lengths;
//   * the 3^n slot program of an origin cell (probe-slot bitset and the
//     candidate range of each non-empty slot) is built once per kernel,
//     i.e. per batch launch, in a thread-local cache keyed by origin
//     cell, and replayed by every lane with that origin; the centre
//     slot stays lane-specific (rank rule, self pair). R×S queries have
//     no origin cell and build their programs per warp;
//   * count-only mode adds popcount(hit mask) per 64 candidates; pair
//     storage walks the mask's set bits into step-tagged emissions and
//     writes them through a stable counting sort by step, so the stored
//     pair stream stays step-major, lane-minor — byte-identical to the
//     lockstep loop.
// docs/SIMULATOR.md has the equivalence argument, docs/PERFORMANCE.md
// the host-time effect.
//
// Result-pair semantics match reference.hpp: all ordered pairs with
// self pairs. FULL evaluates both directions and emits one pair per
// evaluation; the unidirectional patterns evaluate each unordered pair
// once (adjacent cells via the pattern predicate, the own cell via the
// grid-rank rule) and emit both ordered pairs.
//
// Buffer overflow: emissions go through ResultSet's batch window (see
// result_set.hpp) — like the CUDA kernel's atomicAdd into a fixed
// pinned buffer, a lane keeps *counting* past the capacity while writes
// are dropped, and lane behaviour never branches on the shared count
// (what keeps the parallel host path bit-identical). The host aborts
// an overflowing launch at warp-block granularity via simt::launch's
// abort hook and rolls the batch back (sj/selfjoin.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "grid/cell_access.hpp"
#include "grid/grid_index.hpp"
#include "simt/counter.hpp"
#include "simt/device.hpp"
#include "simt/launch.hpp"
#include "sj/result_set.hpp"

namespace gsj {

/// How query points are bound to thread groups.
enum class Assignment {
  Static,     ///< group g processes points[g] (strided batch lists)
  WorkQueue,  ///< group leader atomically pops the next index of `queue`
};

[[nodiscard]] std::string to_string(Assignment a);

struct KernelParams {
  const GridIndex* grid = nullptr;
  CellPattern pattern = CellPattern::Full;
  Assignment assignment = Assignment::Static;
  /// R×S mode: query ids index this dataset instead of the gridded one
  /// (candidate ids still index the grid's dataset). Each in-ε
  /// candidate emits exactly one (probe_id, grid_id) pair — no mirror,
  /// no self-pair, no own-cell rank rule, and `pattern` is ignored
  /// (every cell of the probe's 3^n window must be scanned). nullptr
  /// keeps the classic self-join semantics.
  const Dataset* probe = nullptr;
  int k = 1;  ///< lanes per query point; must divide warp_size
  /// Static: this batch's query list. The launch must use
  /// points.size() * k threads.
  std::span<const PointId> points;
  /// WorkQueue: the full workload-sorted order D' and the shared head
  /// counter (pre-positioned at this batch's first index). The launch
  /// must use (range size) * k threads.
  std::span<const PointId> queue;
  simt::DeviceCounter* counter = nullptr;
  const simt::DeviceConfig* device = nullptr;
  ResultSet* results = nullptr;
};

class SelfJoinKernel {
 public:
  explicit SelfJoinKernel(const KernelParams& p);

  struct LaneState {
    PointId q = 0;
    std::uint32_t rank = 0;        ///< grid rank of q (own-cell rule)
    std::uint32_t group_rank = 0;  ///< 0..k-1 within the cooperative group
    std::uint64_t origin_id = 0;   ///< linear id of q's cell
    std::size_t origin_cell = 0;   ///< index into grid.cells()
    CellCoords oc{};               ///< q's cell coordinates
    std::uint64_t adj_cursor = 0;  ///< odometer over the 3^n slots
    std::uint32_t cand_pos = 0;    ///< current candidate (into point_ids)
    std::uint32_t cand_end = 0;
    bool scanning = false;
  };

  /// Per-warp side-effect sink for parallel host execution (see
  /// simt::ParallelHostKernel): each warp's step loop emits into a
  /// private ResultSet; merge_shard appends them to the shared set in
  /// dispatch order, reproducing the sequential emission stream byte
  /// for byte.
  struct Shard {
    ResultSet results;
    std::uint64_t emitted = 0;

    /// `capacity` bounds the shard's own pair storage to the batch
    /// buffer capacity (counting continues past it), so even a single
    /// runaway warp cannot materialize unbounded memory while its
    /// launch is overflowing.
    Shard(bool store_pairs, std::uint64_t capacity) : results(store_pairs) {
      results.begin_batch(capacity);
    }
  };

  simt::InitResult init_lane(LaneState& s, const simt::LaneCtx& ctx,
                             simt::WarpScratch& scratch);
  simt::StepResult step(LaneState& s) {
    return step_into(s, *p_.results, emitted_);
  }

  // --- parallel host execution (simt::ParallelHostKernel) ---
  [[nodiscard]] Shard make_shard() const {
    return Shard(p_.results->stores_pairs(), p_.results->batch_capacity());
  }
  /// Thread-safe step: all mutation goes to `shard` (the kernel's own
  /// state is read-only here; init_lane already ran sequentially).
  simt::StepResult step(LaneState& s, Shard& shard) {
    return step_into(s, shard.results, shard.emitted);
  }
  void merge_shard(Shard&& shard) {
    emitted_ += shard.emitted;
    p_.results->absorb(std::move(shard.results));
  }

  // --- whole-warp runner (simt::WarpRunnerKernel) ---
  /// Runs one dispatched warp's lockstep loop lane-major over lanes
  /// already initialized by init_lane; returns exactly what
  /// simt::detail::warp_step_loop would over step() (see header).
  simt::WarpRun run_warp(int warp_size, const LaneState* lanes,
                         const std::uint8_t* active, std::uint64_t init_cost) {
    return run_warp_into(warp_size, lanes, active, init_cost, *p_.results,
                         emitted_);
  }
  /// Thread-safe variant for the parallel host path (cf. step(s, shard)).
  simt::WarpRun run_warp(int warp_size, const LaneState* lanes,
                         const std::uint8_t* active, std::uint64_t init_cost,
                         Shard& shard) const {
    return run_warp_into(warp_size, lanes, active, init_cost, shard.results,
                         shard.emitted);
  }

  [[nodiscard]] std::uint64_t atomics_executed() const noexcept {
    return atomics_;
  }
  [[nodiscard]] std::uint64_t results_emitted() const noexcept {
    return emitted_;
  }

 private:
  simt::StepResult step_into(LaneState& s, ResultSet& out,
                             std::uint64_t& emitted) const;
  simt::StepResult next_cell(LaneState& s, ResultSet& out,
                             std::uint64_t& emitted) const;
  simt::StepResult scan(LaneState& s, ResultSet& out,
                        std::uint64_t& emitted) const;

  simt::WarpRun run_warp_into(int warp_size, const LaneState* lanes,
                              const std::uint8_t* active,
                              std::uint64_t init_cost, ResultSet& out,
                              std::uint64_t& emitted) const;
  template <int D>
  simt::WarpRun run_warp_dims(int warp_size, const LaneState* lanes,
                              const std::uint8_t* active,
                              std::uint64_t init_cost, ResultSet& out,
                              std::uint64_t& emitted) const;

  /// Squared distance of query `q` (probe dataset in R×S mode, gridded
  /// dataset otherwise) to the candidate at grid-order position `pos`
  /// (always the gridded dataset), for both modes. run_warp_dims
  /// unrolls the same sum, in the same order, per dimensionality.
  [[nodiscard]] double dist2(PointId q, std::uint32_t pos) const noexcept {
    double sum = 0.0;
    for (int d = 0; d < dims_; ++d) {
      const double diff = qcoords_[static_cast<std::size_t>(d)][q] -
                          cell_coords_[static_cast<std::size_t>(d)][pos];
      sum += diff * diff;
    }
    return sum;
  }

  KernelParams p_;
  // Cached hot fields.
  const GridCell* cells_ = nullptr;
  const PointId* point_ids_ = nullptr;
  /// Gridded dataset in grid order (GridIndex::cell_coords).
  std::array<const double*, kMaxDims> cell_coords_{};
  /// Query side, by point id: the probe dataset for R×S, else the
  /// gridded dataset.
  std::array<const double*, kMaxDims> qcoords_{};
  int dims_ = 0;
  double eps2_ = 0.0;
  std::uint64_t adj_total_ = 0;   ///< 3^dims
  std::uint64_t adj_center_ = 0;  ///< odometer slot of the origin cell
  bool unidirectional_ = false;
  bool rxs_ = false;
  std::uint32_t cost_dist_ = 0;
  /// Step cost classes of run_warp (see header): cost per class, and
  /// the classes ordered by descending cost.
  std::array<std::uint32_t, 6> class_cost_{};
  std::array<std::uint8_t, 6> class_order_{};
  /// Process-unique id: keys run_warp's thread-local slot-program cache
  /// to this kernel, so a later kernel never replays stale programs.
  std::uint64_t id_ = 0;
  std::uint64_t atomics_ = 0;
  std::uint64_t emitted_ = 0;
};

}  // namespace gsj
