#include "sj/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <vector>

#include "common/check.hpp"

namespace gsj {

namespace {

/// One slot of an origin cell's program whose NextCell step opens a
/// candidate range [begin, end) into the grid order (before the k-way
/// split). Slots without a range only cost their step.
struct SlotEvent {
  std::uint32_t slot = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// Slot programs: the NextCell half of a lane's program, which depends
/// only on the origin cell. Program p owns the probe-slot bitset
/// probe[p*w, (p+1)*w), w = ⌈3^n / 64⌉ — the slots whose step pays a
/// cell probe — and events[event_first[p], event_first[p+1]); span[p] is the
/// summed size of its events' ranges, which bounds a lane's scan steps.
struct SlotPrograms {
  std::vector<std::uint64_t> probe;
  std::vector<SlotEvent> events;
  std::vector<std::size_t> event_first{0};
  std::vector<std::uint32_t> span;

  void reset() {
    probe.clear();
    events.clear();
    event_first.assign(1, 0);
    span.clear();
  }
  [[nodiscard]] std::size_t size() const { return event_first.size() - 1; }
};

/// A pair emitted at lockstep step `step` of the warp.
struct Emission {
  std::uint32_t step = 0;
  PointId a = 0;
  PointId b = 0;
};

/// The step cost classes of run_warp (kernels.hpp): every modeled step
/// costs the value of exactly one class, the one it is charged at.
enum StepClass : std::uint8_t { kRetire, kCheck, kProbe, kSelf, kMiss, kHit };
constexpr std::size_t kClasses = 6;

/// Scratch of the whole-warp runner. One per host thread (the parallel
/// path runs warps concurrently), reused across warps and launches.
struct WarpBuffers {
  /// Per-class bitsets over the warp's steps; `words` of each are in
  /// use (zeroed) by the current warp.
  std::array<std::vector<std::uint64_t>, kClasses> bits;
  std::size_t words = 0;
  std::vector<Emission> emissions;  ///< lane-major, step-tagged
  std::vector<Emission> sorted;     ///< step-major after the sort
  std::vector<std::uint32_t> step_first;  ///< counting-sort offsets
  /// R×S: the distinct origins of this warp and their programs.
  std::vector<CellCoords> origins;
  SlotPrograms rxs_programs;

  /// Makes the bitsets cover steps [0, len), with a spare word for
  /// unaligned 64-bit ORs.
  void cover(std::size_t len) {
    const std::size_t need = (len >> 6) + 2;
    if (need <= words) return;
    for (auto& b : bits) {
      if (b.size() < need) b.resize(need);
      std::fill(b.begin() + static_cast<std::ptrdiff_t>(words),
                b.begin() + static_cast<std::ptrdiff_t>(need), 0);
    }
    words = need;
  }
};

/// Self-join slot programs of one kernel (one batch launch), keyed by
/// origin cell index. Rebinding to another kernel clears only the
/// entries the previous one touched.
struct ProgramCache {
  /// Events and probe-slot words held before the cache is flushed and
  /// refilled, which bounds its memory per host thread to under 1 MB
  /// on grids with many cells or dimensions (the self-skew inputs stay
  /// below both).
  static constexpr std::size_t kMaxEvents = std::size_t{1} << 14;
  static constexpr std::size_t kMaxProbeWords = std::size_t{1} << 15;
  /// Cells by_origin covers without growing.
  static constexpr std::size_t kReservedCells = std::size_t{1} << 16;

  std::uint64_t kernel = 0;  ///< id of the SelfJoinKernel they belong to
  std::vector<std::uint32_t> by_origin;  ///< program + 1 per cell, 0 = none
  std::vector<std::uint32_t> origins;    ///< origin cell of each program
  SlotPrograms programs;

  void bind(std::uint64_t kernel_id, std::size_t ncells) {
    if (kernel == kernel_id) return;
    if (kernel == 0) reserve();
    flush();
    if (by_origin.size() < ncells) by_origin.resize(ncells, 0);
    kernel = kernel_id;
  }
  /// Checked before a program is added, so each cap is exceeded by at
  /// most one program.
  [[nodiscard]] bool full() const {
    return programs.events.size() > kMaxEvents ||
           programs.probe.size() > kMaxProbeWords;
  }
  void flush() {
    for (const std::uint32_t o : origins) by_origin[o] = 0;
    origins.clear();
    programs.reset();
  }

 private:
  /// Allocates the capped storage once, at the thread's first kernel.
  /// Grown step by step instead, these long-lived blocks interleave
  /// with the joins' short-lived ones in the thread's malloc arena and
  /// raised the traced self-skew run's peak RSS from 23 to 35 MB.
  void reserve() {
    constexpr std::size_t max_slots = [] {
      std::size_t n = 1;
      for (int d = 0; d < kMaxDims; ++d) n *= 3;
      return n;
    }();
    // Every self-join program holds its centre event, so there are at
    // most as many programs as events.
    const std::size_t max_programs = kMaxEvents + 1;
    programs.events.reserve(kMaxEvents + max_slots);
    programs.probe.reserve(kMaxProbeWords + (max_slots + 63) / 64);
    programs.event_first.reserve(max_programs + 1);
    programs.span.reserve(max_programs);
    origins.reserve(max_programs);
    by_origin.reserve(kReservedCells);
  }
};

thread_local WarpBuffers t_warp_buffers;
thread_local ProgramCache t_program_cache;

std::atomic<std::uint64_t> g_next_kernel_id{1};

/// Pair buffers above this many entries are released after the warp
/// that needed them, so one huge warp does not pin memory in a
/// long-lived host thread.
constexpr std::size_t kRetainedEmissions = std::size_t{1} << 20;

constexpr std::uint64_t low_bits(std::size_t n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// Sets bits [from, from + n) of `w`.
inline void set_range(std::uint64_t* w, std::size_t from, std::size_t n) {
  if (n == 0) return;
  std::size_t i = from >> 6;
  const std::size_t last = (from + n - 1) >> 6;
  if (i == last) {
    w[i] |= low_bits(n) << (from & 63);
    return;
  }
  w[i] |= ~std::uint64_t{0} << (from & 63);
  for (++i; i < last; ++i) w[i] = ~std::uint64_t{0};
  w[last] |= low_bits(((from + n - 1) & 63) + 1);
}

/// ORs the 64-bit chunk `m` into `w` at bit `at` (w[at/64 + 1] must
/// exist).
inline void or_word(std::uint64_t* w, std::size_t at, std::uint64_t m) {
  const std::size_t i = at >> 6;
  const std::size_t sh = at & 63;
  w[i] |= m << sh;
  if (sh != 0) w[i + 1] |= m >> (64 - sh);
}

/// ORs bits [from, from + n) of `src` into `dst` starting at bit `at`.
inline void or_bits(std::uint64_t* dst, std::size_t at,
                    const std::uint64_t* src, std::size_t from,
                    std::size_t n) {
  for (std::size_t off = 0; off < n; off += 64) {
    const std::size_t m = std::min<std::size_t>(64, n - off);
    const std::size_t i = (from + off) >> 6;
    const std::size_t sh = (from + off) & 63;
    std::uint64_t v = src[i] >> sh;
    if (sh != 0 && sh + m > 64) v |= src[i + 1] << (64 - sh);
    or_word(dst, at + off, v & low_bits(m));
  }
}

/// Bit j set iff the candidate at grid-order position first + j*k lies
/// within eps of `q`, for j < m ≤ 64. The sum runs in dist2()'s order,
/// and a NaN distance is a miss, as in scan().
template <int D>
inline std::uint64_t hit_mask(const std::array<double, D>& q,
                              const std::array<const double*, D>& cc,
                              std::uint32_t first, std::uint32_t k,
                              std::uint32_t m, double eps2) {
  std::uint64_t mask = 0;
  std::uint32_t pos = first;
  for (std::uint32_t j = 0; j < m; ++j, pos += k) {
    double sum = 0.0;
    for (int d = 0; d < D; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      const double diff = q[sd] - cc[sd][pos];
      sum += diff * diff;
    }
    mask |= static_cast<std::uint64_t>(sum <= eps2) << j;
  }
  return mask;
}

}  // namespace

std::string to_string(Assignment a) {
  return a == Assignment::Static ? "STATIC" : "WORKQUEUE";
}

SelfJoinKernel::SelfJoinKernel(const KernelParams& p) : p_(p) {
  GSJ_CHECK(p.grid != nullptr && p.device != nullptr && p.results != nullptr);
  GSJ_CHECK_MSG(p.k >= 1 && p.device->warp_size % p.k == 0,
                "k=" << p.k << " must divide warp_size="
                     << p.device->warp_size);
  if (p.assignment == Assignment::WorkQueue) {
    GSJ_CHECK(p.counter != nullptr && !p.queue.empty());
  }

  const GridIndex& grid = *p.grid;
  cells_ = grid.cells().data();
  point_ids_ = grid.point_ids().data();
  dims_ = grid.dims();
  for (int d = 0; d < dims_; ++d) {
    cell_coords_[static_cast<std::size_t>(d)] = grid.cell_coords(d).data();
  }
  rxs_ = p.probe != nullptr;
  if (rxs_) {
    GSJ_CHECK_MSG(p.probe->dims() == dims_,
                  "probe dims=" << p.probe->dims() << " vs grid dims="
                                << dims_);
    for (int d = 0; d < dims_; ++d) {
      qcoords_[static_cast<std::size_t>(d)] = p.probe->dim(d).data();
    }
  } else {
    for (int d = 0; d < dims_; ++d) {
      qcoords_[static_cast<std::size_t>(d)] = grid.dataset().dim(d).data();
    }
  }
  eps2_ = grid.epsilon() * grid.epsilon();
  adj_total_ = grid.adjacency_volume();
  adj_center_ = (adj_total_ - 1) / 2;  // all offsets zero
  unidirectional_ = !rxs_ && is_unidirectional(p.pattern);
  cost_dist_ = p.device->cost_dist(dims_);

  const simt::DeviceConfig& dev = *p.device;
  class_cost_[kRetire] = 1;
  class_cost_[kCheck] = dev.cost_pattern_check;
  class_cost_[kProbe] = dev.cost_pattern_check + dev.cost_cell_probe;
  class_cost_[kSelf] = dev.cost_pattern_check + dev.cost_emit;
  class_cost_[kMiss] = cost_dist_;
  class_cost_[kHit] = cost_dist_ + dev.cost_emit;
  for (std::size_t c = 0; c < kClasses; ++c) {
    class_order_[c] = static_cast<std::uint8_t>(c);
  }
  std::stable_sort(class_order_.begin(), class_order_.end(),
                   [this](std::uint8_t a, std::uint8_t b) {
                     return class_cost_[a] > class_cost_[b];
                   });
  id_ = g_next_kernel_id.fetch_add(1, std::memory_order_relaxed);
}

simt::InitResult SelfJoinKernel::init_lane(LaneState& s,
                                           const simt::LaneCtx& ctx,
                                           simt::WarpScratch& scratch) {
  const auto k = static_cast<std::uint64_t>(p_.k);
  const std::uint64_t group_global = ctx.global_thread_id / k;
  s.group_rank = static_cast<std::uint32_t>(ctx.global_thread_id % k);

  std::uint32_t cost = 2;  // thread-id math / guard
  if (p_.assignment == Assignment::Static) {
    GSJ_DCHECK(group_global < p_.points.size());
    s.q = p_.points[group_global];
  } else {
    // Cooperative group: the leader lane pops the queue head and
    // broadcasts through warp scratch (lanes initialize in order, so
    // the leader has always run first).
    const std::size_t group_in_warp = static_cast<std::size_t>(ctx.lane_id) / k;
    if (static_cast<std::uint64_t>(ctx.lane_id) % k == 0) {
      scratch[group_in_warp] = p_.counter->fetch_add(1);
      ++atomics_;
      cost += p_.device->cost_atomic;
    }
    const std::uint64_t idx = scratch[group_in_warp];
    GSJ_DCHECK(idx < p_.queue.size());
    s.q = p_.queue[idx];
  }

  const GridIndex& grid = *p_.grid;
  if (rxs_) {
    // Probe points have no cell of their own in the grid: anchor the
    // 3^n window at their banded coordinates (grid/grid_index.hpp).
    // rank / origin_cell / origin_id stay at their defaults — the R×S
    // scan never consults them.
    for (int d = 0; d < dims_; ++d) {
      s.oc[d] = grid.probe_cell_coord(p_.probe->coord(s.q, d), d);
    }
  } else {
    s.rank = grid.grid_rank(s.q);
    s.origin_cell = grid.cell_of_point(s.q);
    s.origin_id = cells_[s.origin_cell].linear_id;
    s.oc = grid.decode(s.origin_id);
  }
  s.adj_cursor = 0;
  s.scanning = false;
  cost += 4;  // point load + cell decode
  return {true, cost};
}

simt::StepResult SelfJoinKernel::step_into(LaneState& s, ResultSet& out,
                                           std::uint64_t& emitted) const {
  return s.scanning ? scan(s, out, emitted) : next_cell(s, out, emitted);
}

simt::StepResult SelfJoinKernel::scan(LaneState& s, ResultSet& out,
                                      std::uint64_t& emitted) const {
  const PointId c = point_ids_[s.cand_pos];
  std::uint32_t cost = cost_dist_;
  if (dist2(s.q, s.cand_pos) <= eps2_) {
    out.emit(s.q, c);
    ++emitted;
    if (unidirectional_) {
      // This evaluation is the only one for the unordered pair {q, c}:
      // mirror it (the CUDA code writes both pairs to the buffer).
      out.emit(c, s.q);
      ++emitted;
    }
    cost += p_.device->cost_emit;
  }
  s.cand_pos += static_cast<std::uint32_t>(p_.k);
  if (s.cand_pos >= s.cand_end) s.scanning = false;
  return {true, cost};
}

simt::StepResult SelfJoinKernel::next_cell(LaneState& s, ResultSet& out,
                                           std::uint64_t& emitted) const {
  if (s.adj_cursor >= adj_total_) return {false, 1};
  const std::uint64_t cur = s.adj_cursor++;
  std::uint32_t cost = p_.device->cost_pattern_check;

  const GridIndex& grid = *p_.grid;

  if (!rxs_ && cur == adj_center_) {
    // The origin cell itself.
    const GridCell& cell = cells_[s.origin_cell];
    std::uint32_t begin, end = cell.end;
    if (p_.pattern == CellPattern::Full) {
      begin = cell.begin;  // every own-cell point, q included (self pair)
    } else {
      // Rank rule: only own-cell points after q in grid order; each
      // evaluation emits both pairs. The (q,q) self pair is written
      // directly, once per group.
      if (s.group_rank == 0) {
        out.emit(s.q, s.q);
        ++emitted;
        cost += p_.device->cost_emit;
      }
      begin = s.rank + 1;
    }
    begin += s.group_rank;  // k-way split of the candidate range
    if (begin < end) {
      s.cand_pos = begin;
      s.cand_end = end;
      s.scanning = true;
    }
    return {true, cost};
  }

  // Decode the odometer slot into a {-1,0,1}^dims offset (mixed radix,
  // last dimension fastest — matching linear-id order).
  CellCoords nc;
  std::uint64_t rem = cur;
  for (int d = dims_ - 1; d >= 0; --d) {
    const auto off = static_cast<std::int32_t>(rem % 3) - 1;
    rem /= 3;
    const std::int32_t v = s.oc[d] + off;
    if (v < 0 || v >= grid.cells_per_dim(d)) return {true, cost};
    nc[d] = v;
  }

  const std::uint64_t nid = grid.encode(nc);
  // R×S scans every cell of the window — the unidirectional patterns'
  // "evaluate each unordered pair once" trick has nothing to save when
  // queries and candidates come from different datasets.
  if (!rxs_ && !pattern_accepts(p_.pattern, dims_, s.oc, nc, s.origin_id, nid)) {
    return {true, cost};
  }
  const std::size_t nidx = grid.find_cell(nid);
  cost += p_.device->cost_cell_probe;
  if (nidx == GridIndex::npos) return {true, cost};

  const GridCell& cell = cells_[nidx];
  const std::uint32_t begin = cell.begin + s.group_rank;
  if (begin < cell.end) {
    s.cand_pos = begin;
    s.cand_end = cell.end;
    s.scanning = true;
  }
  return {true, cost};
}

simt::WarpRun SelfJoinKernel::run_warp_into(int warp_size,
                                            const LaneState* lanes,
                                            const std::uint8_t* active,
                                            std::uint64_t init_cost,
                                            ResultSet& out,
                                            std::uint64_t& emitted) const {
  // The dimensionality is a template parameter of the lane loop, so the
  // distance calculation is fully unrolled over registers.
  switch (dims_) {
    case 1: return run_warp_dims<1>(warp_size, lanes, active, init_cost, out, emitted);
    case 2: return run_warp_dims<2>(warp_size, lanes, active, init_cost, out, emitted);
    case 3: return run_warp_dims<3>(warp_size, lanes, active, init_cost, out, emitted);
    case 4: return run_warp_dims<4>(warp_size, lanes, active, init_cost, out, emitted);
    case 5: return run_warp_dims<5>(warp_size, lanes, active, init_cost, out, emitted);
    case 6: return run_warp_dims<6>(warp_size, lanes, active, init_cost, out, emitted);
    case 7: return run_warp_dims<7>(warp_size, lanes, active, init_cost, out, emitted);
    case 8: return run_warp_dims<8>(warp_size, lanes, active, init_cost, out, emitted);
    default: break;
  }
  GSJ_CHECK_MSG(false, "dims " << dims_ << " outside 1.." << kMaxDims);
  return {};
}

template <int D>
simt::WarpRun SelfJoinKernel::run_warp_dims(int warp_size,
                                            const LaneState* lanes,
                                            const std::uint8_t* active,
                                            std::uint64_t init_cost,
                                            ResultSet& out,
                                            std::uint64_t& emitted) const {
  WarpBuffers& buf = t_warp_buffers;
  const GridIndex& grid = *p_.grid;
  // Pairs past a full batch window would only be counted by emit(), so
  // they are counted here without buffering them.
  const bool store = out.storing();
  const auto adj = static_cast<std::uint32_t>(adj_total_);
  const auto center = static_cast<std::uint32_t>(adj_center_);
  const auto k = static_cast<std::uint32_t>(p_.k);
  const std::uint64_t pairs_per_hit = unidirectional_ ? 2 : 1;
  const std::size_t slot_words = (std::size_t{adj} + 63) / 64;

  // Self-join programs live for the whole kernel; R×S queries have no
  // origin cell and build theirs per warp.
  ProgramCache& cache = t_program_cache;
  SlotPrograms* progs = &buf.rxs_programs;
  if (rxs_) {
    buf.origins.clear();
    progs->reset();
  } else {
    cache.bind(id_, grid.cells().size());
    progs = &cache.programs;
  }
  buf.words = 0;
  buf.emissions.clear();

  const auto same_origin = [](const CellCoords& a, const CellCoords& b) {
    for (int d = 0; d < D; ++d) {
      if (a[d] != b[d]) return false;
    }
    return true;
  };

  // Mirrors next_cell() slot by slot: a slot whose step pays a cell
  // probe gets its bit, a slot reaching a non-empty cell an event.
  const auto build_program = [&](const LaneState& s) {
    const std::size_t base = progs->probe.size();
    const std::size_t first_event = progs->events.size();
    progs->probe.resize(base + slot_words, 0);
    for (std::uint32_t cur = 0; cur < adj; ++cur) {
      if (!rxs_ && cur == center) {
        // The origin cell; the lane narrows the range (rank rule).
        const GridCell& cell = cells_[s.origin_cell];
        progs->events.push_back({cur, cell.begin, cell.end});
        continue;
      }
      CellCoords nc;
      bool in_bounds = true;
      std::uint32_t rem = cur;
      for (int d = D - 1; d >= 0; --d) {
        const auto off = static_cast<std::int32_t>(rem % 3) - 1;
        rem /= 3;
        const std::int32_t v = s.oc[d] + off;
        if (v < 0 || v >= grid.cells_per_dim(d)) {
          in_bounds = false;
          break;
        }
        nc[d] = v;
      }
      if (!in_bounds) continue;
      const std::uint64_t nid = grid.encode(nc);
      if (!rxs_ && !pattern_accepts(p_.pattern, D, s.oc, nc, s.origin_id, nid)) {
        continue;
      }
      progs->probe[base + (cur >> 6)] |= std::uint64_t{1} << (cur & 63);
      const std::size_t nidx = grid.find_cell(nid);
      if (nidx != GridIndex::npos) {
        progs->events.push_back({cur, cells_[nidx].begin, cells_[nidx].end});
      }
    }
    std::uint32_t span = 0;
    for (std::size_t i = first_event; i < progs->events.size(); ++i) {
      span += progs->events[i].end - progs->events[i].begin;
    }
    progs->span.push_back(span);
    progs->event_first.push_back(progs->events.size());
    return progs->size() - 1;
  };

  std::uint64_t lane_steps = 0;
  std::uint64_t pairs = 0;
  std::size_t steps = 0;
  std::size_t prog = 0;
  for (int l = 0; l < warp_size; ++l) {
    if (active[l] == 0) continue;
    const LaneState& s = lanes[l];

    if (!rxs_) {
      std::uint32_t& entry = cache.by_origin[s.origin_cell];
      if (entry == 0) {
        // Earlier lanes are done with their programs, so a full cache
        // can be dropped here.
        if (cache.full()) cache.flush();
        cache.origins.push_back(static_cast<std::uint32_t>(s.origin_cell));
        entry = static_cast<std::uint32_t>(build_program(s) + 1);
      }
      prog = entry - 1;
    } else if (buf.origins.empty() || !same_origin(buf.origins[prog], s.oc)) {
      prog = 0;
      while (prog < buf.origins.size() &&
             !same_origin(buf.origins[prog], s.oc)) {
        ++prog;
      }
      if (prog == buf.origins.size()) {
        buf.origins.push_back(s.oc);
        prog = build_program(s);
      }
    }
    const std::uint64_t* probe = progs->probe.data() + prog * slot_words;
    const SlotEvent* ev_begin = progs->events.data() + progs->event_first[prog];
    const SlotEvent* ev_end = progs->events.data() + progs->event_first[prog + 1];

    // The lane's own candidate range for a slot (k-way split; the
    // unidirectional patterns start after q in the origin cell).
    const auto lane_begin = [&](const SlotEvent& e) {
      std::uint32_t b = e.begin;
      if (unidirectional_ && e.slot == center) b = s.rank + 1;
      return b + s.group_rank;
    };

    // A lane takes one step per slot, one per scanned candidate and a
    // retiring step; its scan steps are at most its program's span.
    buf.cover(std::size_t{adj} + 1 + progs->span[prog]);
    std::uint64_t* check = buf.bits[kCheck].data();
    std::uint64_t* probed = buf.bits[kProbe].data();
    std::uint64_t* miss = buf.bits[kMiss].data();
    std::uint64_t* hit = buf.bits[kHit].data();

    std::array<double, D> q;
    std::array<const double*, D> cc;
    for (int d = 0; d < D; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      q[sd] = qcoords_[sd][s.q];
      cc[sd] = cell_coords_[sd];
    }

    std::size_t t = 0;
    std::uint32_t slot = 0;
    for (const SlotEvent* e = ev_begin; e != ev_end; ++e) {
      // Slot steps up to and including the event's slot.
      const std::uint32_t run = e->slot + 1 - slot;
      set_range(check, t, run);
      or_bits(probed, t, probe, slot, run);
      t += run;
      slot = e->slot + 1;
      if (unidirectional_ && e->slot == center && s.group_rank == 0) {
        // The (q,q) self pair, written at the centre slot's step.
        set_range(buf.bits[kSelf].data(), t - 1, 1);
        ++pairs;
        if (store) {
          buf.emissions.push_back(
              {static_cast<std::uint32_t>(t - 1), s.q, s.q});
        }
      }
      // Scan run: candidates of this cell at stride k, contiguous in
      // the cell-ordered coordinates, 64 at a time.
      const std::uint32_t b = lane_begin(*e);
      if (b >= e->end) continue;
      const std::uint32_t n = (e->end - b + k - 1) / k;
      set_range(miss, t, n);
      for (std::uint32_t i0 = 0; i0 < n; i0 += 64) {
        const std::uint32_t first = b + i0 * k;
        const std::uint64_t mask =
            hit_mask<D>(q, cc, first, k, std::min<std::uint32_t>(64, n - i0),
                        eps2_);
        if (mask == 0) continue;
        or_word(hit, t + i0, mask);
        pairs += static_cast<std::uint64_t>(std::popcount(mask)) * pairs_per_hit;
        if (!store) continue;
        for (std::uint64_t m = mask; m != 0; m &= m - 1) {
          const auto j = static_cast<std::uint32_t>(std::countr_zero(m));
          const PointId c = point_ids_[first + j * k];
          const auto step = static_cast<std::uint32_t>(t + i0 + j);
          buf.emissions.push_back({step, s.q, c});
          if (unidirectional_) buf.emissions.push_back({step, c, s.q});
        }
      }
      t += n;
    }
    set_range(check, t, adj - slot);
    or_bits(probed, t, probe, slot, adj - slot);
    t += adj - slot;
    set_range(buf.bits[kRetire].data(), t, 1);  // retiring step
    ++t;
    steps = std::max(steps, t);
    lane_steps += t;
  }

  // Σ_t max_lane cost, a word of steps at a time: a step is charged the
  // costliest class present at it.
  simt::WarpRun run;
  run.cycles = init_cost;
  const std::size_t nwords = (steps + 63) >> 6;
  for (std::size_t w = 0; w < nwords; ++w) {
    std::uint64_t higher = 0;
    for (const std::uint8_t c : class_order_) {
      const std::uint64_t bits = buf.bits[c][w];
      run.cycles += std::uint64_t{class_cost_[c]} *
                    static_cast<std::uint64_t>(std::popcount(bits & ~higher));
      higher |= bits;
    }
  }
  run.steps = steps;
  run.active_lane_steps = lane_steps;

  if (store) {
    // Stable counting sort by step: step-major, lane-minor, exactly the
    // lockstep loop's emission order.
    buf.step_first.assign(steps + 1, 0);
    for (const Emission& e : buf.emissions) ++buf.step_first[e.step + 1];
    for (std::size_t i = 1; i < buf.step_first.size(); ++i) {
      buf.step_first[i] += buf.step_first[i - 1];
    }
    buf.sorted.resize(buf.emissions.size());
    for (const Emission& e : buf.emissions) {
      buf.sorted[buf.step_first[e.step]++] = e;
    }
    for (const Emission& e : buf.sorted) out.emit(e.a, e.b);
    if (buf.emissions.capacity() > kRetainedEmissions) {
      buf.emissions = {};
      buf.sorted = {};
    }
  } else {
    out.add_count(pairs);
  }
  emitted += pairs;
  return run;
}

}  // namespace gsj
