#include "sj/kernels.hpp"

#include <algorithm>
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

/// A pair emitted at lockstep step `step` of the warp.
struct Emission {
  std::uint32_t step = 0;
  PointId a = 0;
  PointId b = 0;
};

/// Scratch of the whole-warp runner. One per host thread (the parallel
/// path runs warps concurrently), reused across warps and launches.
struct WarpBuffers {
  std::vector<std::uint32_t> step_max;  ///< per-step max lane cost
  std::vector<Emission> emissions;      ///< lane-major, step-tagged
  std::vector<Emission> sorted;         ///< step-major after the sort
  std::vector<std::uint32_t> step_first;  ///< counting-sort offsets
  // Slot programs of this warp's distinct origins: program i owns
  // costs[i*3^n, (i+1)*3^n) and events[event_first[i], event_first[i+1]).
  std::vector<CellCoords> origins;
  std::vector<std::uint32_t> costs;
  std::vector<SlotEvent> events;
  std::vector<std::size_t> event_first;
};

thread_local WarpBuffers t_warp_buffers;

/// Pair buffers above this many entries are released after the warp
/// that needed them, so one huge warp does not pin memory in a
/// long-lived host thread.
constexpr std::size_t kRetainedEmissions = std::size_t{1} << 20;

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
  const std::uint32_t cost_check = p_.device->cost_pattern_check;
  const std::uint32_t cost_probe = p_.device->cost_cell_probe;
  const std::uint32_t cost_emit = p_.device->cost_emit;

  buf.step_max.clear();
  buf.emissions.clear();
  buf.origins.clear();
  buf.costs.clear();
  buf.events.clear();
  buf.event_first.assign(1, 0);

  const auto same_origin = [](const CellCoords& a, const CellCoords& b) {
    for (int d = 0; d < D; ++d) {
      if (a[d] != b[d]) return false;
    }
    return true;
  };

  // The NextCell half of a lane's program, which depends only on the
  // origin cell: slot costs and the candidate range each slot opens.
  // Mirrors next_cell() slot by slot.
  const auto build_program = [&](const LaneState& s) {
    buf.origins.push_back(s.oc);
    const std::size_t base = buf.costs.size();
    buf.costs.resize(base + adj);
    std::uint32_t* costs = buf.costs.data() + base;
    for (std::uint32_t cur = 0; cur < adj; ++cur) {
      std::uint32_t cost = cost_check;
      if (!rxs_ && cur == center) {
        // The origin cell; the lane narrows the range (rank rule).
        const GridCell& cell = cells_[s.origin_cell];
        buf.events.push_back({cur, cell.begin, cell.end});
        costs[cur] = cost;
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
      if (in_bounds) {
        const std::uint64_t nid = grid.encode(nc);
        if (rxs_ ||
            pattern_accepts(p_.pattern, D, s.oc, nc, s.origin_id, nid)) {
          cost += cost_probe;
          const std::size_t nidx = grid.find_cell(nid);
          if (nidx != GridIndex::npos) {
            buf.events.push_back({cur, cells_[nidx].begin, cells_[nidx].end});
          }
        }
      }
      costs[cur] = cost;
    }
    buf.event_first.push_back(buf.events.size());
    return buf.origins.size() - 1;
  };

  std::uint64_t lane_steps = 0;
  std::uint64_t pairs = 0;
  std::size_t prog = 0;
  for (int l = 0; l < warp_size; ++l) {
    if (active[l] == 0) continue;
    const LaneState& s = lanes[l];

    if (buf.origins.empty() || !same_origin(buf.origins[prog], s.oc)) {
      prog = 0;
      while (prog < buf.origins.size() &&
             !same_origin(buf.origins[prog], s.oc)) {
        ++prog;
      }
      if (prog == buf.origins.size()) prog = build_program(s);
    }
    const std::uint32_t* costs = buf.costs.data() + prog * adj;
    const SlotEvent* ev_begin = buf.events.data() + buf.event_first[prog];
    const SlotEvent* ev_end = buf.events.data() + buf.event_first[prog + 1];

    // The lane's own candidate range for a slot (k-way split; the
    // unidirectional patterns start after q in the origin cell).
    const auto lane_begin = [&](const SlotEvent& e) {
      std::uint32_t b = e.begin;
      if (unidirectional_ && e.slot == center) b = s.rank + 1;
      return b + s.group_rank;
    };

    // Lane length: one step per slot, one per scanned candidate, one
    // retiring step.
    std::size_t len = std::size_t{adj} + 1;
    for (const SlotEvent* e = ev_begin; e != ev_end; ++e) {
      const std::uint32_t b = lane_begin(*e);
      if (b < e->end) len += (e->end - b + k - 1) / k;
    }
    if (len > buf.step_max.size()) buf.step_max.resize(len, 0);
    std::uint32_t* sm = buf.step_max.data();

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
      for (; slot <= e->slot; ++slot, ++t) sm[t] = std::max(sm[t], costs[slot]);
      if (unidirectional_ && e->slot == center && s.group_rank == 0) {
        // The (q,q) self pair, written at the centre slot's step.
        sm[t - 1] = std::max(sm[t - 1], cost_check + cost_emit);
        ++pairs;
        if (store) {
          buf.emissions.push_back(
              {static_cast<std::uint32_t>(t - 1), s.q, s.q});
        }
      }
      // Scan run: candidates of this cell at stride k, contiguous in
      // the cell-ordered coordinates.
      for (std::uint32_t pos = lane_begin(*e); pos < e->end; pos += k, ++t) {
        double sum = 0.0;
        for (int d = 0; d < D; ++d) {
          const auto sd = static_cast<std::size_t>(d);
          const double diff = q[sd] - cc[sd][pos];
          sum += diff * diff;
        }
        if (!(sum <= eps2_)) {  // a NaN distance is a miss, as in scan()
          sm[t] = std::max(sm[t], cost_dist_);
          continue;
        }
        sm[t] = std::max(sm[t], cost_dist_ + cost_emit);
        pairs += pairs_per_hit;
        if (store) {
          const PointId c = point_ids_[pos];
          const auto step = static_cast<std::uint32_t>(t);
          buf.emissions.push_back({step, s.q, c});
          if (unidirectional_) buf.emissions.push_back({step, c, s.q});
        }
      }
    }
    for (; slot < adj; ++slot, ++t) sm[t] = std::max(sm[t], costs[slot]);
    sm[t] = std::max(sm[t], std::uint32_t{1});  // retiring step
    ++t;
    lane_steps += t;
  }

  simt::WarpRun run;
  run.cycles = init_cost;
  for (const std::uint32_t c : buf.step_max) run.cycles += c;
  run.steps = buf.step_max.size();
  run.active_lane_steps = lane_steps;

  if (store) {
    // Stable counting sort by step: step-major, lane-minor, exactly the
    // lockstep loop's emission order.
    buf.step_first.assign(buf.step_max.size() + 1, 0);
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
