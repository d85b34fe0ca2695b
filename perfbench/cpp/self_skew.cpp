// self-skew: count-only self-joins of the six paper variants on a
// density-preserving Expo2D and Expo6D input, plus `combined` on a
// device fleet, all on one warm JoinEngine with host_threads = 0.
// One operation is one pass over every cell.

#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "grid/grid_index.hpp"
#include "grid/workload.hpp"
#include "obs/metrics.hpp"
#include "sj/engine.hpp"
#include "superego/super_ego.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

const char* const kDatasetTags[2] = {"expo2d", "expo6d"};

struct Cell {
  std::string name;
  int dataset = 0;
  gsj::SelfJoinConfig cfg;
};

std::vector<Cell> make_cells(const SkewParams& p) {
  std::vector<Cell> cells;
  for (int d = 0; d < 2; ++d) {
    const double eps = d == 0 ? p.eps2 : p.eps6;
    const std::string tag = kDatasetTags[d];
    cells.push_back({"gpucalcglobal." + tag, d,
                     gsj::SelfJoinConfig::gpu_calc_global(eps)});
    cells.push_back({"unicomp." + tag, d, gsj::SelfJoinConfig::unicomp(eps)});
    cells.push_back(
        {"lid_unicomp." + tag, d, gsj::SelfJoinConfig::lid_unicomp(eps)});
    cells.push_back({"sortbywl." + tag, d, gsj::SelfJoinConfig::sort_by_wl(eps)});
    cells.push_back(
        {"workqueue." + tag, d, gsj::SelfJoinConfig::work_queue_cfg(eps)});
    cells.push_back({"combined." + tag, d, gsj::SelfJoinConfig::combined(eps)});
  }
  Cell fleet{"combined_fleet.expo2d", 0, gsj::SelfJoinConfig::combined(p.eps2)};
  fleet.cfg.fleet.num_devices = p.fleet_devices;
  cells.push_back(fleet);
  for (Cell& c : cells) {
    c.cfg.store_pairs = false;
    c.cfg.device.host.num_threads = 0;
  }
  return cells;
}

struct SkewInputs {
  gsj::Dataset ds[2];
};

SkewInputs make_inputs(const SkewParams& p, std::uint64_t seed) {
  return SkewInputs{{expo_dataset(p.n2, 2, derive_seed(seed, 11)),
                     expo_dataset(p.n6, 6, derive_seed(seed, 12))}};
}

/// Digest of everything a cell's modeled execution produced; host wall
/// fields are left out, so warm and cold runs must agree exactly.
std::uint64_t stats_digest(const gsj::SelfJoinOutput& out) {
  const auto& s = out.stats;
  const auto& k = s.kernel;
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  auto mixd = [&](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  };
  mix(out.results.count());
  mix(k.launches);
  mix(k.warps_launched);
  mix(k.warp_steps);
  mix(k.active_lane_steps);
  mix(k.busy_cycles);
  mix(k.makespan_cycles);
  mix(k.tail_idle_cycles);
  mix(s.num_batches);
  mix(s.estimated_total_pairs);
  mix(s.fleet.rebalances);
  mixd(s.total_seconds);
  mixd(s.fleet.imbalance);
  return h;
}

/// Runs every cell once; returns each cell's wall seconds. With
/// `cell_spans`, each run is a "kernel.<cell>" span of `op`. With
/// `yardstick_s_out`, a yardstick is timed before each cell, outside the
/// cell's wall, and the pass's mean yardstick is stored there.
std::vector<double> run_pass(gsj::JoinEngine& eng,
                             gsj::PreparedDataset* preps[2],
                             const std::vector<Cell>& cells, Op& op,
                             bool cell_spans,
                             std::vector<gsj::SelfJoinOutput>& outs,
                             double* yardstick_s_out = nullptr) {
  std::vector<double> secs;
  double yard = 0.0;
  outs.clear();
  for (const Cell& c : cells) {
    if (yardstick_s_out != nullptr) yard += yardstick_s();
    const double t0 = now_s();
    {
      std::optional<SpanScope> span;
      if (cell_spans) span.emplace(op, "kernel." + c.name);
      outs.push_back(eng.run(*preps[c.dataset], c.cfg));
      after_call("JoinEngine::run");
    }
    secs.push_back(now_s() - t0);
  }
  if (yardstick_s_out != nullptr) {
    *yardstick_s_out = yard / static_cast<double>(cells.size());
  }
  return secs;
}

/// Kernel-layer counts of one pass (recorded only when `op` is traced).
void record_pass_counts(Op& op, const std::vector<Cell>& cells,
                        const std::vector<gsj::SelfJoinOutput>& outs,
                        const std::vector<double>& cell_s,
                        const std::vector<double>& candidates) {
  double busy = 0, steps = 0, lane_slots = 0, active = 0, cov = 0;
  double batches = 0, est = 0, res = 0, retries = 0, cand = 0, secs = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const auto& s = outs[i].stats;
    busy += static_cast<double>(s.kernel.busy_cycles);
    steps += static_cast<double>(s.kernel.warp_steps);
    lane_slots += static_cast<double>(s.kernel.warp_steps) * s.warp_size;
    active += static_cast<double>(s.kernel.active_lane_steps);
    cov += s.warp_cycle_cov();
    batches += static_cast<double>(s.num_batches);
    est += static_cast<double>(s.estimated_total_pairs);
    res += static_cast<double>(s.result_pairs);
    retries += static_cast<double>(s.overflow_retries);
    cand += candidates[i];
    secs += cell_s[i];
    if (cells[i].cfg.fleet.active()) {
      op.count("fleet.imbalance", s.fleet.imbalance);
      op.count("fleet.rebalances", static_cast<double>(s.fleet.rebalances));
    }
  }
  op.count("simt.modeled_busy_cycles", busy);
  op.count("simt.warp_steps", steps);
  op.count("simt.wee_pct", lane_slots > 0 ? 100.0 * active / lane_slots : 0.0);
  op.count("simt.warp_cycle_cov", cov / static_cast<double>(outs.size()));
  op.count("batching.batches", batches);
  op.count("batching.estimate_ratio", res > 0 ? est / res : 0.0);
  op.count("batching.overflow_retries", retries);
  op.count("kernel.cand_per_s", secs > 0 ? cand / secs : 0.0);
}

/// Exact candidate evaluations of each cell, from the benchmark's own
/// grids (total_candidate_evaluations under the cell's pattern).
std::vector<double> cell_candidates(const SkewInputs& in,
                                    const std::vector<Cell>& cells) {
  std::unique_ptr<gsj::GridIndex> grids[2];
  std::vector<double> out;
  for (const Cell& c : cells) {
    auto& g = grids[c.dataset];
    if (!g) g = std::make_unique<gsj::GridIndex>(in.ds[c.dataset], c.cfg.epsilon);
    out.push_back(static_cast<double>(
        gsj::total_candidate_evaluations(*g, c.cfg.pattern)));
  }
  return out;
}

double cache_hit_ratio(gsj::obs::Registry& reg) {
  const double hits = static_cast<double>(reg.counter("sj.cache.hits").value());
  const double misses =
      static_cast<double>(reg.counter("sj.cache.misses").value());
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

/// An engine with both inputs prepared; cache counters on its own
/// registry.
struct WarmEngine {
  gsj::obs::Registry reg;
  std::unique_ptr<gsj::JoinEngine> eng;
  std::unique_ptr<gsj::PreparedDataset> prep[2];
  gsj::PreparedDataset* preps[2] = {nullptr, nullptr};

  explicit WarmEngine(const SkewInputs& in) {
    gsj::EngineConfig ecfg;
    ecfg.obs.metrics = &reg;
    eng = std::make_unique<gsj::JoinEngine>(ecfg);
    for (int d = 0; d < 2; ++d) {
      prep[d] = std::make_unique<gsj::PreparedDataset>(eng->prepare(in.ds[d]));
      preps[d] = prep[d].get();
    }
  }
};

}  // namespace

std::vector<std::string> skew_cell_names(const SkewParams& p) {
  std::vector<std::string> names;
  for (const Cell& c : make_cells(p)) names.push_back(c.name);
  return names;
}

void run_self_skew(Ctx& ctx) {
  const SkewParams& p = ctx.p.skew;
  const SkewInputs in = make_inputs(p, ctx.seed);
  const std::vector<Cell> cells = make_cells(p);
  const bool tr = ctx.trace.enabled();

  // Independent references, computed in a child process: SUPER-EGO
  // counts for every cell, and one pair-level digest comparison per
  // dataset against the engine's stored pairs.
  const std::vector<std::uint64_t> ref = run_isolated([&] {
    std::vector<std::uint64_t> words;
    for (int d = 0; d < 2; ++d) {
      gsj::SuperEgoConfig sc;
      sc.epsilon = d == 0 ? p.eps2 : p.eps6;
      sc.nthreads = 4;
      sc.store_pairs = true;
      gsj::SuperEgoOutput want = gsj::super_ego_join(in.ds[d], sc);
      want.results.canonicalize();
      gsj::SelfJoinConfig cfg = gsj::SelfJoinConfig::combined(sc.epsilon);
      cfg.store_pairs = true;
      gsj::JoinEngine once;
      gsj::SelfJoinOutput got = once.self_join(in.ds[d], cfg);
      got.results.canonicalize();
      words.push_back(want.results.count());
      words.push_back(digest(got.results.pairs()) ==
                      digest(want.results.pairs()));
    }
    return words;
  });
  const std::uint64_t ref_count[2] = {ref[0], ref[2]};
  for (int d = 0; d < 2; ++d) {
    if (ref[2 * d + 1] != 1) {
      ctx.report.fail(std::string("pair digest differs from SUPER-EGO on ") +
                      kDatasetTags[d]);
    }
  }

  // Set-up: a fresh engine, prepare, one cold pass; repeated, median
  // reported. The last engine stays warm for the measured passes.
  std::vector<double> setup_s;
  std::vector<std::uint64_t> ref_digest;
  std::vector<gsj::SelfJoinOutput> outs;
  double modeled_s = 0.0, wee_sum = 0.0;
  std::unique_ptr<WarmEngine> warm;
  for (int s = 0; s < ctx.p.setups; ++s) {
    warm.reset();
    Op op(ctx.trace, "setup", tr);
    warm = std::make_unique<WarmEngine>(in);
    {
      SpanScope span(op, "engine.cold");
      (void)run_pass(*warm->eng, warm->preps, cells, op, false, outs);
    }
    setup_s.push_back(op.finish());
    if (s == 0) {
      for (std::size_t i = 0; i < outs.size(); ++i) {
        ref_digest.push_back(stats_digest(outs[i]));
        modeled_s += outs[i].stats.kernel_seconds;
        wee_sum += outs[i].stats.wee_percent();
      }
    }
    for (std::size_t i = 0; i < outs.size(); ++i) {
      if (outs[i].results.count() != ref_count[cells[i].dataset] ||
          stats_digest(outs[i]) != ref_digest[i]) {
        ctx.report.fail("cold pass mismatch in " + cells[i].name);
      }
    }
  }

  // Degenerate-input guard: the paper's effect must be present.
  for (int d = 0; d < 2; ++d) {
    double gcg = 0, comb = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::string tag = kDatasetTags[d];
      if (cells[i].name == "gpucalcglobal." + tag) gcg = outs[i].stats.wee_percent();
      if (cells[i].name == "combined." + tag) comb = outs[i].stats.wee_percent();
    }
    ctx.report.note(std::string("guard ") + kDatasetTags[d] +
                    ": gpucalcglobal WEE " + std::to_string(gcg) +
                    "% vs combined " + std::to_string(comb) + "%");
    if (!(gcg <= comb - p.wee_margin_pct)) {
      throw std::runtime_error(
          std::string("degenerate input on ") + kDatasetTags[d] +
          ": GPUCALCGLOBAL WEE is not clearly below combined's");
    }
  }

  const std::vector<double> cand = tr ? cell_candidates(in, cells)
                                      : std::vector<double>(cells.size(), 0.0);
  OpSamples ops;
  const double deadline = now_s() + ctx.seconds;
  for (std::size_t i = 0; now_s() < deadline; ++i) {
    const bool traced = tr && i % 2 == 1;
    Op op(ctx.trace, "op", traced);
    std::vector<double> cell_s;
    double yard = 0.0;
    {
      SpanScope span(op, "engine.warm");
      cell_s = run_pass(*warm->eng, warm->preps, cells, op, true, outs, &yard);
    }
    op.finish();
    // A pass's wall is its cells' walls, which leave the yardsticks out.
    if (traced) {
      ops.add_traced(sum(cell_s));
    } else {
      ops.add_untraced(sum(cell_s), yard);
    }
    ctx.report.attempt();
    bool ok = true;
    for (std::size_t c = 0; c < outs.size(); ++c) {
      ok = ok && outs[c].results.count() == ref_count[cells[c].dataset] &&
           stats_digest(outs[c]) == ref_digest[c];
    }
    if (!ok) ctx.report.fail("pass " + std::to_string(i) + " mismatch");
    record_pass_counts(op, cells, outs, cell_s, cand);
    for (auto& o : outs) warm->eng->recycle(std::move(o));
  }
  if (tr) ctx.trace.count("engine.cache_hit_ratio", cache_hit_ratio(warm->reg));

  report_ops(ctx, setup_s, ops);
  ctx.report.metric("ops_per_s",
                    static_cast<double>(ops.size()) /
                        (sum(ops.traced) + sum(ops.untraced)),
                    "1/s", ops.size());
  ctx.report.metric("modeled_s", modeled_s, "s", cells.size());
  ctx.report.metric("wee_pct", wee_sum / static_cast<double>(cells.size()),
                    "%", cells.size());

  if (tr) {
    plan_probe(ctx, in.ds[0], p.eps2, gsj::CellPattern::LidUnicomp);
    churn_probe(ctx);
    service_probe(ctx);
  }
}

void kernel_probe(Ctx& ctx) {
  const SkewParams& p = ctx.p.skew;
  const SkewInputs in = make_inputs(p, ctx.seed);
  const std::vector<Cell> cells = make_cells(p);
  const std::vector<double> cand = cell_candidates(in, cells);
  Op op(ctx.trace, "probe.kernel", true);
  WarmEngine warm(in);
  std::vector<gsj::SelfJoinOutput> outs;
  {
    SpanScope span(op, "engine.cold");
    (void)run_pass(*warm.eng, warm.preps, cells, op, false, outs);
  }
  std::vector<double> cell_s;
  {
    SpanScope span(op, "engine.warm");
    cell_s = run_pass(*warm.eng, warm.preps, cells, op, true, outs);
  }
  record_pass_counts(op, cells, outs, cell_s, cand);
  op.count("engine.cache_hit_ratio", cache_hit_ratio(warm.reg));
  op.finish();
}

}  // namespace pb
