// churn-delta: one engine over a large, sparse Expo2D input. One
// operation is one epoch: a seeded churn of move_point / insert / erase
// calls, then JoinEngine::delta_join from the previous generation. No
// SIMT launch runs inside an epoch.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/rng.hpp"
#include "data/churn.hpp"
#include "grid/grid_index.hpp"
#include "grid/workload.hpp"
#include "sj/delta.hpp"
#include "sj/engine.hpp"
#include "superego/super_ego.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr gsj::CellPattern kPattern = gsj::CellPattern::LidUnicomp;

/// The churned dataset, its engine and, in traced runs, the benchmark's
/// own grid and workload artifacts that follow every epoch.
struct ChurnState {
  const ChurnParams& p;
  gsj::Dataset ds;
  double rate;
  gsj::Xoshiro256 rng;
  std::unique_ptr<gsj::JoinEngine> eng;
  std::unique_ptr<gsj::PreparedDataset> prep;
  std::unique_ptr<gsj::GridIndex> own;
  std::vector<std::uint64_t> own_wl;
  std::vector<gsj::PointId> own_order;

  ChurnState(const ChurnParams& params, std::uint64_t seed)
      : p(params),
        ds(expo_dataset(params.n, 2, derive_seed(seed, 21))),
        rate(expo_rate(params.n, 2)),
        rng(derive_seed(seed, 22)) {}

  gsj::SelfJoinConfig join_cfg() const {
    gsj::SelfJoinConfig cfg = gsj::SelfJoinConfig::combined(p.eps);
    cfg.store_pairs = false;
    return cfg;
  }

  /// A fresh engine and a cold full join, which leaves the grid and the
  /// combined variant's plan cached for delta_join to repair.
  gsj::SelfJoinOutput cold_start() {
    prep.reset();
    eng = std::make_unique<gsj::JoinEngine>();
    prep = std::make_unique<gsj::PreparedDataset>(eng->prepare(ds));
    return eng->run(*prep, join_cfg());
  }

  void build_own(bool with_workloads) {
    own = std::make_unique<gsj::GridIndex>(ds, p.eps);
    if (with_workloads) {
      own_wl = gsj::point_workloads(*own, kPattern);
      own_order = gsj::sort_by_workload(*own, kPattern);
    }
  }

  std::vector<double> position() {
    std::vector<double> x(2);
    for (double& v : x) {
      do {
        v = -std::log1p(-rng.uniform()) / rate;
      } while (v >= 100.0);  // gen_exponential's clip
    }
    return x;
  }

  void mutate() {
    const auto m = static_cast<std::size_t>(
        std::llround(p.fraction * static_cast<double>(p.n)));
    for (std::size_t i = 0; i < m; ++i) {
      const double u = rng.uniform();
      const std::vector<double> x = position();
      if (u < p.move_share) {
        ds.move_point(static_cast<gsj::PointId>(rng() % ds.size()), x);
      } else if (u < p.move_share + p.insert_share || ds.size() < 2) {
        (void)ds.insert(x);
      } else {
        ds.erase(static_cast<gsj::PointId>(rng() % ds.size()));
      }
    }
  }

  /// One epoch as the measured operation sees it.
  std::optional<gsj::PairDelta> epoch(Op& op, std::uint64_t from) {
    {
      SpanScope s(op, "data.mutate");
      mutate();
    }
    std::optional<gsj::PairDelta> d;
    {
      SpanScope s(op, "delta.join");
      d = eng->delta_join(*prep, p.eps, from);
      after_call("JoinEngine::delta_join");
    }
    if (d) {
      op.count("delta.candidates", static_cast<double>(d->stats.candidates));
      op.count("delta.pairs",
               static_cast<double>(d->gained.size() + d->lost.size()));
    }
    return d;
  }

  /// Repairs the benchmark's own grid (and, with `patch`, its workload
  /// artifacts) and recomputes the epoch's delta on it; true when it
  /// equals the engine's.
  bool own_check(Op& v, std::uint64_t from, const gsj::PairDelta& d,
                 bool patch) {
    const auto window = ds.mutations_since(from);
    if (!window) return false;
    gsj::GridRepairOutcome out;
    {
      SpanScope s(v, "grid.repair");
      out = own->repair();
    }
    v.count("grid.repaired_cells",
            static_cast<double>(out.dirty_cell_ids.size()));
    if (patch) {
      // A repair that fell back to a rebuild (the bounding box moved)
      // leaves nothing to patch from; the workloads are rebuilt too.
      SpanScope s(v, "grid.workload");
      if (out.repaired) {
        gsj::WorkloadPatchResult r = gsj::patch_workloads(
            *own, kPattern, out.dirty_cell_ids, own_wl, own_order);
        own_wl = std::move(r.point_workloads);
        own_order = std::move(r.order);
      } else {
        own_wl = gsj::point_workloads(*own, kPattern);
        own_order = gsj::sort_by_workload(*own, kPattern);
      }
    }
    gsj::PairDelta mine;
    {
      SpanScope s(v, "delta.compute");
      const gsj::ChurnSummary churn = gsj::summarize_churn(ds, *window);
      mine = gsj::compute_pair_delta(*own, churn, p.eps);
    }
    return mine.gained == d.gained && mine.lost == d.lost;
  }
};

/// Count and set hash of the full self-join of `ds`, from SUPER-EGO in a
/// child process.
struct PairSetDigest {
  std::uint64_t count = 0;
  std::uint64_t hash = 0;
  bool operator==(const PairSetDigest&) const = default;
};

PairSetDigest reference_digest(const gsj::Dataset& ds, double eps) {
  const std::vector<std::uint64_t> w = run_isolated([&] {
    gsj::SuperEgoConfig sc;
    sc.epsilon = eps;
    sc.nthreads = 4;
    sc.store_pairs = true;
    const gsj::SuperEgoOutput out = gsj::super_ego_join(ds, sc);
    return std::vector<std::uint64_t>{out.results.count(),
                                      set_hash(out.results.pairs())};
  });
  return {w[0], w[1]};
}

/// Applies an epoch's delta to the running digest of the pair set.
void apply_delta(PairSetDigest& set, const gsj::PairDelta& d) {
  set.count += d.gained.size();
  set.count -= d.lost.size();
  set.hash += set_hash(d.gained);
  set.hash -= set_hash(d.lost);
}

}  // namespace

void run_churn_delta(Ctx& ctx) {
  const ChurnParams& p = ctx.p.churn;
  const bool tr = ctx.trace.enabled();
  ChurnState st(p, ctx.seed);

  // The base pair set, followed through every delta as a count and an
  // order-independent hash.
  PairSetDigest pairs = reference_digest(st.ds, p.eps);

  std::vector<double> setup_s;
  double modeled_s = 0.0, wee_pct = 0.0;
  for (int s = 0; s < ctx.p.setups; ++s) {
    Op op(ctx.trace, "setup", tr);
    gsj::SelfJoinOutput out;
    {
      SpanScope span(op, "setup.cold_join");
      out = st.cold_start();
    }
    setup_s.push_back(op.finish());
    if (out.results.count() != pairs.count) {
      ctx.report.fail("cold join count differs from SUPER-EGO");
    }
    modeled_s = out.stats.kernel_seconds;
    wee_pct = out.stats.wee_percent();
  }

  if (tr) {
    plan_probe(ctx, st.ds, p.eps, kPattern);
    st.build_own(/*with_workloads=*/true);
  }

  OpSamples ops;
  const double deadline = now_s() + ctx.seconds;
  for (std::size_t i = 0; now_s() < deadline; ++i) {
    const bool traced = tr && i % 2 == 1;
    const std::uint64_t from = st.ds.generation();
    // Traced epochs get a yardstick too, so both kinds start from the
    // same cache state and obs.trace_overhead compares like with like.
    const double yard = yardstick_s();
    Op op(ctx.trace, "op", traced);
    const std::optional<gsj::PairDelta> d = st.epoch(op, from);
    if (traced) {
      ops.add_traced(op.finish());
    } else {
      ops.add_untraced(op.finish(), yard);
    }
    ctx.report.attempt();
    if (!d) {
      ctx.report.fail("epoch " + std::to_string(i) + ": delta window lost");
      continue;
    }
    if (tr) {
      // The benchmark's own grid follows every epoch, and its delta must
      // equal the engine's.
      Op v(ctx.trace, "verify", true);
      if (!st.own_check(v, from, *d, /*patch=*/true)) {
        ctx.report.fail("epoch " + std::to_string(i) + ": delta mismatch");
      }
      v.finish();
    }
    apply_delta(pairs, *d);
  }

  // Base pairs with every delta applied must equal a fresh full join of
  // the final dataset.
  if (pairs != reference_digest(st.ds, p.eps)) {
    ctx.report.fail("base + deltas differs from a fresh join of the final data");
  }

  report_ops(ctx, setup_s, ops);
  ctx.report.metric("ops_per_s",
                    static_cast<double>(ops.size()) /
                        (sum(ops.traced) + sum(ops.untraced)),
                    "1/s", ops.size());
  ctx.report.metric("modeled_s", modeled_s, "s", 1);
  ctx.report.metric("wee_pct", wee_pct, "%", 1);

  if (tr) {
    kernel_probe(ctx);
    service_probe(ctx);
  }
}

void churn_probe(Ctx& ctx) {
  ChurnState st(ctx.p.churn, ctx.seed);
  (void)st.cold_start();
  st.build_own(/*with_workloads=*/false);
  for (int e = 0; e < ctx.p.churn.probe_epochs; ++e) {
    const std::uint64_t from = st.ds.generation();
    Op op(ctx.trace, "probe.churn", true);
    const std::optional<gsj::PairDelta> d = st.epoch(op, from);
    if (!d || !st.own_check(op, from, *d, /*patch=*/false)) {
      ctx.report.fail("churn probe: delta mismatch");
    }
    op.finish();
  }
}

}  // namespace pb
