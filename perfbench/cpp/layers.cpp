// Per-layer metrics: the plan probe and the extraction of every layer
// metric from the run's trace.

#include <memory>

#include "grid/grid_index.hpp"
#include "grid/workload.hpp"
#include "sj/batching.hpp"
#include "workloads.hpp"

namespace pb {

void report_ops(Ctx& ctx, const std::vector<double>& setup_s,
                const OpSamples& ops) {
  Report& r = ctx.report;
  r.metric("setup_s", median(setup_s), "s", setup_s.size());
  // End-to-end timings come from untraced operations only. The raw
  // walls are printed for reading; the result line carries op_cost.
  r.metric("op_cost", median(ops.cost), "yardsticks", ops.cost.size());
  r.metric("op_s_p50", median(ops.untraced), "s", ops.untraced.size());
  r.metric("op_s_p90", quantile(ops.untraced, 0.9), "s", ops.untraced.size());
  if (ctx.trace.enabled()) {
    r.metric("obs.trace_overhead", median(ops.traced) / median(ops.untraced),
             "ratio", ops.traced.size());
  }
}

void plan_probe(Ctx& ctx, const gsj::Dataset& ds, double eps,
                gsj::CellPattern pattern) {
  const gsj::BatchingConfig bc;
  for (int rep = 0; rep < ctx.p.plan_probe_reps; ++rep) {
    Op op(ctx.trace, "probe.plan", true);
    std::unique_ptr<gsj::GridIndex> g;
    {
      SpanScope s(op, "grid.build");
      g = std::make_unique<gsj::GridIndex>(ds, eps);
    }
    op.count("grid.bytes", static_cast<double>(g->memory_bytes()));
    op.count("grid.candidates",
             static_cast<double>(gsj::total_candidate_evaluations(*g, pattern)));
    std::vector<std::uint64_t> wl;
    {
      SpanScope s(op, "grid.workload");
      wl = gsj::point_workloads(*g, pattern);
    }
    std::vector<gsj::PointId> order;
    {
      SpanScope s(op, "grid.sortbywl");
      order = gsj::sort_by_workload(*g, pattern);
    }
    std::uint64_t est_strided = 0, est_queue = 0;
    {
      SpanScope s(op, "batching.estimate");
      est_strided = gsj::estimate_strided_total(*g, bc);
      est_queue = gsj::estimate_queue_total(*g, bc, order);
    }
    {
      SpanScope s(op, "batching.plan");
      (void)gsj::plan_strided(*g, bc, /*sort_batches_by_workload=*/true,
                              pattern, nullptr, nullptr, wl, est_strided);
      (void)gsj::plan_queue(*g, bc, order, wl, nullptr, est_queue);
    }
    op.finish();
  }
}

namespace {

void span_median(Ctx& ctx, const std::string& metric, const std::string& span) {
  const std::vector<double> v = ctx.trace.span_seconds(span);
  ctx.report.metric(metric, median(v), "s", v.size());
}

void count_mean(Ctx& ctx, const std::string& metric, const std::string& unit) {
  const std::vector<double> v = ctx.trace.counts(metric);
  ctx.report.metric(metric, mean(v), unit, v.size());
}

void count_ratio(Ctx& ctx, const std::string& metric, const std::string& num,
                 const std::string& den) {
  const std::vector<double> n = ctx.trace.counts(num);
  const double d = sum(ctx.trace.counts(den));
  ctx.report.metric(metric, d > 0 ? sum(n) / d : 0.0, "ratio", n.size());
}

}  // namespace

void report_layers(Ctx& ctx) {
  // grid
  span_median(ctx, "grid.build_s", "grid.build");
  span_median(ctx, "grid.repair_s", "grid.repair");
  count_mean(ctx, "grid.repaired_cells", "count");
  span_median(ctx, "grid.workload_s", "grid.workload");
  span_median(ctx, "grid.sortbywl_s", "grid.sortbywl");
  count_mean(ctx, "grid.bytes", "bytes");
  count_mean(ctx, "grid.candidates", "count");
  // sj.batching
  span_median(ctx, "batching.estimate_s", "batching.estimate");
  span_median(ctx, "batching.plan_s", "batching.plan");
  count_mean(ctx, "batching.batches", "count");
  count_mean(ctx, "batching.estimate_ratio", "ratio");
  count_mean(ctx, "batching.overflow_retries", "count");
  // kernel: sj.kernels, sj.execute, simt
  for (const std::string& cell : skew_cell_names(ctx.p.skew)) {
    span_median(ctx, "kernel." + cell + "_s", "kernel." + cell);
  }
  {
    const std::vector<double> v = ctx.trace.counts("kernel.cand_per_s");
    ctx.report.metric("kernel.cand_per_s", median(v), "1/s", v.size());
  }
  count_mean(ctx, "simt.modeled_busy_cycles", "cycles");
  count_mean(ctx, "simt.warp_steps", "count");
  count_mean(ctx, "simt.wee_pct", "%");
  count_mean(ctx, "simt.warp_cycle_cov", "ratio");
  count_mean(ctx, "fleet.imbalance", "ratio");
  count_mean(ctx, "fleet.rebalances", "count");
  // sj.engine
  span_median(ctx, "engine.cold_s", "engine.cold");
  span_median(ctx, "engine.warm_s", "engine.warm");
  count_mean(ctx, "engine.cache_hit_ratio", "ratio");
  // data, sj.delta
  span_median(ctx, "data.mutate_s", "data.mutate");
  span_median(ctx, "delta.join_s", "delta.join");
  span_median(ctx, "delta.compute_s", "delta.compute");
  count_mean(ctx, "delta.candidates", "count");
  count_mean(ctx, "delta.pairs", "count");
  // sj.service
  {
    const std::vector<double> w = ctx.trace.counts("service.wait_s");
    ctx.report.metric("service.wait_s_p50", median(w), "s", w.size());
    ctx.report.metric("service.wait_s_p90", quantile(w, 0.9), "s", w.size());
    const std::vector<double> r = ctx.trace.counts("service.run_s");
    ctx.report.metric("service.run_s_p50", median(r), "s", r.size());
  }
  count_mean(ctx, "service.served_from_cache_ratio", "ratio");
  count_ratio(ctx, "service.artifact_hit_ratio", "service.artifact_hits",
              "service.artifact_lookups");
  count_mean(ctx, "service.knn_rounds", "count");
  count_ratio(ctx, "service.knn_grid_hit_ratio", "service.knn_grid_hits",
              "service.knn_grid_lookups");
  // obs
  {
    const std::vector<double> u = ctx.trace.unattributed_seconds();
    ctx.report.metric("unattributed_s", median(u), "s", u.size());
  }
}

}  // namespace pb
