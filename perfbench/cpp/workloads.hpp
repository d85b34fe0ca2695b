// The three closed-loop workloads and the layer probes they share.
//
// Every per-layer metric is extracted from the run's Trace by span or
// count name (layers.cpp). A workload's own operations produce the
// spans of the layers they reach; in a traced run, probes fill in the
// layers it does not reach, on inputs that workload would use:
//   plan probe    GridIndex / workload / sort / estimate / plan calls on
//                 this workload's primary dataset (every workload)
//   kernel probe  one cold + one warm self-skew pass (churn, serve)
//   churn probe   a few churn-delta epochs (self-skew, serve-mix)
//   service probe a short serve-mix request script (self-skew, churn)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "data/dataset.hpp"
#include "grid/cell_access.hpp"

namespace pb {

struct SkewParams {
  std::size_t n2 = 0;   ///< Expo2D points
  double eps2 = 0.0;    ///< Expo2D epsilon (paper axis)
  std::size_t n6 = 0;   ///< Expo6D points
  double eps6 = 0.0;    ///< Expo6D epsilon (paper axis)
  int fleet_devices = 0;
  /// Degenerate-input guard: GPUCALCGLOBAL WEE must sit at least this
  /// many points below `combined`'s on every dataset.
  double wee_margin_pct = 0.0;
};

struct ChurnParams {
  std::size_t n = 0;
  double eps = 0.0;
  double fraction = 0.0;  ///< mutations per epoch, as a share of n
  double move_share = 0.0;
  double insert_share = 0.0;  ///< the rest are erases
  int probe_epochs = 0;
};

struct ServeParams {
  std::size_t n = 0;
  std::vector<double> self_eps;
  std::vector<double> rxs_eps;
  std::vector<int> knn_k;
  std::size_t probe_sets = 0;
  std::size_t probe_n = 0;
  /// Request kinds in stream order, repeated: "self", "rxs", "knn" or
  /// "repeat" (a copy of one of the last `repeat_window` requests).
  std::vector<std::string> cycle;
  double pairs_share = 0.0;  ///< Self requests that store pairs
  std::size_t repeat_window = 0;
  std::size_t workers = 0;
  std::size_t clients = 0;
  std::size_t result_cache_mb = 0;
  std::size_t cached_grids = 0;
  std::size_t modeled_stride = 0;
  std::size_t probe_requests = 0;
};

struct Params {
  int setups = 0;
  int plan_probe_reps = 0;
  SkewParams skew;
  ChurnParams churn;
  ServeParams serve;
};

struct Ctx {
  const Params& p;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  Trace& trace;
  Report& report;
};

/// Measured operation walls, split by whether the operation was traced
/// (a traced run alternates, so the tracing overhead is measured
/// against untraced operations of the same run), and each untraced
/// operation's cost: its wall over the yardstick timed right before it.
struct OpSamples {
  std::vector<double> traced;
  std::vector<double> untraced;
  std::vector<double> cost;
  void add_traced(double seconds) { traced.push_back(seconds); }
  void add_untraced(double seconds, double yardstick_seconds) {
    untraced.push_back(seconds);
    cost.push_back(seconds / yardstick_seconds);
  }
  [[nodiscard]] std::size_t size() const {
    return traced.size() + untraced.size();
  }
};

/// setup_s, op_cost, op_s_p50, op_s_p90 and, in a traced run,
/// obs.trace_overhead. ops_per_s is the caller's (its denominator differs
/// per workload).
void report_ops(Ctx& ctx, const std::vector<double>& setup_s,
                const OpSamples& ops);

void run_self_skew(Ctx& ctx);
void run_churn_delta(Ctx& ctx);
void run_serve_mix(Ctx& ctx);

// Probes (traced runs only).
void plan_probe(Ctx& ctx, const gsj::Dataset& ds, double eps,
                gsj::CellPattern pattern);
void kernel_probe(Ctx& ctx);
void churn_probe(Ctx& ctx);
void service_probe(Ctx& ctx);

/// Adds every per-layer metric, extracted from ctx.trace.
void report_layers(Ctx& ctx);

/// Names of the self-skew pass cells ("<variant>.<dataset>").
[[nodiscard]] std::vector<std::string> skew_cell_names(const SkewParams& p);

}  // namespace pb
