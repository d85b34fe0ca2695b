// gsj_perfbench: one closed-loop workload per invocation, measured for
// --seconds, every output checked against an independent reference.
// Prints one line per metric and, last, the JSON result line carrying
// the metrics named by --metrics. Exits 1 when any check fails and 2 on
// a usage error or a rejected (degenerate) input.
//
//   gsj_perfbench --workload self-skew --seed 1 --seconds 20 --trace 0
//                 --metrics setup_s,op_cost,... <workload parameters>
//
// The workload parameters are the "params" of perfbench/workloads.json;
// perfbench/run.py passes them all.

#include <exception>
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "workloads.hpp"

namespace {

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  for (std::string item; std::getline(ss, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<double> doubles(const std::string& s) {
  std::vector<double> out;
  for (const std::string& v : split(s)) out.push_back(std::stod(v));
  return out;
}

/// Every parameter is required: run.py passes workloads.json in full, so
/// a missing one means the two have drifted apart.
class Args {
 public:
  Args(int argc, char** argv) : cli_(argc, argv) {}
  std::string str(const std::string& name) {
    const std::string v = cli_.get(name, "");
    if (v.empty()) throw std::invalid_argument("missing --" + name);
    return v;
  }
  double num(const std::string& name) {
    (void)str(name);
    return cli_.get_double(name, 0.0);
  }
  std::size_t size(const std::string& name) {
    return static_cast<std::size_t>(num(name));
  }
  std::string opt(const std::string& name) { return cli_.get(name, ""); }

 private:
  gsj::Cli cli_;
};

pb::Params parse_params(Args& a) {
  pb::Params p;
  p.setups = static_cast<int>(a.num("setups"));
  p.plan_probe_reps = static_cast<int>(a.num("plan_probe_reps"));
  p.skew.n2 = a.size("skew_expo2d_n");
  p.skew.eps2 = a.num("skew_expo2d_eps");
  p.skew.n6 = a.size("skew_expo6d_n");
  p.skew.eps6 = a.num("skew_expo6d_eps");
  p.skew.fleet_devices = static_cast<int>(a.num("skew_fleet_devices"));
  p.skew.wee_margin_pct = a.num("skew_wee_margin_pct");
  p.churn.n = a.size("churn_n");
  p.churn.eps = a.num("churn_eps");
  p.churn.fraction = a.num("churn_fraction");
  p.churn.move_share = a.num("churn_move_share");
  p.churn.insert_share = a.num("churn_insert_share");
  p.churn.probe_epochs = static_cast<int>(a.num("churn_probe_epochs"));
  p.serve.n = a.size("serve_n");
  p.serve.self_eps = doubles(a.str("serve_self_eps"));
  p.serve.rxs_eps = doubles(a.str("serve_rxs_eps"));
  for (double k : doubles(a.str("serve_knn_k"))) {
    p.serve.knn_k.push_back(static_cast<int>(k));
  }
  p.serve.probe_sets = a.size("serve_probe_sets");
  p.serve.probe_n = a.size("serve_probe_n");
  p.serve.cycle = split(a.str("serve_cycle"));
  p.serve.pairs_share = a.num("serve_pairs_share");
  p.serve.repeat_window = a.size("serve_repeat_window");
  p.serve.workers = a.size("serve_workers");
  p.serve.clients = a.size("serve_clients");
  p.serve.result_cache_mb = a.size("serve_result_cache_mb");
  p.serve.cached_grids = a.size("serve_cached_grids");
  p.serve.modeled_stride = a.size("serve_modeled_stride");
  p.serve.probe_requests = a.size("serve_probe_requests");
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Params params;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::vector<std::string> metrics;
  try {
    Args a(argc, argv);
    workload = a.str("workload");
    seed = static_cast<std::uint64_t>(a.num("seed"));
    seconds = a.num("seconds");
    trace = a.num("trace") != 0.0;
    metrics = split(a.str("metrics"));
    params = parse_params(a);
    const std::string inject = a.opt("inject-after");
    if (!inject.empty()) pb::set_injection(inject, a.num("inject-delay-ms"));
    if (workload != "self-skew" && workload != "churn-delta" &&
        workload != "serve-mix") {
      throw std::invalid_argument("unknown workload " + workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "gsj_perfbench: " << e.what() << "\n";
    return 2;
  }

  pb::Trace tr(trace);
  pb::Report report;
  pb::Ctx ctx{params, seed, seconds, tr, report};
  try {
    if (workload == "self-skew") pb::run_self_skew(ctx);
    if (workload == "churn-delta") pb::run_churn_delta(ctx);
    if (workload == "serve-mix") pb::run_serve_mix(ctx);
    if (trace) pb::report_layers(ctx);
    report.metric("peak_rss_mb", pb::peak_rss_mb(), "MB", 1);
    if (trace) {
      report.note("trace: " + std::to_string(tr.span_total()) + " spans kept");
    }
    report.print(metrics);
  } catch (const std::exception& e) {
    std::cerr << "gsj_perfbench: " << workload << ": " << e.what() << "\n";
    return 2;
  }
  return report.correct() ? 0 : 1;
}
