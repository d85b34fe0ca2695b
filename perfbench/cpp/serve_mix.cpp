// serve-mix: one JoinService driven closed-loop by client threads over a
// seeded stream of Self, R×S and KNN requests. Recent requests recur,
// so exact, coalesced and ε-subsumed serving happen alongside
// executions.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <exception>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "data/generators.hpp"
#include "sj/engine.hpp"
#include "sj/service.hpp"
#include "superego/super_ego.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

enum class Kind { Self, RxS, Knn };

struct Req {
  Kind kind = Kind::Self;
  int param = 0;  ///< index into self_eps / rxs_eps / knn_k
  int probe = 0;  ///< probe set (R×S and KNN)
  bool pairs = true;
};

struct ServeInputs {
  gsj::Dataset ds;
  std::vector<gsj::Dataset> probes;
};

ServeInputs make_inputs(const ServeParams& p, std::uint64_t seed) {
  ServeInputs in{expo_dataset(p.n, 2, derive_seed(seed, 31)), {}};
  for (std::size_t i = 0; i < p.probe_sets; ++i) {
    in.probes.push_back(gsj::gen_exponential(
        p.probe_n, 2, derive_seed(seed, 40 + i), expo_rate(p.n, 2)));
  }
  return in;
}

/// Draws from a seeded deck: every value of [0, n) once per shuffled
/// round, so each run sees the same multiset of parameters.
class Deck {
 public:
  Deck(std::size_t n, gsj::Xoshiro256& rng) : n_(n), rng_(rng) {}
  int next() {
    if (at_ == order_.size()) {
      order_.resize(n_);
      for (std::size_t i = 0; i < n_; ++i) order_[i] = static_cast<int>(i);
      std::shuffle(order_.begin(), order_.end(), rng_);
      at_ = 0;
    }
    return order_[at_++];
  }

 private:
  std::size_t n_;
  gsj::Xoshiro256& rng_;
  std::vector<int> order_;
  std::size_t at_ = 0;
};

/// The seeded request stream. Request i has the kind at position
/// i % cycle.size() of the cycle, so every seed gets the same mix; a
/// fresh request draws its parameter and probe set from decks, and one
/// Self request in every round(1 / pairs_share) stores pairs. The j-th
/// "repeat" copies the request 1 + j % repeat_window back, and every
/// other repeat of a Self pairs request steps to the next smaller ε
/// (ε-subsumption).
std::vector<Req> make_stream(const ServeParams& p, std::uint64_t seed,
                             std::size_t count) {
  gsj::Xoshiro256 rng(derive_seed(seed, 32));
  Deck self_eps(p.self_eps.size(), rng), rxs_eps(p.rxs_eps.size(), rng),
      knn_k(p.knn_k.size(), rng), probe(p.probe_sets, rng);
  const auto pairs_every =
      static_cast<std::size_t>(std::lround(1.0 / p.pairs_share));
  std::size_t self_fresh = 0, repeats = 0;
  std::vector<Req> s;
  s.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& slot = p.cycle[i % p.cycle.size()];
    if (slot == "repeat" && i > 0) {
      Req r = s[i - 1 - repeats % std::min(p.repeat_window, i)];
      if (r.kind == Kind::Self && r.pairs && r.param > 0 && repeats % 2 == 0) {
        --r.param;
      }
      ++repeats;
      s.push_back(r);
      continue;
    }
    Req r;
    if (slot == "rxs") {
      r.kind = Kind::RxS;
      r.param = rxs_eps.next();
      r.probe = probe.next();
    } else if (slot == "knn") {
      r.kind = Kind::Knn;
      r.param = knn_k.next();
      r.probe = probe.next();
    } else {
      r.param = self_eps.next();
      r.pairs = self_fresh++ % pairs_every == 0;
    }
    s.push_back(r);
  }
  return s;
}

/// Every request runs the paper's headline variant, so execution cost
/// varies with the request, not with a variant draw.
gsj::SelfJoinConfig make_cfg(const Req& r, const ServeParams& p,
                             const ServeInputs& in) {
  const double eps = r.kind == Kind::Self  ? p.self_eps[r.param]
                     : r.kind == Kind::RxS ? p.rxs_eps[r.param]
                                           : 0.0;
  gsj::SelfJoinConfig cfg = gsj::SelfJoinConfig::combined(eps);
  if (r.kind != Kind::Self) {
    cfg.mode = r.kind == Kind::RxS ? gsj::JoinMode::RxS : gsj::JoinMode::Knn;
    cfg.probe = &in.probes[static_cast<std::size_t>(r.probe)];
    if (r.kind == Kind::Knn) cfg.knn_k = p.knn_k[r.param];
  }
  cfg.store_pairs = r.pairs;
  cfg.collect_diagnostics = false;
  cfg.device.host.num_threads = 0;
  return cfg;
}

/// Expected answers, computed before timing by independent code:
/// SUPER-EGO for Self, brute force for R×S and KNN.
struct Expected {
  std::uint64_t count = 0;
  std::uint64_t digest = 0;
};

struct References {
  std::vector<Expected> self;               // by eps index
  std::vector<std::vector<Expected>> rxs;   // [probe][eps index]
  std::vector<std::vector<Expected>> knn;   // [probe][k index]

  /// Flattened as (count, digest) words in self, rxs, knn order, so the
  /// child process that computes them can hand them back.
  [[nodiscard]] std::vector<std::uint64_t> words() const {
    std::vector<std::uint64_t> w;
    auto put = [&](const Expected& e) {
      w.push_back(e.count);
      w.push_back(e.digest);
    };
    for (const Expected& e : self) put(e);
    for (const auto& v : rxs) for (const Expected& e : v) put(e);
    for (const auto& v : knn) for (const Expected& e : v) put(e);
    return w;
  }

  /// Inverse of words() for the shapes `p` implies.
  static References from_words(const ServeParams& p,
                               const std::vector<std::uint64_t>& w) {
    References r;
    std::size_t at = 0;
    auto take = [&] {
      const Expected e{w.at(at), w.at(at + 1)};
      at += 2;
      return e;
    };
    for (std::size_t i = 0; i < p.self_eps.size(); ++i) r.self.push_back(take());
    r.rxs.resize(p.probe_sets);
    for (auto& v : r.rxs) {
      for (std::size_t i = 0; i < p.rxs_eps.size(); ++i) v.push_back(take());
    }
    r.knn.resize(p.probe_sets);
    for (auto& v : r.knn) {
      for (std::size_t i = 0; i < p.knn_k.size(); ++i) v.push_back(take());
    }
    return r;
  }

  [[nodiscard]] const Expected& at(const Req& r) const {
    const auto pr = static_cast<std::size_t>(r.probe);
    const auto pa = static_cast<std::size_t>(r.param);
    return r.kind == Kind::Self  ? self[pa]
           : r.kind == Kind::RxS ? rxs[pr][pa]
                                 : knn[pr][pa];
  }
};

double dist2(const gsj::Dataset& a, gsj::PointId i, const gsj::Dataset& b,
             gsj::PointId j) {
  double s = 0.0;
  for (int d = 0; d < a.dims(); ++d) {
    const double t = a.coord(i, d) - b.coord(j, d);
    s += t * t;
  }
  return s;
}

References make_references(const ServeParams& p, const ServeInputs& in) {
  References ref;
  {
    // One SUPER-EGO join at the largest ε, filtered by exact distance
    // for every smaller one.
    gsj::SuperEgoConfig sc;
    sc.epsilon = *std::max_element(p.self_eps.begin(), p.self_eps.end());
    sc.nthreads = 4;
    sc.store_pairs = true;
    gsj::SuperEgoOutput out = gsj::super_ego_join(in.ds, sc);
    out.results.canonicalize();
    for (double eps : p.self_eps) {
      std::vector<gsj::ResultPair> v;
      for (const auto& [a, b] : out.results.pairs()) {
        if (dist2(in.ds, a, in.ds, b) <= eps * eps) v.emplace_back(a, b);
      }
      ref.self.push_back({v.size(), digest(v)});
    }
  }
  const auto n = static_cast<gsj::PointId>(in.ds.size());
  const int kmax = *std::max_element(p.knn_k.begin(), p.knn_k.end());
  for (const gsj::Dataset& q : in.probes) {
    const auto m = static_cast<gsj::PointId>(q.size());
    // Brute-force R×S: a service request grids the attached dataset and
    // answers (probe id, attached id) pairs.
    std::vector<std::vector<gsj::ResultPair>> rxs(p.rxs_eps.size());
    // Brute-force KNN: each query's neighbors ranked by (dist², id).
    std::vector<std::vector<gsj::PointId>> ranked(m);
    std::vector<std::pair<double, gsj::PointId>> cand(n);
    for (gsj::PointId j = 0; j < m; ++j) {
      for (gsj::PointId i = 0; i < n; ++i) {
        const double d2 = dist2(in.ds, i, q, j);
        cand[i] = {d2, i};
        for (std::size_t e = 0; e < p.rxs_eps.size(); ++e) {
          if (d2 <= p.rxs_eps[e] * p.rxs_eps[e]) rxs[e].emplace_back(j, i);
        }
      }
      const auto k = std::min<std::size_t>(static_cast<std::size_t>(kmax), n);
      std::partial_sort(cand.begin(), cand.begin() + static_cast<long>(k),
                        cand.end());
      for (std::size_t t = 0; t < k; ++t) ranked[j].push_back(cand[t].second);
    }
    std::vector<Expected> rx, kn;
    for (auto& v : rxs) {
      std::sort(v.begin(), v.end());
      rx.push_back({v.size(), digest(v)});
    }
    for (int k : p.knn_k) {
      std::vector<gsj::ResultPair> v;
      for (gsj::PointId j = 0; j < m; ++j) {
        const auto take = std::min<std::size_t>(static_cast<std::size_t>(k),
                                                ranked[j].size());
        std::vector<gsj::PointId> ids(ranked[j].begin(),
                                      ranked[j].begin() + static_cast<long>(take));
        std::sort(ids.begin(), ids.end());
        for (gsj::PointId id : ids) v.emplace_back(j, id);
      }
      kn.push_back({v.size(), digest(v)});
    }
    ref.rxs.push_back(std::move(rx));
    ref.knn.push_back(std::move(kn));
  }
  return ref;
}

bool response_ok(const gsj::JoinResponse& r, const Req& req,
                 const References* ref) {
  if (r.status != gsj::JoinStatus::Ok) return false;
  if (ref == nullptr) return true;
  const Expected& e = ref->at(req);
  if (r.output.results.count() != e.count) return false;
  return !req.pairs || digest(r.output.results.pairs()) == e.digest;
}

/// Service-layer counts of one response (recorded only when traced).
void record_response(Op& op, const gsj::JoinResponse& r, const Req& req) {
  const auto& b = r.breakdown;
  const bool executed = b.served_from == gsj::obs::ServedFrom::Execution;
  op.count("service.wait_s", r.wait_seconds);
  op.count("service.served_from_cache_ratio", executed ? 0.0 : 1.0);
  if (!executed) return;
  op.count("service.run_s", r.service_seconds);
  op.count("service.artifact_hits", static_cast<double>(b.cache_hits()));
  op.count("service.artifact_lookups",
           static_cast<double>(b.cache_hits() + b.cache_misses()));
  if (req.kind == Kind::Knn) {
    op.count("service.knn_rounds",
             static_cast<double>(r.output.stats.knn_rounds));
    op.count("service.knn_grid_hits", static_cast<double>(b.grid_hits));
    op.count("service.knn_grid_lookups",
             static_cast<double>(b.grid_hits + b.grid_misses));
  }
}

gsj::ServiceConfig service_cfg(const ServeParams& p) {
  gsj::ServiceConfig scfg;
  scfg.workers = p.workers;
  scfg.max_result_cache_bytes = p.result_cache_mb << 20;
  scfg.max_cached_grids = p.cached_grids;
  return scfg;
}

/// One request through submit + wait, with its layer spans.
gsj::JoinResponse serve_one(gsj::JoinService& svc,
                            const std::shared_ptr<gsj::SharedDataset>& sd,
                            const gsj::SelfJoinConfig& cfg, Op& op) {
  gsj::JoinService::Ticket t;
  {
    SpanScope s(op, "service.submit");
    t = svc.submit(sd, gsj::JoinRequest{cfg});
    after_call("JoinService::submit");
  }
  SpanScope s(op, "service.wait");
  return t.get();
}

struct ClientResult {
  OpSamples ops;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t served = 0;
  double last_end = 0.0;
};

}  // namespace

void run_serve_mix(Ctx& ctx) {
  const ServeParams& p = ctx.p.serve;
  const bool tr = ctx.trace.enabled();
  const ServeInputs in = make_inputs(p, ctx.seed);
  const std::vector<Req> stream = make_stream(p, ctx.seed, 100000);
  const References ref = References::from_words(
      p, run_isolated([&] { return make_references(p, in).words(); }));

  // Modeled outputs of a fixed grid of requests — every
  // modeled_stride-th Self ε and R×S ε (probe set 0) — run on an engine
  // in a child process, so they do not depend on what the cache served.
  // KNN runs on the host and has no modeled device time.
  const std::vector<std::uint64_t> modeled = run_isolated([&] {
    gsj::JoinEngine eng;
    gsj::PreparedDataset prep = eng.prepare(in.ds);
    double secs = 0.0, wee = 0.0;
    std::uint64_t runs = 0;
    for (const Kind kind : {Kind::Self, Kind::RxS}) {
      const std::size_t n =
          kind == Kind::Self ? p.self_eps.size() : p.rxs_eps.size();
      for (std::size_t e = 0; e < n; e += p.modeled_stride) {
        Req r;
        r.kind = kind;
        r.param = static_cast<int>(e);
        r.pairs = false;
        const gsj::SelfJoinOutput out = eng.run(prep, make_cfg(r, p, in));
        secs += out.stats.kernel_seconds;
        wee += out.stats.wee_percent();
        ++runs;
      }
    }
    return std::vector<std::uint64_t>{std::bit_cast<std::uint64_t>(secs / runs),
                                      std::bit_cast<std::uint64_t>(wee / runs),
                                      runs};
  });
  const double modeled_s = std::bit_cast<double>(modeled[0]);
  const double wee_pct = std::bit_cast<double>(modeled[1]);

  // Set-up: a fresh service, attach, one cold Self request.
  Req first;
  first.param = static_cast<int>(p.self_eps.size()) - 1;
  std::vector<double> setup_s;
  std::unique_ptr<gsj::JoinService> svc;
  std::shared_ptr<gsj::SharedDataset> sd;
  for (int s = 0; s < ctx.p.setups; ++s) {
    sd.reset();
    svc.reset();
    Op op(ctx.trace, "setup", tr);
    svc = std::make_unique<gsj::JoinService>(service_cfg(p));
    sd = svc->attach(in.ds);
    const gsj::JoinResponse r = serve_one(*svc, sd, make_cfg(first, p, in), op);
    setup_s.push_back(op.finish());
    if (!response_ok(r, first, &ref)) ctx.report.fail("set-up request failed");
  }

  if (tr) plan_probe(ctx, in.ds, p.self_eps.back(), gsj::CellPattern::Full);

  std::atomic<std::size_t> next{0};
  std::vector<ClientResult> results(p.clients);
  const double start = now_s();
  const double deadline = start + ctx.seconds;
  auto client = [&](ClientResult& cr) {
    for (;;) {
      if (now_s() >= deadline) break;
      const std::size_t idx = next.fetch_add(1);
      if (idx >= stream.size()) break;
      const Req& req = stream[idx];
      const bool traced = tr && idx % 2 == 1;
      const double yard = yardstick_s();  // traced requests too, as in churn-delta
      Op op(ctx.trace, "op", traced);
      ++cr.attempted;
      try {
        gsj::JoinResponse r =
            serve_one(*svc, sd, make_cfg(req, p, in), op);
        if (traced) {
          cr.ops.add_traced(op.finish());
        } else {
          cr.ops.add_untraced(op.finish(), yard);
        }
        cr.last_end = now_s();
        if (!response_ok(r, req, &ref)) ++cr.failed;
        if (r.breakdown.served_from != gsj::obs::ServedFrom::Execution) {
          ++cr.served;
        }
        record_response(op, r, req);
        // A well-behaved client hands the buffers back for reuse.
        svc->recycle(std::move(r.output));
      } catch (const std::exception&) {
        ++cr.failed;  // a thread entry function must not let it escape
      }
    }
  };
  std::vector<std::thread> threads;
  for (ClientResult& cr : results) threads.emplace_back(client, std::ref(cr));
  for (std::thread& t : threads) t.join();

  OpSamples ops;
  std::size_t served = 0;
  double end = start;
  for (const ClientResult& cr : results) {
    ops.traced.insert(ops.traced.end(), cr.ops.traced.begin(), cr.ops.traced.end());
    ops.untraced.insert(ops.untraced.end(), cr.ops.untraced.begin(),
                        cr.ops.untraced.end());
    ops.cost.insert(ops.cost.end(), cr.ops.cost.begin(), cr.ops.cost.end());
    ctx.report.attempt(cr.attempted);
    for (std::size_t f = 0; f < cr.failed; ++f) {
      ctx.report.fail("request failed or mismatched its reference");
    }
    served += cr.served;
    end = std::max(end, cr.last_end);
  }
  ctx.report.note("served from cache: " + std::to_string(served) + " of " +
                  std::to_string(ops.size()));

  report_ops(ctx, setup_s, ops);
  ctx.report.metric("ops_per_s", static_cast<double>(ops.size()) / (end - start),
                    "1/s", ops.size());
  ctx.report.metric("modeled_s", modeled_s, "s", modeled[2]);
  ctx.report.metric("wee_pct", wee_pct, "%", modeled[2]);

  if (tr) {
    kernel_probe(ctx);
    churn_probe(ctx);
  }
}

void service_probe(Ctx& ctx) {
  const ServeParams& p = ctx.p.serve;
  const ServeInputs in = make_inputs(p, ctx.seed);
  const std::vector<Req> stream = make_stream(p, ctx.seed, p.probe_requests);
  gsj::JoinService svc(service_cfg(p));
  const auto sd = svc.attach(in.ds);
  for (const Req& req : stream) {
    Op op(ctx.trace, "probe.service", true);
    const gsj::JoinResponse r = serve_one(svc, sd, make_cfg(req, p, in), op);
    if (!response_ok(r, req, nullptr)) ctx.report.fail("service probe request failed");
    record_response(op, r, req);
    op.finish();
  }
}

}  // namespace pb
