// Shared infrastructure of the pinned benchmark: in-memory tracing of
// operations and layer spans, sample statistics, the result line, the
// test-only delay injector and the input generators every workload
// draws from its seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "sj/result_set.hpp"

namespace pb {

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Wall seconds of a fixed reference computation that belongs to the
/// benchmark, not the library: the geometric mean of two timed parts,
/// an all-pairs distance loop over 600 fixed 6-D points (about 0.7 ms)
/// and a sort of 2^14 fixed keys (about 1.3 ms). Timed right before an
/// operation, it gauges the speed the shared host gives this thread at
/// that moment, so an operation's wall divided by it (the op_cost
/// metric) moves with the library's code and not with the host's load,
/// which swings wall times by 20-40% within minutes. Neither part alone
/// tracks every workload: as the host's load rose, the joins slowed
/// about as much as the distance loop, the churn epochs between the
/// two, and the sort least.
double yardstick_s();

/// One closed layer span: a public call made by the benchmark inside
/// an operation (or inside a set-up / probe phase, which are recorded
/// as operations of their own kind).
struct Span {
  std::uint64_t op = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = direct child of the operation
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

/// One closed traced operation: `kind` is "op" for the measured
/// operations and a phase name ("setup", "verify", "probe.*") otherwise.
struct OpRecord {
  std::uint64_t id = 0;
  std::string kind;
  double start = 0.0;
  double end = 0.0;
};

/// Spans and counts stay here until the run ends; nothing is written
/// out while measuring. Thread-safe (serve-mix has two client threads).
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  std::uint64_t next_op_id();
  void add_span(Span s);
  void add_op(OpRecord r);
  /// Records one sample of a per-layer count at the call that produced
  /// it (traced operations and phases only).
  void count(const std::string& name, double value);

  /// Durations of every span called `name`.
  [[nodiscard]] std::vector<double> span_seconds(const std::string& name) const;
  [[nodiscard]] std::vector<double> counts(const std::string& name) const;
  /// Wall time minus the summed top-level spans of each traced "op";
  /// throws when a residual is negative (overlapping spans).
  [[nodiscard]] std::vector<double> unattributed_seconds() const;
  [[nodiscard]] std::size_t span_total() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::uint64_t next_op_ = 0;
  std::vector<Span> spans_;
  std::vector<OpRecord> ops_;
  std::map<std::string, std::vector<double>> counts_;
};

/// An operation in flight on one thread. Spans opened through it are
/// recorded only when the operation is traced.
class Op {
 public:
  Op(Trace& trace, std::string kind, bool traced);
  Op(const Op&) = delete;
  Op& operator=(const Op&) = delete;

  /// Ends the operation and returns its wall seconds.
  double finish();
  /// Records a count sample when traced.
  void count(const std::string& name, double value);

 private:
  friend class SpanScope;
  Trace& trace_;
  std::string kind_;
  bool traced_;
  std::uint64_t id_ = 0;
  double start_ = 0.0;
  bool finished_ = false;
  std::uint32_t next_span_ = 0;
  std::vector<std::uint32_t> open_;  ///< stack of open span ids
};

/// RAII span around one public call.
class SpanScope {
 public:
  SpanScope(Op& op, std::string name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Op& op_;
  Span span_;
};

// ---------------------------------------------------------------- stats

/// Linear-interpolation quantile (q in [0, 1]) of a copy of `v`; 0 for
/// an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(const std::vector<double>& v);
[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double sum(const std::vector<double>& v);
/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

// ------------------------------------------------------------- results

/// What one run reports: correctness counters plus named metrics in
/// insertion order, each with its unit and sample count.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void fail(const std::string& why);
  void note(const std::string& line);
  [[nodiscard]] bool correct() const noexcept { return failed_ == 0; }
  /// Prints the human-readable lines and, last, the JSON result line
  /// with the metrics named in `keep` (all of them, in order).
  void print(const std::vector<std::string>& keep) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// ---------------------------------------------------- delay injection

/// Test-only slowdown: sleeps `ms` after every benchmark call site named
/// `call` (set once from --inject-after / --inject-delay-ms; never on by
/// default). Used to check that the bounds flag a slowed layer.
void set_injection(const std::string& call, double ms);
void after_call(const char* call);

// -------------------------------------------------------------- inputs

/// Density-preserving Expo input: Exp(rate 0.4 / shrink) coordinates,
/// shrink = (n / 2M)^(1/dims), so a paper-axis epsilon sees the paper's
/// Expo*2M cell occupancy at n points.
[[nodiscard]] double expo_rate(std::size_t n, int dims);
[[nodiscard]] gsj::Dataset expo_dataset(std::size_t n, int dims,
                                        std::uint64_t seed);

/// 64-bit FNV-1a digest of canonical pairs.
[[nodiscard]] std::uint64_t digest(std::span<const gsj::ResultPair> pairs);

/// Order-independent set digest: the wrapping sum of a mixed hash of
/// each pair, so a pair set can follow added and removed pairs without
/// being stored.
[[nodiscard]] std::uint64_t set_hash(std::span<const gsj::ResultPair> pairs);

/// Runs `fn` in a forked child process and returns the words it
/// produced. Reference answers are computed there, so their memory never
/// counts toward this process's peak RSS. Call it while this process
/// runs no other thread. Throws when the child fails.
[[nodiscard]] std::vector<std::uint64_t> run_isolated(
    const std::function<std::vector<std::uint64_t>()>& fn);

/// Seed derivation: one independent stream per (workload seed, use).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

}  // namespace pb
