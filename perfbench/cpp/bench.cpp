#include "bench.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/json.hpp"
#include "data/generators.hpp"

namespace pb {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

namespace {

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// All-pairs squared distances of 600 fixed 6-D points, counted within
/// a radius; the count is checked so the loop is neither skipped nor
/// wrong.
double distance_loop_s() {
  constexpr std::size_t kPoints = 600;
  constexpr std::size_t kDims = 6;
  thread_local const std::vector<double> pts = [] {
    std::vector<double> v(kPoints * kDims);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (double& c : v) c = static_cast<double>(xorshift(x) >> 11) * 0x1.0p-53;
    return v;
  }();
  thread_local std::size_t expected = 0;
  const double t0 = now_s();
  std::size_t within = 0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    for (std::size_t j = i + 1; j < kPoints; ++j) {
      double d2 = 0.0;
      for (std::size_t k = 0; k < kDims; ++k) {
        const double d = pts[i * kDims + k] - pts[j * kDims + k];
        d2 += d * d;
      }
      within += d2 < 0.3 ? 1 : 0;
    }
  }
  const double t = now_s() - t0;
  if (expected == 0) expected = within;
  if (within != expected) throw std::logic_error("yardstick count changed");
  return t;
}

/// Generates and sorts 2^14 fixed keys.
double sort_keys_s() {
  thread_local std::vector<std::uint32_t> keys(1 << 14);
  const double t0 = now_s();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t& k : keys) k = static_cast<std::uint32_t>(xorshift(x) >> 32);
  std::sort(keys.begin(), keys.end());
  const double t = now_s() - t0;
  if (!std::is_sorted(keys.begin(), keys.end())) {
    throw std::logic_error("yardstick sort failed");
  }
  return t;
}

}  // namespace

double yardstick_s() { return std::sqrt(distance_loop_s() * sort_keys_s()); }

// ---------------------------------------------------------------- trace

std::uint64_t Trace::next_op_id() {
  std::lock_guard lk(mu_);
  return ++next_op_;
}

void Trace::add_span(Span s) {
  std::lock_guard lk(mu_);
  spans_.push_back(std::move(s));
}

void Trace::add_op(OpRecord r) {
  std::lock_guard lk(mu_);
  ops_.push_back(std::move(r));
}

void Trace::count(const std::string& name, double value) {
  std::lock_guard lk(mu_);
  counts_[name].push_back(value);
}

std::vector<double> Trace::span_seconds(const std::string& name) const {
  std::lock_guard lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

std::vector<double> Trace::counts(const std::string& name) const {
  std::lock_guard lk(mu_);
  const auto it = counts_.find(name);
  return it == counts_.end() ? std::vector<double>{} : it->second;
}

std::vector<double> Trace::unattributed_seconds() const {
  std::lock_guard lk(mu_);
  std::map<std::uint64_t, double> covered;
  for (const Span& s : spans_) {
    if (s.parent == 0) covered[s.op] += s.end - s.start;
  }
  std::vector<double> out;
  for (const OpRecord& r : ops_) {
    if (r.kind != "op") continue;
    const double wall = r.end - r.start;
    const double residual = wall - covered[r.id];
    // Top-level spans of one operation are sequential on its thread, so
    // they can never cover more than the operation's own wall time.
    if (residual < -1e-9) {
      throw std::runtime_error("layer spans exceed their operation's wall time");
    }
    out.push_back(std::max(0.0, residual));
  }
  return out;
}

std::size_t Trace::span_total() const {
  std::lock_guard lk(mu_);
  return spans_.size();
}

Op::Op(Trace& trace, std::string kind, bool traced)
    : trace_(trace),
      kind_(std::move(kind)),
      traced_(traced && trace.enabled()) {
  if (traced_) id_ = trace_.next_op_id();
  start_ = now_s();
}

double Op::finish() {
  const double end = now_s();
  if (!finished_ && traced_) {
    trace_.add_op(OpRecord{id_, kind_, start_, end});
  }
  finished_ = true;
  return end - start_;
}

void Op::count(const std::string& name, double value) {
  if (traced_) trace_.count(name, value);
}

SpanScope::SpanScope(Op& op, std::string name) : op_(op) {
  if (!op_.traced_) return;
  span_.op = op_.id_;
  span_.id = ++op_.next_span_;
  span_.parent = op_.open_.empty() ? 0 : op_.open_.back();
  span_.name = std::move(name);
  op_.open_.push_back(span_.id);
  span_.start = now_s();
}

SpanScope::~SpanScope() {
  if (!op_.traced_) return;
  span_.end = now_s();
  op_.open_.pop_back();
  op_.trace_.add_span(std::move(span_));
}

// ---------------------------------------------------------------- stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -------------------------------------------------------------- report

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  entries_.push_back(Entry{name, value, unit, samples});
}

void Report::fail(const std::string& why) {
  ++failed_;
  notes_.push_back("FAIL: " + why);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print(const std::vector<std::string>& keep) const {
  for (const std::string& n : notes_) std::cout << n << "\n";
  for (const Entry& e : entries_) {
    std::cout << e.name << " = " << gsj::json::format_double(e.value) << " "
              << e.unit << "  (n=" << e.samples << ")\n";
  }
  const double ratio =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::cout << "fail_ratio = " << gsj::json::format_double(ratio)
            << " ratio  (" << failed_ << "/" << attempted_ << ")\n";

  std::ostringstream os;
  gsj::json::JsonWriter w(os);
  w.begin_object();
  w.key("correct").value(correct());
  w.key("attempted").value(static_cast<std::uint64_t>(attempted_));
  w.key("failed").value(static_cast<std::uint64_t>(failed_));
  w.key("metrics").begin_object();
  for (const std::string& name : keep) {
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const Entry& e) { return e.name == name; });
    if (it == entries_.end()) {
      throw std::runtime_error("metric not measured: " + name);
    }
    w.key(name).begin_object();
    w.key("value").value(it->value);
    w.key("unit").value(it->unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << os.str() << std::endl;
}

// ---------------------------------------------------- delay injection

namespace {
std::string g_inject_call;
double g_inject_ms = 0.0;
}  // namespace

void set_injection(const std::string& call, double ms) {
  g_inject_call = call;
  g_inject_ms = ms;
}

void after_call(const char* call) {
  if (g_inject_ms > 0.0 && g_inject_call == call) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(g_inject_ms));
  }
}

// -------------------------------------------------------------- inputs

double expo_rate(std::size_t n, int dims) {
  const double shrink =
      std::pow(static_cast<double>(n) / 2'000'000.0, 1.0 / dims);
  return 0.4 / shrink;
}

gsj::Dataset expo_dataset(std::size_t n, int dims, std::uint64_t seed) {
  return gsj::gen_exponential(n, dims, seed, expo_rate(n, dims));
}

std::uint64_t digest(std::span<const gsj::ResultPair> pairs) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [a, b] : pairs) mix((std::uint64_t{a} << 32) | b);
  mix(pairs.size());
  return h;
}

namespace {

std::uint64_t pair_hash(const gsj::ResultPair& p) {
  std::uint64_t z = (std::uint64_t{p.first} << 32 | p.second) +
                    0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t set_hash(std::span<const gsj::ResultPair> pairs) {
  std::uint64_t h = 0;
  for (const auto& p : pairs) h += pair_hash(p);
  return h;
}

std::vector<std::uint64_t> run_isolated(
    const std::function<std::vector<std::uint64_t>()>& fn) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::vector<std::uint64_t> words = fn();
      const std::uint64_t n = words.size();
      const char* bytes[2] = {reinterpret_cast<const char*>(&n),
                              reinterpret_cast<const char*>(words.data())};
      const std::size_t sizes[2] = {sizeof n, words.size() * sizeof n};
      for (int part = 0; part < 2 && code == 0; ++part) {
        for (std::size_t off = 0; off < sizes[part];) {
          const ssize_t w = write(fds[1], bytes[part] + off, sizes[part] - off);
          if (w <= 0) {
            code = 3;
            break;
          }
          off += static_cast<std::size_t>(w);
        }
      }
    } catch (...) {
      code = 4;
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::vector<char> buf;
  char chunk[1 << 16];
  for (ssize_t r; (r = read(fds[0], chunk, sizeof chunk)) != 0;) {
    if (r < 0) break;
    buf.insert(buf.end(), chunk, chunk + r);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  std::uint64_t n = 0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || buf.size() < sizeof n) {
    throw std::runtime_error("reference process failed");
  }
  std::memcpy(&n, buf.data(), sizeof n);
  if (buf.size() != sizeof n * (n + 1)) {
    throw std::runtime_error("reference process returned a short result");
  }
  std::vector<std::uint64_t> words(n);
  std::memcpy(words.data(), buf.data() + sizeof n, n * sizeof n);
  return words;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace pb
