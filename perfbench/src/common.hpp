// Shared pieces of the KV-service benchmark: the service type under test,
// clocks, an exact-enough latency histogram, the span tracer that wraps
// every client call, and the report printer.
#pragma once

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/llsc_traits.hpp"
#include "reclaim/epoch.hpp"
#include "svc/service.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace perfbench {

// The system under test: the service on the paper's Figure 4 substrate
// (CAS-backed LL/SC, 16-bit value field) with epoch reclamation.
using Sub = moir::CasBackedLlsc<>;
using Rec = moir::reclaim::EpochReclaimer;
using Svc = moir::svc::KvService<Sub, Rec>;
using Ticket = Svc::Ticket;
using moir::svc::Op;
using moir::svc::Status;

inline std::uint64_t clock_ns(clockid_t id) {
  timespec ts;
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
inline std::uint64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }

// CPU the service burns over a window: process CPU time minus the calling
// (generator) thread's own CPU time, over wall time.
class CpuMeter {
 public:
  void start() {
    wall_ = now_ns();
    proc_ = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
    self_ = clock_ns(CLOCK_THREAD_CPUTIME_ID);
    started_ = true;
  }
  bool started() const { return started_; }
  double stop_cores() const {
    const double wall = static_cast<double>(now_ns() - wall_);
    const double proc =
        static_cast<double>(clock_ns(CLOCK_PROCESS_CPUTIME_ID) - proc_);
    const double self =
        static_cast<double>(clock_ns(CLOCK_THREAD_CPUTIME_ID) - self_);
    return wall > 0 ? (proc - self) / wall : 0.0;
  }

 private:
  std::uint64_t wall_ = 0, proc_ = 0, self_ = 0;
  bool started_ = false;
};

inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

// Log-linear latency histogram: values below 256 ns are exact, above that
// each power of two splits into 128 buckets, so a bucket spans < 0.8% of
// its value. Quantiles interpolate by rank inside the bucket. Failures
// (sheds, kOverload) rank slower than every completion: a quantile whose
// rank lands among them is reported as `fail_ns`, a ceiling at least as
// large as any completion, so shedding can never improve a tail.
class LatencyHist {
 public:
  static constexpr unsigned kExact = 256;
  static constexpr unsigned kSub = 128;
  static constexpr unsigned kMaxExp = 44;
  static constexpr unsigned kBuckets = kExact + (kMaxExp - 8 + 1) * kSub;

  LatencyHist() : counts_(kBuckets, 0) {}

  void record(std::uint64_t ns) {
    ++counts_[bucket_of(ns)];
    ++n_;
    max_ = std::max(max_, ns);
  }
  void fail() { ++fails_; }
  void merge(const LatencyHist& o) {
    for (unsigned b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    n_ += o.n_;
    fails_ += o.fails_;
    max_ = std::max(max_, o.max_);
  }

  std::uint64_t completed() const { return n_; }
  std::uint64_t failures() const { return fails_; }
  std::uint64_t samples() const { return n_ + fails_; }

  double quantile_ns(double q, double fail_ns) const {
    const std::uint64_t total = samples();
    if (total == 0) return 0.0;
    const double rank = std::max(1.0, std::ceil(q * double(total)));
    if (rank > double(n_)) return std::max(fail_ns, double(max_));
    std::uint64_t before = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
      const std::uint64_t c = counts_[b];
      if (c == 0) continue;
      if (double(before + c) >= rank) {
        const double frac = (rank - double(before) - 0.5) / double(c);
        return double(lower(b)) + frac * double(width(b));
      }
      before += c;
    }
    return double(max_);
  }

 private:
  static unsigned bucket_of(std::uint64_t v) {
    if (v < kExact) return static_cast<unsigned>(v);
    unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
    if (e > kMaxExp) return kBuckets - 1;
    return kExact + (e - 8) * kSub +
           static_cast<unsigned>((v >> (e - 7)) & (kSub - 1));
  }
  static std::uint64_t lower(unsigned b) {
    if (b < kExact) return b;
    const unsigned e = (b - kExact) / kSub + 8;
    const std::uint64_t m = (b - kExact) % kSub;
    return (std::uint64_t{1} << e) + (m << (e - 7));
  }
  static std::uint64_t width(unsigned b) {
    return b < kExact ? 1 : std::uint64_t{1} << ((b - kExact) / kSub + 1);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0, fails_ = 0, max_ = 0;
};

// ----- Tracing --------------------------------------------------------------

enum class Call : std::uint8_t { kSubmit, kSubmitMulti, kPoll, kPollFeed };
inline constexpr unsigned kCalls = 4;
inline const char* call_name(Call c) {
  static const char* const kNames[kCalls] = {"submit", "submit_multi", "poll",
                                             "poll_feed"};
  return kNames[static_cast<unsigned>(c)];
}

// One client call, identified by the request it belongs to.
struct Span {
  std::uint64_t start = 0, end = 0, gen = 0;
  std::uint32_t slot = 0;
  std::uint16_t session = 0;
  Call call = Call::kSubmit;
};

// Spans kept in memory (up to a cap; every call still feeds the duration
// histograms) and written out at exit.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 18;

  Tracer() { spans_.reserve(kMaxSpans); }

  void add(Call c, unsigned session, const std::optional<Ticket>& t,
           std::uint64_t start, std::uint64_t end) {
    const unsigned i = static_cast<unsigned>(c);
    dur_[i].record(end - start);
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(Span{start, end, t ? t->gen : 0,
                            t ? t->slot : ~std::uint32_t{0},
                            static_cast<std::uint16_t>(session), c});
    } else {
      ++dropped_;
    }
  }

  const LatencyHist& durations(Call c) const {
    return dur_[static_cast<unsigned>(c)];
  }

  // CSV: call,session,slot,gen,start_ns,end_ns (slot = 4294967295: shed).
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "call,session,slot,gen,start_ns,end_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s,%u,%u,%llu,%llu,%llu\n", call_name(s.call),
                   unsigned{s.session}, s.slot,
                   static_cast<unsigned long long>(s.gen),
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end));
    }
    std::fclose(f);
    return true;
  }
  std::size_t kept() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  LatencyHist dur_[kCalls];
};

// The public client API, optionally wrapped in spans. With no tracer the
// wrapper is a pointer test around the plain call.
class Client {
 public:
  Client(Svc& svc, Tracer* tracer) : svc_(svc), tr_(tracer) {}

  std::optional<Ticket> submit(Svc::ClientCtx& c, Op op, std::uint64_t key,
                               std::uint64_t value = 0) {
    if (tr_ == nullptr) return svc_.submit(c, op, key, value);
    const std::uint64_t t0 = now_ns();
    const auto t = svc_.submit(c, op, key, value);
    tr_->add(Call::kSubmit, c.session(), t, t0, now_ns());
    return t;
  }

  std::optional<Ticket> submit_multi(Svc::ClientCtx& c, Op op,
                                     std::span<const std::uint64_t> keys,
                                     std::span<const std::uint64_t> values,
                                     std::span<const std::uint64_t> expected) {
    if (tr_ == nullptr) {
      return svc_.submit_multi(c, op, keys, values, expected);
    }
    const std::uint64_t t0 = now_ns();
    const auto t = svc_.submit_multi(c, op, keys, values, expected);
    tr_->add(Call::kSubmitMulti, c.session(), t, t0, now_ns());
    return t;
  }

  std::optional<moir::svc::Response> poll(Svc::ClientCtx& c, const Ticket& t,
                                          std::span<std::uint64_t> out = {}) {
    if (tr_ == nullptr) {
      return out.empty() ? svc_.poll(c, t) : svc_.poll(c, t, out);
    }
    const std::uint64_t t0 = now_ns();
    const auto r = out.empty() ? svc_.poll(c, t) : svc_.poll(c, t, out);
    tr_->add(Call::kPoll, c.session(), t, t0, now_ns());
    return r;
  }

  std::optional<Svc::FeedDelivery> poll_feed(Svc::ClientCtx& c,
                                             const Ticket& t,
                                             moir::feed::Record* out,
                                             unsigned max) {
    if (tr_ == nullptr) return svc_.poll_feed(c, t, out, max);
    const std::uint64_t t0 = now_ns();
    const auto d = svc_.poll_feed(c, t, out, max);
    tr_->add(Call::kPollFeed, c.session(), t, t0, now_ns());
    return d;
  }

  // Blocking completion, used only outside measured windows (subscribe).
  moir::svc::Response wait(Svc::ClientCtx& c, const Ticket& t) {
    return svc_.wait(c, t);
  }

 private:
  Svc& svc_;
  Tracer* tr_;
};

// ----- Options and report ---------------------------------------------------

// Deliberate faults for the benchmark's negative controls.
enum class Inject : std::uint8_t { kNone, kCorruptResponse, kBrokenTransfer };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Inject inject = Inject::kNone;
  std::string span_dir;  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    metrics_.push_back(Metric{name, value, unit, samples});
  }
  // A correctness violation: remembered (the first few are printed) and
  // the run fails.
  void violation(const std::string& what) {
    if (violations_ < 5) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    ++violations_;
  }
  bool correct() const { return violations_ == 0; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Human-readable lines, then the result object as the last line.
  void print() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-32s %16.6f %-8s n=%llu\n", m.name.c_str(),
                  m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    }
    std::printf("checks %s (%llu violations)\n",
                correct() ? "passed" : "FAILED",
                static_cast<unsigned long long>(violations_));
    moir::JsonWriter w;
    w.begin_object()
        .kv("correct", correct())
        .kv("attempted", attempted)
        .kv("failed", failed)
        .key("metrics")
        .begin_object();
    for (const Metric& m : metrics_) {
      w.key(m.name)
          .begin_object()
          .kv("value", m.value)
          .kv("unit", std::string_view(m.unit))
          .kv("samples", m.samples)
          .end_object();
    }
    w.end_object().end_object();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t violations_ = 0;
};

// p50/p99/p999 (in microseconds) and fail_frac of one latency histogram,
// each name carrying `suffix` (e.g. "p50_us" + ".light").
inline void add_latency(Report& rep, const LatencyHist& h,
                        const std::string& suffix, double fail_ns) {
  const std::uint64_t n = h.samples();
  rep.add("p50_us" + suffix, h.quantile_ns(0.50, fail_ns) / 1e3, "us", n);
  rep.add("p99_us" + suffix, h.quantile_ns(0.99, fail_ns) / 1e3, "us", n);
  rep.add("p999_us" + suffix, h.quantile_ns(0.999, fail_ns) / 1e3, "us", n);
  rep.add("fail_frac" + suffix,
          n == 0 ? 0.0 : double(h.failures()) / double(n), "ratio", n);
}

// Asserts the no-oversubscription rule and prints the thread budget.
inline bool check_thread_budget(const Svc& svc, unsigned generators) {
  const auto& cfg = svc.config();
  const unsigned service = cfg.workers + (cfg.use_rings ? 1u : 0u);
  const unsigned ncpu = online_cpus();
  std::printf("threads generator=%u service=%u nproc=%u\n", generators,
              service, ncpu);
  if (generators + service > ncpu) {
    std::fprintf(stderr,
                 "oversubscribed: %u generator + %u service threads > "
                 "nproc %u\n",
                 generators, service, ncpu);
    return false;
  }
  return true;
}

// a / b - 1: how much slower the traced pass ran (0 when b is 0).
inline double slowdown(double a, double b) { return b > 0 ? a / b - 1 : 0.0; }

// Median of a few timed set-ups (seconds).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// The value a key carries in the kv workloads; a find that returns
// anything else saw a corrupted response.
inline std::uint64_t checksum_of(std::uint64_t key) {
  return (moir::hash_mix64(key ^ 0x5bd1e995u) & 0xffffffffffffull) | 1;
}

// Exponential inter-arrival gap for an open-loop Poisson stream.
inline double exp_gap_ns(moir::Xoshiro256& rng, double rate_per_s) {
  const double u = 1.0 - rng.next_double();  // (0, 1]
  return -std::log(u) * 1e9 / rate_per_s;
}

}  // namespace perfbench
