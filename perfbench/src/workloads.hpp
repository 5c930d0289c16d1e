// Workload entry points, the service-instance holder they share, the
// closed-loop generator, and the per-layer ladder rungs.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common.hpp"
#include "stats/stats.hpp"

namespace perfbench {

int run_kv_open(const Options& o, Report& rep);
int run_kv_closed(const Options& o, Report& rep);
int run_txn_bank(const Options& o, Report& rep);
int run_feed_fanout(const Options& o, Report& rep);

// One service with its connected sessions. Declaration order is the
// teardown order in reverse: sessions disconnect before the service stops,
// and the substrate outlives the service that references it.
struct Instance {
  Sub sub;
  std::unique_ptr<Svc> svc;
  std::vector<Svc::ClientCtx> sessions;
};

// Set-up time: the median over several builds.
struct Setup {
  double median_s = 0;
  unsigned builds = 0;
};

// Builds the instance and returns it. A build is the service constructed,
// `preload(inst)` run, and `sessions` connected. With `setup` set, builds
// repeat (dropping the previous instance first) until at least 5 builds
// and 1 s of building, at most 1000 builds, and `setup` gets their median:
// a single small build varies by 2x, their median far less.
std::unique_ptr<Instance> build_instance(
    const Svc::Config& cfg, unsigned sessions,
    const std::function<void(Instance&)>& preload, Setup* setup);

// Outcome of polling one closed-loop request.
enum class Done : std::uint8_t {
  kPending,    // not complete yet
  kCompleted,  // completed, counts toward latency but not throughput
  kCommitted,  // completed and counts toward throughput
  kFailed,     // kOverload: completed with an error
};

struct ClosedResult {
  LatencyHist lat;
  // Duration of each generator pass over its requests inside the window:
  // the longest a completion can wait to be observed and replaced.
  LatencyHist pass;
  double cores = 0;
  double window_s = 0;
  std::uint64_t committed = 0;  // in-window completions that count
  double throughput_kops() const {
    return window_s > 0 ? double(committed) / window_s / 1e3 : 0.0;
  }
};

// Closed-loop generator over `sessions`, each keeping `window` requests in
// flight from the calling (generator) thread. `send(ctx, data)` submits a
// fresh request described by `data` and returns its ticket (nullopt =
// shed); `poll(ctx, ticket, data)` checks one request. `idle()` runs once
// per pass for side traffic (feed subscribers). Latency runs from the
// submit call to the pass that observes completion; every request submitted
// in [warm end, end) is recorded, including those that complete while the
// window drains: after `end` no new requests go out and every in-flight one
// is drained (its checks still run). Throughput counts commits completed
// inside the window.
template <class Data, class Send, class Poll, class Idle>
ClosedResult run_closed(std::span<Svc::ClientCtx> sessions, unsigned window,
                        double warm_s, double measure_s, Send&& send,
                        Poll&& poll, Idle&& idle) {
  struct Slot {
    std::optional<Ticket> t;
    std::uint64_t t0 = 0;
    Data d{};
  };
  ClosedResult res;
  const std::size_t ns = sessions.size();
  std::vector<Slot> slots(ns * window);
  const std::uint64_t begin = now_ns();
  const std::uint64_t m_start = begin + std::uint64_t(warm_s * 1e9);
  const std::uint64_t m_end = m_start + std::uint64_t(measure_s * 1e9);
  CpuMeter cpu;
  bool cpu_done = false;
  auto submit = [&](std::size_t i) {
    Slot& s = slots[i];
    s.t0 = now_ns();
    s.t = send(sessions[i / window], s.d);
    if (!s.t && s.t0 >= m_start && s.t0 < m_end) res.lat.fail();
  };
  for (std::size_t i = 0; i < slots.size(); ++i) submit(i);
  for (std::uint64_t prev = 0;;) {
    const std::uint64_t now = now_ns();
    const bool open = now < m_end;
    if (prev >= m_start && open) res.pass.record(now - prev);
    prev = now;
    if (!cpu.started() && now >= m_start) cpu.start();
    if (!open && !cpu_done && cpu.started()) {
      res.cores = cpu.stop_cores();
      cpu_done = true;
    }
    bool busy = false;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& s = slots[i];
      if (!s.t) {
        if (open) submit(i);
        busy = busy || s.t.has_value();
        continue;
      }
      const Done d = poll(sessions[i / window], *s.t, s.d);
      if (d == Done::kPending) {
        busy = true;
        continue;
      }
      const std::uint64_t done = now_ns();
      s.t.reset();
      if (done >= m_start && done < m_end && d == Done::kCommitted) {
        ++res.committed;
      }
      if (s.t0 >= m_start && s.t0 < m_end) {
        if (d == Done::kFailed) {
          res.lat.fail();
        } else {
          res.lat.record(done - s.t0);
        }
      }
      if (open) {
        submit(i);
        busy = busy || s.t.has_value();
      }
    }
    idle();
    if (!open && !busy) break;
  }
  res.window_s = double(m_end - m_start) / 1e9;
  return res;
}

// throughput_kops and the request latencies of the traced run's untraced
// pass: the end-to-end figures that are not gated, so that its result
// object carries them.
inline void add_untraced(Report& rep, const ClosedResult& base,
                         double fail_ns) {
  rep.add("throughput_kops", base.throughput_kops(), "kops/s",
          base.committed);
  add_latency(rep, base.lat, "", fail_ns);
}

// Runs `pass()` with the stats counters on (they are off otherwise) and
// stores the counters' change over it in `delta`.
template <class Pass>
auto counted(Pass&& pass, moir::stats::Snapshot& delta) {
  moir::stats::reset();
  moir::stats::set_counting(true);
  const moir::stats::Snapshot s0 = moir::stats::snapshot();
  auto result = pass();
  delta = moir::stats::snapshot() - s0;
  moir::stats::set_counting(false);
  return result;
}

// ----- Per-layer ladder -----------------------------------------------------
//
// Each rung times one module's public API directly, single-threaded.

// svc.ring_ns, svc.dispatch_ns, core.llsc_ns, reclaim.bracket_ns,
// feed.publish_ns, feed.poll_ns.
void ladder_fixed(Report& rep);

// map.find_ns.p50, map.upsert_ns.p50, map.churn_ns.p50 on `map`, keys
// drawn by `next_key`. Leaves every key present or absent as found; the
// keys it upserts or re-inserts end up holding checksum_of(key). Runs
// after the workload's checks.
struct MapRung {
  double find_p50 = 0, upsert_p50 = 0, churn_p50 = 0;
};
using KeyFn = std::function<std::uint64_t(moir::Xoshiro256&)>;
MapRung ladder_map(Report& rep, Svc::Map& map, const KeyFn& next_key,
                   std::uint64_t seed);

// tl2.multi_get_ns.p50 (k = 8) and tl2.multi_cas_ns.p50 (k = 2) on `eng`,
// whose keys are `groups` groups of 8 accounts, zipf over groups. The
// transfers move one unit inside a group, so balances stay conserved.
struct Tl2Rung {
  double multi_get_p50 = 0, multi_cas_p50 = 0;
};
Tl2Rung ladder_tl2(Report& rep, Svc::Tl2& eng, std::uint64_t groups,
                   std::uint64_t seed);

// The txn-bank table (groups of 8 accounts) built standalone, for the
// workloads whose service has no transaction engine: the rung still runs,
// at txn-bank's size, so every per-layer metric is measured everywhere.
Tl2Rung ladder_tl2_standalone(Report& rep, std::uint64_t seed);

// Per-layer metrics derived from stats counters (and the stats layer's
// batch-size and retire-list histograms) over a traced window in which the
// generator attempted `attempted` requests and `ops` completed.
void layer_counters(Report& rep, const moir::stats::Snapshot& d,
                    std::uint64_t ops, std::uint64_t attempted);

// Shared by the traced runs: overhead, pipeline residue, span dump.
void trace_summary(Report& rep, const Options& o, const Tracer& tr,
                   std::uint64_t completions, double overhead_frac,
                   double request_p50_ns, double engine_p50_ns,
                   double late_p99_us);

// Nodes per dispatch queue, in place of Config's default 1024. The epoch
// reclaimer advances only inside retire(), and a worker's retire list peaks
// at about 1000 nodes under closed-loop load (reclaim.retire_list_max). With
// two workers on one queue the lists can then hold the whole default pool:
// the queue runs empty, nothing retires again, the epoch freezes and every
// later request routed there completes kOverload. At 32767 nodes (the
// queue allows up to 65534 with a 16-bit value field) the peak is a
// thirtieth of the pool. Feed mode runs one executor per queue and keeps
// the default.
inline constexpr std::uint32_t kQueueCapacity = 32767;

// txn-bank's table shape, shared with the standalone tl2 rung.
inline constexpr std::uint64_t kBankGroups = 8192;  // x 8 = 64 Ki accounts
inline constexpr std::uint64_t kBankInitial = 1000;
Svc::Map::Config bank_map_config();

}  // namespace perfbench
