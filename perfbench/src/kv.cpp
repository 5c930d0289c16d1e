// kv-open: open-loop Poisson point ops at two fixed rates (pipeline layers).
// kv-closed: closed-loop churn over a table larger than the L3 (map,
// reclaimer and substrate).
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

// ----- kv-open --------------------------------------------------------------

constexpr std::uint64_t kOpenKeys = 16 * 1024;
constexpr unsigned kOpenSessions = 4;
constexpr double kLightRate = 50e3;  // requests per second
constexpr double kHeavyRate = 1e6;
constexpr double kOpenWarmS = 0.25;

Svc::Config open_config() {
  Svc::Config cfg;
  cfg.max_sessions = kOpenSessions;
  cfg.queue_capacity = kQueueCapacity;
  cfg.map = {.shards = 4, .buckets_per_shard = 4096,
             .capacity_per_shard = 8192};
  return cfg;
}

struct OpenResult {
  LatencyHist lat;   // from the scheduled send time
  LatencyHist late;  // how far behind schedule each send went out
  double cores = 0;
  double window_s = 0;
  std::uint64_t completed = 0;
  std::uint64_t attempted = 0;
};

// One fixed-rate phase: Poisson arrivals, 90% find / 10% upsert, zipf keys,
// round-robin over the sessions. Requests scheduled inside the measured
// window are recorded; the phase ends when all of them have completed. A
// request that every session sheds (all in-flight windows full) stays due
// and is retried on the next pass, so it goes out late rather than being
// lost; its latency still runs from its scheduled time.
OpenResult run_open(Instance& in, Client& cl, Report& rep,
                    moir::Xoshiro256& rng, const moir::ZipfianGenerator& zipf,
                    double rate, double measure_s, bool& corrupt) {
  struct Pending {
    Ticket t;
    std::uint64_t due;
    std::uint64_t key;
    unsigned session;
    bool find;
    bool measured;
  };
  OpenResult res;
  std::vector<Pending> pend;
  pend.reserve(4096);
  const std::uint64_t begin = now_ns();
  const std::uint64_t m_start = begin + std::uint64_t(kOpenWarmS * 1e9);
  const std::uint64_t m_end = m_start + std::uint64_t(measure_s * 1e9);
  double due_f = double(begin);
  std::uint64_t due = begin;
  unsigned rr = 0;
  std::uint64_t key = zipf.next_scrambled(rng);  // the next request
  bool find = rng.next_below(10) != 0;
  CpuMeter cpu;
  bool cpu_done = false;
  for (;;) {
    for (std::size_t i = 0; i < pend.size();) {
      Pending& p = pend[i];
      const auto r = cl.poll(in.sessions[p.session], p.t);
      if (!r) {
        ++i;
        continue;
      }
      const std::uint64_t done = now_ns();
      if (r->status == Status::kOverload) {
        if (p.measured) res.lat.fail();
      } else {
        if (p.find) {
          std::uint64_t v = r->value;
          if (corrupt && p.measured) {
            v ^= 1;
            corrupt = false;
          }
          if (r->status != Status::kOk) {
            rep.violation("kv-open: find missed preloaded key " +
                          std::to_string(p.key));
          } else if (v != checksum_of(p.key)) {
            rep.violation("kv-open: find of key " + std::to_string(p.key) +
                          " returned a wrong value");
          }
        }
        if (p.measured) {
          res.lat.record(done - p.due);
          ++res.completed;
        }
      }
      p = pend.back();
      pend.pop_back();
    }
    const std::uint64_t now = now_ns();
    if (!cpu.started() && now >= m_start) cpu.start();
    if (!cpu_done && now >= m_end && cpu.started()) {
      res.cores = cpu.stop_cores();
      cpu_done = true;
    }
    while (due < m_end && due <= now) {
      std::optional<Ticket> t;
      unsigned s = 0;
      std::uint64_t sent = 0;
      for (unsigned tries = 0; tries < kOpenSessions && !t; ++tries) {
        s = rr++ % kOpenSessions;
        sent = now_ns();
        t = cl.submit(in.sessions[s], find ? Op::kFind : Op::kUpsert, key,
                      checksum_of(key));
      }
      if (!t) break;
      const bool measured = due >= m_start;
      if (measured) {
        ++res.attempted;
        res.late.record(sent - due);
      }
      pend.push_back(Pending{*t, due, key, s, find, measured});
      due_f += exp_gap_ns(rng, rate);
      due = std::uint64_t(due_f);
      key = zipf.next_scrambled(rng);
      find = rng.next_below(10) != 0;
    }
    if (due >= m_end && pend.empty() && cpu_done) break;
  }
  res.window_s = double(m_end - m_start) / 1e9;
  return res;
}

std::unique_ptr<Instance> open_instance(Setup* setup) {
  return build_instance(
      open_config(), kOpenSessions,
      [](Instance& in) {
        auto ctx = in.svc->make_map_ctx();
        for (std::uint64_t k = 0; k < kOpenKeys; ++k) {
          in.svc->map().insert(ctx, k, checksum_of(k));
        }
      },
      setup);
}

// ----- kv-closed ------------------------------------------------------------

constexpr std::uint64_t kClosedKeys = 6ull * 1024 * 1024;
constexpr unsigned kClosedSessions = 4;
constexpr unsigned kClosedWindow = 16;
constexpr double kClosedWarmS = 0.5;

// 6 Mi keys at ~24 B a node need more than the 32 Ki nodes a shard can
// address through a 16-bit LL/SC value field: 256 shards of 32767 nodes.
Svc::Config closed_config() {
  Svc::Config cfg;
  cfg.max_sessions = kClosedSessions;
  cfg.queue_capacity = kQueueCapacity;
  cfg.map = {.shards = 256, .buckets_per_shard = 16384,
             .capacity_per_shard = 32767};
  return cfg;
}

// The mix inserts into absent keys at 40% (upsert + insert) and erases
// present ones at 10%, so occupancy settles at 0.4 / (0.4 + 0.1) = 80%.
// Preloading exactly that share keeps the table stationary over a run.
bool preloaded(std::uint64_t key, std::uint64_t seed) {
  return moir::hash_mix64(key ^ (seed * 0x9e3779b97f4a7c15ull)) % 10 < 8;
}

struct ClosedOp {
  std::uint64_t key = 0;
  Op op = Op::kFind;
};

// The preloaded keys grouped by map shard, ascending inside a shard. One
// shard's buckets and node pool (~0.9 MB) stay in cache while it fills, so
// the preload runs at CPU speed instead of at the host's memory latency,
// which made it swing by 1.6x between runs. The table it leaves is the one
// an ascending preload leaves: each shard allocates its nodes in the same
// key order. The grouping mirrors ShardedHashMap::shard_of; if that hash
// changes, change it here too.
std::vector<std::uint32_t> closed_preload_order(std::uint64_t seed) {
  const unsigned shards = closed_config().map.shards;
  auto shard = [shards](std::uint64_t k) {
    return static_cast<unsigned>((moir::hash_mix64(k) >> 32) % shards);
  };
  std::vector<std::uint64_t> start(shards + 1, 0);
  for (std::uint64_t k = 0; k < kClosedKeys; ++k) {
    if (preloaded(k, seed)) ++start[shard(k) + 1];
  }
  for (unsigned s = 0; s < shards; ++s) start[s + 1] += start[s];
  std::vector<std::uint32_t> order(start[shards]);
  for (std::uint64_t k = 0; k < kClosedKeys; ++k) {
    if (preloaded(k, seed)) {
      order[start[shard(k)]++] = static_cast<std::uint32_t>(k);
    }
  }
  return order;
}

std::unique_ptr<Instance> closed_instance(std::uint64_t seed, Setup* setup) {
  const std::vector<std::uint32_t> order = closed_preload_order(seed);
  return build_instance(
      closed_config(), kClosedSessions,
      [&order](Instance& in) {
        auto ctx = in.svc->make_map_ctx();
        for (const std::uint32_t k : order) {
          in.svc->map().insert(ctx, k, checksum_of(k));
        }
      },
      setup);
}

ClosedResult run_kv_closed_pass(Instance& in, Client& cl, Report& rep,
                                moir::Xoshiro256& rng, double measure_s,
                                bool& corrupt) {
  return run_closed<ClosedOp>(
      in.sessions, kClosedWindow, kClosedWarmS, measure_s,
      [&](Svc::ClientCtx& c, ClosedOp& d) {
        d.key = rng.next_below(kClosedKeys);
        const unsigned dice = static_cast<unsigned>(rng.next_below(100));
        d.op = dice < 50   ? Op::kFind
               : dice < 80 ? Op::kUpsert
               : dice < 90 ? Op::kInsert
                           : Op::kErase;
        return cl.submit(c, d.op, d.key, checksum_of(d.key));
      },
      [&](Svc::ClientCtx& c, const Ticket& t, ClosedOp& d) {
        const auto r = cl.poll(c, t);
        if (!r) return Done::kPending;
        if (r->status == Status::kOverload) return Done::kFailed;
        if (d.op == Op::kFind && r->status == Status::kOk) {
          std::uint64_t v = r->value;
          if (corrupt) {
            v ^= 1;
            corrupt = false;
          }
          if (v != checksum_of(d.key)) {
            rep.violation("kv-closed: find of key " + std::to_string(d.key) +
                          " returned a wrong value");
          }
        }
        return Done::kCommitted;
      },
      [] {});
}

}  // namespace

int run_kv_open(const Options& o, Report& rep) {
  moir::Xoshiro256 rng(o.seed);
  const moir::ZipfianGenerator zipf(kOpenKeys, 0.99);
  bool corrupt = o.inject == Inject::kCorruptResponse;
  if (!o.trace) {
    Setup setup;
    auto in = open_instance(&setup);
    if (!check_thread_budget(*in->svc, 1)) return 3;
    Client cl(*in->svc, nullptr);
    const OpenResult light =
        run_open(*in, cl, rep, rng, zipf, kLightRate, o.seconds / 2, corrupt);
    const OpenResult heavy =
        run_open(*in, cl, rep, rng, zipf, kHeavyRate, o.seconds / 2, corrupt);
    const double fail_ns = o.seconds * 1e9;
    rep.add("setup_s", setup.median_s, "s", setup.builds);
    rep.add("throughput_kops", double(heavy.completed) / heavy.window_s / 1e3,
            "kops/s", heavy.completed);
    add_latency(rep, heavy.lat, "", fail_ns);
    add_latency(rep, light.lat, ".light", fail_ns);
    rep.add("cpu_cores", heavy.cores, "cores", 1);
    rep.add("cpu_cores.light", light.cores, "cores", 1);
    rep.add("gen.late_us.p99", heavy.late.quantile_ns(0.99, 0) / 1e3, "us",
            heavy.late.samples());
    rep.add("gen.late_us.p99.light", light.late.quantile_ns(0.99, 0) / 1e3,
            "us", light.late.samples());
    rep.add("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    rep.attempted = light.attempted + heavy.attempted;
    rep.failed = light.lat.failures() + heavy.lat.failures();
    return 0;
  }

  // Traced run: an untraced heavy pass, then the same load traced.
  auto in = open_instance(nullptr);
  if (!check_thread_budget(*in->svc, 1)) return 3;
  Client plain(*in->svc, nullptr);
  const OpenResult base =
      run_open(*in, plain, rep, rng, zipf, kHeavyRate, o.seconds / 2, corrupt);
  Tracer tracer;
  Client traced(*in->svc, &tracer);
  moir::stats::Snapshot d;
  const OpenResult tr = counted(
      [&] {
        return run_open(*in, traced, rep, rng, zipf, kHeavyRate,
                        o.seconds / 2, corrupt);
      },
      d);
  rep.add("throughput_kops", double(base.completed) / base.window_s / 1e3,
          "kops/s", base.completed);
  add_latency(rep, base.lat, "", o.seconds * 1e9);
  layer_counters(rep, d, tr.completed, tr.attempted);
  ladder_fixed(rep);
  const MapRung m = ladder_map(
      rep, in->svc->map(),
      [&zipf](moir::Xoshiro256& r) { return zipf.next_scrambled(r); }, o.seed);
  ladder_tl2_standalone(rep, o.seed);
  const double p50_base = base.lat.quantile_ns(0.5, o.seconds * 1e9);
  const double p50_tr = tr.lat.quantile_ns(0.5, o.seconds * 1e9);
  trace_summary(rep, o, tracer, tr.completed, slowdown(p50_tr, p50_base),
                p50_base, m.find_p50, tr.late.quantile_ns(0.99, 0) / 1e3);
  rep.attempted = tr.attempted;
  rep.failed = tr.lat.failures();
  return 0;
}

int run_kv_closed(const Options& o, Report& rep) {
  moir::Xoshiro256 rng(o.seed);
  bool corrupt = o.inject == Inject::kCorruptResponse;
  if (!o.trace) {
    Setup setup;
    auto in = closed_instance(o.seed, &setup);
    if (!check_thread_budget(*in->svc, 1)) return 3;
    Client cl(*in->svc, nullptr);
    const ClosedResult r =
        run_kv_closed_pass(*in, cl, rep, rng, o.seconds, corrupt);
    rep.add("setup_s", setup.median_s, "s", setup.builds);
    rep.add("throughput_kops", r.throughput_kops(), "kops/s", r.committed);
    add_latency(rep, r.lat, "", o.seconds * 1e9);
    rep.add("cpu_cores", r.cores, "cores", 1);
    rep.add("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    rep.attempted = r.lat.samples();
    rep.failed = r.lat.failures();
    return 0;
  }

  auto in = closed_instance(o.seed, nullptr);
  if (!check_thread_budget(*in->svc, 1)) return 3;
  Client plain(*in->svc, nullptr);
  const ClosedResult base =
      run_kv_closed_pass(*in, plain, rep, rng, o.seconds / 2, corrupt);
  Tracer tracer;
  Client traced(*in->svc, &tracer);
  moir::stats::Snapshot d;
  const ClosedResult tr = counted(
      [&] {
        return run_kv_closed_pass(*in, traced, rep, rng, o.seconds / 2,
                                  corrupt);
      },
      d);
  add_untraced(rep, base, o.seconds * 1e9);
  layer_counters(rep, d, tr.lat.completed(), tr.lat.samples());
  ladder_fixed(rep);
  const MapRung m = ladder_map(
      rep, in->svc->map(),
      [](moir::Xoshiro256& r) { return r.next_below(kClosedKeys); }, o.seed);
  ladder_tl2_standalone(rep, o.seed);
  trace_summary(rep, o, tracer, tr.lat.completed(),
                slowdown(base.throughput_kops(), tr.throughput_kops()),
                base.lat.quantile_ns(0.5, o.seconds * 1e9), m.find_p50,
                tr.pass.quantile_ns(0.99, 0) / 1e3);
  rep.attempted = tr.lat.samples();
  rep.failed = tr.lat.failures();
  return 0;
}

}  // namespace perfbench
