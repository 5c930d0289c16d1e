// feed-fanout: closed-loop upserts whose values carry their submit time,
// fanned out to key- and shard-filtered subscriptions polled through kPoll
// (src/feed's publish and poll paths).
#include <string>
#include <vector>

#include "feed/broadcast_ring.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kFeedKeys = 4 * 1024;
constexpr unsigned kWriters = 2;
constexpr unsigned kWriterWindow = 16;
constexpr unsigned kKeySubs = 6;
constexpr unsigned kShardSubs = 2;
constexpr unsigned kSubs = kKeySubs + kShardSubs;
constexpr unsigned kPollMax = moir::svc::kMaxTxnKeys;
constexpr double kFeedWarmS = 0.5;

Svc::Config feed_config() {
  Svc::Config cfg;
  cfg.max_sessions = kWriters + kSubs;
  cfg.feed = true;
  cfg.map = {.shards = 4, .buckets_per_shard = 2048,
             .capacity_per_shard = 4096};
  return cfg;
}

// Written values are (stamp << 16 | mac), stamp = ns since the origin,
// strictly increasing across writes; the 16-bit mac binds the value to its
// key, so a delivered value paired with the wrong key, or torn, fails.
class Stamps {
 public:
  std::uint64_t next_value(std::uint64_t key) {
    const std::uint64_t t = now_ns() - origin_;
    last_ = std::max(t, last_ + 1);
    return last_ << 16 | mac(last_, key);
  }
  std::uint64_t last() const { return last_; }
  std::uint64_t origin() const { return origin_; }
  static std::uint64_t stamp_of(std::uint64_t value) { return value >> 16; }
  static bool valid(std::uint64_t value, std::uint64_t key) {
    return (value & 0xffff) == mac(value >> 16, key);
  }

 private:
  static std::uint64_t mac(std::uint64_t stamp, std::uint64_t key) {
    return moir::hash_mix64(stamp * 0x9e3779b97f4a7c15ull ^ key) & 0xffff;
  }
  std::uint64_t origin_ = now_ns();
  std::uint64_t last_ = 0;
};

struct SubState {
  unsigned session = 0;
  std::uint64_t token = 0;
  bool key_filter = true;
  std::uint64_t target = 0;  // watched key, or shard index
  std::optional<Ticket> t;
  // Per key: what the last record was (kUnseen / kRing / kResync), its
  // masked version, and its wire value.
  std::vector<std::uint8_t> seen;
  std::vector<std::uint64_t> last_ver, last_val;
};
enum : std::uint8_t { kUnseen, kRing, kResync };

class Fanout {
 public:
  Fanout(Instance& in, Client* cl, Report& rep, std::uint64_t seed,
         Inject inject, Stamps& stamps)
      : in_(in), cl_(cl), rep_(rep), rng_(seed), zipf_(kFeedKeys, 0.99),
        stamps_(stamps), corrupt_(inject == Inject::kCorruptResponse) {}

  Client& client() { return *cl_; }
  void set_client(Client* cl) { cl_ = cl; }

  // Leases the subscriptions: key filters on the hottest distinct keys,
  // shard filters on shards 0..kShardSubs-1.
  void subscribe() {
    std::vector<std::uint64_t> hot;
    for (std::uint64_t rank = 0; hot.size() < kKeySubs; ++rank) {
      const std::uint64_t k = moir::hash_mix64(rank) % kFeedKeys;
      if (std::find(hot.begin(), hot.end(), k) == hot.end()) hot.push_back(k);
    }
    subs_.resize(kSubs);
    for (unsigned i = 0; i < kSubs; ++i) {
      SubState& s = subs_[i];
      s.session = kWriters + i;
      s.key_filter = i < kKeySubs;
      s.target = s.key_filter ? hot[i] : i - kKeySubs;
      s.seen.assign(kFeedKeys, kUnseen);
      s.last_ver.assign(kFeedKeys, 0);
      s.last_val.assign(kFeedKeys, 0);
      Svc::ClientCtx& c = in_.sessions[s.session];
      const auto t =
          cl_->submit(c, Op::kSubscribe, s.target, s.key_filter ? 0 : 1);
      const auto r =
          t ? cl_->wait(c, *t) : moir::svc::Response{Status::kOverload, 0};
      if (r.status != Status::kOk) {
        rep_.violation("feed-fanout: subscribe refused");
        continue;
      }
      s.token = r.value;
    }
  }

  std::optional<Ticket> write(Svc::ClientCtx& c, std::uint64_t& key) {
    key = zipf_.next_scrambled(rng_);
    return cl_->submit(c, Op::kUpsert, key, stamps_.next_value(key));
  }

  // Consumes the completed kPolls; returns the records they delivered.
  unsigned collect() {
    unsigned got = 0;
    for (SubState& s : subs_) {
      if (!s.t) continue;
      moir::feed::Record recs[kPollMax];
      const auto d =
          cl_->poll_feed(in_.sessions[s.session], *s.t, recs, kPollMax);
      if (!d) continue;
      s.t.reset();
      ++polls_;
      if (d->status != Status::kOk) continue;  // the next kPoll resumes
      const std::uint64_t now = now_ns();
      for (unsigned i = 0; i < d->delivered; ++i) deliver(s, recs[i], now);
      got += d->delivered;
    }
    return got;
  }

  // Re-arms every subscription that has no kPoll in flight.
  void arm() {
    for (SubState& s : subs_) {
      if (s.token == 0 || s.t) continue;
      s.t = cl_->submit(in_.sessions[s.session], Op::kPoll, s.token, kPollMax);
    }
  }

  bool in_flight() const {
    for (const SubState& s : subs_) {
      if (s.t) return true;
    }
    return false;
  }

  // After the writers drained: poll every subscription until two rounds
  // in a row deliver nothing; then each key subscription's last delivery
  // must equal the key's final map value.
  void converge() {
    for (int quiet = 0; quiet < 2;) {
      arm();
      unsigned got = 0;
      while (in_flight()) got += collect();
      quiet = got == 0 ? quiet + 1 : 0;
    }
    auto ctx = in_.svc->make_map_ctx();
    for (const SubState& s : subs_) {
      if (!s.key_filter || s.token == 0) continue;
      const auto v = in_.svc->map().find(ctx, s.target);
      const std::uint64_t fin = v ? *v + 1 : 0;
      if (s.last_val[s.target] != fin) {
        rep_.violation("feed-fanout: key " + std::to_string(s.target) +
                       " subscription did not converge to the final value");
      }
    }
  }

  void set_window(std::uint64_t start, std::uint64_t end) {
    m_start_ = start;
    m_end_ = end;
  }
  const LatencyHist& deliver_latency() const { return deliver_; }
  std::uint64_t polls() const { return polls_; }

 private:
  void deliver(SubState& s, moir::feed::Record r, std::uint64_t now) {
    if (corrupt_) {
      r.value ^= 1;
      corrupt_ = false;
    }
    if (r.key >= kFeedKeys ||
        (s.key_filter ? r.key != s.target
                      : in_.svc->shard_of(r.key) != s.target)) {
      rep_.violation("feed-fanout: record for key " + std::to_string(r.key) +
                     " outside the subscription's filter");
      return;
    }
    // Versions never decrease per key, and strictly increase between two
    // ring records (a resync may be repeated by the next ring record).
    const bool resync = (r.version & moir::feed::kResyncBit) != 0;
    const std::uint64_t ver = r.version & ~moir::feed::kResyncBit;
    if (s.seen[r.key] != kUnseen) {
      const bool strict = !resync && s.seen[r.key] == kRing;
      if (ver < s.last_ver[r.key] || (strict && ver == s.last_ver[r.key])) {
        rep_.violation("feed-fanout: version not monotone for key " +
                       std::to_string(r.key));
      }
    }
    s.seen[r.key] = resync ? kResync : kRing;
    s.last_ver[r.key] = ver;
    s.last_val[r.key] = r.value;
    // Every key is preloaded and never erased, so a record always carries
    // a written value: one minted for this key, no later than the last.
    const std::uint64_t value = r.value - 1;
    if (r.value == 0 || !Stamps::valid(value, r.key) ||
        Stamps::stamp_of(value) > stamps_.last()) {
      rep_.violation("feed-fanout: delivered value for key " +
                     std::to_string(r.key) + " was never written");
      return;
    }
    const std::uint64_t sent = stamps_.origin() + Stamps::stamp_of(value);
    if (sent >= m_start_ && sent < m_end_) deliver_.record(now - sent);
  }

  Instance& in_;
  Client* cl_;
  Report& rep_;
  moir::Xoshiro256 rng_;
  moir::ZipfianGenerator zipf_;
  Stamps& stamps_;
  bool corrupt_;
  std::vector<SubState> subs_;
  LatencyHist deliver_;
  std::uint64_t m_start_ = 0, m_end_ = 0;
  std::uint64_t polls_ = 0;
};

struct WriteOp {
  std::uint64_t key = 0;
};

ClosedResult fanout_pass(Instance& in, Fanout& f, double measure_s) {
  // Deliveries count when their write went out inside the writers'
  // measured window (run_closed's, give or take the microseconds between),
  // however late they arrive, the post-drain convergence polls included.
  const std::uint64_t start = now_ns() + std::uint64_t(kFeedWarmS * 1e9);
  f.set_window(start, start + std::uint64_t(measure_s * 1e9));
  ClosedResult r = run_closed<WriteOp>(
      std::span(in.sessions).first(kWriters), kWriterWindow, kFeedWarmS,
      measure_s,
      [&](Svc::ClientCtx& c, WriteOp& d) { return f.write(c, d.key); },
      [&](Svc::ClientCtx& c, const Ticket& t, WriteOp&) {
        const auto resp = f.client().poll(c, t);
        if (!resp) return Done::kPending;
        return resp->status == Status::kOverload ? Done::kFailed
                                                 : Done::kCommitted;
      },
      [&] {
        f.collect();
        f.arm();
      });
  f.converge();
  return r;
}

std::unique_ptr<Instance> fanout_instance(Stamps& stamps, Setup* setup) {
  return build_instance(
      feed_config(), kWriters + kSubs,
      [&stamps](Instance& in) {
        auto ctx = in.svc->make_map_ctx();
        for (std::uint64_t k = 0; k < kFeedKeys; ++k) {
          in.svc->map().insert(ctx, k, stamps.next_value(k));
        }
      },
      setup);
}

}  // namespace

int run_feed_fanout(const Options& o, Report& rep) {
  Stamps stamps;
  if (!o.trace) {
    Setup setup;
    auto in = fanout_instance(stamps, &setup);
    if (!check_thread_budget(*in->svc, 1)) return 3;
    Client cl(*in->svc, nullptr);
    Fanout f(*in, &cl, rep, o.seed, o.inject, stamps);
    f.subscribe();
    const ClosedResult r = fanout_pass(*in, f, o.seconds);
    const LatencyHist& dl = f.deliver_latency();
    rep.add("setup_s", setup.median_s, "s", setup.builds);
    rep.add("throughput_kops", r.throughput_kops(), "kops/s", r.committed);
    add_latency(rep, r.lat, "", o.seconds * 1e9);
    rep.add("deliver_p50_us", dl.quantile_ns(0.5, 0) / 1e3, "us",
            dl.samples());
    rep.add("deliver_p99_us", dl.quantile_ns(0.99, 0) / 1e3, "us",
            dl.samples());
    rep.add("cpu_cores", r.cores, "cores", 1);
    rep.add("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    rep.attempted = r.lat.samples();
    rep.failed = r.lat.failures();
    return 0;
  }

  // Traced run: one subscription set (the feed has exactly kSubs slots)
  // serves an untraced pass, then a traced one.
  auto in = fanout_instance(stamps, nullptr);
  if (!check_thread_budget(*in->svc, 1)) return 3;
  Client plain(*in->svc, nullptr);
  Fanout f(*in, &plain, rep, o.seed, o.inject, stamps);
  f.subscribe();
  const ClosedResult base = fanout_pass(*in, f, o.seconds / 2);
  Tracer tracer;
  Client traced(*in->svc, &tracer);
  f.set_client(&traced);
  const std::uint64_t polls0 = f.polls();
  moir::stats::Snapshot d;
  const ClosedResult tr =
      counted([&] { return fanout_pass(*in, f, o.seconds / 2); }, d);
  const std::uint64_t done = tr.lat.completed() + (f.polls() - polls0);
  add_untraced(rep, base, o.seconds * 1e9);
  layer_counters(rep, d, done, tr.lat.samples());
  ladder_fixed(rep);
  const moir::ZipfianGenerator zipf(kFeedKeys, 0.99);
  const MapRung m = ladder_map(
      rep, in->svc->map(),
      [&zipf](moir::Xoshiro256& r) { return zipf.next_scrambled(r); }, o.seed);
  ladder_tl2_standalone(rep, o.seed);
  trace_summary(rep, o, tracer, done,
                slowdown(base.throughput_kops(), tr.throughput_kops()),
                base.lat.quantile_ns(0.5, o.seconds * 1e9), m.upsert_p50,
                tr.pass.quantile_ns(0.99, 0) / 1e3);
  rep.attempted = tr.lat.samples();
  rep.failed = tr.lat.failures();
  return 0;
}

}  // namespace perfbench
