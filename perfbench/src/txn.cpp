// txn-bank: audits and transfers through the TL2 engine (src/tl2 over
// src/txn's MCAS and the STM), the only workload that runs transactions.
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

Svc::Map::Config bank_map_config() {
  return {.shards = 8, .buckets_per_shard = 8192, .capacity_per_shard = 16384};
}

namespace {

constexpr unsigned kBankSessions = 4;
constexpr unsigned kBankWindow = 8;
constexpr double kBankWarmS = 0.5;
constexpr std::uint64_t kGroupSum = 8 * kBankInitial;

Svc::Config bank_config() {
  Svc::Config cfg;
  cfg.max_sessions = kBankSessions;
  cfg.queue_capacity = kQueueCapacity;
  cfg.txn = true;
  cfg.txn_engine = moir::svc::TxnEngine::kTl2;
  cfg.map = bank_map_config();
  return cfg;
}

struct BankOp {
  bool audit = false;
  bool broken = false;  // the injected non-conserving transfer
  std::uint64_t group = 0;
  unsigned ia = 0, ib = 0;      // transfer: account indices in the group
  std::uint64_t des[2] = {};    // transfer: desired balances, wire form
  std::uint64_t values[8] = {};  // audit snapshot / transfer witness
};

// The generator's last known balance of every account (plain values),
// refreshed by audits, commits and mismatch witnesses.
class Bank {
 public:
  Bank(Client& cl, Report& rep, std::uint64_t seed, Inject inject)
      : cl_(cl), rep_(rep), rng_(seed), zipf_(kBankGroups, 0.99),
        known_(kBankGroups * 8, kBankInitial),
        corrupt_(inject == Inject::kCorruptResponse),
        break_(inject == Inject::kBrokenTransfer) {}

  std::optional<Ticket> send(Svc::ClientCtx& c, BankOp& d) {
    d.group = zipf_.next_scrambled(rng_);
    d.audit = rng_.next_below(2) == 0;
    std::uint64_t keys[8];
    for (unsigned i = 0; i < 8; ++i) keys[i] = d.group * 8 + i;
    if (d.audit) {
      return cl_.submit_multi(c, Op::kMultiGet, keys, {}, {});
    }
    d.ia = static_cast<unsigned>(rng_.next_below(8));
    d.ib = (d.ia + 1 + static_cast<unsigned>(rng_.next_below(7))) % 8;
    const std::uint64_t a = known_[keys[d.ia]], b = known_[keys[d.ib]];
    const std::uint64_t amt =
        a == 0 ? 0 : 1 + rng_.next_below(std::min<std::uint64_t>(a, 100));
    d.broken = break_;
    break_ = false;
    d.des[0] = a - amt + 1;
    d.des[1] = b + amt + 1 + (d.broken ? 1 : 0);
    const std::uint64_t pair[2] = {keys[d.ia], keys[d.ib]};
    const std::uint64_t exp[2] = {a + 1, b + 1};
    return cl_.submit_multi(c, Op::kMultiCas, pair, d.des, exp);
  }

  Done poll(Svc::ClientCtx& c, const Ticket& t, BankOp& d) {
    const auto r = cl_.poll(c, t, std::span(d.values, d.audit ? 8 : 2));
    if (!r) return Done::kPending;
    const bool committed = r->status == Status::kOk;
    if (!d.audit && d.broken && !committed) break_ = true;  // retry it
    if (r->status == Status::kOverload) return Done::kFailed;
    const std::uint64_t base = d.group * 8;
    if (d.audit) {
      if (corrupt_) {
        d.values[0] ^= 1;
        corrupt_ = false;
      }
      check_group(d.group, d.values, "audit");
      for (unsigned i = 0; i < 8; ++i) {
        if (d.values[i] != 0) known_[base + i] = d.values[i] - 1;
      }
      return Done::kCommitted;
    }
    if (committed) {
      known_[base + d.ia] = d.des[0] - 1;
      known_[base + d.ib] = d.des[1] - 1;
      return Done::kCommitted;
    }
    // Comparison mismatch: a correct answer; the witness is current.
    if (d.values[0] != 0) known_[base + d.ia] = d.values[0] - 1;
    if (d.values[1] != 0) known_[base + d.ib] = d.values[1] - 1;
    return Done::kCompleted;
  }

  // Every group must hold 8 x the initial balance in any snapshot.
  void check_group(std::uint64_t g, const std::uint64_t* wire,
                   const char* what) {
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < 8; ++i) {
      if (wire[i] == 0) {
        rep_.violation(std::string("txn-bank: ") + what + " saw account " +
                       std::to_string(g * 8 + i) + " absent");
        return;
      }
      sum += wire[i] - 1;
    }
    if (sum != kGroupSum) {
      rep_.violation(std::string("txn-bank: ") + what + " of group " +
                     std::to_string(g) + " sums to " + std::to_string(sum));
    }
  }

 private:
  Client& cl_;
  Report& rep_;
  moir::Xoshiro256 rng_;
  moir::ZipfianGenerator zipf_;
  std::vector<std::uint64_t> known_;
  bool corrupt_;
  bool break_;
};

ClosedResult bank_pass(Instance& in, Bank& bank, double measure_s) {
  return run_closed<BankOp>(
      in.sessions, kBankWindow, kBankWarmS, measure_s,
      [&](Svc::ClientCtx& c, BankOp& d) { return bank.send(c, d); },
      [&](Svc::ClientCtx& c, const Ticket& t, BankOp& d) {
        return bank.poll(c, t, d);
      },
      [] {});
}

// After the drain: every group conserves, read straight from the engine.
void check_conservation(Instance& in, Bank& bank) {
  auto ctx = in.svc->make_tl2_ctx();
  for (std::uint64_t g = 0; g < kBankGroups; ++g) {
    std::uint64_t keys[8], out[8];
    for (unsigned i = 0; i < 8; ++i) keys[i] = g * 8 + i;
    in.svc->tl2().multi_get(ctx, keys, out);
    bank.check_group(g, out, "final read");
  }
}

std::unique_ptr<Instance> bank_instance(Setup* setup) {
  return build_instance(
      bank_config(), kBankSessions,
      [](Instance& in) {
        auto ctx = in.svc->make_tl2_ctx();
        for (std::uint64_t k = 0; k < kBankGroups * 8; ++k) {
          in.svc->tl2().insert(ctx, k, kBankInitial);
        }
      },
      setup);
}

}  // namespace

int run_txn_bank(const Options& o, Report& rep) {
  if (!o.trace) {
    Setup setup;
    auto in = bank_instance(&setup);
    if (!check_thread_budget(*in->svc, 1)) return 3;
    Client cl(*in->svc, nullptr);
    Bank bank(cl, rep, o.seed, o.inject);
    const ClosedResult r = bank_pass(*in, bank, o.seconds);
    check_conservation(*in, bank);
    rep.add("setup_s", setup.median_s, "s", setup.builds);
    rep.add("throughput_kops", r.throughput_kops(), "kops/s", r.committed);
    add_latency(rep, r.lat, "", o.seconds * 1e9);
    rep.add("cpu_cores", r.cores, "cores", 1);
    rep.add("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    rep.attempted = r.lat.samples();
    rep.failed = r.lat.failures();
    return 0;
  }

  auto in = bank_instance(nullptr);
  if (!check_thread_budget(*in->svc, 1)) return 3;
  Client plain(*in->svc, nullptr);
  Bank bank(plain, rep, o.seed, o.inject);
  const ClosedResult base = bank_pass(*in, bank, o.seconds / 2);
  Tracer tracer;
  Client traced(*in->svc, &tracer);
  Bank tbank(traced, rep, o.seed + 1, Inject::kNone);
  moir::stats::Snapshot d;
  const ClosedResult tr =
      counted([&] { return bank_pass(*in, tbank, o.seconds / 2); }, d);
  check_conservation(*in, tbank);
  add_untraced(rep, base, o.seconds * 1e9);
  layer_counters(rep, d, tr.lat.completed(), tr.lat.samples());
  ladder_fixed(rep);
  {
    // The service's map holds txn cells, not plain values: time the map
    // rung on a standalone table of the same shape.
    Sub sub;
    Svc::Map map(sub, 4, bank_map_config());
    {
      auto ctx = map.make_ctx();
      for (std::uint64_t k = 0; k < kBankGroups * 8; ++k) {
        map.insert(ctx, k, checksum_of(k));
      }
    }
    const moir::ZipfianGenerator zipf(kBankGroups * 8, 0.99);
    ladder_map(rep, map,
               [&zipf](moir::Xoshiro256& r) { return zipf.next_scrambled(r); },
               o.seed);
  }
  const Tl2Rung t = ladder_tl2(rep, in->svc->tl2(), kBankGroups, o.seed);
  check_conservation(*in, tbank);
  trace_summary(rep, o, tracer, tr.lat.completed(),
                slowdown(base.throughput_kops(), tr.throughput_kops()),
                base.lat.quantile_ns(0.5, o.seconds * 1e9),
                (t.multi_get_p50 + t.multi_cas_p50) / 2,
                tr.pass.quantile_ns(0.99, 0) / 1e3);
  rep.attempted = tr.lat.samples();
  rep.failed = tr.lat.failures();
  return 0;
}

}  // namespace perfbench
