// The per-layer ladder: each rung replays operations on one module's public
// API from a single thread, and the counter-derived layer metrics.
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : double(num) / double(den);
}

// Mean ns per iteration of `body` over `iters` iterations.
template <class F>
double mean_ns(std::uint64_t iters, F&& body) {
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < iters; ++i) body(i);
  return double(now_ns() - t0) / double(iters);
}

constexpr std::uint64_t kFixedIters = 1 << 20;
constexpr std::uint64_t kSampledOps = 1 << 17;

}  // namespace

std::unique_ptr<Instance> build_instance(
    const Svc::Config& cfg, unsigned sessions,
    const std::function<void(Instance&)>& preload, Setup* setup) {
  std::vector<double> times;
  double spent = 0;
  std::unique_ptr<Instance> in;
  while (times.empty() ||
         (setup != nullptr && times.size() < 1000 &&
          (times.size() < 5 || spent < 1.0))) {
    in.reset();
    const std::uint64_t t0 = now_ns();
    in = std::make_unique<Instance>();
    in->svc = std::make_unique<Svc>(in->sub, cfg);
    preload(*in);
    in->sessions.reserve(sessions);
    for (unsigned s = 0; s < sessions; ++s) {
      in->sessions.push_back(in->svc->connect());
    }
    times.push_back(double(now_ns() - t0) / 1e9);
    spent += times.back();
  }
  if (setup != nullptr) *setup = Setup{median(times), unsigned(times.size())};
  return in;
}

void ladder_fixed(Report& rep) {
  {
    Svc::Ring ring;
    const double ns = mean_ns(kFixedIters, [&](std::uint64_t i) {
      ring.try_push(i);
      std::uint64_t v = 0;
      ring.try_pop(v);
    });
    rep.add("svc.ring_ns", ns, "ns", kFixedIters);
  }
  {
    Sub sub;
    Svc::Disp disp(sub, 2, 4, 1024);
    auto ctx = disp.make_ctx();
    std::uint64_t buf[16];
    constexpr unsigned kBurst = 16;
    const std::uint64_t bursts = kFixedIters / kBurst;
    const double ns = mean_ns(bursts, [&](std::uint64_t b) {
      for (unsigned j = 0; j < kBurst; ++j) {
        disp.enqueue(ctx, b * kBurst + j, j);
      }
      for (unsigned q = 0; q < disp.queue_count(); ++q) {
        while (disp.pop_batch(ctx, q, buf, kBurst) != 0) {
        }
      }
    });
    rep.add("svc.dispatch_ns", ns / kBurst, "ns", bursts * kBurst);
  }
  {
    Sub sub;
    Sub::Var var(0);
    auto ctx = sub.make_ctx();
    const std::uint64_t mask = sub.max_value();
    const double ns = mean_ns(kFixedIters, [&](std::uint64_t) {
      Sub::Keep keep;
      const std::uint64_t v = sub.ll(ctx, var, keep);
      sub.sc(ctx, var, keep, (v + 1) & mask);
    });
    rep.add("core.llsc_ns", ns, "ns", kFixedIters);
  }
  {
    Rec rec(2, [](std::uint32_t) {});
    auto ctx = rec.make_ctx();
    const double ns = mean_ns(kFixedIters, [&](std::uint64_t) {
      rec.enter(ctx);
      rec.exit(ctx);
    });
    rep.add("reclaim.bracket_ns", ns, "ns", kFixedIters);
  }
  {
    // One shard ring, one shard subscriber draining it in kPoll-sized
    // batches: publish cost per record, then poll cost per record.
    Svc::Feed feed(4, 1);
    const auto id = feed.subscribe(moir::feed::Filter::kShard, 0);
    moir::feed::Record recs[moir::svc::kMaxTxnKeys];
    constexpr unsigned kBatch = moir::svc::kMaxTxnKeys;
    std::uint64_t pub_ns = 0, poll_ns = 0, delivered = 0;
    for (std::uint64_t b = 0; b < kFixedIters / kBatch; ++b) {
      const std::uint64_t t0 = now_ns();
      for (unsigned j = 0; j < kBatch; ++j) feed.publish(0, j, b + 1);
      const std::uint64_t t1 = now_ns();
      delivered += feed.poll(*id, recs, kBatch,
                             [](std::uint64_t) { return std::uint64_t{0}; })
                       .delivered;
      poll_ns += now_ns() - t1;
      pub_ns += t1 - t0;
    }
    feed.unsubscribe(*id);
    rep.add("feed.publish_ns", double(pub_ns) / double(kFixedIters), "ns",
            kFixedIters);
    rep.add("feed.poll_ns", ratio(poll_ns, delivered), "ns", delivered);
  }
}

MapRung ladder_map(Report& rep, Svc::Map& map, const KeyFn& next_key,
                   std::uint64_t seed) {
  moir::Xoshiro256 rng(seed ^ 0x6c6164646572ull);
  auto ctx = map.make_ctx();
  LatencyHist find, upsert, churn;
  for (std::uint64_t i = 0; i < kSampledOps; ++i) {
    const std::uint64_t k = next_key(rng);
    const std::uint64_t t0 = now_ns();
    map.find(ctx, k);
    find.record(now_ns() - t0);
  }
  for (std::uint64_t i = 0; i < kSampledOps; ++i) {
    const std::uint64_t k = next_key(rng);
    const bool present = map.contains(ctx, k);
    const std::uint64_t t0 = now_ns();
    map.upsert(ctx, k, checksum_of(k));
    upsert.record(now_ns() - t0);
    if (!present) map.erase(ctx, k);
  }
  for (std::uint64_t i = 0; i < kSampledOps; ++i) {
    const std::uint64_t k = next_key(rng);
    const std::uint64_t t0 = now_ns();
    if (map.erase(ctx, k)) {
      map.insert(ctx, k, checksum_of(k));
    } else {
      map.insert(ctx, k, checksum_of(k));
      map.erase(ctx, k);
    }
    churn.record(now_ns() - t0);
  }
  MapRung r{find.quantile_ns(0.5, 0),
            upsert.quantile_ns(0.5, 0), churn.quantile_ns(0.5, 0)};
  rep.add("map.find_ns.p50", r.find_p50, "ns", kSampledOps);
  rep.add("map.upsert_ns.p50", r.upsert_p50, "ns", kSampledOps);
  rep.add("map.churn_ns.p50", r.churn_p50, "ns", kSampledOps);
  return r;
}

Tl2Rung ladder_tl2(Report& rep, Svc::Tl2& eng, std::uint64_t groups,
                   std::uint64_t seed) {
  moir::Xoshiro256 rng(seed ^ 0x746c32ull);
  const moir::ZipfianGenerator zipf(groups, 0.99);
  auto ctx = eng.make_ctx();
  LatencyHist get, cas;
  for (std::uint64_t i = 0; i < kSampledOps / 2; ++i) {
    const std::uint64_t g = zipf.next_scrambled(rng);
    std::uint64_t keys[8], vals[8];
    for (unsigned j = 0; j < 8; ++j) keys[j] = g * 8 + j;
    const std::uint64_t t0 = now_ns();
    eng.multi_get(ctx, keys, vals);
    get.record(now_ns() - t0);
    // Move one unit from the richer of two accounts: always commits
    // (single thread), keeps the group's sum.
    const unsigned a = static_cast<unsigned>(rng.next_below(8));
    const unsigned b = (a + 1 + static_cast<unsigned>(rng.next_below(7))) % 8;
    const bool ab = vals[a] > vals[b];
    const std::uint64_t from = ab ? a : b, to = ab ? b : a;
    if (vals[from] <= 1) continue;  // both empty (wire 1 = balance 0)
    const std::uint64_t pair[2] = {keys[from], keys[to]};
    const std::uint64_t exp[2] = {vals[from], vals[to]};
    const std::uint64_t des[2] = {vals[from] - 1, vals[to] + 1};
    const std::uint64_t t1 = now_ns();
    eng.multi_cas(ctx, pair, exp, des);
    cas.record(now_ns() - t1);
  }
  Tl2Rung r{get.quantile_ns(0.5, 0), cas.quantile_ns(0.5, 0)};
  rep.add("tl2.multi_get_ns.p50", r.multi_get_p50, "ns", get.samples());
  rep.add("tl2.multi_cas_ns.p50", r.multi_cas_p50, "ns", cas.samples());
  return r;
}

Tl2Rung ladder_tl2_standalone(Report& rep, std::uint64_t seed) {
  Sub sub;
  Svc::Map map(sub, 8, bank_map_config());
  Svc::Tl2 eng(map, 8);
  {
    auto ctx = eng.make_ctx();
    for (std::uint64_t k = 0; k < kBankGroups * 8; ++k) {
      eng.insert(ctx, k, kBankInitial);
    }
  }
  return ladder_tl2(rep, eng, kBankGroups, seed);
}

void layer_counters(Report& rep, const moir::stats::Snapshot& d,
                    std::uint64_t ops, std::uint64_t attempted) {
  using moir::stats::HistId;
  using moir::stats::Id;
  const moir::Histogram batch =
      moir::stats::merged_histogram(HistId::kSvcBatchSize);
  const moir::Histogram retire =
      moir::stats::merged_histogram(HistId::kRetireListLen);
  const std::uint64_t sc = d[Id::kScSuccess] + d[Id::kScFail];
  const std::uint64_t ro = d[Id::kTl2RoCommit] + d[Id::kTl2Fallback];
  const std::uint64_t stm = d[Id::kStmCommit] + d[Id::kStmAbort];
  rep.add("svc.shed_frac", ratio(d[Id::kSvcShed], attempted), "ratio",
          attempted);
  rep.add("svc.batch_size.mean", batch.mean(), "requests", batch.count());
  rep.add("core.sc_fail_frac", ratio(d[Id::kScFail], sc), "ratio", sc);
  rep.add("core.sc_per_op", ratio(sc, ops), "count", ops);
  rep.add("reclaim.epoch_advance_per_kop",
          1e3 * ratio(d[Id::kEpochAdvance], ops), "count", ops);
  rep.add("reclaim.free_per_retire",
          ratio(d[Id::kNodeFree], d[Id::kNodeRetire]), "ratio",
          d[Id::kNodeRetire]);
  rep.add("reclaim.retire_list_max", double(retire.max()), "count",
          retire.count());
  rep.add("tl2.revalidate_frac", ratio(d[Id::kTl2Revalidate], ro), "ratio",
          ro);
  rep.add("tl2.fallback_frac", ratio(d[Id::kTl2Fallback], ro), "ratio", ro);
  rep.add("tl2.clock_advance_per_commit",
          ratio(d[Id::kTl2ClockAdvance], d[Id::kTxnCommit]), "ratio",
          d[Id::kTxnCommit]);
  rep.add("txn.abort_frac", ratio(d[Id::kTxnAbort], d[Id::kTxnStart]),
          "ratio", d[Id::kTxnStart]);
  rep.add("txn.help_per_kop", 1e3 * ratio(d[Id::kTxnHelp], ops), "count",
          ops);
  rep.add("nonblocking.stm_abort_frac", ratio(d[Id::kStmAbort], stm),
          "ratio", stm);
  rep.add("feed.overrun_per_kdeliver",
          1e3 * ratio(d[Id::kFeedOverrun], d[Id::kFeedDeliver]), "count",
          d[Id::kFeedDeliver]);
  rep.add("feed.resync_per_kdeliver",
          1e3 * ratio(d[Id::kFeedResync], d[Id::kFeedDeliver]), "count",
          d[Id::kFeedDeliver]);
  rep.add("feed.deliver_per_publish",
          ratio(d[Id::kFeedDeliver], d[Id::kFeedPublish]), "ratio",
          d[Id::kFeedPublish]);
}

void trace_summary(Report& rep, const Options& o, const Tracer& tr,
                   std::uint64_t completions, double overhead_frac,
                   double request_p50_ns, double engine_p50_ns,
                   double late_p99_us) {
  LatencyHist submit = tr.durations(Call::kSubmit);
  submit.merge(tr.durations(Call::kSubmitMulti));
  const std::uint64_t polls = tr.durations(Call::kPoll).samples() +
                              tr.durations(Call::kPollFeed).samples();
  rep.add("svc.submit_ns.p50", submit.quantile_ns(0.5, 0), "ns",
          submit.samples());
  rep.add("svc.submit_ns.p99", submit.quantile_ns(0.99, 0), "ns",
          submit.samples());
  rep.add("svc.polls_per_completion", ratio(polls, completions), "count",
          completions);
  rep.add("svc.pipeline_ns.p50", request_p50_ns - engine_p50_ns, "ns", 1);
  rep.add("gen.late_us.p99", late_p99_us, "us", 1);
  rep.add("trace.overhead_frac", overhead_frac, "ratio", 1);
  std::printf("spans kept=%zu dropped=%llu\n", tr.kept(),
              static_cast<unsigned long long>(tr.dropped()));
  if (!o.span_dir.empty()) {
    const std::string path = o.span_dir + "/" + o.workload + ".csv";
    if (!tr.write(path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    }
  }
}

}  // namespace perfbench
