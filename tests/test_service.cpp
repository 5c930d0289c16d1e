// KvService pipeline: end-to-end round trips through the full
// ring -> routing worker -> shard-queue -> executor path, shed-on-full
// admission (window, ring, and queue-pool exhaustion), graceful drain,
// linearizability of the whole pipeline against SvcSpec under both DFS
// and PCT controlled schedules, the session routing claim (with a planted
// two-consumer negative control), and the dispatch queue's freedom from
// pool freezes under a parked dequeuer.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/llsc_traits.hpp"
#include "nonblocking/ms_queue.hpp"
#include "platform/yield_point.hpp"
#include "reclaim/epoch.hpp"
#include "sim/controlled_scheduler.hpp"
#include "sim/explore.hpp"
#include "stats/stats.hpp"
#include "svc/service.hpp"
#include "util/backoff.hpp"
#include "util/env.hpp"
#include "verify/history.hpp"
#include "verify/linearizability.hpp"
#include "verify/spec.hpp"

namespace moir {
namespace {

using reclaim::EpochReclaimer;
using Sub = CasBackedLlsc<16>;
using Svc = svc::KvService<Sub, EpochReclaimer>;
using svc::Op;
using svc::Status;

// Toggles stats counting on for a scope (and restores the previous mode),
// so counter-delta assertions see live counters. All such assertions are
// additionally guarded on stats::kCompiledIn: the tier1-stats-off preset
// runs this suite with MOIR_STATS=0, where every counter reads zero.
class CountingScope {
 public:
  CountingScope() : was_(stats::counting_enabled()) {
    stats::set_counting(true);
  }
  ~CountingScope() { stats::set_counting(was_); }

 private:
  bool was_;
};

TEST(SpscRing, SizeAndCapacityObservers) {
  svc::SpscRing<8> ring;
  static_assert(svc::SpscRing<8>::capacity() == 8);
  static_assert(svc::SpscRing<>::capacity() == 64);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.empty_approx());
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.try_push(i));
    EXPECT_EQ(ring.size(), i + 1);
  }
  EXPECT_FALSE(ring.try_push(99)) << "full ring must refuse";
  EXPECT_EQ(ring.size(), ring.capacity());
  std::uint64_t v = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
    EXPECT_EQ(ring.size(), 7 - i);
  }
  EXPECT_FALSE(ring.try_pop(v));
  EXPECT_TRUE(ring.empty_approx());
  // Free-running indices: size stays exact after wraparound of the mask.
  for (int lap = 0; lap < 3; ++lap) {
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(i));
    EXPECT_EQ(ring.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_pop(v));
    EXPECT_EQ(ring.size(), 0u);
  }
}

// Smallest ring with a distinct full and non-empty partial state: one
// free slot after a push, exact full/empty detection, FIFO across reuse.
TEST(SpscRing, MinimumCapacityTwo) {
  svc::SpscRing<2> ring;
  static_assert(svc::SpscRing<2>::capacity() == 2);
  std::uint64_t v = 0;
  for (int round = 0; round < 5; ++round) {
    EXPECT_TRUE(ring.try_push(10 + round));
    EXPECT_TRUE(ring.try_push(20 + round));
    EXPECT_FALSE(ring.try_push(99)) << "2-slot ring full after two pushes";
    EXPECT_EQ(ring.size(), 2u);
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 10u + round);
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 20u + round);
    EXPECT_FALSE(ring.try_pop(v));
  }
}

// The free-running indices are 64-bit on purpose; this re-bases them just
// below 2^32 and walks traffic across the boundary, where a 32-bit index
// (or a size computed in 32 bits) would wrap to garbage.
TEST(SpscRing, IndexWraparoundAcross32BitBoundary) {
  svc::SpscRing<8> ring;
  ring.reset_indices_for_test((std::uint64_t{1} << 32) - 3);
  std::uint64_t v = 0;
  // Straddle the boundary with a partially-filled ring in flight.
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_TRUE(ring.try_push(100 + i));
  EXPECT_EQ(ring.size(), 6u);
  for (std::uint64_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 100 + i);
  }
  for (std::uint64_t i = 6; i < 10; ++i) EXPECT_TRUE(ring.try_push(100 + i));
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_FALSE(ring.try_push(999)) << "full at capacity across the boundary";
  for (std::uint64_t i = 2; i < 10; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 100 + i) << "FIFO order broken across the 2^32 boundary";
  }
  EXPECT_FALSE(ring.try_pop(v));
  EXPECT_EQ(ring.size(), 0u);
}

// The ticket seqlock: one slot recycled through many generations. Each
// reuse bumps gen, and done==gen from a STALE generation must never
// complete a newer ticket (the slot's whole completion protocol).
TEST(KvService, TicketGenerationReuseAfterDrain) {
  Sub sub;
  Svc svc(sub, {.queues = 1,
                .queue_capacity = 16,
                .workers = 0,
                .max_sessions = 1,
                .tickets_per_session = 1,  // every request reuses slot 0
                .use_rings = false,
                .map = {.shards = 1, .buckets_per_shard = 4,
                        .capacity_per_shard = 32}});
  auto c = svc.connect();
  auto w = svc.make_worker_ctx();
  std::uint64_t last_gen = 0;
  for (std::uint64_t round = 1; round <= 6; ++round) {
    const auto t = svc.submit(c, Op::kUpsert, 5, round * 11);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->slot, 0u);
    EXPECT_GT(t->gen, last_gen) << "generation must advance on slot reuse";
    last_gen = t->gen;
    EXPECT_FALSE(svc.poll(c, *t).has_value())
        << "stale done word must not satisfy a newer generation";
    EXPECT_EQ(svc.pump(w), 1u);
    const auto r = svc.poll(c, *t);
    ASSERT_TRUE(r.has_value());
    const auto tf = svc.submit(c, Op::kFind, 5, 0);
    ASSERT_TRUE(tf.has_value());
    svc.pump(w);
    const auto rf = svc.poll(c, *tf);
    ASSERT_TRUE(rf.has_value());
    EXPECT_EQ(rf->value, round * 11);
  }
}

// The dispatcher's key->queue hash must spread a dense key space evenly:
// chi-squared over 1e5 sequential keys into 4 queues, against a cutoff
// far beyond df=3 noise (p << 1e-4) — catches a route that degenerates
// to low bits or collapses shards, not ordinary variance.
TEST(Dispatcher, KeyHashShardDistribution) {
  Sub sub;
  svc::Dispatcher<Sub> disp(sub, 2, 4, 16);
  constexpr unsigned kKeys = 100000;
  std::array<unsigned, 4> counts{};
  for (std::uint64_t k = 0; k < kKeys; ++k) counts[disp.queue_of(k)]++;
  const double expected = kKeys / 4.0;
  double chi2 = 0;
  for (const unsigned c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 30.0) << counts[0] << " " << counts[1] << " " << counts[2]
                        << " " << counts[3];
  for (const unsigned c : counts) EXPECT_GT(c, 0u);
}

TEST(KvService, EndToEndRoundTrip) {
  Sub sub;
  Svc svc(sub, {.queues = 2,
                .workers = 2,
                .batch = 4,
                .max_sessions = 2,
                .tickets_per_session = 8,
                .use_rings = true,
                .map = {.shards = 2, .buckets_per_shard = 4,
                        .capacity_per_shard = 64}});
  auto c = svc.connect();

  auto do_op = [&](Op op, std::uint64_t k, std::uint64_t v = 0) {
    const auto t = svc.submit(c, op, k, v);
    EXPECT_TRUE(t.has_value());
    return svc.wait(c, *t);
  };

  // Insert across several keys (crossing shards), then the full verb set.
  for (std::uint64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(do_op(Op::kInsert, k, k * 100).status, Status::kOk);
  }
  const auto hit = do_op(Op::kFind, 3);
  EXPECT_EQ(hit.status, Status::kOk);
  EXPECT_EQ(hit.value, 300u);

  EXPECT_EQ(do_op(Op::kInsert, 3, 999).status, Status::kNotFound)
      << "duplicate insert must report already-present";
  EXPECT_EQ(do_op(Op::kUpsert, 3, 333).status, Status::kNotFound)
      << "upsert on a present key reports updated-in-place";
  EXPECT_EQ(do_op(Op::kFind, 3).value, 333u);
  EXPECT_EQ(do_op(Op::kErase, 3).status, Status::kOk);
  EXPECT_EQ(do_op(Op::kFind, 3).status, Status::kNotFound);
  EXPECT_EQ(do_op(Op::kErase, 3).status, Status::kNotFound);

  // A second concurrent session sees the first session's writes.
  auto c2 = svc.connect();
  const auto t2 = svc.submit(c2, Op::kFind, 5);
  ASSERT_TRUE(t2.has_value());
  const auto r2 = svc.wait(c2, *t2);
  EXPECT_EQ(r2.status, Status::kOk);
  EXPECT_EQ(r2.value, 500u);
}

// Admission window: W in-flight tickets, the W+1'th submit sheds (EBUSY),
// and consuming a completion reopens the window. Direct mode with manual
// pumping keeps every step deterministic.
TEST(KvService, ShedOnFullWindow) {
  CountingScope counting;
  Sub sub;
  Svc svc(sub, {.queues = 1,
                .queue_capacity = 64,
                .workers = 0,
                .batch = 16,
                .max_sessions = 1,
                .tickets_per_session = 4,
                .use_rings = false,
                .map = {.shards = 1, .buckets_per_shard = 4,
                        .capacity_per_shard = 32}});
  auto c = svc.connect();
  const auto before = stats::snapshot();

  std::vector<Svc::Ticket> issued;
  for (int i = 0; i < 4; ++i) {
    const auto t = svc.submit(c, Op::kInsert, i, i);
    ASSERT_TRUE(t.has_value()) << "submit " << i << " within the window";
    issued.push_back(*t);
  }
  EXPECT_FALSE(svc.submit(c, Op::kInsert, 99, 99).has_value())
      << "window exhausted: 5th in-flight submit must shed, not block";

  if constexpr (stats::kCompiledIn) {
    const auto d = stats::snapshot() - before;
    EXPECT_EQ(d[stats::Id::kSvcEnqueue], 4u);
    EXPECT_EQ(d[stats::Id::kSvcShed], 1u);
  }

  // Nothing completed yet: polls are empty and non-blocking.
  for (const auto& t : issued) EXPECT_FALSE(svc.poll(c, t).has_value());

  auto w = svc.make_worker_ctx();
  EXPECT_EQ(svc.pump(w), 4u);
  for (const auto& t : issued) {
    const auto r = svc.poll(c, t);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, Status::kOk);
  }

  // The window reopened.
  const auto t = svc.submit(c, Op::kFind, 2);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(svc.pump(w), 1u);
  const auto r = svc.poll(c, *t);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 2u);

  if constexpr (stats::kCompiledIn) {
    const auto d = stats::snapshot() - before;
    EXPECT_GE(d[stats::Id::kSvcBatch], 2u);
  }
}

// Ring mode back-pressure: a full ring sheds at submit; a full shard-queue
// node pool makes ROUTING complete the ticket with kOverload instead of
// blocking on the executor.
TEST(KvService, RingAndQueueOverload) {
  // Ring capacity is a compile-time parameter now; this test wants a tiny
  // 4-entry ring, so it instantiates its own service type.
  using Svc4 = svc::KvService<Sub, EpochReclaimer, 4>;
  Sub sub;
  Svc4 svc(sub, {.queues = 1,
                 .queue_capacity = 2,  // dummy node + 1 usable
                 .workers = 0,
                 .batch = 16,
                 .max_sessions = 1,
                 .tickets_per_session = 8,
                 .use_rings = true,
                 .map = {.shards = 1, .buckets_per_shard = 4,
                         .capacity_per_shard = 32}});
  auto c = svc.connect();
  auto w = svc.make_worker_ctx();

  // Phase 1: three requests are routed, but the shard queue has one free
  // node — the surplus two complete kOverload during routing.
  std::vector<Svc4::Ticket> issued;
  for (int i = 0; i < 3; ++i) {
    const auto t = svc.submit(c, Op::kInsert, i, i);
    ASSERT_TRUE(t.has_value());
    issued.push_back(*t);
  }
  EXPECT_EQ(svc.pump_session(w.dctx, c.session()), 3u);

  const auto r1 = svc.poll(c, issued[1]);
  const auto r2 = svc.poll(c, issued[2]);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r1->status, Status::kOverload);
  EXPECT_EQ(r2->status, Status::kOverload);
  EXPECT_FALSE(svc.poll(c, issued[0]).has_value())
      << "the enqueued request needs an executor pump";
  EXPECT_EQ(svc.pump(w), 1u);
  const auto r0 = svc.poll(c, issued[0]);
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->status, Status::kOk);

  // Phase 2: with no routing pass, the 4-entry ring itself fills and the
  // 5th submit sheds at admission.
  issued.clear();
  for (int i = 0; i < 4; ++i) {
    const auto t = svc.submit(c, Op::kFind, i);
    ASSERT_TRUE(t.has_value());
    issued.push_back(*t);
  }
  EXPECT_FALSE(svc.submit(c, Op::kFind, 0).has_value())
      << "full ring must shed, not block";

  // Drain: one routing pass completes-or-enqueues everything it pops, so a
  // bounded number of pump passes finishes all four.
  svc.pump_session(w.dctx, c.session());
  svc.pump(w);
  for (const auto& t : issued) {
    const auto r = svc.poll(c, t);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->status == Status::kOk || r->status == Status::kOverload);
  }
}

// Graceful drain with live workers: every ticket submitted before stop()
// completes by the time stop() returns; submits after stop() shed.
TEST(KvService, DrainCompletesInFlight) {
  Sub sub;
  Svc svc(sub, {.queues = 2,
                .workers = 2,
                .batch = 4,
                .max_sessions = 1,
                .tickets_per_session = 16,
                .use_rings = true,
                .map = {.shards = 2, .buckets_per_shard = 4,
                        .capacity_per_shard = 64}});
  auto c = svc.connect();

  std::vector<Svc::Ticket> issued;
  for (int i = 0; i < 8; ++i) {
    // Under load some submits may shed (ring backlog); every ACCEPTED one
    // must complete across stop().
    if (const auto t = svc.submit(c, Op::kInsert, i, i * 7)) {
      issued.push_back(*t);
    }
  }
  svc.stop();
  for (const auto& t : issued) {
    const auto r = svc.poll(c, t);
    ASSERT_TRUE(r.has_value())
        << "ticket accepted before stop() not completed by drain";
    EXPECT_EQ(r->status, Status::kOk);
  }
  EXPECT_FALSE(svc.submit(c, Op::kFind, 0).has_value())
      << "post-stop submits must shed";
}

// Drain accounting, deterministically: with manual pumping, completions
// that happen after stop() are counted as svc_drain.
TEST(KvService, StopShedsAndCountsDrain) {
  CountingScope counting;
  Sub sub;
  Svc svc(sub, {.queues = 1,
                .queue_capacity = 64,
                .workers = 0,
                .max_sessions = 1,
                .tickets_per_session = 8,
                .use_rings = false,
                .map = {.shards = 1, .buckets_per_shard = 4,
                        .capacity_per_shard = 32}});
  auto c = svc.connect();
  const auto before = stats::snapshot();

  std::vector<Svc::Ticket> issued;
  for (int i = 0; i < 3; ++i) {
    const auto t = svc.submit(c, Op::kUpsert, i, i);
    ASSERT_TRUE(t.has_value());
    issued.push_back(*t);
  }
  svc.stop();
  EXPECT_TRUE(svc.draining());
  EXPECT_FALSE(svc.submit(c, Op::kFind, 0).has_value());

  auto w = svc.make_worker_ctx();
  EXPECT_EQ(svc.pump(w), 3u);
  for (const auto& t : issued) {
    ASSERT_TRUE(svc.poll(c, t).has_value());
  }
  if constexpr (stats::kCompiledIn) {
    const auto d = stats::snapshot() - before;
    EXPECT_EQ(d[stats::Id::kSvcDrain], 3u);
    EXPECT_GE(d[stats::Id::kSvcShed], 1u);
  }
}

// ---------------------------------------------------------------------
// Pipeline linearizability under controlled schedules. Two client
// sessions submit overlapping operations on a 3-key space through the
// service and pump the executor themselves; an observer hook records the
// response at completion time, so each operation's [inv, res] window
// brackets its actual map effect. Histories must linearize against
// SvcSpec (map semantics + shed-as-no-op).
//
// Slot indices are deterministic here — the free-ticket stack pops
// 0,1,2,... and nothing is polled mid-body — so each body can register
// its operation's kind/arg/inv under the predicted slot BEFORE submit,
// and the observer (possibly running on the OTHER body's thread) finds
// them by handle. ControlledScheduler serializes the bodies, so the
// shared pending table needs no further synchronization. The observer
// also counts completions per slot: a well-formed history has exactly
// one response per invocation, and a request executed twice (e.g. popped
// from its ring by two consumers) must fail the check even when the
// duplicate happens to be linearizable on its own.
// ---------------------------------------------------------------------
struct PendingOp {
  OpKind kind = OpKind::kMapFind;
  std::uint64_t arg = 0;
  std::uint64_t inv = 0;
};

template <class SvcT>
struct LinTrialSharedT {
  Sub sub;
  SvcT svc;
  HistoryRecorder rec{2};
  std::vector<typename SvcT::ClientCtx> clients;
  std::vector<typename SvcT::WorkerCtx> workers;
  std::array<std::array<PendingOp, 8>, 2> pending{};
  std::array<std::array<unsigned, 8>, 2> completions{};
  std::array<std::uint32_t, 2> next_slot{};
  std::array<std::vector<typename SvcT::Ticket>, 2> issued;

  explicit LinTrialSharedT(const typename SvcT::Config& cfg) : svc(sub, cfg) {
    clients.reserve(2);
    workers.reserve(2);
    for (int t = 0; t < 2; ++t) {
      clients.push_back(svc.connect());
      workers.push_back(svc.make_worker_ctx());
    }
  }

  static std::uint64_t ret_of(OpKind kind, const svc::Response& r) {
    if (r.status == Status::kOverload) return SvcSpec::kShed;
    if (kind == OpKind::kMapFind) {
      return r.status == Status::kOk ? r.value + 1 : 0;
    }
    return r.status == Status::kOk ? 1 : 0;
  }

  // Completion hook: fires inside pump/pump_session before publication.
  auto observer() {
    return [this](std::uint64_t handle, const svc::Response& r) {
      const unsigned sid = svc::handle_session(handle);
      const PendingOp& p = pending[sid][svc::handle_slot(handle)];
      ++completions[sid][svc::handle_slot(handle)];
      rec.add(sid, sid, p.kind, p.arg, ret_of(p.kind, r), p.inv);
    };
  }

  // One worker pass, exactly as worker_main runs it: route the session
  // rings (claim-guarded), then drain the shard queues.
  unsigned worker_step(unsigned t) {
    const unsigned moved = svc.route(workers[t], observer());
    return moved + svc.pump(workers[t], observer());
  }

  void submit_op(unsigned t, OpKind kind, std::uint64_t key,
                 std::uint64_t val) {
    Op op{};
    std::uint64_t arg = 0;
    switch (kind) {
      case OpKind::kMapInsert: op = Op::kInsert;
        arg = SvcSpec::pack_args(key, val);
        break;
      case OpKind::kMapUpsert: op = Op::kUpsert;
        arg = SvcSpec::pack_args(key, val);
        break;
      case OpKind::kMapErase: op = Op::kErase;
        arg = key;
        break;
      default: op = Op::kFind;
        arg = key;
        break;
    }
    const std::uint32_t slot = next_slot[t];
    pending[t][slot] = PendingOp{kind, arg, rec.now()};
    const auto ticket = svc.submit(clients[t], op, key, val);
    if (!ticket.has_value()) {
      // Client-side shed: a no-op the spec accepts anywhere.
      rec.add(t, t, kind, arg, SvcSpec::kShed, pending[t][slot].inv);
      return;
    }
    next_slot[t] = slot + 1;
    issued[t].push_back(*ticket);
  }

  // Post-join: everything was drained by the bodies, so one poll sweep
  // consumes every ticket (required by the disconnect assertion), then
  // the merged history is checked.
  bool check() {
    bool once = true;
    for (unsigned t = 0; t < 2; ++t) {
      for (std::uint32_t slot = 0; slot < completions[t].size(); ++slot) {
        const unsigned want = slot < next_slot[t] ? 1 : 0;
        if (completions[t][slot] != want) once = false;
      }
      for (const auto& ticket : issued[t]) {
        const auto r = svc.poll(clients[t], ticket);
        if (!r.has_value()) return false;  // drain failed to complete it
      }
    }
    LinearizabilityChecker<SvcSpec> checker;
    return once && checker.check(rec.collect(), SvcSpec::State{});
  }
};

using LinTrialShared = LinTrialSharedT<Svc>;

template <class SvcT = Svc>
typename SvcT::Config lin_config(bool use_rings) {
  return {.queues = 1,
          .queue_capacity = 16,
          .workers = 0,
          .batch = 4,
          .max_sessions = 2,
          .tickets_per_session = 8,
          .use_rings = use_rings,
          .map = {.shards = 1, .buckets_per_shard = 1,
                  .capacity_per_shard = 16}};
}

TEST(KvService, ExploreLinearizable) {
  auto make_trial = [] {
    auto sh = std::make_shared<LinTrialShared>(lin_config(false));
    testing::ScheduleExplorer::Trial trial;
    // Each body drains the shared queues after its own submits, so every
    // enqueued request is executed by SOME body before the trial ends.
    auto drain = [sh](unsigned t) {
      while (sh->svc.pump(sh->workers[t], sh->observer()) > 0) {
      }
    };
    trial.bodies.push_back([sh, drain] {
      sh->submit_op(0, OpKind::kMapInsert, 0, 10);
      sh->svc.pump(sh->workers[0], sh->observer());
      sh->submit_op(0, OpKind::kMapFind, 1, 0);
      sh->submit_op(0, OpKind::kMapErase, 0, 0);
      drain(0);
    });
    trial.bodies.push_back([sh, drain] {
      sh->submit_op(1, OpKind::kMapInsert, 1, 11);
      sh->svc.pump(sh->workers[1], sh->observer());
      sh->submit_op(1, OpKind::kMapUpsert, 0, 20);
      sh->submit_op(1, OpKind::kMapFind, 0, 0);
      drain(1);
    });
    trial.check = [sh] { return sh->check(); };
    return trial;
  };

  const testing::ExploreOptions opts{.max_trials = scaled_budget(120)};
  const auto r = testing::ScheduleExplorer::explore(make_trial, opts);
  EXPECT_FALSE(r.violation_found)
      << "non-linearizable service history under schedule "
      << r.schedule_string();
  EXPECT_GT(r.trials, 0u);
}

// The full ring pipeline under PCT schedules. Rings are SPSC, so each
// body routes ONLY its own session's ring (pump_session) — it is that
// ring's unique consumer — then pumps the shared shard queues.
TEST(PctSmoke, ServicePipeline) {
  auto make_trial = [] {
    auto sh = std::make_shared<LinTrialShared>(lin_config(true));
    testing::ScheduleExplorer::Trial trial;
    auto route_and_pump = [sh](unsigned t) {
      sh->svc.pump_session(sh->workers[t].dctx, sh->clients[t].session(),
                           sh->observer());
      sh->svc.pump(sh->workers[t], sh->observer());
    };
    auto drain = [sh, route_and_pump](unsigned t) {
      for (;;) {
        const unsigned moved = sh->svc.pump_session(
            sh->workers[t].dctx, sh->clients[t].session(), sh->observer());
        const unsigned done = sh->svc.pump(sh->workers[t], sh->observer());
        if (moved == 0 && done == 0) break;
      }
    };
    trial.bodies.push_back([sh, route_and_pump, drain] {
      sh->submit_op(0, OpKind::kMapInsert, 0, 10);
      route_and_pump(0);
      sh->submit_op(0, OpKind::kMapUpsert, 1, 21);
      sh->submit_op(0, OpKind::kMapErase, 0, 0);
      drain(0);
    });
    trial.bodies.push_back([sh, route_and_pump, drain] {
      sh->submit_op(1, OpKind::kMapInsert, 1, 11);
      route_and_pump(1);
      sh->submit_op(1, OpKind::kMapFind, 0, 0);
      sh->submit_op(1, OpKind::kMapErase, 1, 0);
      drain(1);
    });
    trial.check = [sh] { return sh->check(); };
    return trial;
  };

  const testing::PctOptions opts{
      .runs = scaled_budget(30),
      .depth = 3,
      .change_range = 128,
      .seed = base_seed() + 23,
  };
  const auto r = testing::ScheduleExplorer::pct_explore(make_trial, opts);
  EXPECT_FALSE(r.violation_found)
      << "non-linearizable pipeline history under schedule "
      << r.schedule_string();
  EXPECT_EQ(r.trials, opts.runs);
}

// ---------------------------------------------------------------------
// Worker routing: no router thread — every worker pass try-claims each
// session with a non-empty ring and moves it into the shard queues. Two
// workers run the real worker step over two sessions; the routing pass
// walks BOTH sessions, so each worker contends for the other's ring.
// SkipRingClaim (a planted bug) drops the claim: two consumers on one
// SPSC ring pop the same handle and the request executes twice, which
// the exactly-once part of the history check must catch.
// ---------------------------------------------------------------------
using SvcNoClaim = svc::KvService<Sub, EpochReclaimer, 64, 64, true>;

// `full_step` picks the body: the whole worker step (route + pump) for the
// PCT explorer, or only its routing half for DFS, whose search cost grows
// with everything a body does after the racy ring pop (the queue pops and
// map operations the pump adds are explored in ExploreLinearizable).
// Either way a final single-threaded worker drains whatever the bodies
// left in check(), as a surviving worker of the service would, so every
// request is executed and the history is complete.
template <class SvcT>
testing::ScheduleExplorer::Trial make_claim_trial(bool full_step) {
  auto sh =
      std::make_shared<LinTrialSharedT<SvcT>>(lin_config<SvcT>(true));
  testing::ScheduleExplorer::Trial trial;
  auto step = [sh, full_step](unsigned t) {
    if (full_step) {
      sh->worker_step(t);
    } else {
      sh->svc.route(sh->workers[t], sh->observer());
    }
  };
  trial.bodies.push_back([sh, step] {
    sh->submit_op(0, OpKind::kMapInsert, 0, 10);
    step(0);
  });
  trial.bodies.push_back([sh, step] {
    sh->submit_op(1, OpKind::kMapFind, 0, 0);
    step(1);
  });
  trial.check = [sh] {
    while (sh->worker_step(0) > 0) {
    }
    return sh->check();
  };
  return trial;
}

template <class SvcT>
testing::ScheduleExplorer::Trial make_route_trial() {
  return make_claim_trial<SvcT>(false);
}

template <class SvcT>
testing::ScheduleExplorer::Trial make_step_trial() {
  return make_claim_trial<SvcT>(true);
}

// Sleep-set DFS exhausts this trial in about 3.8k runs.
TEST(KvService, ExploreRoutingClaimLinearizable) {
  const testing::ExploreOptions opts{.max_trials = scaled_budget(4000),
                                     .sleep_sets = true};
  const auto r = testing::ScheduleExplorer::explore(make_route_trial<Svc>,
                                                    opts);
  EXPECT_FALSE(r.violation_found)
      << "routing workers broke the pipeline under schedule "
      << r.schedule_string();
  EXPECT_GT(r.trials, 0u);
}

TEST(PctSmoke, RoutingClaim) {
  const testing::PctOptions opts{.runs = scaled_budget(200),
                                 .depth = 3,
                                 .change_range = 96,
                                 .seed = base_seed() + 29};
  const auto r = testing::ScheduleExplorer::pct_explore(make_step_trial<Svc>,
                                                        opts);
  EXPECT_FALSE(r.violation_found)
      << "routing workers broke the pipeline under schedule "
      << r.schedule_string();
  EXPECT_EQ(r.trials, opts.runs);
}

TEST(NegativeControl, SkipRingClaimFoundByDfs) {
  const testing::ExploreOptions opts{.max_trials = 20000, .sleep_sets = true};
  const auto r = testing::ScheduleExplorer::explore(
      make_route_trial<SvcNoClaim>, opts);
  ASSERT_TRUE(r.violation_found)
      << "DFS lost the planted two-consumer ring (trials=" << r.trials
      << ", exhausted=" << r.exhausted << ")";
  EXPECT_EQ(r.schedule_string().rfind("ms1:", 0), 0u);
  const auto replayed = testing::Schedule::parse(r.schedule_string());
  ASSERT_TRUE(replayed.has_value());
  EXPECT_FALSE(testing::ScheduleExplorer::replay(
      make_route_trial<SvcNoClaim>, *replayed))
      << "violating schedule " << r.schedule_string()
      << " did not replay";
}

TEST(NegativeControl, SkipRingClaimFoundByPct) {
  const testing::PctOptions opts{.runs = 2000,
                                 .depth = 3,
                                 .change_range = 96,
                                 .seed = base_seed() + 31};
  const auto r = testing::ScheduleExplorer::pct_explore(
      make_step_trial<SvcNoClaim>, opts);
  ASSERT_TRUE(r.violation_found)
      << "PCT lost the planted two-consumer ring (runs=" << r.trials << ")";
  const auto replayed = testing::Schedule::parse(r.schedule_string());
  ASSERT_TRUE(replayed.has_value());
  EXPECT_FALSE(testing::ScheduleExplorer::replay(
      make_step_trial<SvcNoClaim>, *replayed))
      << "violating schedule " << r.schedule_string()
      << " did not replay";
}

// ---------------------------------------------------------------------
// The dispatch queue cannot freeze. Over ReclaimedMsQueue<S,
// EpochReclaimer> a consumer parked inside a dequeue pins the epoch, so
// the dummies its peer retires sit in limbo until the pool is gone; and
// since EpochReclaimer frees only inside retire(), an emptied queue never
// recovers. MsQueue puts a dequeued dummy back on its free list before
// dequeue returns, so the pool runs out only when capacity-1 handles
// really are queued.
//
// Script: consumer A (thread 0) takes the first two decisions, which
// parks it inside dequeue() past its first shared access (on the
// reclaimed queue, with its epoch announced). The producer (1) and
// consumer B (2) then alternate and A runs only once neither can: the
// producer cycles `handles` handles through the queue with at most 2
// queued, and B dequeues them in order.
// ---------------------------------------------------------------------
struct FreezeRun {
  unsigned failed_enqueues = 0;
  std::uint64_t consumed = 0;
  bool fifo = true;
  bool a_parked_throughout = false;
};

template <class Queue, class MakeCtx>
FreezeRun run_parked_dequeuer(Queue& q, MakeCtx make_ctx,
                              std::uint64_t handles) {
  FreezeRun run;
  std::atomic<bool> a_done{false};
  std::atomic<bool> producer_done{false};
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> consumed{0};
  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {
    auto ctx = make_ctx();
    (void)q.dequeue(ctx);
    a_done.store(true);
  });
  bodies.push_back([&] {
    auto ctx = make_ctx();
    for (std::uint64_t i = 0; i < handles; ++i) {
      while (produced.load() - consumed.load() >= 2) MOIR_YIELD_POINT();
      if (!q.enqueue(ctx, i)) {
        ++run.failed_enqueues;
        break;
      }
      produced.fetch_add(1);
    }
    run.a_parked_throughout = !a_done.load();
    producer_done.store(true);
  });
  bodies.push_back([&] {
    auto ctx = make_ctx();
    for (;;) {
      if (const auto v = q.dequeue(ctx)) {
        if (*v != consumed.load()) run.fifo = false;
        consumed.fetch_add(1);
      } else if (producer_done.load() && consumed.load() == produced.load()) {
        break;
      } else {
        MOIR_YIELD_POINT();
      }
    }
  });
  unsigned last = 0;
  testing::ControlledScheduler::run(
      std::move(bodies),
      [&](const std::vector<testing::RunnableThread>& runnable,
          std::size_t d) {
        unsigned pick = runnable.front().id;  // A, if nothing else can run
        for (const auto& r : runnable) {
          if (d < 2 && r.id == 0) return 0u;
          if (r.id == 0) continue;
          pick = r.id;
          if (r.id != last) break;
        }
        last = pick;
        return pick;
      });
  run.consumed = consumed.load();
  return run;
}

TEST(DispatchQueueFreeze, ParkedDequeuerCannotExhaustThePool) {
  Sub sub;
  constexpr std::uint32_t kCapacity = 8;
  MsQueue<Sub> q(sub, kCapacity);
  const FreezeRun run =
      run_parked_dequeuer(q, [&] { return sub.make_ctx(); }, 3 * kCapacity);
  EXPECT_TRUE(run.a_parked_throughout);
  EXPECT_EQ(run.failed_enqueues, 0u)
      << "in-place recycling ran out of nodes with 2 handles queued";
  EXPECT_EQ(run.consumed, 3 * kCapacity);
  EXPECT_TRUE(run.fifo);
}

// The removed defect, kept as a negative control: the same script over
// the epoch-reclaimed queue exhausts its pool long before 3x capacity.
TEST(NegativeControl, ReclaimedQueueFreezesUnderParkedDequeuer) {
  Sub sub;
  constexpr std::uint32_t kCapacity = 8;
  ReclaimedMsQueue<Sub, EpochReclaimer> q(sub, 3, kCapacity);
  const FreezeRun run =
      run_parked_dequeuer(q, [&] { return q.make_ctx(); }, 3 * kCapacity);
  EXPECT_TRUE(run.a_parked_throughout);
  EXPECT_GT(run.failed_enqueues, 0u)
      << "the parked dequeuer no longer pins the epoch-reclaimed pool";
  EXPECT_LT(run.consumed, std::uint64_t{kCapacity});
}

// The stress form: one 1024-node queue, one producer with at most 64
// handles in flight, two consumers popping batches of 16. The
// epoch-reclaimed queue froze after 0.16-1.2 M operations in this shape;
// the dispatcher must run 24 M (12 M enqueues, 12 M dequeues) without a
// failed enqueue. Sanitizer builds run a twentieth of it.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr std::uint64_t kStressHandles = 12'000'000 / 20;
#else
constexpr std::uint64_t kStressHandles = 12'000'000;
#endif

TEST(DispatcherStress, TwoBatchConsumersNeverExhaustThePool) {
  Sub sub;
  svc::Dispatcher<Sub> disp(sub, 3, 1, 1024);
  constexpr std::uint64_t kInFlight = 64;
  constexpr unsigned kBatch = 16;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<bool> producer_done{false};
  std::uint64_t failed = 0;
  std::array<std::uint64_t, 2> sums{};
  std::array<std::uint64_t, 2> counts{};
  std::array<bool, 2> ordered{true, true};

  std::thread producer([&] {
    auto ctx = disp.make_ctx();
    SpinWait sw;
    for (std::uint64_t i = 0; i < kStressHandles; ++i) {
      while (i - received.load(std::memory_order_acquire) >= kInFlight) {
        sw.pause();
      }
      sw.reset();
      if (!disp.enqueue(ctx, i, i)) {
        ++failed;
        break;
      }
      sent.store(i + 1, std::memory_order_release);
    }
    producer_done.store(true, std::memory_order_release);
  });
  auto consumer = [&](unsigned c) {
    auto ctx = disp.make_ctx();
    std::uint64_t buf[kBatch];
    std::uint64_t next_min = 0;
    SpinWait sw;
    for (;;) {
      const unsigned k = disp.pop_batch(ctx, 0, buf, kBatch);
      if (k == 0) {
        if (producer_done.load(std::memory_order_acquire) &&
            received.load(std::memory_order_acquire) ==
                sent.load(std::memory_order_acquire)) {
          break;
        }
        sw.pause();
        continue;
      }
      sw.reset();
      for (unsigned j = 0; j < k; ++j) {
        // One producer: each consumer sees a subsequence of FIFO order.
        if (buf[j] < next_min) ordered[c] = false;
        next_min = buf[j] + 1;
        sums[c] += buf[j];
      }
      counts[c] += k;
      received.fetch_add(k, std::memory_order_acq_rel);
    }
  };
  std::thread c0(consumer, 0);
  std::thread c1(consumer, 1);
  producer.join();
  c0.join();
  c1.join();

  EXPECT_EQ(failed, 0u) << "enqueue failed after "
                        << sent.load() << " handles";
  EXPECT_EQ(counts[0] + counts[1], kStressHandles);
  EXPECT_EQ(sums[0] + sums[1], kStressHandles * (kStressHandles - 1) / 2);
  EXPECT_TRUE(ordered[0] && ordered[1]);
  EXPECT_TRUE(disp.all_empty());
}

}  // namespace
}  // namespace moir
