// Torture battery: long randomized mixed workloads, swept over substrates,
// seeds, and contention shapes. Each scenario carries an invariant that a
// single lost/duplicated/torn update breaks. These are the "testing —
// often to an extreme extent — is essential" tests of C++ Core Guidelines
// CP.101.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "core/bounded_llsc.hpp"
#include "core/llsc_traits.hpp"
#include "nonblocking/counter.hpp"
#include "nonblocking/ms_queue.hpp"
#include "nonblocking/stm.hpp"
#include "nonblocking/treiber_stack.hpp"
#include "util/rng.hpp"
#include "util/thread_utils.hpp"

namespace moir {
namespace {

constexpr unsigned kThreads = 4;

// ---------------------------------------------------------------------
// Scenario 1: many variables, random LL/VL/SC/CL mix, per-variable
// success accounting. Parameterized over seed to diversify schedules.
// ---------------------------------------------------------------------
template <typename S, typename MakeCtx>
void random_multi_var_torture(S& s, MakeCtx make_ctx, std::uint64_t seed) {
  constexpr int kVars = 6;
  constexpr int kOps = 6000;
  std::vector<typename S::Var> vars(kVars);
  for (auto& v : vars) s.init_var(v, 0);
  std::vector<std::atomic<std::uint64_t>> successes(kVars);

  run_threads(kThreads, [&](std::size_t tid) {
#ifdef MOIR_ENABLE_YIELD_POINTS
    testing::set_yield_probability(0.01, seed * 131 + tid);
#endif
    auto ctx = make_ctx();
    Xoshiro256 rng(seed * 977 + tid);
    for (int i = 0; i < kOps; ++i) {
      const int vi = static_cast<int>(rng.next_below(kVars));
      typename S::Keep keep;
      const std::uint64_t v = s.ll(ctx, vars[vi], keep);
      switch (rng.next_below(4)) {
        case 0:  // plain LL/SC increment
          if (s.sc(ctx, vars[vi], keep, (v + 1) & s.max_value())) {
            successes[vi].fetch_add(1, std::memory_order_relaxed);
          }
          break;
        case 1: {  // validate first, then SC
          const bool valid = s.vl(ctx, vars[vi], keep);
          const bool ok = s.sc(ctx, vars[vi], keep, (v + 1) & s.max_value());
          // SC success implies the earlier VL was true (no SC can have
          // intervened before a successful SC).
          if (ok) {
            ASSERT_TRUE(valid) << "SC succeeded after VL said invalid";
            successes[vi].fetch_add(1, std::memory_order_relaxed);
          }
          break;
        }
        case 2:  // abandon the sequence
          s.cl(ctx, keep);
          break;
        default:  // read-only probe: VL after nothing should often be true
          s.cl(ctx, keep);
          break;
      }
    }
#ifdef MOIR_ENABLE_YIELD_POINTS
    testing::set_yield_probability(0.0, 0);
#endif
  });

  for (int vi = 0; vi < kVars; ++vi) {
    EXPECT_EQ(s.read(vars[vi]),
              successes[vi].load() & s.max_value())
        << "variable " << vi << " lost or gained updates";
  }
}

class TortureSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TortureSeed, Fig4MultiVar) {
  CasBackedLlsc<16> s;
  random_multi_var_torture(s, [&] { return s.make_ctx(); }, GetParam());
}

TEST_P(TortureSeed, Fig5MultiVarWithFaults) {
  FaultInjector faults;
  faults.set_spurious_probability(0.05);
  RllBackedLlsc<16> s(&faults);
  random_multi_var_torture(s, [&] { return s.make_ctx(); }, GetParam());
}

TEST_P(TortureSeed, Fig7MultiVar) {
  BoundedLlsc<> s(kThreads, 2);
  random_multi_var_torture(s, [&] { return s.make_ctx(); }, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TortureSeed,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------
// Scenario 2: one Figure-7 domain backing a stack, a queue, AND raw
// counters simultaneously — cross-structure interference through the
// shared announcement array and tag space.
// ---------------------------------------------------------------------
TEST(TortureMixed, StackQueueCounterShareOneBoundedDomain) {
  BoundedLlsc<> s(kThreads + 2, 3);  // queue needs k >= 3
  auto init_ctx = s.make_ctx();
  TreiberStack<BoundedLlsc<>> stack(s, 64, init_ctx);
  MsQueue<BoundedLlsc<>> queue(s, 64);
  LlscCounter<BoundedLlsc<>> counter(s, 0);

  std::atomic<std::int64_t> stack_net{0}, queue_net{0};
  std::atomic<std::uint64_t> incs{0};
  run_threads(kThreads, [&](std::size_t tid) {
    auto ctx = s.make_ctx();
    Xoshiro256 rng(tid * 7 + 1);
    std::int64_t s_net = 0, q_net = 0;
    std::uint64_t my_incs = 0;
    for (int i = 0; i < 6000; ++i) {
      switch (rng.next_below(5)) {
        case 0:
          s_net += stack.push(ctx, i & 0xfff);
          break;
        case 1:
          s_net -= stack.pop(ctx).has_value();
          break;
        case 2:
          q_net += queue.enqueue(ctx, i & 0xfff);
          break;
        case 3:
          q_net -= queue.dequeue(ctx).has_value();
          break;
        default:
          counter.increment(ctx);
          ++my_incs;
          break;
      }
    }
    stack_net.fetch_add(s_net);
    queue_net.fetch_add(q_net);
    incs.fetch_add(my_incs);
  });

  std::int64_t stack_left = 0;
  while (stack.pop(init_ctx)) ++stack_left;
  std::int64_t queue_left = 0;
  while (queue.dequeue(init_ctx)) ++queue_left;
  EXPECT_EQ(stack_left, stack_net.load());
  EXPECT_EQ(queue_left, queue_net.load());
  EXPECT_EQ(counter.read(), incs.load());
}

// ---------------------------------------------------------------------
// Scenario 3: STM with maximum-size transactions over a small cell pool —
// every transaction overlaps every other; permutation invariant.
// ---------------------------------------------------------------------
TEST(TortureMixed, StmMaxSizeTransactions) {
  constexpr std::size_t kCells = Stm::kMaxTxCells;
  Stm stm(kThreads + 1, kCells);
  for (std::size_t i = 0; i < kCells; ++i) {
    stm.set_initial(i, 1000 + i);
  }
  std::uint32_t all[kCells];
  for (std::size_t i = 0; i < kCells; ++i) all[i] = static_cast<std::uint32_t>(i);

  run_threads(kThreads, [&](std::size_t tid) {
    auto ctx = stm.make_ctx();
    for (int i = 0; i < 1500; ++i) {
      stm.transact(
          ctx, std::span<const std::uint32_t>(all, kCells),
          [](const std::uint64_t* olds, std::uint64_t* news, unsigned n,
             std::uint64_t rot) {
            for (unsigned j = 0; j < n; ++j) news[j] = olds[(j + rot) % n];
          },
          1 + (tid % (kCells - 1)));
    }
  });

  auto ctx = stm.make_ctx();
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < kCells; ++i) values.push_back(stm.read(ctx, i));
  std::sort(values.begin(), values.end());
  std::vector<std::uint64_t> expect;
  for (std::size_t i = 0; i < kCells; ++i) expect.push_back(1000 + i);
  EXPECT_EQ(values, expect) << "full-width rotations must permute, not mutate";
  EXPECT_FALSE(stm.any_cell_locked());
  const auto st = stm.stats();
  EXPECT_EQ(st.commits, static_cast<std::uint64_t>(kThreads) * 1500);
}

// ---------------------------------------------------------------------
// Scenario 4: adversarial CL storms on Figure 7 — constant abandonment
// must never leak slots or disturb other processes' sequences.
// ---------------------------------------------------------------------
TEST(TortureMixed, Fig7ClStormDoesNotDisturbWriters) {
  BoundedLlsc<> s(kThreads, 1);
  BoundedLlsc<>::Var var;
  s.init_var(var, 0);
  std::atomic<std::uint64_t> successes{0};
  run_threads(kThreads, [&](std::size_t tid) {
    auto ctx = s.make_ctx();
    if (tid % 2 == 0) {
      // Writer.
      std::uint64_t local = 0;
      for (int i = 0; i < 8000; ++i) {
        BoundedLlsc<>::Keep keep;
        const auto v = s.ll(ctx, var, keep);
        local += s.sc(ctx, var, keep, (v + 1) & s.max_value());
      }
      successes.fetch_add(local);
    } else {
      // CL storm: open and abandon sequences as fast as possible.
      for (int i = 0; i < 16000; ++i) {
        BoundedLlsc<>::Keep keep;
        s.ll(ctx, var, keep);
        s.cl(ctx, keep);
      }
    }
  });
  EXPECT_EQ(s.read(var), successes.load() & s.max_value());
}

}  // namespace
}  // namespace moir
