// Static STM tests: sequential semantics, conflict handling, helping, the
// bank-transfer conservation stress the STM literature uses, and the
// prepare step's ordering against straggling helpers.
#include "nonblocking/stm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <vector>

#include "platform/yield_point.hpp"
#include "sim/controlled_scheduler.hpp"
#include "util/rng.hpp"
#include "util/thread_utils.hpp"

namespace moir {
namespace {

void tx_increment_all(const std::uint64_t* olds, std::uint64_t* news,
                      unsigned n, std::uint64_t arg) {
  for (unsigned i = 0; i < n; ++i) news[i] = olds[i] + arg;
}

void tx_transfer(const std::uint64_t* olds, std::uint64_t* news, unsigned n,
                 std::uint64_t arg) {
  // Move `arg` units from cell 0 to cell 1 of the set (if funds allow).
  (void)n;
  const std::uint64_t amount = olds[0] >= arg ? arg : 0;
  news[0] = olds[0] - amount;
  news[1] = olds[1] + amount;
}

void tx_rotate(const std::uint64_t* olds, std::uint64_t* news, unsigned n,
               std::uint64_t) {
  for (unsigned i = 0; i < n; ++i) news[i] = olds[(i + 1) % n];
}

TEST(Stm, SingleCellTransaction) {
  Stm stm(2, 4);
  auto ctx = stm.make_ctx();
  stm.set_initial(0, 10);
  const std::uint32_t addrs[] = {0};
  const auto r = stm.transact(ctx, addrs, tx_increment_all, 5);
  EXPECT_TRUE(r.committed);
  EXPECT_EQ(r.olds[0], 10u);
  EXPECT_EQ(stm.read(ctx, 0), 15u);
}

TEST(Stm, MultiCellTransactionIsAtomic) {
  Stm stm(2, 4);
  auto ctx = stm.make_ctx();
  stm.set_initial(0, 100);
  stm.set_initial(1, 0);
  const std::uint32_t addrs[] = {0, 1};
  stm.transact(ctx, addrs, tx_transfer, 30);
  EXPECT_EQ(stm.read(ctx, 0), 70u);
  EXPECT_EQ(stm.read(ctx, 1), 30u);
}

TEST(Stm, TransferRespectsGuard) {
  Stm stm(2, 2);
  auto ctx = stm.make_ctx();
  stm.set_initial(0, 5);
  const std::uint32_t addrs[] = {0, 1};
  stm.transact(ctx, addrs, tx_transfer, 30);  // insufficient funds
  EXPECT_EQ(stm.read(ctx, 0), 5u);
  EXPECT_EQ(stm.read(ctx, 1), 0u);
}

TEST(Stm, SequentialTransactionsChain) {
  Stm stm(1, 3);
  auto ctx = stm.make_ctx();
  stm.set_initial(0, 1);
  stm.set_initial(1, 2);
  stm.set_initial(2, 3);
  const std::uint32_t addrs[] = {0, 1, 2};
  for (int i = 0; i < 9; ++i) stm.transact(ctx, addrs, tx_rotate, 0);
  // 9 rotations of a 3-cycle = identity.
  EXPECT_EQ(stm.read(ctx, 0), 1u);
  EXPECT_EQ(stm.read(ctx, 1), 2u);
  EXPECT_EQ(stm.read(ctx, 2), 3u);
}

TEST(Stm, NoLocksLeftBehind) {
  Stm stm(2, 8);
  auto ctx = stm.make_ctx();
  const std::uint32_t addrs[] = {1, 3, 5, 7};
  for (int i = 0; i < 100; ++i) stm.transact(ctx, addrs, tx_increment_all, 1);
  EXPECT_FALSE(stm.any_cell_locked());
}

TEST(Stm, ReadSeesCommittedStateOnly) {
  Stm stm(2, 2);
  auto ctx = stm.make_ctx();
  stm.set_initial(0, 7);
  EXPECT_EQ(stm.read(ctx, 0), 7u);
}

// The canonical STM stress: N threads move money between random account
// pairs; the grand total is invariant iff transactions are atomic.
class StmStress : public ::testing::TestWithParam<int> {};

TEST_P(StmStress, BankTransfersConserveTotal) {
  const int threads = GetParam();
  constexpr std::size_t kAccounts = 16;
  constexpr std::uint64_t kInitial = 1000;
  Stm stm(static_cast<unsigned>(threads) + 1, kAccounts);
  {
    for (std::size_t a = 0; a < kAccounts; ++a) stm.set_initial(a, kInitial);
  }

  std::atomic<std::uint64_t> total_aborts{0};
  run_threads(threads, [&](std::size_t tid) {
#ifdef MOIR_ENABLE_YIELD_POINTS
    testing::set_yield_probability(0.01, 500 + tid);
#endif
    auto ctx = stm.make_ctx();
    Xoshiro256 rng(tid * 97 + 3);
    std::uint64_t aborts = 0;
    for (int i = 0; i < 2500; ++i) {
      std::uint32_t a = static_cast<std::uint32_t>(rng.next_below(kAccounts));
      std::uint32_t b = static_cast<std::uint32_t>(rng.next_below(kAccounts));
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      const std::uint32_t addrs[] = {a, b};
      const auto r = stm.transact(ctx, addrs, tx_transfer,
                                  1 + rng.next_below(10));
      aborts += r.aborts;
    }
    total_aborts.fetch_add(aborts);
#ifdef MOIR_ENABLE_YIELD_POINTS
    testing::set_yield_probability(0.0, 0);
#endif
  });

  auto ctx = stm.make_ctx();
  std::uint64_t total = 0;
  for (std::size_t a = 0; a < kAccounts; ++a) total += stm.read(ctx, a);
  EXPECT_EQ(total, kAccounts * kInitial) << "money created or destroyed";
  EXPECT_FALSE(stm.any_cell_locked());
}

INSTANTIATE_TEST_SUITE_P(Threads, StmStress, ::testing::Values(1, 2, 4, 8));

// Wide transactions overlapping heavily: rotate values through overlapping
// windows; the multiset of all cell values is invariant under rotation.
TEST(StmStress, OverlappingRotationsPreserveMultiset) {
  constexpr unsigned kThreads = 4;
  constexpr std::size_t kCells = 12;
  Stm stm(kThreads + 1, kCells);
  for (std::size_t i = 0; i < kCells; ++i) {
    stm.set_initial(i, 100 + i);
  }

  run_threads(kThreads, [&](std::size_t tid) {
    auto ctx = stm.make_ctx();
    Xoshiro256 rng(tid + 11);
    for (int i = 0; i < 2000; ++i) {
      const std::uint32_t base =
          static_cast<std::uint32_t>(rng.next_below(kCells - 3));
      const std::uint32_t addrs[] = {base, base + 1, base + 2, base + 3};
      stm.transact(ctx, addrs, tx_rotate, 0);
    }
  });

  auto ctx = stm.make_ctx();
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < kCells; ++i) values.push_back(stm.read(ctx, i));
  std::sort(values.begin(), values.end());
  std::vector<std::uint64_t> expect;
  for (std::size_t i = 0; i < kCells; ++i) expect.push_back(100 + i);
  EXPECT_EQ(values, expect);
}

// ---------------------------------------------------------------------
// transact()'s prepare step runs after the helpers of the caller's
// previous incarnation have drained. Script: owner O locks the cell in
// its first transaction; helper H sees the lock, registers, and parks
// inside run_phases; O finishes that transaction and starts its second,
// which spins on the drain until H runs. H then evaluates the FIRST
// transaction's op, which reads the state behind `arg`, and must still
// see the first transaction's value. Writing that state before calling
// transact() instead — what Mcas did with its per-process spec — hands H
// the second transaction's value: outside the scheduler, a data race.
// ---------------------------------------------------------------------
struct ArgProbe {
  std::atomic<std::uint64_t> tag{0};
  std::vector<std::uint64_t> seen_by_helper;
};

thread_local bool tl_is_helper = false;

void tx_probe(const std::uint64_t* olds, std::uint64_t* news, unsigned n,
              std::uint64_t arg) {
  auto* probe = reinterpret_cast<ArgProbe*>(arg);
  if (tl_is_helper) probe->seen_by_helper.push_back(probe->tag.load());
  for (unsigned i = 0; i < n; ++i) news[i] = olds[i] + 1;
}

// Returns the tags the helper's op calls read. `in_prepare` picks where
// the owner writes its second transaction's tag.
std::vector<std::uint64_t> straggling_helper_reads(bool in_prepare) {
  Stm stm(2, 1);
  ArgProbe probe;
  std::atomic<bool> helper_in_help{false};
  const std::uint32_t addrs[] = {0};
  const auto arg = reinterpret_cast<std::uint64_t>(&probe);
  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {
    auto ctx = stm.make_ctx();
    stm.transact(ctx, addrs, tx_probe, arg, [&] { probe.tag.store(1); });
    if (in_prepare) {
      stm.transact(ctx, addrs, tx_probe, arg, [&] { probe.tag.store(2); });
    } else {
      probe.tag.store(2);
      stm.transact(ctx, addrs, tx_probe, arg);
    }
  });
  bodies.push_back([&] {
    tl_is_helper = true;
    for (;;) {
      const Stm::CellView view = stm.peek(0);
      if (view.locked) {
        helper_in_help.store(true);
        stm.help_locked(view);
        return;
      }
      MOIR_YIELD_POINT();
    }
  });
  // Phases: 0 = O until the cell is locked; 1 = H until it is inside
  // help; 2 = O for a while (it finishes, starts again, and spins on the
  // drain); 3 = H to completion, then O.
  constexpr std::size_t kOwnerSteps = 2000;
  unsigned phase = 0;
  std::size_t owner_steps = 0;
  testing::ControlledScheduler::run(
      std::move(bodies),
      [&](const std::vector<testing::RunnableThread>& runnable,
          std::size_t) {
        bool owner = false;
        bool helper = false;
        for (const auto& r : runnable) (r.id == 0 ? owner : helper) = true;
        if (phase == 0 && stm.any_cell_locked()) phase = 1;
        if (phase == 1 && helper_in_help.load()) phase = 2;
        if (phase == 2 && (++owner_steps > kOwnerSteps || !owner)) phase = 3;
        const bool want_owner = phase == 0 || phase == 2;
        return (want_owner ? owner : !helper) ? 0u : 1u;
      });
  return probe.seen_by_helper;
}

TEST(Stm, PrepareRunsAfterStragglingHelpersDrain) {
  const auto seen = straggling_helper_reads(/*in_prepare=*/true);
  ASSERT_FALSE(seen.empty()) << "the script never ran the helper's op";
  for (const std::uint64_t tag : seen) {
    EXPECT_EQ(tag, 1u) << "a helper of the first transaction read state "
                          "the second one prepared";
  }
}

// The defect Mcas had, kept as a negative control: the same script with
// the state written before transact() lets the helper read it.
TEST(NegativeControl, StateWrittenBeforeTransactReachesStragglingHelper) {
  const auto seen = straggling_helper_reads(/*in_prepare=*/false);
  ASSERT_FALSE(seen.empty()) << "the script never ran the helper's op";
  EXPECT_EQ(seen.back(), 2u);
}

}  // namespace
}  // namespace moir
