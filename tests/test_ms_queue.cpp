// MsQueue across substrates: FIFO semantics, helping (lagging tail), node
// recycling, and per-producer order preservation under concurrency.
#include "nonblocking/ms_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "core/bounded_llsc.hpp"
#include "util/rng.hpp"
#include "util/thread_utils.hpp"

namespace moir {
namespace {

template <typename S>
class QueueTest : public ::testing::Test {
 protected:
  S substrate_{};
};

using Substrates =
    ::testing::Types<CasBackedLlsc<16>, RllBackedLlsc<16>,
                     ComposedBackedLlsc<16>, LockBackedLlsc<16>>;
TYPED_TEST_SUITE(QueueTest, Substrates);

TYPED_TEST(QueueTest, FifoOrder) {
  auto ctx = this->substrate_.make_ctx();
  MsQueue<TypeParam> q(this->substrate_, 16);
  EXPECT_TRUE(q.empty());
  for (std::uint64_t v : {1, 2, 3}) EXPECT_TRUE(q.enqueue(ctx, v));
  EXPECT_EQ(q.dequeue(ctx), 1u);
  EXPECT_EQ(q.dequeue(ctx), 2u);
  EXPECT_EQ(q.dequeue(ctx), 3u);
  EXPECT_EQ(q.dequeue(ctx), std::nullopt);
}

TYPED_TEST(QueueTest, CapacityAndRecycling) {
  auto ctx = this->substrate_.make_ctx();
  MsQueue<TypeParam> q(this->substrate_, 4);  // 3 usable + dummy
  EXPECT_TRUE(q.enqueue(ctx, 1));
  EXPECT_TRUE(q.enqueue(ctx, 2));
  EXPECT_TRUE(q.enqueue(ctx, 3));
  EXPECT_FALSE(q.enqueue(ctx, 4)) << "pool exhausted";
  EXPECT_EQ(q.dequeue(ctx), 1u);
  EXPECT_TRUE(q.enqueue(ctx, 5)) << "recycled node must be usable";
  EXPECT_EQ(q.dequeue(ctx), 2u);
  EXPECT_EQ(q.dequeue(ctx), 3u);
  EXPECT_EQ(q.dequeue(ctx), 5u);
}

TYPED_TEST(QueueTest, HeavyRecyclingSingleThread) {
  auto ctx = this->substrate_.make_ctx();
  MsQueue<TypeParam> q(this->substrate_, 3);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(q.enqueue(ctx, i & 0xfff));
    ASSERT_TRUE(q.enqueue(ctx, (i + 1) & 0xfff));
    ASSERT_EQ(q.dequeue(ctx), i & 0xfff);
    ASSERT_EQ(q.dequeue(ctx), (i + 1) & 0xfff);
  }
}

// Linearizability probe for FIFO: with concurrent producers/consumers,
// (a) nothing is lost or duplicated, and (b) each producer's values are
// consumed in the order it produced them (per-producer FIFO is implied by
// queue linearizability).
TYPED_TEST(QueueTest, ConcurrentPerProducerOrder) {
  auto& s = this->substrate_;
  MsQueue<TypeParam> q(s, 32);
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 6000;

  std::vector<std::vector<std::uint64_t>> consumed_by(kConsumers);
  std::atomic<std::uint64_t> taken{0};

  run_threads(kProducers + kConsumers, [&](std::size_t tid) {
    auto ctx = s.make_ctx();
    if (tid < kProducers) {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = (tid << 13) | i;  // 13-bit seq, producer id
        while (!q.enqueue(ctx, v)) std::this_thread::yield();
      }
    } else {
      auto& mine = consumed_by[tid - kProducers];
      for (;;) {
        if (const auto v = q.dequeue(ctx)) {
          mine.push_back(*v);
          taken.fetch_add(1);
        } else if (taken.load() >= kProducers * kPerProducer) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
    }
  });

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t total = 0;
  // Merge per-consumer streams: within one consumer, one producer's items
  // must appear in increasing sequence order.
  for (const auto& stream : consumed_by) {
    std::vector<std::uint64_t> last_seen(kProducers, 0);
    std::vector<bool> seen_any(kProducers, false);
    for (const std::uint64_t v : stream) {
      const std::size_t p = v >> 13;
      const std::uint64_t seq = v & 0x1fff;
      ASSERT_LT(p, static_cast<std::size_t>(kProducers));
      if (seen_any[p]) {
        EXPECT_GT(seq, last_seen[p])
            << "per-producer FIFO violated in one consumer's stream";
      }
      seen_any[p] = true;
      last_seen[p] = seq;
      ++total;
      ++next_seq[p];
    }
  }
  EXPECT_EQ(total, kProducers * kPerProducer);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[p], kPerProducer) << "producer " << p;
  }
}

// Figure 7 needs k >= 3 concurrent sequences (head, tail, next all live).
TEST(QueueOnBoundedLlsc, ConcurrentConservation) {
  constexpr unsigned kThreads = 4;
  BoundedLlsc<> s(kThreads + 2, 3);
  MsQueue<BoundedLlsc<>> q(s, 16);
  std::atomic<std::int64_t> net{0};

  run_threads(kThreads, [&](std::size_t tid) {
    auto ctx = s.make_ctx();
    Xoshiro256 rng(tid * 13 + 5);
    std::int64_t local = 0;
    for (int i = 0; i < 4000; ++i) {
      if (rng.chance(1, 2)) {
        local += q.enqueue(ctx, i & 0xff);
      } else {
        local -= q.dequeue(ctx).has_value();
      }
    }
    net.fetch_add(local);
  });

  auto ctx = s.make_ctx();
  std::int64_t remaining = 0;
  while (q.dequeue(ctx)) ++remaining;
  EXPECT_EQ(remaining, net.load());
}

}  // namespace
}  // namespace moir
