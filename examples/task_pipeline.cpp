// A three-stage processing pipeline over Michael-Scott queues, with a
// wait-free statistics object — the kind of system the paper's §1 promises
// to make buildable from published non-blocking algorithms on commodity
// hardware. Stage 1 produces work items, stage 2 transforms them, stage 3
// aggregates; queues between stages are MsQueue over Figure-4 LL/VL/SC,
// and the shared stats object is the wait-free universal construction.
#include <atomic>
#include <cstdio>

#include "core/llsc_traits.hpp"
#include "nonblocking/ms_queue.hpp"
#include "nonblocking/wait_free_universal.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_utils.hpp"

namespace {

struct PipelineStats {
  std::uint64_t produced = 0;
  std::uint64_t transformed = 0;
  std::uint64_t consumed = 0;
  std::uint64_t checksum = 0;
};

enum : std::uint32_t { kProduced = 1, kTransformed = 2, kConsumed = 3 };

struct StatsApplier {
  PipelineStats operator()(PipelineStats s, std::uint32_t opid,
                           std::uint64_t arg, std::uint64_t* result) const {
    switch (opid) {
      case kProduced:
        s.produced += 1;
        break;
      case kTransformed:
        s.transformed += 1;
        break;
      case kConsumed:
        s.consumed += 1;
        s.checksum += arg;
        break;
    }
    *result = 0;
    return s;
  }
};

using Substrate = moir::CasBackedLlsc<16>;
using Stats = moir::WaitFreeUniversal<PipelineStats, StatsApplier>;

constexpr std::uint64_t kItems = 50000;
constexpr unsigned kThreads = 3;  // one per stage

}  // namespace

int main() {
  Substrate substrate;
  moir::MsQueue<Substrate> stage1(substrate, 256);
  moir::MsQueue<Substrate> stage2(substrate, 256);

  moir::WideLlsc<32> stats_dom(kThreads + 1,
                               Stats::required_width(kThreads + 1));
  Stats stats(stats_dom, kThreads + 1, StatsApplier{}, PipelineStats{});

  std::printf("pipeline: produce -> transform(x*2+1) -> aggregate, "
              "%llu items\n\n",
              static_cast<unsigned long long>(kItems));

  moir::Stopwatch timer;
  moir::run_threads(kThreads, [&](std::size_t tid) {
    auto ctx = substrate.make_ctx();
    auto sctx = stats_dom.make_ctx();
    if (tid == 0) {
      // Producer: items 1..kItems.
      for (std::uint64_t i = 1; i <= kItems; ++i) {
        while (!stage1.enqueue(ctx, i & 0xfff)) std::this_thread::yield();
        stats.apply(sctx, kProduced, 0);
      }
    } else if (tid == 1) {
      // Transformer: x -> 2x+1 (stays within the 16-bit value field).
      for (std::uint64_t n = 0; n < kItems;) {
        if (const auto v = stage1.dequeue(ctx)) {
          const std::uint64_t out = (*v * 2 + 1) & 0xffff;
          while (!stage2.enqueue(ctx, out)) std::this_thread::yield();
          stats.apply(sctx, kTransformed, 0);
          ++n;
        } else {
          std::this_thread::yield();
        }
      }
    } else {
      // Aggregator.
      for (std::uint64_t n = 0; n < kItems;) {
        if (const auto v = stage2.dequeue(ctx)) {
          stats.apply(sctx, kConsumed, *v);
          ++n;
        } else {
          std::this_thread::yield();
        }
      }
    }
  });
  const double secs = timer.elapsed_s();

  auto sctx = stats_dom.make_ctx();
  const PipelineStats fin = stats.read(sctx);

  // Independent checksum of what the aggregator must have seen.
  std::uint64_t expect = 0;
  for (std::uint64_t i = 1; i <= kItems; ++i) {
    expect += ((i & 0xfff) * 2 + 1) & 0xffff;
  }

  std::printf("throughput : %.2f K items/s end-to-end\n",
              kItems / secs / 1e3);
  std::printf("produced=%llu transformed=%llu consumed=%llu\n",
              static_cast<unsigned long long>(fin.produced),
              static_cast<unsigned long long>(fin.transformed),
              static_cast<unsigned long long>(fin.consumed));
  std::printf("checksum   : %llu (expected %llu) -> %s\n",
              static_cast<unsigned long long>(fin.checksum),
              static_cast<unsigned long long>(expect),
              fin.checksum == expect ? "OK" : "BROKEN");
  const bool ok = fin.produced == kItems && fin.transformed == kItems &&
                  fin.consumed == kItems && fin.checksum == expect;
  return ok ? 0 : 1;
}
