// E9 (Section 1 applicability + Section 5 STM practicality): the
// previously-inapplicable algorithms, running.
//
// The paper's point is that algorithms published against LL/VL/SC
// ([2,3,4,7,10,14]) become usable on CAS-only or RLL/RSC-only machines via
// its constructions. This bench runs four such consumers — counter, Treiber
// stack, Michael-Scott queue, and a Shavit-Touitou-style STM — over each
// substrate, plus the lock baseline, and reports throughput. The expected
// shape: all non-blocking substrates are within a small constant factor of
// each other and of the lock baseline (which lacks their progress and
// fault-tolerance properties — the reason the paper exists).
#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/bounded_llsc.hpp"
#include "core/llsc_traits.hpp"
#include "nonblocking/counter.hpp"
#include "nonblocking/mcas.hpp"
#include "nonblocking/ms_queue.hpp"
#include "nonblocking/stm.hpp"
#include "nonblocking/treiber_stack.hpp"
#include "nonblocking/universal.hpp"
#include "util/rng.hpp"

namespace {

constexpr unsigned kThreads = 4;

template <typename S>
std::vector<decltype(std::declval<S&>().make_ctx())> make_ctxs(S& s,
                                                               unsigned n) {
  std::vector<decltype(s.make_ctx())> ctxs;
  ctxs.reserve(n);
  for (unsigned i = 0; i < n; ++i) ctxs.push_back(s.make_ctx());
  return ctxs;
}

std::vector<moir::Xoshiro256> make_rngs(unsigned n, std::uint64_t salt) {
  std::vector<moir::Xoshiro256> rngs;
  rngs.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    rngs.emplace_back(moir::bench::thread_seed(i + salt));
  }
  return rngs;
}

template <typename S>
double counter_mops(moir::bench::Harness& h, const std::string& name, S& s,
                    std::uint64_t ops_each) {
  moir::LlscCounter<S> c(s, 0);
  auto ctxs = make_ctxs(s, kThreads);
  const auto& run = h.run_ops("counter/" + name, kThreads, ops_each,
                              [&](std::size_t tid, std::uint64_t) {
                                c.increment(ctxs[tid]);
                              });
  return run.mops_s();
}

template <typename S>
double stack_mops(moir::bench::Harness& h, const std::string& name, S& s,
                  std::uint64_t ops_each) {
  auto init_ctx = s.make_ctx();
  moir::TreiberStack<S> st(s, 512, init_ctx);
  auto ctxs = make_ctxs(s, kThreads);
  auto rngs = make_rngs(kThreads, 0);
  const auto& run = h.run_ops("stack/" + name, kThreads, ops_each,
                              [&](std::size_t tid, std::uint64_t i) {
                                if (rngs[tid].chance(1, 2)) {
                                  st.push(ctxs[tid], i & 0xfff);
                                } else {
                                  st.pop(ctxs[tid]);
                                }
                              });
  return run.mops_s();
}

template <typename S>
double queue_mops(moir::bench::Harness& h, const std::string& name, S& s,
                  std::uint64_t ops_each) {
  moir::MsQueue<S> q(s, 512);
  auto ctxs = make_ctxs(s, kThreads);
  auto rngs = make_rngs(kThreads, 0);
  const auto& run = h.run_ops("queue/" + name, kThreads, ops_each,
                              [&](std::size_t tid, std::uint64_t i) {
                                if (rngs[tid].chance(1, 2)) {
                                  q.enqueue(ctxs[tid], i & 0xfff);
                                } else {
                                  q.dequeue(ctxs[tid]);
                                }
                              });
  return run.mops_s();
}

double dcas_mops(moir::bench::Harness& h, std::uint64_t ops_each) {
  // The Greenwald/Cheriton primitive, in software (§5's rebuttal).
  moir::Mcas m(kThreads, 16);
  for (std::size_t i = 0; i < 16; ++i) m.set_initial(i, 0);
  auto ctxs = make_ctxs(m, kThreads);
  auto rngs = make_rngs(kThreads, 4);
  const auto& run = h.run_ops(
      "dcas/mcas", kThreads, ops_each, [&](std::size_t tid, std::uint64_t) {
        auto& rng = rngs[tid];
        std::uint32_t x = static_cast<std::uint32_t>(rng.next_below(16));
        std::uint32_t y = static_cast<std::uint32_t>(rng.next_below(16));
        if (x == y) y = (y + 1) % 16;
        if (x > y) std::swap(x, y);
        const std::uint32_t a[] = {x, y};
        std::uint64_t snap[2];
        m.snapshot(ctxs[tid], a, snap);
        const std::uint64_t e[] = {snap[0], snap[1]};
        const std::uint64_t d[] = {(snap[0] + 1) & moir::Mcas::kMaxValue,
                                   (snap[1] + 1) & moir::Mcas::kMaxValue};
        m.mcas(ctxs[tid], a, e, d);
      });
  return run.mops_s();
}

double stm_mtps(moir::bench::Harness& h, std::uint64_t ops_each) {
  moir::Stm stm(kThreads, 32);
  for (std::size_t a = 0; a < 32; ++a) stm.set_initial(a, 1000);
  auto ctxs = make_ctxs(stm, kThreads);
  auto rngs = make_rngs(kThreads, 8);
  const auto& run = h.run_ops(
      "stm/bank", kThreads, ops_each, [&](std::size_t tid, std::uint64_t) {
        auto& rng = rngs[tid];
        std::uint32_t a = static_cast<std::uint32_t>(rng.next_below(32));
        std::uint32_t b = static_cast<std::uint32_t>(rng.next_below(32));
        if (a == b) b = (b + 1) % 32;
        if (a > b) std::swap(a, b);
        const std::uint32_t addrs[] = {a, b};
        stm.transact(
            ctxs[tid], addrs,
            [](const std::uint64_t* olds, std::uint64_t* news, unsigned,
               std::uint64_t amt) {
              const std::uint64_t m = olds[0] >= amt ? amt : 0;
              news[0] = olds[0] - m;
              news[1] = olds[1] + m;
            },
            1 + rng.next_below(5));
      });
  return run.mops_s();
}

double universal_mops(moir::bench::Harness& h, std::uint64_t ops_each) {
  struct Acc {
    std::uint64_t v[4];
  };
  moir::WideLlsc<32> dom(kThreads,
                         moir::UniversalObject<Acc>::required_width());
  moir::UniversalObject<Acc> obj(dom, Acc{{0, 0, 0, 0}});
  auto ctxs = make_ctxs(dom, kThreads);
  const auto& run = h.run_ops("universal/fig6", kThreads, ops_each,
                              [&](std::size_t tid, std::uint64_t) {
                                obj.apply(ctxs[tid], [tid](Acc a) {
                                  a.v[tid % 4] += 1;
                                  return a;
                                });
                              });
  return run.mops_s();
}

void tables(moir::bench::Harness& h) {
  h.header(
      "E9: previously-inapplicable algorithms over each substrate "
      "(Mops/s, 4 threads)",
      "algorithms based on LL/VL/SC [2,3,4,7,10,14] become applicable; STM "
      "can be implemented in existing systems");

  const std::uint64_t kOps = moir::bench::scaled(50000);

  moir::CasBackedLlsc<16> fig4;
  moir::FaultInjector faults;
  faults.set_spurious_probability(0.001);
  moir::RllBackedLlsc<16> fig5(&faults);
  moir::LockBackedLlsc<16> lock;

  moir::Table t("consumer throughput by substrate (Mops/s)");
  t.columns({"consumer", "fig4(CAS)", "fig5(RLL/RSC)", "fig7(bounded)",
             "lock baseline"});
  {
    moir::BoundedLlsc<> fig7(kThreads, 1);
    t.row({"counter (fetch-and-add)",
           moir::Table::num(counter_mops(h, "fig4", fig4, kOps), 2),
           moir::Table::num(counter_mops(h, "fig5", fig5, kOps), 2),
           moir::Table::num(counter_mops(h, "fig7", fig7, kOps), 2),
           moir::Table::num(counter_mops(h, "lock", lock, kOps), 2)});
  }
  {
    moir::BoundedLlsc<> fig7(kThreads + 1, 2);
    t.row({"treiber stack [CP.100's example]",
           moir::Table::num(stack_mops(h, "fig4", fig4, kOps), 2),
           moir::Table::num(stack_mops(h, "fig5", fig5, kOps), 2),
           moir::Table::num(stack_mops(h, "fig7", fig7, kOps), 2),
           moir::Table::num(stack_mops(h, "lock", lock, kOps), 2)});
  }
  {
    moir::BoundedLlsc<> fig7(kThreads + 1, 3);
    t.row({"michael-scott queue",
           moir::Table::num(queue_mops(h, "fig4", fig4, kOps), 2),
           moir::Table::num(queue_mops(h, "fig5", fig5, kOps), 2),
           moir::Table::num(queue_mops(h, "fig7", fig7, kOps), 2),
           moir::Table::num(queue_mops(h, "lock", lock, kOps), 2)});
  }
  h.table(t);

  moir::Table t2("multi-word consumers (over Figure 6 / Figure 4)");
  t2.columns({"consumer", "Mops/s"});
  t2.row({"universal object [7] (32-byte state, fig6)",
          moir::Table::num(universal_mops(h, kOps), 2)});
  t2.row({"stm bank transfer [14] (2-cell txns, fig4 cells)",
          moir::Table::num(stm_mtps(h, kOps), 2)});
  t2.row({"software DCAS [vs Greenwald-Cheriton hardware DCAS]",
          moir::Table::num(dcas_mops(h, kOps), 2)});
  h.table(t2);
}

}  // namespace

int main(int argc, char** argv) {
  moir::bench::Harness h(argc, argv, "bench_applications");
  if (h.micro()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  tables(h);
  return h.finish();
}
