// Treiber-style lock-free stack over small LL/VL/SC, with a node pool.
//
// Head and free-list are LL/SC variables holding node *indices* (they must
// fit the substrate's value field alongside its tag). Node reuse is exactly
// the ABA scenario of C++ Core Guidelines CP.100's "spot the bug" example:
// pop reads head=A and A.next=B; A is popped, recycled, and pushed back
// while we sleep; a plain CAS would then install a stale B. Here the SC
// fails because every successful SC on head changed the tag (Figures 4/5)
// or the announcement no longer matches (Figure 7) — the stack is correct
// on every conforming substrate, and tests prove it stays correct under
// aggressive recycling. On the NaiveCasLlsc strawman the same code corrupts
// itself, which test_aba_structures.cpp demonstrates.
// Two variants live here. TreiberStack recycles nodes through a bounded
// free list and never frees: safe against ABA purely by tags, but its
// payloads must be atomics (a popped node's slot is re-written immediately)
// and its footprint is the peak forever. ReclaimedTreiberStack at the
// bottom of this file instead retires popped nodes through a pluggable
// Reclaimer (src/reclaim/), which is what lets nodes be *genuinely freed*
// back to an allocator while concurrent poppers may still be reading them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/llsc_traits.hpp"
#include "reclaim/block_allocator.hpp"
#include "reclaim/reclaimer.hpp"
#include "util/assertion.hpp"

namespace moir {

// A stack of node indices with links held in a shared array. Building block
// for the value stack below (which uses one IndexStack for live nodes and
// one for the free list, sharing the link array: a node is always in
// exactly one of the two).
template <SmallLlscSubstrate S>
class IndexStack {
 public:
  using ThreadCtx = typename S::ThreadCtx;

  // `links` is shared between all stacks that exchange the same nodes.
  IndexStack(S& substrate, std::atomic<std::uint32_t>* links,
             std::uint64_t null_index)
      : substrate_(substrate), links_(links), null_(null_index) {
    substrate_.init_var(head_, null_);
  }

  // Pushes node `idx`; the caller must own the node exclusively.
  void push(ThreadCtx& ctx, std::uint32_t idx) {
    for (;;) {
      typename S::Keep keep;
      const std::uint64_t head = substrate_.ll(ctx, head_, keep);
      links_[idx].store(static_cast<std::uint32_t>(head),
                        std::memory_order_relaxed);
      if (substrate_.sc(ctx, head_, keep, idx)) return;
    }
  }

  // Pops a node; returns nothing if the stack is empty. The returned node
  // is exclusively owned by the caller.
  std::optional<std::uint32_t> pop(ThreadCtx& ctx) {
    for (;;) {
      typename S::Keep keep;
      const std::uint64_t head = substrate_.ll(ctx, head_, keep);
      if (head == null_) {
        substrate_.cl(ctx, keep);
        return std::nullopt;
      }
      // Reading the link of a node we do not own: may be stale, but then
      // head changed and the SC below fails (this is the ABA-critical
      // step).
      const std::uint32_t next =
          links_[head].load(std::memory_order_relaxed);
      if (substrate_.sc(ctx, head_, keep, next)) {
        return static_cast<std::uint32_t>(head);
      }
    }
  }

  bool empty() const { return substrate_.read(head_) == null_; }

  // Construction-time only, on an empty stack nobody else can see yet:
  // chains nodes [first, end), first < end, with plain stores so they pop
  // in ascending order. One init_var instead of one LL/SC push per node.
  void seed(std::uint32_t first, std::uint32_t end) {
    for (std::uint32_t i = first; i + 1 < end; ++i) {
      links_[i].store(i + 1, std::memory_order_relaxed);
    }
    links_[end - 1].store(static_cast<std::uint32_t>(null_),
                          std::memory_order_relaxed);
    substrate_.init_var(head_, first);
  }

 private:
  S& substrate_;
  typename S::Var head_;
  std::atomic<std::uint32_t>* links_;
  const std::uint64_t null_;
};

// Bounded lock-free stack of 64-bit payloads.
template <SmallLlscSubstrate S>
class TreiberStack {
 public:
  using ThreadCtx = typename S::ThreadCtx;

  // `init_ctx` is any thread context of the constructing thread; it is
  // only used to seed the free list (the constructor deliberately does not
  // mint its own context, which would consume a process slot on
  // pid-tracked substrates such as Figure 7's).
  TreiberStack(S& substrate, std::uint32_t capacity, ThreadCtx& init_ctx)
      : substrate_(substrate),
        capacity_(capacity),
        links_(std::make_unique<std::atomic<std::uint32_t>[]>(capacity)),
        payload_(std::make_unique<std::atomic<std::uint64_t>[]>(capacity)),
        live_(substrate, links_.get(), capacity),
        free_(substrate, links_.get(), capacity) {
    MOIR_ASSERT_MSG(capacity < substrate.max_value(),
                    "node indices (plus the null sentinel) must fit the "
                    "substrate's value field");
    for (std::uint32_t i = 0; i < capacity; ++i) free_.push(init_ctx, i);
  }

  // Returns false when the pool is exhausted.
  bool push(ThreadCtx& ctx, std::uint64_t value) {
    const auto idx = free_.pop(ctx);
    if (!idx) return false;
    payload_[*idx].store(value, std::memory_order_relaxed);
    live_.push(ctx, *idx);
    return true;
  }

  std::optional<std::uint64_t> pop(ThreadCtx& ctx) {
    const auto idx = live_.pop(ctx);
    if (!idx) return std::nullopt;
    const std::uint64_t value = payload_[*idx].load(std::memory_order_relaxed);
    free_.push(ctx, *idx);
    return value;
  }

  bool empty() const { return live_.empty(); }
  std::uint32_t capacity() const { return capacity_; }

 private:
  S& substrate_;
  const std::uint32_t capacity_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> links_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> payload_;
  IndexStack<S> live_;
  IndexStack<S> free_;
};

// ---------------------------------------------------------------------------
// Treiber stack whose popped nodes are RETIRED through a Reclaimer instead
// of recycled in place. The substrate's tags still make the head SC
// ABA-safe on their own; what the reclaimer adds is that a node's payload
// is not re-written (by the allocator's next customer) while a slow popper
// that already read `head = A` is still reading A's fields. pop() completes
// the hazard-pointer handshake with vl(): validating the LL's tag after
// protect() proves the head did not change — a fortiori A was not popped,
// so A was announced before any possible retire. Under EBR both protect()
// and the extra vl() cost nothing beyond the vl itself.
// ---------------------------------------------------------------------------
template <SmallLlscSubstrate S, reclaim::Reclaimer R>
class ReclaimedTreiberStack {
 public:
  struct ThreadCtx {
    typename S::ThreadCtx sub;
    typename R::ThreadCtx rec;
  };

  ReclaimedTreiberStack(S& substrate, unsigned max_threads,
                        std::uint32_t capacity)
      : substrate_(substrate),
        capacity_(capacity),
        alloc_(capacity,
               [&](Node& n) { substrate.init_var(n.next, capacity); }),
        reclaimer_(max_threads,
                   [this](std::uint32_t idx) { alloc_.free(idx); }) {
    MOIR_ASSERT_MSG(capacity < substrate.max_value(),
                    "node indices (plus the null sentinel) must fit the "
                    "substrate's value field");
    substrate_.init_var(head_, capacity_);
  }

  // ThreadCtxs must not outlive the stack.
  ThreadCtx make_ctx() {
    return ThreadCtx{substrate_.make_ctx(), reclaimer_.make_ctx()};
  }

  // Returns false when the allocator pool is exhausted — which, unlike the
  // bounded TreiberStack, includes nodes still in reclaimer limbo.
  bool push(ThreadCtx& ctx, std::uint64_t value) {
    reclaimer_.enter(ctx.rec);
    const auto idx = alloc_.alloc();
    if (!idx) {
      reclaimer_.exit(ctx.rec);
      return false;
    }
    Node& n = alloc_.node(*idx);
    n.value = value;
    for (;;) {
      typename S::Keep keep;
      const std::uint64_t head = substrate_.ll(ctx.sub, head_, keep);
      set_next(ctx, n, head);
      if (substrate_.sc(ctx.sub, head_, keep, *idx)) break;
    }
    reclaimer_.exit(ctx.rec);
    return true;
  }

  std::optional<std::uint64_t> pop(ThreadCtx& ctx) {
    reclaimer_.enter(ctx.rec);
    std::optional<std::uint64_t> out;
    for (;;) {
      typename S::Keep keep;
      const std::uint64_t head = substrate_.ll(ctx.sub, head_, keep);
      if (head == capacity_) {
        substrate_.cl(ctx.sub, keep);
        break;
      }
      const std::uint32_t h = static_cast<std::uint32_t>(head);
      reclaimer_.protect(ctx.rec, 0, h);
      if (!substrate_.vl(ctx.sub, head_, keep)) {
        // Head moved before the announcement was provably visible; the
        // node may already be retired (or freed). Restart.
        substrate_.cl(ctx.sub, keep);
        continue;
      }
      Node& n = alloc_.node(h);
      // Plain (non-atomic under EBR/HP semantics) payload read, made safe
      // purely by the protection above — THE point of this variant.
      const std::uint64_t value = n.value;
      const std::uint64_t next = substrate_.read(n.next);
      if (substrate_.sc(ctx.sub, head_, keep, next)) {
        reclaimer_.retire(ctx.rec, h);
        out = value;
        break;
      }
    }
    reclaimer_.clear(ctx.rec, 0);
    reclaimer_.exit(ctx.rec);
    return out;
  }

  bool empty() const { return substrate_.read(head_) == capacity_; }
  std::uint32_t capacity() const { return capacity_; }

  R& reclaimer() { return reclaimer_; }
  void flush(ThreadCtx& ctx) { reclaimer_.flush(ctx.rec); }

  // Quiescent-only leak probe: blocks currently in the allocator free list.
  std::uint64_t free_blocks_quiescent() const {
    return alloc_.free_count_quiescent();
  }

 private:
  struct Node {
    std::uint64_t value = 0;  // plain on purpose: the reclaimer makes it safe
    typename S::Var next;
  };

  // Owned-node link write still goes THROUGH the protocol so the tag keeps
  // advancing across alloc/free cycles (ms_queue.hpp's reset_next idiom).
  void set_next(ThreadCtx& ctx, Node& n, std::uint64_t next) {
    for (;;) {
      typename S::Keep keep;
      substrate_.ll(ctx.sub, n.next, keep);
      if (substrate_.sc(ctx.sub, n.next, keep, next)) return;
    }
  }

  S& substrate_;
  const std::uint32_t capacity_;
  typename S::Var head_;
  reclaim::BlockAllocator<Node> alloc_;
  R reclaimer_;  // last: its dtor frees through alloc_
};

}  // namespace moir
