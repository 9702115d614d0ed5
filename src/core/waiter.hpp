// waiter.hpp — the one suspend/degrade machinery for blocking primitives.
//
// Every blocking object in the tree (Mutex, Condvar, RwLock, Semaphore,
// UltBarrier, EventCounter, Channel, Future, the reactor's waits and qth's
// full/empty words) blocks the same way: the caller builds a stack-owned
// SyncWaiter node, arms a SyncBlocker, publishes the node into the
// primitive's SyncWaiterList under its guard, and waits; the releasing
// side unlinks the node under the same guard and calls wake_sync_waiter
// once the guard drops. Apart from the joiner slot (core/join.cpp), this
// is the only code that suspends or wakes a context. The blocker binds the
// node to whatever the calling context is:
//
//   ULT             -> kBlocking/kWakePending handshake + scheduler suspend
//                      (the stream keeps running other ready units)
//   attached stream -> drains its pools, walking its idle ladder between
//                      empty sweeps up to a park on the runtime lot
//   plain OS thread -> sleeps on a stack ThreadParker
//
// Lifetime contract, the same for every primitive:
//
//   * registration and wake never allocate;
//   * a registered waiter never returns before its wake (the waker holds a
//     pointer into its stack until then);
//   * wakers read a node's `next` BEFORE waking it — the woken context may
//     unwind and destroy the node immediately.
//
// Wake-latency observability: when Metrics is enabled, prepare() stamps the
// node and wait() records the park->wake delta into the registry histogram
// "sync.wake_latency_ticks" (plus the "sync.suspends" counter) — the CI
// sync-smoke leg asserts these are nonzero under contention.
#pragma once

#include <cstdint>
#include <optional>

#include "core/ult.hpp"
#include "sync/parking_lot.hpp"

namespace lwt::core {

class XStream;

/// One entry in a primitive's intrusive waiter queue. Lives on the waiting
/// context's stack; see the lifetime contract above. Primitives that carry
/// per-waiter state (a channel's value slot, a FEB word's key) derive from
/// it.
struct SyncWaiter {
    enum class Kind : std::uint8_t { kUlt, kParker };
    Kind kind = Kind::kUlt;
    void* ptr = nullptr;  ///< Ult* or sync::ThreadParker*
    SyncWaiter* next = nullptr;
    std::uint32_t flags = 0;  ///< primitive-private (e.g. RwLock writer bit)
    std::uint64_t block_tsc = 0;  ///< set at prepare() when Metrics enabled
};

/// FIFO of intrusive SyncWaiter nodes. Not thread-safe: callers mutate it
/// only under the owning primitive's guard.
class SyncWaiterList {
  public:
    void push_back(SyncWaiter* w) noexcept {
        w->next = nullptr;
        if (tail_ != nullptr) {
            tail_->next = w;
        } else {
            head_ = w;
        }
        tail_ = w;
    }

    SyncWaiter* pop_front() noexcept {
        SyncWaiter* w = head_;
        if (w != nullptr) {
            head_ = w->next;
            if (head_ == nullptr) {
                tail_ = nullptr;
            }
            w->next = nullptr;
        }
        return w;
    }

    [[nodiscard]] SyncWaiter* front() const noexcept { return head_; }
    [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }

    /// Unlink `target` if present (timed waits dequeue on deadline under
    /// the primitive's guard). True when it was found and removed — the
    /// caller then owns its wake; false means someone else dequeued it.
    bool remove(SyncWaiter* target) noexcept {
        return detach_if([target](const SyncWaiter* w) {
                   return w == target;
               }) != nullptr;
    }

    /// Detach the whole chain (linked through `next`); the list is empty
    /// afterwards. Walk the chain reading `next` before each wake.
    SyncWaiter* detach_all() noexcept {
        SyncWaiter* h = head_;
        head_ = nullptr;
        tail_ = nullptr;
        return h;
    }

    /// Detach every node `pred` accepts, in FIFO order, as a chain like
    /// detach_all()'s; the rest stay queued in order.
    template <typename Pred>
    SyncWaiter* detach_if(Pred pred) noexcept {
        SyncWaiter* chain = nullptr;
        SyncWaiter** chain_tail = &chain;
        SyncWaiter* prev = nullptr;
        for (SyncWaiter* w = head_; w != nullptr;) {
            SyncWaiter* const next = w->next;
            if (pred(w)) {
                if (prev != nullptr) {
                    prev->next = next;
                } else {
                    head_ = next;
                }
                if (tail_ == w) {
                    tail_ = prev;
                }
                w->next = nullptr;
                *chain_tail = w;
                chain_tail = &w->next;
            } else {
                prev = w;
            }
            w = next;
        }
        return chain;
    }

  private:
    SyncWaiter* head_ = nullptr;
    SyncWaiter* tail_ = nullptr;
};

/// Wake one dequeued node. The node must already be OFF every queue; after
/// this call the waiter may unwind, so the caller must have read `next`
/// first and must not touch the node again.
void wake_sync_waiter(SyncWaiter* w) noexcept;

/// Wake a whole detach_all() chain, reading each `next` before the wake.
void wake_sync_chain(SyncWaiter* chain) noexcept;

/// Block the calling OS thread until `parker` is notified; returns only
/// once notified(). A plain thread (`stream` null) sleeps on the parker.
/// An attached stream keeps draining its pools meanwhile, so the runtime
/// it is part of cannot starve: between empty sweeps it walks the
/// stream's idle ladder, whose last rung parks on the lot a lot-routed
/// parker notifies (XStream::run_until_notified) — pool pushes and the
/// notify both wake it. Shared by SyncBlocker and native joins.
void thread_wait_impl(sync::ThreadParker& parker, XStream* stream) noexcept;

/// Binds one block/wake cycle to the calling context. Single-use: Mesa
/// retry loops build a fresh blocker + node per round.
///
/// Usage:
///   SyncBlocker blocker;
///   SyncWaiter node;
///   blocker.prepare(node);            // arm BEFORE the node is visible
///   { guard; if (fast path) { blocker.cancel(node); return; }
///     queue.push_back(&node); }
///   blocker.wait();                   // suspend / drain / park
class SyncBlocker {
  public:
    SyncBlocker() noexcept;
    SyncBlocker(const SyncBlocker&) = delete;
    SyncBlocker& operator=(const SyncBlocker&) = delete;

    /// Arm the handshake and fill the node's kind/ptr (+ latency stamp).
    /// Must run before the node can be seen by any waker: a ULT enters
    /// kBlocking here so a wake racing with the suspend is not lost.
    void prepare(SyncWaiter& node) noexcept;

    /// Disarm after a fast path that never published the node (or removed
    /// it again under the same guard). The blocker may not be reused.
    void cancel(SyncWaiter& node) noexcept;

    /// Block until wake_sync_waiter() hits the prepared node. ULTs suspend
    /// through the scheduler; an attached stream drains progress() and
    /// walks its idle ladder (thread_wait_impl); a plain thread sleeps on
    /// the parker.
    void wait() noexcept;

  private:
    Ult* self_;        ///< non-null when the caller is a ULT
    XStream* stream_;  ///< attached stream (thread path only)
    SyncWaiter* node_ = nullptr;
    std::optional<sync::ThreadParker> parker_;  ///< thread path only
};

}  // namespace lwt::core
