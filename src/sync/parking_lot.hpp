// parking_lot.hpp — eventcount-style parking for idle execution streams.
//
// An idle stream that has exhausted its spin/backoff budget blocks here
// until a producer publishes work. The protocol is the classic eventcount
// (Vyukov): waiters register, take a ticket (the current epoch), re-check
// their work predicate, then sleep until the epoch moves. Producers bump
// the epoch and take the mutex only when a waiter is registered, so the
// producer fast path is one seq_cst fence plus one load — no write to the
// lot's shared cache lines while nobody waits.
//
// "Basic Lock Algorithms in Lightweight Thread Environments" (PAPERS.md)
// motivates the discipline: unconditional spinning wastes the cores the
// paper's Figures 4-8 measure, while naive sleeping loses wakeups; the
// epoch handshake gives both liveness and an idle CPU.
//
// A registered waiter may block in a ParkSeat instead of the condvar: the
// I/O reactor's epoll seat (core/reactor.hpp), where an idle stream waits
// for readiness and pool pushes at once. The lot then kicks the seat on a
// notify (park_in).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "arch/cpu.hpp"

namespace lwt::sync {

/// A wait a parking waiter may block in instead of the lot's condvar (the
/// reactor's epoll seat). The lot only needs to end it.
class ParkSeat {
  public:
    /// End the seat's wait in progress, or make its next one return at
    /// once. Callable from any thread.
    virtual void kick() noexcept = 0;

  protected:
    ~ParkSeat() = default;
};

/// Shared wait point for parked streams. One lot typically serves one
/// runtime instance (all its pools notify the same lot; any parked stream
/// may be the right one to wake, so wakeups are broadcast).
class ParkingLot {
  public:
    ParkingLot() = default;
    ParkingLot(const ParkingLot&) = delete;
    ParkingLot& operator=(const ParkingLot&) = delete;

    /// Producer side: publish-then-notify. Call AFTER the work is visible
    /// in its queue, never before — the waiter's re-check must be able to
    /// see it. Cheap when nobody is registered: a fence and a load.
    void notify_all() noexcept {
        if (registered() == 0) {
            return;
        }
        wake(/*all=*/true);
    }

    /// Like notify_all(), but wakes at most ONE parked waiter. Correct
    /// only when any parked consumer can make progress on the published
    /// work (a pool every consumer drains); keep notify_all for private
    /// pools, bulk publishes, and teardown. Each parked waiter this call
    /// leaves asleep is counted in wakeups_avoided() — the thundering-herd
    /// cost the broadcast path would have paid.
    void notify_one() noexcept {
        const std::uint64_t parked = registered();
        if (parked == 0) {
            return;
        }
        if (parked > 1) {
            wakeups_avoided_.fetch_add(parked - 1, std::memory_order_relaxed);
        }
        wake(/*all=*/false);
    }

    /// Waiter side, step 1: register interest and take a ticket. Must be
    /// followed by re-checking the work predicate, then either park() or
    /// cancel_park(). The fence pairs with the one in registered(): either
    /// the producer sees this registration, or the re-check sees its work.
    [[nodiscard]] std::uint64_t prepare_park() noexcept {
        waiters_.fetch_add(1, std::memory_order_seq_cst);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        return epoch_.load(std::memory_order_acquire);
    }

    /// Waiter side: abandon a prepare_park() (the re-check found work).
    void cancel_park() noexcept {
        waiters_.fetch_sub(1, std::memory_order_release);
    }

    /// Waiter side, step 2: block until the epoch leaves `ticket` or the
    /// timeout elapses (safety net against producers that bypass the lot).
    /// Returns true when woken by a notify, false on timeout.
    bool park(std::uint64_t ticket, std::chrono::microseconds timeout) {
        bool notified;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            notified = cv_.wait_for(lock, timeout, [&] {
                return epoch_.load(std::memory_order_acquire) != ticket;
            });
        }
        waiters_.fetch_sub(1, std::memory_order_release);
        return notified;
    }

    /// Waiter side, step 2, blocking in `seat` instead of the condvar:
    /// publish the seat, re-check the epoch, then call `sit()`, which
    /// blocks until seat.kick(), the seat's own events or its timeout and
    /// returns false only on the timeout. Dekker with wake(): the waiter
    /// stores the seat then loads the epoch, a notifier bumps the epoch
    /// then loads the seat, so either the waiter sees the notify or the
    /// notifier kicks the seat. One waiter per lot may sit at a time.
    /// Returns true unless the sit timed out with no notify.
    template <typename Sit>
    bool park_in(ParkSeat& seat, std::uint64_t ticket, Sit&& sit) {
        seat_.store(&seat, std::memory_order_seq_cst);
        const bool woken =
            epoch_.load(std::memory_order_seq_cst) != ticket || sit();
        seat_.store(nullptr, std::memory_order_relaxed);
        waiters_.fetch_sub(1, std::memory_order_release);
        return woken || epoch_.load(std::memory_order_acquire) != ticket;
    }

    /// Current epoch: bumped exactly once per notify that found a waiter
    /// registered (prepare_park() without its park() or cancel_park()
    /// yet). Tests register one and use the delta to assert how many
    /// notifies a code path issued (e.g. push_bulk's one-notify-per-batch
    /// contract).
    [[nodiscard]] std::uint64_t epoch() const noexcept {
        return epoch_.load(std::memory_order_acquire);
    }

    /// Streams currently inside prepare_park()/park() (diagnostics).
    [[nodiscard]] std::uint64_t waiters() const noexcept {
        return waiters_.load(std::memory_order_acquire);
    }

    /// Notifies that found at least one parked waiter (diagnostics).
    [[nodiscard]] std::uint64_t notifies() const noexcept {
        return notifies_.load(std::memory_order_relaxed);
    }

    /// Parked waiters a notify_one() deliberately left asleep — the
    /// wakeups the old broadcast-on-every-push behaviour would have paid.
    [[nodiscard]] std::uint64_t wakeups_avoided() const noexcept {
        return wakeups_avoided_.load(std::memory_order_relaxed);
    }

    /// Zero the diagnostic counters (NOT the epoch: parked tickets depend
    /// on it). Runtime::reset_stats scopes bench measurements with this.
    void reset_wake_stats() noexcept {
        notifies_.store(0, std::memory_order_relaxed);
        wakeups_avoided_.store(0, std::memory_order_relaxed);
    }

  private:
    /// Waiters registered as seen by a producer that just published. The
    /// seq_cst fence orders the publish before the load (Dekker with
    /// prepare_park): reading 0 means any waiter registering later will
    /// find the work in its re-check, so skipping the wake is safe. The
    /// acquire makes a seat cleared by a waiter that has since left
    /// visible to wake().
    [[nodiscard]] std::uint64_t registered() const noexcept {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        return waiters_.load(std::memory_order_acquire);
    }

    /// Slow path: move the epoch (a registered waiter's park then returns
    /// at once), kick a seated waiter, then signal under the mutex, which
    /// fences against a waiter between its epoch check and the actual
    /// block.
    void wake(bool all) noexcept {
        epoch_.fetch_add(1, std::memory_order_seq_cst);
        notifies_.fetch_add(1, std::memory_order_relaxed);
        if (ParkSeat* seat = seat_.load(std::memory_order_seq_cst)) {
            seat->kick();
        }
        std::lock_guard<std::mutex> guard(mutex_);
        if (all) {
            cv_.notify_all();
        } else {
            cv_.notify_one();
        }
    }

    alignas(arch::kCacheLine) std::atomic<std::uint64_t> epoch_{0};
    alignas(arch::kCacheLine) std::atomic<std::uint64_t> waiters_{0};
    std::atomic<ParkSeat*> seat_{nullptr};  ///< the seated waiter's seat
    std::atomic<std::uint64_t> notifies_{0};
    std::atomic<std::uint64_t> wakeups_avoided_{0};
    std::mutex mutex_;
    std::condition_variable cv_;
};

/// One-shot waiter for an OS thread blocked in a join or counter wait (the
/// non-ULT side of the direct-handoff protocol, docs/join_path.md). Two
/// routings:
///
///  - bare (lot == nullptr): notify() flips the flag and signals the
///    condvar; wait() blocks on it. Used by threads that are not execution
///    streams (e.g. the Go-personality main thread).
///  - lot-routed (lot != nullptr): notify() flips the flag and broadcasts
///    on the given ParkingLot instead. An *attached stream* waiter parks on
///    its runtime's lot so BOTH pool pushes and the termination wake it —
///    it keeps draining its pools while waiting
///    (XStream::run_until_notified).
///
/// Lifetime: the waiter owns the parker (stack allocation) and must not
/// return until notified() is true. The flag store is notify()'s last
/// access to the parker: the lot-routed path reads the lot pointer before
/// it and touches only the (longer-lived) lot afterwards; the bare path
/// signals the condvar under the mutex first and stores the flag after
/// unlocking. A waiter may therefore poll notified() without the mutex —
/// the attached-stream wait does, between units — and destroy the parker
/// the moment it reads true.
class ThreadParker {
  public:
    explicit ThreadParker(ParkingLot* lot = nullptr) noexcept : lot_(lot) {}
    ThreadParker(const ThreadParker&) = delete;
    ThreadParker& operator=(const ThreadParker&) = delete;

    [[nodiscard]] bool notified() const noexcept {
        return done_.load(std::memory_order_acquire);
    }

    [[nodiscard]] ParkingLot* lot() const noexcept { return lot_; }

    /// Waker side; callable exactly once, from any thread.
    void notify() noexcept {
        ParkingLot* lot = lot_;  // before the store: the waiter may return
                                 // (and destroy us) the moment done_ flips
        if (lot != nullptr) {
            done_.store(true, std::memory_order_release);
            lot->notify_all();
            return;
        }
        {
            std::lock_guard<std::mutex> guard(mutex_);
            signalled_ = true;
            cv_.notify_one();
        }
        // Last: a waiter that polls the flag without the mutex returns (and
        // destroys us) as soon as it flips.
        done_.store(true, std::memory_order_release);
    }

    /// Block until notified. Bare parkers only — a lot-routed waiter must
    /// park on the lot (notify() never signals the member condvar then).
    void wait() {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return signalled_; });
        }
        // Woken by the condvar, the notifier is past its signal but may
        // still be unlocking: wait out its final flag store before the
        // caller may destroy us.
        arch::Backoff backoff;
        while (!notified()) {
            backoff.pause();
        }
    }

  private:
    ParkingLot* const lot_;
    std::atomic<bool> done_{false};
    bool signalled_ = false;  // bare path; guarded by mutex_
    std::mutex mutex_;
    std::condition_variable cv_;
};

}  // namespace lwt::sync
