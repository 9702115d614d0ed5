// parking_lot.hpp — eventcount-style parking for idle execution streams.
//
// An idle stream that has exhausted its spin/backoff budget blocks here
// until a producer publishes work. The protocol is the classic eventcount
// (Vyukov): waiters register, take a ticket (the current epoch), re-check
// their work predicate, then sleep until the epoch moves. Producers bump
// the epoch only when a waiter is registered, so the producer fast path is
// one seq_cst fence plus one load — no write to the lot's shared cache
// lines while nobody waits. "Basic Lock Algorithms in Lightweight Thread
// Environments" (PAPERS.md) motivates it: spinning wastes the cores the
// paper's Figures 4-8 measure, naive sleeping loses wakeups.
//
// The lot and ThreadParker each sleep in futex(2) on one 32-bit word. A
// wake issued after the store that ends a wait can reach the word after
// its waiter returned: it then wakes nobody, or spuriously wakes a later
// waiter at the same address, so every wait loops on its predicate
// (docs/sync.md §4). A registered waiter may block in a ParkSeat instead:
// the I/O reactor's epoll seat (core/reactor.hpp), which a notify kicks.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <ctime>

#include "arch/cpu.hpp"

namespace lwt::sync {

namespace detail {

/// Raw futex(2) on a process-private word: C++20 atomic::wait has no
/// timeout. A wait may return early (a signal, a wake meant for an earlier
/// waiter at the same address), so callers loop on their predicate. A wake
/// reads nothing: a notifier whose waiter may have freed the word passes
/// the address it took before its store.
using FutexWord = std::atomic<std::uint32_t>;

inline void futex_wait(FutexWord& word, std::uint32_t value,
                       const timespec* timeout = nullptr) noexcept {
    syscall(SYS_futex, &word, FUTEX_WAIT_PRIVATE, value, timeout, nullptr, 0);
}

inline void futex_wake(FutexWord* word, int count) noexcept {
    syscall(SYS_futex, word, FUTEX_WAKE_PRIVATE, count, nullptr, nullptr, 0);
}

}  // namespace detail

/// A wait a parking waiter may block in instead of on the lot's epoch (the
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
        if (registered() != 0) {
            wake(/*all=*/true);
        }
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
    [[nodiscard]] std::uint32_t prepare_park() noexcept {
        waiters_.fetch_add(1, std::memory_order_seq_cst);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        return epoch_.load(std::memory_order_acquire);
    }

    /// Waiter side: abandon a prepare_park() (the re-check found work).
    void cancel_park() noexcept {
        waiters_.fetch_sub(1, std::memory_order_release);
    }

    /// Waiter side, step 2: sleep on the epoch until it leaves `ticket` or
    /// the timeout elapses (safety net against producers that bypass the
    /// lot). Returns true when woken by a notify, false on timeout.
    bool park(std::uint32_t ticket, std::chrono::microseconds timeout) {
        using namespace std::chrono;
        const auto deadline = steady_clock::now() + timeout;
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        for (nanoseconds left = timeout;
             left.count() > 0 && epoch_.load() == ticket;  // seq_cst: Dekker
             left = deadline - steady_clock::now()) {
            const timespec ts{left.count() / 1'000'000'000,
                              left.count() % 1'000'000'000};
            detail::futex_wait(epoch_, ticket, &ts);
        }
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
        waiters_.fetch_sub(1, std::memory_order_release);
        return epoch_.load(std::memory_order_acquire) != ticket;
    }

    /// Waiter side, step 2, blocking in `seat` instead of on the epoch:
    /// publish the seat, re-check the epoch, then call `sit()`, which
    /// blocks until seat.kick(), the seat's own events or its timeout and
    /// returns false only on the timeout. Dekker with wake(): the waiter
    /// stores the seat then loads the epoch, a notifier bumps the epoch
    /// then loads the seat, so either the waiter sees the notify or the
    /// notifier kicks the seat. One waiter per lot may sit at a time.
    /// Returns true unless the sit timed out with no notify.
    template <typename Sit>
    bool park_in(ParkSeat& seat, std::uint32_t ticket, Sit&& sit) {
        seat_.store(&seat, std::memory_order_seq_cst);
        const bool woken =
            epoch_.load(std::memory_order_seq_cst) != ticket || sit();
        seat_.store(nullptr, std::memory_order_relaxed);
        waiters_.fetch_sub(1, std::memory_order_release);
        return woken || epoch_.load(std::memory_order_acquire) != ticket;
    }

    /// Current epoch: bumped exactly once per notify that found a waiter
    /// registered (prepare_park() without its park() or cancel_park()
    /// yet). Tests register one and use the delta to count a code path's
    /// notifies (e.g. push_bulk's one-notify-per-batch contract).
    [[nodiscard]] std::uint32_t epoch() const noexcept {
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
    /// at once), kick a seated waiter, then futex-wake the epoch only if a
    /// park may sleep on it. Dekker with park(), which counts itself in
    /// sleepers_ before it reads the epoch: this load sees the count, or
    /// that read sees the bump.
    void wake(bool all) noexcept {
        epoch_.fetch_add(1, std::memory_order_seq_cst);
        notifies_.fetch_add(1, std::memory_order_relaxed);
        if (ParkSeat* seat = seat_.load(std::memory_order_seq_cst)) {
            seat->kick();
        }
        if (sleepers_.load(std::memory_order_seq_cst) != 0) {
            detail::futex_wake(&epoch_, all ? INT_MAX : 1);
        }
    }

    alignas(arch::kCacheLine) detail::FutexWord epoch_{0};
    alignas(arch::kCacheLine) std::atomic<std::uint64_t> waiters_{0};
    std::atomic<std::uint32_t> sleepers_{0};  ///< parks in park()'s loop
    std::atomic<ParkSeat*> seat_{nullptr};    ///< the seated waiter's seat
    std::atomic<std::uint64_t> notifies_{0};
    std::atomic<std::uint64_t> wakeups_avoided_{0};
};

/// One-shot waiter for an OS thread blocked in a join or counter wait (the
/// non-ULT side of the direct-handoff protocol, docs/join_path.md). notify()
/// stores the word, then wakes the waiter:
///  - bare (lot == nullptr): by a futex wake, only if wait() went to sleep
///    (threads that are not execution streams, e.g. Go's main thread);
///  - lot-routed: by a broadcast on the lot, where an *attached stream*
///    parks so pool pushes wake it too (XStream::run_until_notified).
/// Lifetime: the waiter owns the parker (stack allocation) and may destroy
/// it the moment it reads notified() true. So notify() reads the lot and
/// the word's address first; after the store, notify() reaches the word
/// only through the kernel, and touches only the longer-lived lot.
class ThreadParker {
  public:
    explicit ThreadParker(ParkingLot* lot = nullptr) noexcept : lot_(lot) {}
    ThreadParker(const ThreadParker&) = delete;
    ThreadParker& operator=(const ThreadParker&) = delete;

    [[nodiscard]] bool notified() const noexcept {
        return word_.load(std::memory_order_acquire) == kNotified;
    }

    [[nodiscard]] ParkingLot* lot() const noexcept { return lot_; }

    /// Waker side; callable exactly once, from any thread.
    void notify() noexcept {
        ParkingLot* const lot = lot_;
        detail::FutexWord* const word = &word_;
        if (word_.exchange(kNotified, std::memory_order_release) == kAsleep) {
            detail::futex_wake(word, 1);
        } else if (lot != nullptr) {
            lot->notify_all();
        }
    }

    /// Block until notified, asleep on the word.
    void wait() noexcept {
        std::uint32_t idle = kIdle;
        word_.compare_exchange_strong(idle, kAsleep, std::memory_order_relaxed);
        while (!notified()) {
            detail::futex_wait(word_, kAsleep);
        }
    }

  private:
    enum : std::uint32_t { kIdle, kNotified, kAsleep /* wait() sleeps */ };

    ParkingLot* const lot_;
    detail::FutexWord word_{kIdle};
};

}  // namespace lwt::sync
