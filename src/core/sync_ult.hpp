// sync_ult.hpp — synchronisation objects usable from inside ULTs.
//
// Blocking here never blocks the OS thread: a waiting ULT suspends through
// the scheduler (kBlocked protocol) so the stream keeps executing other
// units — the core reason LWT joins beat Pthreads joins in the paper.
// Each primitive also degrades gracefully when called from plain thread
// code (ThreadParker sleep; an attached stream drains its pools while
// waiting), because the paper's main thread joins from outside any ULT.
//
// Every primitive here, EventCounter included, blocks through the shared
// waiter machinery in core/waiter.hpp: a stack-owned SyncWaiter queued on
// a SyncWaiterList under the primitive's guard, one SyncBlocker per wait
// round, Mesa-style wakeups (a woken waiter re-contends, so condition
// waits need predicate loops), and wake-latency telemetry in the
// "sync.wake_latency_ticks" registry histogram. docs/sync.md is the
// catalogue; docs/join_path.md describes the underlying handshake.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/ult.hpp"
#include "core/waiter.hpp"
#include "sync/parking_lot.hpp"
#include "sync/spinlock.hpp"

namespace lwt::core {

/// Counts outstanding events; wait() returns when the count reaches zero.
/// This is the join object behind most personalities (and Go's WaitGroup).
///
/// Waiters register a SyncWaiter under the guard and the signal() that
/// drives the count to zero wakes them directly (wake_sync_waiter). No poll
/// anywhere (docs/join_path.md §4).
///
/// Lifetime contract (why the count word carries a waiters bit): the
/// counter is typically stack-owned by the waiter and destroyed the moment
/// wait() returns, possibly while the zero-crossing signal() is still in
/// flight on another thread. signal() therefore never touches counter
/// memory after the decrement unless a waiter is registered — and a
/// registered waiter cannot return until that signaller's wake, which
/// happens after its last counter access. Like Go's WaitGroup, re-raising
/// the count from zero (add() for a new round) must happen-after the
/// previous round's wait() returned.
class EventCounter {
  public:
    explicit EventCounter(std::int64_t initial = 0) noexcept
        : state_(initial << kCountShift) {}
    EventCounter(const EventCounter&) = delete;
    EventCounter& operator=(const EventCounter&) = delete;

    /// Register `n` more outstanding events.
    void add(std::int64_t n = 1) noexcept {
        state_.fetch_add(n << kCountShift, std::memory_order_relaxed);
    }

    /// Mark one event complete; the completion that reaches zero wakes
    /// every registered waiter. Safe to call from any context, including
    /// the terminator path: with no waiter registered the decrement is the
    /// signaller's LAST access to the counter, and the registered-waiter
    /// drain touches only waiter-owned stack nodes once the guard drops.
    void signal() noexcept;

    /// Cooperatively wait until all events completed: a ULT suspends, an
    /// attached stream drains its pools and parks on its lot, a plain
    /// thread blocks. Returns once the count is <= 0.
    void wait() noexcept;

    [[nodiscard]] std::int64_t value() const noexcept {
        return state_.load(std::memory_order_acquire) >> kCountShift;
    }

    /// Rearm for reuse (qt_sinc_reset shape). Caller must guarantee no
    /// concurrent waiters.
    void reset(std::int64_t v = 0) noexcept {
        state_.store(v << kCountShift, std::memory_order_relaxed);
    }

  private:
    // state_ layout: (count << 1) | waiters-present bit. Count and flag
    // share one word so the decrement atomically learns whether anyone is
    // registered: a zero-crossing signal() that reads the bit clear is
    // DONE — it must not touch the counter again, because the fast-path
    // waiter that now observes value() <= 0 may return and destroy it.
    static constexpr int kCountShift = 1;
    static constexpr std::int64_t kWaitersBit = 1;
    static constexpr std::int64_t kCountOne = std::int64_t{1} << kCountShift;
    static constexpr std::int64_t count_of(std::int64_t s) noexcept {
        return s >> kCountShift;
    }

    /// Push `node` and set the waiters bit iff the count is still
    /// positive (one CAS: either the zero-crossing decrement sees the bit
    /// and drains us, or we see count <= 0 and never block). Returns
    /// false when the caller must not wait.
    bool register_waiter(SyncWaiter& node) noexcept;

    /// Zero-crossing drain: detach the whole list under the guard, then
    /// wake each node outside it. Only waiter-owned memory is touched
    /// after the guard drops.
    void wake_all_waiters() noexcept;

    std::atomic<std::int64_t> state_;
    sync::Spinlock guard_;
    SyncWaiterList waiters_;  ///< guarded by guard_
};

/// Mutual exclusion that suspends the waiter instead of spinning its
/// stream: a brief bounded spin (uncontended handoffs resolve in-cache),
/// then the caller parks on an intrusive FIFO. Works from ULTs AND plain
/// threads — the old UltMutex spun OS-thread callers forever. Mesa-style
/// wakeups: unlock pops one waiter, which re-contends (barging allowed; no
/// convoy on the handoff).
class Mutex {
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() noexcept;
    bool try_lock() noexcept {
        bool expected = false;
        return locked_.compare_exchange_strong(expected, true,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed);
    }
    void unlock() noexcept;

  private:
    std::atomic<bool> locked_{false};
    sync::Spinlock guard_;
    SyncWaiterList waiters_;  ///< guarded by guard_
};

/// Historical name; the suspend-based Mutex replaced the spin-degrade one.
using UltMutex = Mutex;

/// Condition variable over core::Mutex. Usable from ULTs and plain
/// threads alike (the old UltCondVar asserted ULT context). Mesa
/// semantics: always wait in a predicate loop —
///     cv.wait(m, [&] { return ready; });
class Condvar {
  public:
    Condvar() = default;
    Condvar(const Condvar&) = delete;
    Condvar& operator=(const Condvar&) = delete;

    /// Atomically release `mutex` and block; reacquires before returning.
    /// "Atomically" in the condvar sense: a notify issued after this
    /// caller released the mutex is never lost (registration happens
    /// before the release).
    void wait(Mutex& mutex) noexcept;

    /// Predicate loop (spurious/Mesa-wakeup safe).
    template <typename Predicate>
    void wait(Mutex& mutex, Predicate pred) {
        while (!pred()) {
            wait(mutex);
        }
    }

    void notify_one() noexcept;
    void notify_all() noexcept;

  private:
    sync::Spinlock guard_;
    SyncWaiterList waiters_;  ///< guarded by guard_
};

/// Historical name for the ULT-aware condition variable.
using UltCondVar = Condvar;

/// Writer-preferring shared/exclusive lock (std::shared_mutex shape,
/// ABT_rwlock semantics). Writer preference bounds writer starvation: once
/// a writer is registered, fresh readers stop acquiring until it has had
/// its turn; readers woken by an unlock bypass the gate (it is their
/// turn). Mesa wakeups: unlock wakes either the head writer or the run of
/// readers at the head of the queue.
class RwLock {
  public:
    RwLock() = default;
    RwLock(const RwLock&) = delete;
    RwLock& operator=(const RwLock&) = delete;

    void lock() noexcept;  ///< exclusive
    bool try_lock() noexcept {
        std::uint32_t expected = 0;
        return state_.compare_exchange_strong(expected, kWriterBit,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed);
    }
    void unlock() noexcept;

    void lock_shared() noexcept;
    /// Fails when a writer holds the lock OR is waiting (the preference
    /// gate — fresh readers queue behind registered writers).
    bool try_lock_shared() noexcept {
        if (waiting_writers_.load(std::memory_order_acquire) > 0) {
            return false;
        }
        std::uint32_t s = state_.load(std::memory_order_relaxed);
        while ((s & kWriterBit) == 0) {
            if (state_.compare_exchange_weak(s, s + kReaderOne,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
                return true;
            }
        }
        return false;
    }
    void unlock_shared() noexcept;

  private:
    static constexpr std::uint32_t kWriterBit = 1;
    static constexpr std::uint32_t kReaderOne = 2;
    static constexpr std::uint32_t kWriterWaiter = 1;  // SyncWaiter::flags

    /// Under guard_: pop and wake the head writer, or the run of readers
    /// at the head (up to the first queued writer).
    void wake_next_locked(SyncWaiter*& chain) noexcept;

    // state_: bit 0 = writer held, bits 1.. = reader count.
    std::atomic<std::uint32_t> state_{0};
    std::atomic<std::uint32_t> waiting_writers_{0};
    sync::Spinlock guard_;
    SyncWaiterList waiters_;  ///< guarded by guard_
};

/// Counting semaphore (Converse CthSemaphore / POSIX sem shape). release()
/// may run from any context, including completion callbacks; acquire()
/// suspends like every other primitive here.
class Semaphore {
  public:
    explicit Semaphore(std::int64_t initial = 0) noexcept : count_(initial) {}
    Semaphore(const Semaphore&) = delete;
    Semaphore& operator=(const Semaphore&) = delete;

    void acquire() noexcept;
    bool try_acquire() noexcept {
        std::int64_t c = count_.load(std::memory_order_relaxed);
        while (c > 0) {
            if (count_.compare_exchange_weak(c, c - 1,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
                return true;
            }
        }
        return false;
    }
    void release(std::int64_t n = 1) noexcept;

    [[nodiscard]] std::int64_t value() const noexcept {
        return count_.load(std::memory_order_acquire);
    }

  private:
    std::atomic<std::int64_t> count_;
    sync::Spinlock guard_;
    SyncWaiterList waiters_;  ///< guarded by guard_
};

/// Cooperative barrier usable by any mix of ULTs and plain threads.
/// Suspend-based since the sync-suite PR: a non-last arriver parks on the
/// intrusive list and the last arriver wakes the whole round — the old
/// version spun every waiter on yield_anywhere(), monopolising streams.
/// Generation counting makes the barrier immediately reusable: the last
/// arriver resets the arrival count under the guard before anyone wakes.
class UltBarrier {
  public:
    explicit UltBarrier(std::size_t participants) noexcept
        : participants_(participants) {}
    UltBarrier(const UltBarrier&) = delete;
    UltBarrier& operator=(const UltBarrier&) = delete;

    void arrive_and_wait() noexcept;

    [[nodiscard]] std::size_t participants() const noexcept {
        return participants_;
    }

    /// Completed rounds (tests/diagnostics).
    [[nodiscard]] std::uint64_t generation() const noexcept {
        return generation_.load(std::memory_order_acquire);
    }

  private:
    const std::size_t participants_;
    sync::Spinlock guard_;
    std::size_t arrived_ = 0;  ///< guarded by guard_
    std::atomic<std::uint64_t> generation_{0};
    SyncWaiterList waiters_;  ///< guarded by guard_
};

}  // namespace lwt::core
