// reactor.hpp — the per-runtime async I/O reactor: epoll-backed fd
// readiness, a timer wheel for deadlines, and direct suspend/wake of the
// waiting context through the same handshake every blocking primitive in
// core uses (core/waiter.hpp).
//
// A ULT that waits here parks on a stack-owned wait node and its execution
// stream keeps running other units — the loose coupling of the async
// programming model from the transport that "Fibers are not (P)Threads"
// argues for, and the Go-netpoller shape the gol personality implies. A
// plain OS thread degrades to a ThreadParker sleep; an attached stream
// drains its pools while waiting (SyncBlocker does all three).
//
// Idle execution streams are the poller, like Go's and Tokio's workers
// (docs/io_reactor.md §2). While the global reactor has fd waiters or
// pending timers:
//
//   * one idle stream at a time, the spinner, polls it with try_poll()
//     on each spin/yield step of its idle ladder, and hands the token on
//     before it runs a unit; every other stream whose ladder can park goes
//     straight to its park rung;
//   * a stream at its park rung takes the single seat, the right to
//     block in epoll_wait, when it is free, and parks there instead of on
//     its lot's epoch; a lot notify kicks the seat (sync::ParkSeat);
//   * readiness a stream's own loop notices for a ULT it can run is
//     claimed into that stream's next-unit hint, not queued and notified;
//   * the dedicated poller thread (default on; LWT_IO_POLLER=0 disables)
//     is a backstop: it stays out of epoll_wait while a stream holds the
//     spinner token or the seat, and takes the seat once none has for a
//     grace period (every stream busy, or no runtime exists), so I/O
//     still completes when every stream runs CPU work, up to a nap
//     (0.5 ms) late.
//
// Waits are edge-owned: each waiter registers in the fd's per-direction
// slot, the fd is (re)armed EPOLLONESHOT, and whichever of {readiness
// event, deadline timer, forget()} claims the waiter's outcome word first
// issues its single wake. The loser never touches the node again. Wait
// nodes and timers live on the waiting context's stack under the same
// lifetime contract as every core primitive: a registered waiter never
// returns before its wake, and a timed waiter never returns before its
// timer is quiesced (cancel_timer blocks out an in-flight callback).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "core/metrics.hpp"
#include "core/waiter.hpp"
#include "sync/parking_lot.hpp"
#include "sync/spinlock.hpp"

struct epoll_event;

namespace lwt::core {

class XStream;

/// Outcome of a reactor wait.
enum class IoStatus : std::uint8_t {
    kReady,     ///< fd became ready (or error-readable: caller's syscall tells)
    kTimedOut,  ///< the Deadline expired first
    kCanceled,  ///< forget(fd) — typically the socket was closed under us
    kError,     ///< registration failed (bad fd, double wait, epoll error)
};

[[nodiscard]] const char* io_status_name(IoStatus s) noexcept;

/// Absolute point in time a wait gives up, or "none" (wait forever).
/// Monotonic (steady_clock): wall-clock jumps never fire I/O deadlines.
class Deadline {
  public:
    using Clock = std::chrono::steady_clock;

    constexpr Deadline() noexcept = default;  ///< none (no deadline)

    [[nodiscard]] static Deadline none() noexcept { return {}; }
    [[nodiscard]] static Deadline at(Clock::time_point tp) noexcept {
        Deadline d;
        d.some_ = true;
        d.when_ = tp;
        return d;
    }
    [[nodiscard]] static Deadline in(std::chrono::nanoseconds delta) noexcept {
        return at(Clock::now() + delta);
    }

    [[nodiscard]] bool has_value() const noexcept { return some_; }
    [[nodiscard]] Clock::time_point when() const noexcept { return when_; }

  private:
    bool some_ = false;
    Clock::time_point when_{};
};

/// Epoll-based readiness reactor + timer wheel. One instance is normally
/// shared per process (global()) — every personality's units are core
/// ULTs, so one reactor serves all five — but the class is a plain
/// constructible object, so a runtime that wants private I/O isolation can
/// own its own (it must then drive try_poll()/its own poller itself; only
/// the global instance is polled by idle streams).
class Reactor final : public sync::ParkSeat {
  public:
    /// Intrusive one-shot timer. Lives on the waiting context's stack (or
    /// anywhere that outlives the fire/cancel); a Timer may be reused for
    /// a new add_timer once the previous round fired or was cancelled.
    struct Timer {
        friend class Reactor;

      private:
        enum class St : std::uint8_t {
            kIdle,       ///< never armed / recycled
            kPending,    ///< queued in the wheel
            kFiring,     ///< callback running on a poller
            kFired,      ///< callback done
            kCancelled,  ///< unlinked before firing
        };
        std::atomic<St> state{St::kIdle};
        void (*fn)(void*) = nullptr;
        void* arg = nullptr;
        std::uint64_t deadline_ns = 0;  ///< steady_clock epoch ns
        Timer* prev = nullptr;          ///< wheel slot links (under lock)
        Timer* next = nullptr;
        std::uint32_t slot = 0;
    };

    Reactor();
    ~Reactor();
    Reactor(const Reactor&) = delete;
    Reactor& operator=(const Reactor&) = delete;

    /// The process-wide reactor every io:: call and idle stream uses.
    static Reactor& global();

    // --- fd readiness -------------------------------------------------------

    /// Park the calling context until `fd` is readable (or error/hup —
    /// the caller's next syscall reports which), the deadline expires, or
    /// forget(fd) cancels the wait. At most ONE reader and ONE writer may
    /// wait per fd at a time (kError otherwise). The fd should be
    /// non-blocking; callers loop syscall -> EAGAIN -> wait.
    IoStatus wait_readable(int fd, Deadline d = {});
    IoStatus wait_writable(int fd, Deadline d = {});

    /// Cancel both direction waiters of `fd` (they wake with kCanceled)
    /// and drop its epoll registration. Call before closing an fd that
    /// may have waiters; harmless when it has none.
    void forget(int fd);

    // --- timers -------------------------------------------------------------

    /// Park the calling context until `d`. kError when d has no value.
    IoStatus sleep_until(Deadline d);

    /// Arm `t` to run `fn(arg)` once at `d` (immediately-due deadlines
    /// fire on the next poll). The callback runs on a polling thread: it
    /// must be brief, must not block, and may take short locks (the timed
    /// sync primitives take the owning primitive's guard to dequeue their
    /// waiter — docs/io_reactor.md#timer-lifecycle).
    void add_timer(Timer& t, Deadline d, void (*fn)(void*), void* arg);

    /// Synchronously quiesce `t`: unlink it if still pending (returns
    /// true), otherwise wait out an in-flight callback (returns false;
    /// the callback has fully completed on return). A timed waiter MUST
    /// call this before its Timer/ctx leave scope.
    bool cancel_timer(Timer& t);

    // --- polling ------------------------------------------------------------

    /// Dispatch whatever is ready right now — fd events and due timers —
    /// without blocking. Returns the number of wakes + callbacks issued.
    /// Safe to call from any thread concurrently with the poller. With a
    /// `runner` (a stream's own scheduling loop, on its thread), the first
    /// readiness wake of a ULT whose home pool the stream can run from is
    /// claimed into its next-unit hint instead of queued (run where
    /// noticed).
    std::size_t try_poll(XStream* runner = nullptr);

    /// True once any wait/timer armed the global reactor — the one-load
    /// gate an idle stream checks before it looks at the reactor.
    [[nodiscard]] static bool idle_poll_armed() noexcept {
        return s_global_armed.load(std::memory_order_acquire);
    }

    /// Disable/enable the dedicated backstop poller thread (before the
    /// first wait; LWT_IO_POLLER=0|1 overrides). Without it, I/O
    /// completion rides entirely on idle execution streams — see
    /// docs/io_reactor.md for when that degrades.
    void set_poller_enabled(bool on) noexcept {
        poller_enabled_.store(on, std::memory_order_relaxed);
    }

    // --- idle-stream duties (XStream's idle ladder) ---------------------------

    /// True while an fd has a waiter or a timer is pending: idle streams
    /// then poll and sit.
    [[nodiscard]] bool has_waiters() const noexcept;

    /// The one-spinner token: at most one idle stream polls with
    /// try_poll() on its spin/yield rungs. False when another holds it.
    /// Taking it ends a backstop's epoll_wait.
    [[nodiscard]] bool take_spinner() noexcept;
    /// Give the token up, before running a unit or walking to the park
    /// rung: a token held by a busy stream would keep everyone out.
    void release_spinner() noexcept;

    /// Take the seat, the right to block in epoll_wait, for the calling
    /// stream. False when there is nothing to wait for or another stream
    /// holds it; a seat held by the backstop poller is asked back with a
    /// kick and waited for.
    [[nodiscard]] bool take_seat() noexcept;
    /// Seat holder only: block in epoll_wait until an event, a kick or
    /// min(`timeout`, next timer). False only on the timeout.
    bool sit(std::chrono::microseconds timeout) noexcept;
    /// Seat holder only: dispatch what sit() collected and due timers,
    /// claiming into `runner`'s hint as try_poll() does, then give the
    /// seat up. Returns the wakes + callbacks issued.
    std::size_t leave_seat(XStream* runner) noexcept;

    /// End the seat holder's epoll_wait, or make the next one return at
    /// once (a lot notify, a sooner timer, a stream asking the backstop
    /// for the seat, shutdown).
    void kick() noexcept override;

    /// Waiters currently parked on fds (diagnostics/tests).
    [[nodiscard]] std::size_t fd_waiters() const noexcept {
        return fd_waiters_.load(std::memory_order_acquire);
    }

    /// True while an idle stream holds the seat (diagnostics/tests).
    [[nodiscard]] bool stream_seated() const noexcept;

  private:
    struct FdPage;
    struct FdEntry;
    struct IoWait;
    struct Wheel;
    struct Seat;

    /// Who holds the seat.
    enum SeatHolder : std::uint8_t { kSeatFree, kSeatStream, kSeatPoller };

    static std::atomic<bool> s_global_armed;

    IoStatus wait_io(int fd, std::uint32_t events, Deadline d);
    FdEntry* entry_for(int fd);
    /// (Re)arm `fd`'s epoll registration from its live slots. Caller
    /// holds the entry lock.
    int arm_locked(int fd, FdEntry& e);
    static void io_deadline_cb(void* arg);

    void ensure_running();
    void poller_main();
    /// A stream watches the reactor: it holds the spinner token or the
    /// seat, or waits for the seat.
    [[nodiscard]] bool streams_watch() const noexcept;
    /// Wake the claimed waiters of the `n` events at `events`; the kick
    /// eventfd is drained only by a seat holder (`seated`), whose wait it
    /// was meant to end.
    std::size_t dispatch(const ::epoll_event* events, int n,
                         XStream* runner, bool seated);
    /// Wake `w`, or claim its ULT into `runner`'s next-unit hint.
    void wake_noticed(SyncWaiter* w, XStream* runner) noexcept;
    std::size_t fire_due_timers();
    /// ms until the earliest pending timer for epoll_wait, capped at
    /// `cap_ms`; the cap also when no timer is pending.
    int next_timeout_ms(int cap_ms);

    int epfd_ = -1;
    int eventfd_ = -1;
    std::atomic<bool> running_{false};
    std::atomic<bool> stop_{false};
    std::atomic<bool> poller_enabled_{true};
    std::atomic<bool> poller_started_{false};
    sync::Spinlock start_lock_;
    std::atomic<std::size_t> fd_waiters_{0};

    // fd -> entry, two-level so lookups are lock-free after a page
    // exists: 4096 pages x 256 entries covers fd < 2^20 (fs.nr_open).
    static constexpr std::size_t kFdPageBits = 8;
    static constexpr std::size_t kFdPageSize = std::size_t{1} << kFdPageBits;
    static constexpr std::size_t kFdPages = 4096;
    std::atomic<FdPage*> pages_[kFdPages] = {};
    sync::Spinlock page_alloc_lock_;

    Wheel* wheel_;  // timer wheel (owned; defined in reactor.cpp)
    Seat* seat_events_;  // the seat holder's event buffer (owned)

    // Idle-stream duties. A stream watches the reactor while it holds the
    // spinner token or the seat; unwatched_since_ (steady ns) stamps the
    // last time one stopped, and the backstop polls only once nobody has
    // watched for a grace period.
    alignas(arch::kCacheLine) std::atomic<std::uint8_t> seat_{kSeatFree};
    std::atomic<bool> spinner_{false};
    std::atomic<bool> seat_wanted_{false};  ///< a stream waits for the seat
    std::atomic<std::uint64_t> unwatched_since_{0};

    // Poller thread handle (std::thread would drag <thread> into every
    // include of this header; keep it opaque).
    struct PollerThread;
    PollerThread* poller_ = nullptr;

    // Registry taps (grabbed once; the registry outlives the reactor).
    Counter& wakes_;
    Counter& polls_;
    Counter& timer_fires_;
    Counter& claims_;
    Counter& seat_waits_;
    Counter& poller_dispatches_;
};

}  // namespace lwt::core
