// xstream.hpp — execution stream: one OS thread driving a scheduler stack.
//
// The paper's per-library names for this object: Execution Stream
// (Argobots), Shepherd/Worker (Qthreads), Worker (MassiveThreads),
// Processor (Converse Threads), Thread (Go).
//
// Idle behaviour is a configurable ladder (sync/idle_backoff.hpp,
// docs/idle_loop.md): bounded spin -> exponential backoff -> park on the
// runtime's ParkingLot until a Pool::push wakes the stream. A thread
// attached to the stream waits on the same ladder (run_until_notified).
// Both park-capable ladders spin for at most the stream's SpinWindow,
// which grows when the stream's idle episodes end just after it and
// shrinks when two in a row last longer than the whole ladder.
// While the I/O reactor has waiters, idle streams are its poller: one
// spins polling it, and the park rung blocks in its epoll seat when free
// (core/reactor.hpp). Every steal probe and idle step is counted in
// per-stream SchedCounters, snapshotted through sched_stats().
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "arch/locality.hpp"
#include "arch/stack.hpp"
#include "core/sched_stats.hpp"
#include "core/scheduler.hpp"
#include "core/ult.hpp"
#include "sync/idle_backoff.hpp"
#include "sync/spinlock.hpp"

namespace lwt::core {

class XStream {
  public:
    /// Create a stream with its base scheduler. Does not start the OS
    /// thread; call start() or attach_caller().
    XStream(unsigned rank, std::unique_ptr<Scheduler> scheduler);
    ~XStream();
    XStream(const XStream&) = delete;
    XStream& operator=(const XStream&) = delete;

    /// Launch a dedicated OS thread running the scheduling loop.
    void start();

    /// Callback the dedicated thread runs once before its loop (thread
    /// binding, naming). Set before start().
    void set_on_start(std::function<void()> hook) {
        on_start_ = std::move(hook);
    }

    /// Configure how the stream waits when idle. Set before start(); the
    /// default is kBackoff. kPark additionally needs set_parking_lot().
    void set_idle_config(sync::IdleConfig config) noexcept {
        idle_config_ = config;
    }
    [[nodiscard]] const sync::IdleConfig& idle_config() const noexcept {
        return idle_config_;
    }

    /// Attach the lot this stream parks on (and is woken through — wire
    /// the same lot into the pools' set_waker). Set before start(); pass
    /// nullptr to detach. Without a lot, kPark degrades to kBackoff.
    void set_parking_lot(sync::ParkingLot* lot) noexcept {
        parking_lot_ = lot;
    }
    [[nodiscard]] sync::ParkingLot* parking_lot() const noexcept {
        return parking_lot_;
    }

    /// Ask the loop to exit once no ready work remains, then join the
    /// OS thread. Wakes the stream if it is parked. Safe to call if never
    /// started.
    void stop_and_join();

    /// Adopt the *calling* OS thread as this stream (used for the primary
    /// stream: the program's main thread). Pair with detach_caller(), which
    /// requeues a still-pending next hint (requeue_hint): nothing drives
    /// the stream afterwards, so the hint would otherwise never run.
    void attach_caller() noexcept;
    void detach_caller() noexcept;

    /// Run at most one ready work unit on the calling thread (which must be
    /// attached or be the stream's own thread). Returns false when idle.
    bool progress();

    /// Drive the scheduling loop on the calling thread until `pred()` holds.
    /// The classic "return mode": Converse's CsdScheduler, and the
    /// second-joiner fallback. Never parks — an arbitrary predicate may
    /// flip without any pool push, which no waker reports — so the ladder
    /// is clamped at backoff. Joins and counter waits do not come here:
    /// they register for a direct wakeup instead (core/join.hpp,
    /// EventCounter::wait) and park race-free in run_until_notified.
    template <typename Pred>
    void run_until(Pred&& pred) {
        sync::IdleConfig config = idle_config_;
        if (config.policy == sync::IdlePolicy::kPark) {
            config.policy = sync::IdlePolicy::kBackoff;
        }
        drive(sync::IdleBackoff(config), pred);
    }

    /// Drive the scheduling loop on the calling thread until `parker` is
    /// notified: how an OS thread attached to this stream waits in a join,
    /// counter or sync-primitive wait. Walks the loop's idle ladder up to
    /// the park rung whatever the policy, since a lot-routed parker's
    /// notify reaches the lot and so always ends the park. A bare parker's
    /// notify does not: its wait stops at backoff, like run_until.
    void run_until_notified(const sync::ThreadParker& parker);

    /// Push a scheduler that preempts the current one until finished()
    /// (Argobots' stackable schedulers). Thread-safe.
    void push_scheduler(std::unique_ptr<Scheduler> scheduler);

    /// Stream currently driving the calling OS thread, or nullptr.
    static XStream* current() noexcept;

    /// Instruct the loop to run `unit` next, bypassing scheduler selection
    /// (yield_to support). The unit must already be out of every pool. The
    /// slot never drops a unit: a hint still pending goes back to a pool
    /// first. (A native joiner can return with one pending and then run a
    /// ULT inline whose own yield_to plants the next.)
    void set_next_hint(WorkUnit* unit) noexcept {
        if (next_hint_ != nullptr) {
            requeue_hint();
        }
        next_hint_ = unit;
    }
    /// The unit planted by set_next_hint and not yet dispatched, or
    /// nullptr. Driving thread only, like set_next_hint.
    [[nodiscard]] WorkUnit* next_hint() const noexcept { return next_hint_; }

    /// Scheduler at the top of the stack (base scheduler if none pushed).
    /// Lock-free: one acquire load of the published top.
    [[nodiscard]] Scheduler& scheduler() noexcept {
        return *top_.load(std::memory_order_acquire);
    }

    [[nodiscard]] unsigned rank() const noexcept { return rank_; }
    [[nodiscard]] bool stop_requested() const noexcept {
        return stop_.load(std::memory_order_acquire);
    }

    /// Units executed by this stream (diagnostics/tests).
    [[nodiscard]] std::uint64_t executed() const noexcept {
        return executed_.load(std::memory_order_relaxed);
    }

    /// Scheduling-progress epoch: bumped (one relaxed store) at the top of
    /// every progress() pass. The stall watchdog (src/obs/watchdog.hpp)
    /// samples it — a frozen epoch while the stream's pools hold work
    /// means the stream is wedged (or its driving thread went away).
    [[nodiscard]] std::uint64_t progress_epoch() const noexcept {
        return progress_epoch_.load(std::memory_order_relaxed);
    }

    /// TSC at which the currently-executing unit was dispatched; 0 while
    /// idle or whenever the watchdog is unarmed (set_watchdog_armed —
    /// keeping the default dispatch path at one relaxed load).
    [[nodiscard]] std::uint64_t exec_start_tsc() const noexcept {
        return exec_start_tsc_.load(std::memory_order_relaxed);
    }

    /// True once start() launched a dedicated OS thread for this stream.
    /// Streams driven manually (attach_caller + progress/run_until) stay
    /// false — the watchdog exempts them, since "no progress" on a stream
    /// nobody is obliged to drive is not a stall.
    [[nodiscard]] bool has_dedicated_thread() const noexcept {
        return started_.load(std::memory_order_relaxed);
    }

    /// Record where this stream sits in the machine hierarchy (see
    /// arch::LocalityMap). Set by the runtime/personality that owns the
    /// stream; defaults to domain 0 (everything local).
    void set_placement(const arch::StreamPlacement& p) noexcept {
        placement_ = p;
    }
    [[nodiscard]] const arch::StreamPlacement& placement() const noexcept {
        return placement_;
    }

    /// Live steal/idle counters for this stream (see sched_stats.hpp).
    [[nodiscard]] const SchedCounters& counters() const noexcept {
        return counters_;
    }
    /// Plain snapshot of this stream's counters.
    [[nodiscard]] SchedStats sched_stats() const noexcept {
        return counters_.snapshot();
    }
    void reset_sched_stats() noexcept { counters_.reset(); }

    /// Execute one specific unit on the calling thread immediately, from
    /// the caller's own context: a ULT resumed here returns to the caller
    /// when it finishes, yields or blocks, and is requeued or parked as the
    /// scheduler would. Exposed for personalities with run-inline
    /// semantics (work-first creation, inlined task cutoffs) and for the
    /// join-steal, which calls it from inside a running unit. `as_call`
    /// runs a never-started ULT as tasklets always run: a plain call to
    /// its function on the caller's stack, with no context of its own
    /// (the join path's call, core/join.cpp).
    void run_unit(WorkUnit* unit, bool as_call = false);

  private:
    /// What one idle ladder does for the global I/O reactor while it has
    /// waiters (docs/io_reactor.md §2): poll it as the one spinner, send a
    /// ladder that can park straight to its park rung when another stream
    /// spins, and park in the reactor's epoll seat when it is free. Only
    /// the stream's own loop runs readiness where it notices it (claims
    /// into its next-unit hint); waits of an attached caller keep the
    /// ordinary wake.
    class IdleIo {
      public:
        /// `runner`: the stream whose own loop this is, or nullptr.
        explicit IdleIo(XStream* runner) noexcept : runner_(runner) {}
        ~IdleIo() { busy(); }
        IdleIo(const IdleIo&) = delete;
        IdleIo& operator=(const IdleIo&) = delete;

        /// The stream found work: hand the spinner token on before the
        /// unit runs.
        void busy() noexcept {
            if (spinning_) {
                release_spinner();
            }
        }
        /// After an empty sweep. True when it dispatched readiness or
        /// timers, so the stream should look for work again.
        bool poll(sync::IdleBackoff& idle) noexcept;
        /// IdleBackoff::step's seat: park in the reactor's epoll seat.
        std::optional<bool> sit(sync::ParkingLot& lot, std::uint32_t ticket,
                                std::chrono::microseconds timeout) noexcept;

      private:
        void release_spinner() noexcept;

        XStream* const runner_;  ///< claims readiness into its hint
        bool spinning_ = false;  ///< holds the reactor's spinner token
    };

    void loop();
    /// Bump the progress heartbeat and pick the next unit to run: the hint,
    /// else the scheduler's. nullptr when idle.
    WorkUnit* next_unit();
    /// The one idle-ladder loop, shared by loop() and both run_until
    /// flavours: run units until `done()` holds, stepping `idle` after each
    /// empty sweep and counting the step. A park's re-check runs with
    /// interest registered, so a push (or `done` flipping with a lot
    /// notify, as a stop or a lot-routed parker does) that lands after it
    /// aborts the park — no lost wakeup. `own_loop` marks the stream's own
    /// scheduling loop, which may run readiness where it notices it.
    template <typename Done>
    void drive(sync::IdleBackoff idle, Done&& done, bool own_loop = false) {
        IdleIo io(own_loop ? this : nullptr);
        bool ran = false;
        while (!done()) {
            if (WorkUnit* unit = next_unit()) {
                // Off the reactor's duties before the unit runs: it may run
                // for long, and a held spinner token would keep every other
                // stream and the backstop from polling meanwhile.
                io.busy();
                idle.reset();
                ran = true;
                run_unit(unit);
                continue;
            }
            if (std::exchange(ran, false)) {
                // Out of work: hand the stacks of the ULTs this stream
                // finished back to the streams that create ULTs.
                arch::flush_default_stack_cache();
            }
            if (io.poll(idle)) {
                continue;
            }
            count_idle_step(idle.step(
                [&] { return done() || scheduler().has_work(); },
                [&](sync::ParkingLot& lot, std::uint32_t ticket,
                    std::chrono::microseconds timeout) {
                    return io.sit(lot, ticket, timeout);
                }));
        }
        idle.reset();  // the wait is over: its episode counts too
    }
    /// Push a pending next hint to its home pool, or to this stream's main
    /// pool for a work-first child that never had one. A hinted unit sits
    /// in no pool, so nothing else would ever run it.
    void requeue_hint() noexcept;
    /// Pop the pushed schedulers that are finished (never the base).
    void pop_finished_schedulers();
    void count_idle_step(sync::IdleBackoff::Step step) noexcept;
    void finish_unit(WorkUnit* unit);

    const unsigned rank_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> started_{false};
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> progress_epoch_{0};
    std::atomic<std::uint64_t> exec_start_tsc_{0};
    WorkUnit* next_hint_ = nullptr;  // touched only by the driving thread

    sync::IdleConfig idle_config_{};
    sync::ParkingLot* parking_lot_ = nullptr;
    /// How long the park-capable ladders spin; driving thread only.
    sync::SpinWindow spin_window_;
    arch::StreamPlacement placement_{};
    SchedCounters counters_;

    /// Guards the shape of sched_stack_; scheduler() reads `top_` without
    /// it, and the driving thread takes it only while a pushed scheduler
    /// sits above `base_`.
    mutable sync::Spinlock sched_lock_;
    std::vector<std::unique_ptr<Scheduler>> sched_stack_;
    Scheduler* const base_;
    std::atomic<Scheduler*> top_;  ///< sched_stack_.back(), stored locked
    std::function<void()> on_start_;

    std::thread thread_;
};

/// Cooperatively transfer control from the current ULT directly to `target`
/// (Argobots ABT_thread_yield_to). The current ULT goes back to its home
/// pool; `target` is removed from its pool and runs next on this stream.
/// Returns false (and degrades to a plain yield) if `target` is not ready
/// in a removable pool.
bool yield_to(Ult* target);

}  // namespace lwt::core
