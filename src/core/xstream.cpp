#include "core/xstream.hpp"

#include <cassert>
#include <utility>

#include "arch/cpu.hpp"
#include "core/join.hpp"
#include "core/metrics.hpp"
#include "core/reactor.hpp"
#include "core/stream_dir.hpp"
#include "core/trace.hpp"

namespace lwt::core {
namespace {

thread_local XStream* tl_current_xstream = nullptr;

}  // namespace

XStream::XStream(unsigned rank, std::unique_ptr<Scheduler> scheduler)
    : rank_(rank), base_(scheduler.get()), top_(scheduler.get()) {
    assert(scheduler != nullptr);
    scheduler->bind_stats(&counters_);
    sched_stack_.push_back(std::move(scheduler));
    // Last: the stream is fully formed, make it visible to observers.
    StreamDirectory::instance().add(this);
}

XStream::~XStream() {
    // First: no observer may see a stream that has begun dying.
    StreamDirectory::instance().remove(this);
    stop_and_join();
    // Fold this stream's steal telemetry into the process-wide registry so
    // post-run reporting (metrics dump, bench --json steal_tiers) survives
    // the stream. The counters themselves die with us.
    accumulate_sched_counters(counters_.snapshot());
}

XStream* XStream::current() noexcept { return tl_current_xstream; }

void XStream::push_scheduler(std::unique_ptr<Scheduler> scheduler) {
    std::lock_guard guard(sched_lock_);
    scheduler->bind_stats(&counters_);
    sched_stack_.push_back(std::move(scheduler));
    top_.store(sched_stack_.back().get(), std::memory_order_release);
}

void XStream::pop_finished_schedulers() {
    std::lock_guard guard(sched_lock_);
    while (sched_stack_.size() > 1 && sched_stack_.back()->finished()) {
        sched_stack_.pop_back();
    }
    top_.store(sched_stack_.back().get(), std::memory_order_release);
}

void XStream::start() {
    assert(!thread_.joinable());
    started_.store(true, std::memory_order_relaxed);
    thread_ = std::thread([this] { loop(); });
}

void XStream::stop_and_join() {
    stop_.store(true, std::memory_order_release);
    if (parking_lot_ != nullptr) {
        parking_lot_->notify_all();  // a parked stream must see the stop
    }
    if (thread_.joinable()) {
        thread_.join();
    }
}

void XStream::attach_caller() noexcept {
    tl_current_xstream = this;
    set_this_thread_stream(rank_);
}

void XStream::detach_caller() noexcept {
    if (tl_current_xstream == this) {
        requeue_hint();
        tl_current_xstream = nullptr;
        set_this_thread_stream(kNoStream);
    }
}

void XStream::requeue_hint() noexcept {
    if (WorkUnit* unit = std::exchange(next_hint_, nullptr)) {
        Pool* home = unit->home_pool.load(std::memory_order_relaxed);
        (home != nullptr ? home : scheduler().main_pool())->push(unit);
    }
}

void XStream::count_idle_step(sync::IdleBackoff::Step step) noexcept {
    using Step = sync::IdleBackoff::Step;
    switch (step) {
        case Step::kSpun:
            SchedCounters::bump(counters_.idle_spins);
            break;
        case Step::kYielded:
            SchedCounters::bump(counters_.idle_yields);
            break;
        case Step::kParkAborted:
            break;  // the re-check found work; not an idle event
        case Step::kParkNotified:
            SchedCounters::bump(counters_.parks);
            SchedCounters::bump(counters_.unparks);
            break;
        case Step::kParkTimeout:
            SchedCounters::bump(counters_.parks);
            SchedCounters::bump(counters_.park_timeouts);
            break;
    }
}

void XStream::loop() {
    tl_current_xstream = this;
    set_this_thread_stream(rank_);
    if (on_start_) {
        on_start_();
    }
    // Drain semantics: exit only when stopping *and* out of work, a hint
    // included.
    drive(
        sync::IdleBackoff(idle_config_, parking_lot_, &spin_window_),
        [this] {
            return stop_requested() && next_hint_ == nullptr &&
                   !scheduler().has_work();
        },
        /*own_loop=*/true);
    tl_current_xstream = nullptr;
    set_this_thread_stream(kNoStream);
}

void XStream::run_until_notified(const sync::ThreadParker& parker) {
    sync::IdleConfig config = idle_config_;
    config.policy = sync::IdlePolicy::kPark;
    drive(sync::IdleBackoff(config, parker.lot(), &spin_window_),
          [&parker] { return parker.notified(); });
}

bool XStream::progress() {
    WorkUnit* unit = next_unit();
    if (unit == nullptr) {
        return false;
    }
    run_unit(unit);
    return true;
}

WorkUnit* XStream::next_unit() {
    // Liveness heartbeat for the stall watchdog. Single-writer (only the
    // driving thread comes through here), so load+store beats a lock-ed
    // RMW: one relaxed store is the whole fig2 cost of the feature.
    progress_epoch_.store(progress_epoch_.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
    // A stream with no pushed scheduler, the common case, skips the lock.
    if (top_.load(std::memory_order_acquire) != base_) {
        pop_finished_schedulers();
    }
    WorkUnit* unit = std::exchange(next_hint_, nullptr);
    return unit != nullptr ? unit : scheduler().next();
}

bool XStream::IdleIo::poll(sync::IdleBackoff& idle) noexcept {
    if (!Reactor::idle_poll_armed()) {
        return false;
    }
    Reactor& reactor = Reactor::global();
    if (!spinning_) {
        if (idle.parks_next() || !reactor.has_waiters()) {
            return false;
        }
        if (!reactor.take_spinner()) {
            // Another stream spins: a ladder that can park waits in the
            // seat or on the lot instead of polling too.
            idle.skip_to_park();
            return false;
        }
        spinning_ = true;
    }
    if (idle.parks_next()) {
        busy();  // walked to the park rung: hand the token on
        return false;
    }
    return reactor.try_poll(runner_) > 0;
}

std::optional<bool> XStream::IdleIo::sit(
    sync::ParkingLot& lot, std::uint32_t ticket,
    std::chrono::microseconds timeout) noexcept {
    if (!Reactor::idle_poll_armed()) {
        return std::nullopt;
    }
    Reactor& reactor = Reactor::global();
    if (!reactor.take_seat()) {
        return std::nullopt;
    }
    const bool woken =
        lot.park_in(reactor, ticket, [&] { return reactor.sit(timeout); });
    // Off the lot now: our own pushes below notify nobody needlessly.
    reactor.leave_seat(runner_);
    return woken;
}

void XStream::IdleIo::release_spinner() noexcept {
    Reactor::global().release_spinner();
    spinning_ = false;
}

void XStream::finish_unit(WorkUnit* unit) {
    Tracer::instance().record(TraceEvent::kFinish, unit);
    const bool detached = unit->detached;
    unit->state.store(State::kTerminated, std::memory_order_release);
    if (detached) {
        // Nobody joins a detached unit; we reclaim it ourselves.
        delete unit;
        return;
    }
    // Direct handoff (core/join.hpp): publish the joiner slot and wake the
    // registered waiter — the terminator's last access to the unit. Joiners
    // gate reclaim on this publish (join_done), not on the state store.
    publish_termination(unit, this);
}

void XStream::run_unit(WorkUnit* unit, bool as_call) {
    executed_.fetch_add(1, std::memory_order_relaxed);
    // Runaway-unit stamp for the watchdog: dispatch TSC while a unit is
    // on-CPU, 0 otherwise. Unarmed (the default) this is one relaxed load.
    // A join-steal runs a unit from inside the running one: the stolen
    // unit's end hands the stamp back to the outer unit, not to idle.
    const bool watchdog = watchdog_armed();
    std::uint64_t outer_start = 0;
    std::uint64_t start = 0;
    if (watchdog) {
        outer_start = exec_start_tsc_.load(std::memory_order_relaxed);
        start = arch::rdtsc();
        exec_start_tsc_.store(start, std::memory_order_relaxed);
    }
    Tracer::instance().record(TraceEvent::kStart, unit);
    // Per-unit latency metrics: queue dwell on first dispatch, execution
    // time per dispatch slice (== start->finish for run-to-completion
    // units). One relaxed load when disabled.
    const bool metrics = Metrics::instance().enabled();
    std::uint64_t dispatch_tsc = 0;
    if (metrics) {
        dispatch_tsc = arch::rdtsc();
        if (unit->obs_create_tsc != 0) {
            Metrics::instance().record_queue_dwell(dispatch_tsc -
                                                   unit->obs_create_tsc);
            unit->obs_create_tsc = 0;
        }
    }
    // Yields and wakes of this unit now funnel through this stream's main
    // pool: the unit has migrated here.
    if (Pool* main = scheduler().main_pool()) {
        unit->home_pool.store(main, std::memory_order_relaxed);
    }
    if (unit->kind == Kind::kTasklet || as_call) {
        unit->state.store(State::kRunning, std::memory_order_relaxed);
        unit->fn();
        // On a ULT's stack (a join's call) the unit ran as that ULT: a
        // block or yield inside it suspended the ULT, which may have
        // resumed on another stream. That stream ends the unit.
        XStream* const stream = current() != nullptr ? current() : this;
        if (metrics) {
            Metrics::instance().record_exec(arch::rdtsc() - dispatch_tsc);
        }
        stream->finish_unit(unit);
        // The host's dispatch after such a block replaced our stamp and
        // stays: the host has been on the CPU since.
        if (watchdog && stream->exec_start_tsc_.load(
                            std::memory_order_relaxed) == start) {
            stream->exec_start_tsc_.store(outer_start,
                                          std::memory_order_relaxed);
        }
        return;
    }

    auto* ult = static_cast<Ult*>(unit);
    const YieldStatus status = ult->resume_on_this_thread();
    if (metrics) {
        Metrics::instance().record_exec(arch::rdtsc() - dispatch_tsc);
    }
    switch (status) {
        case YieldStatus::kFinished:
            // The stack is dead: give it to this stream's cache now, while
            // the unit is still ours — after finish_unit's publish the
            // joiner may free it — so the next create here reuses it.
            ult->release_stack();
            finish_unit(ult);
            break;
        case YieldStatus::kYielded:
            Tracer::instance().record(TraceEvent::kYield, ult);
            assert(ult->home_pool.load(std::memory_order_relaxed) != nullptr);
            ult->home_pool.load(std::memory_order_relaxed)->push(ult);
            break;
        case YieldStatus::kBlocked: {
            Tracer::instance().record(TraceEvent::kBlock, ult);
            if (metrics) {
                ult->obs_block_tsc.store(arch::rdtsc(),
                                         std::memory_order_relaxed);
            }
            // Handshake with Ult::wake: the ULT set kBlocking before
            // suspending; a waker may have flagged kWakePending since.
            State expected = State::kBlocking;
            if (!ult->state.compare_exchange_strong(
                    expected, State::kBlocked, std::memory_order_acq_rel)) {
                assert(expected == State::kWakePending);
                assert(ult->home_pool.load(std::memory_order_relaxed) !=
                       nullptr);
                ult->home_pool.load(std::memory_order_relaxed)->push(ult);
            }
            break;
        }
    }
    if (watchdog) {
        exec_start_tsc_.store(outer_start, std::memory_order_relaxed);
    }
}

bool yield_to(Ult* target) {
    Ult* self = Ult::current();
    XStream* stream = XStream::current();
    assert(self != nullptr && stream != nullptr &&
           "yield_to requires a ULT running on a stream");
    Pool* target_pool =
        target != nullptr
            ? target->home_pool.load(std::memory_order_relaxed)
            : nullptr;
    const bool direct = target_pool != nullptr && target_pool->remove(target);
    if (direct) {
        stream->set_next_hint(target);
    }
    self->suspend(YieldStatus::kYielded);
    return direct;
}

}  // namespace lwt::core
