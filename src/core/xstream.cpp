#include "core/xstream.hpp"

#include <cassert>
#include <utility>

#include "arch/cpu.hpp"
#include "core/join.hpp"
#include "core/metrics.hpp"
#include "core/reactor.hpp"
#include "core/stream_dir.hpp"
#include "core/trace.hpp"
#include "core/waiter.hpp"

namespace lwt::core {
namespace {

thread_local XStream* tl_current_xstream = nullptr;

}  // namespace

XStream::XStream(unsigned rank, std::unique_ptr<Scheduler> scheduler)
    : rank_(rank) {
    assert(scheduler != nullptr);
    // Give sync::WaitTable its ULT suspend/wake hooks before any ULT can
    // possibly block in a sync-layer primitive (FEB ops, wait_on_word).
    ensure_sync_wait_ops();
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

Scheduler& XStream::scheduler() noexcept {
    std::lock_guard guard(sched_lock_);
    return *sched_stack_.back();
}

void XStream::push_scheduler(std::unique_ptr<Scheduler> scheduler) {
    std::lock_guard guard(sched_lock_);
    scheduler->bind_stats(&counters_);
    sched_stack_.push_back(std::move(scheduler));
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
        if (WorkUnit* unit = std::exchange(next_hint_, nullptr)) {
            // A hinted unit sits in no pool; a work-first child was never
            // in one and has no home yet.
            Pool* home = unit->home_pool.load(std::memory_order_relaxed);
            (home != nullptr ? home : scheduler().main_pool())->push(unit);
        }
        tl_current_xstream = nullptr;
        set_this_thread_stream(kNoStream);
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
    sync::IdleBackoff idle(idle_config_, parking_lot_);
    for (;;) {
        if (progress()) {
            idle.reset();
            continue;
        }
        // Drain semantics: exit only when stopping *and* out of work.
        if (stop_.load(std::memory_order_acquire) && !scheduler().has_work()) {
            break;
        }
        // The re-check runs with park interest registered, so a push (or
        // stop) that lands after it still bumps the lot's epoch and aborts
        // the park — no lost wakeup.
        count_idle_step(idle.step([this] {
            return stop_.load(std::memory_order_acquire) ||
                   scheduler().has_work();
        }));
    }
    tl_current_xstream = nullptr;
    set_this_thread_stream(kNoStream);
}

bool XStream::progress() {
    // Liveness heartbeat for the stall watchdog. Single-writer (only the
    // driving thread comes through here), so load+store beats a lock-ed
    // RMW: one relaxed store is the whole fig2 cost of the feature.
    progress_epoch_.store(progress_epoch_.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
    // Pop the scheduler stack while the top scheduler is done (never pops
    // the base scheduler).
    {
        std::lock_guard guard(sched_lock_);
        while (sched_stack_.size() > 1 && sched_stack_.back()->finished()) {
            sched_stack_.pop_back();
        }
    }
    WorkUnit* unit = next_hint_;
    next_hint_ = nullptr;
    if (unit == nullptr) {
        unit = scheduler().next();
    }
    if (unit == nullptr) {
        // Out of work: lend this idle stream to the I/O reactor. A
        // dispatched readiness event or due timer may wake a ULT straight
        // into our pools, so retry the scheduler once after a hit.
        if (Reactor::idle_poll_armed() &&
            Reactor::global().try_poll() > 0) {
            unit = scheduler().next();
        }
        if (unit == nullptr) {
            return false;
        }
    }
    run_unit(unit);
    return true;
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

void XStream::run_unit(WorkUnit* unit) {
    executed_.fetch_add(1, std::memory_order_relaxed);
    // Runaway-unit stamp for the watchdog: dispatch TSC while a unit is
    // on-CPU, 0 otherwise. Unarmed (the default) this is one relaxed load.
    const bool watchdog = watchdog_armed();
    if (watchdog) {
        exec_start_tsc_.store(arch::rdtsc(), std::memory_order_relaxed);
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
    if (unit->kind == Kind::kTasklet) {
        unit->state.store(State::kRunning, std::memory_order_relaxed);
        unit->fn();
        if (metrics) {
            Metrics::instance().record_exec(arch::rdtsc() - dispatch_tsc);
        }
        finish_unit(unit);
        if (watchdog) {
            exec_start_tsc_.store(0, std::memory_order_relaxed);
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
        exec_start_tsc_.store(0, std::memory_order_relaxed);
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
