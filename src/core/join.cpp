#include "core/join.hpp"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <thread>

#include "arch/cpu.hpp"
#include "core/metrics.hpp"
#include "core/pool.hpp"
#include "core/sync_ult.hpp"
#include "core/ult.hpp"
#include "core/waiter.hpp"
#include "core/xstream.hpp"
#include "sync/parking_lot.hpp"

namespace lwt::core {
namespace {

/// Bounded pre-registration backoff for native-thread joiners: 64
/// pipeline pauses, then a few OS yields (arch::Backoff's ladder). The
/// pauses catch a child that is terminating RIGHT NOW without paying the
/// register/notify round trip; the yields matter when threads exceed
/// cores — each one donates the joiner's quantum to the stream that must
/// finish the child, which then typically retires a whole run of units,
/// letting the next joins return on the fast path (per-join direct
/// wakeups there would force a context switch per unit). Bounded: a
/// joiner that exhausts the ladder registers and parks for its one
/// direct wake — this is never an open-ended poll. It checks the join
/// after every single pause or yield, where the idle ladder a registered
/// attached joiner walks next pauses in doubling trains: a short join
/// returns here without a train's added latency.
constexpr unsigned kJoinBackoffSteps = 64 + 16;

/// The second-joiner fallback: a joiner that finds the slot held by
/// another waiter polls terminated() instead of deadlocking on it. Ends by
/// waiting out the terminator's slot publish so the caller may reclaim the
/// unit.
void poll_join(WorkUnit* unit) {
    if (Ult* self = Ult::current()) {
        if (unit->kind == Kind::kUlt) {
            // Joining a ULT: hand the stream to the joinee each pass (the
            // seed's myth_join shape). A plain yield would starve under
            // LIFO deques — the joiner gets re-popped ahead of the joinee
            // forever.
            Ult* target = static_cast<Ult*>(unit);
            while (!unit->terminated()) {
                (void)yield_to(target);
            }
        } else {
            while (!unit->terminated()) {
                self->yield();
            }
        }
    } else if (XStream* stream = XStream::current()) {
        stream->run_until([unit] { return unit->terminated(); });
    } else {
        while (!unit->terminated()) {
            std::this_thread::yield();
        }
    }
    unit->await_reclaim();
}

/// Install `tagged` as the unit's joiner. Returns kJoinerNone on success;
/// otherwise the value that occupied the slot (kJoinerTerminated, or a
/// competing waiter).
std::uintptr_t register_joiner(WorkUnit* unit,
                               std::uintptr_t tagged) noexcept {
    std::uintptr_t expected = kJoinerNone;
    if (unit->joiner.compare_exchange_strong(expected, tagged,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        return kJoinerNone;
    }
    return expected;
}

/// Stack record an OS-thread joiner registers in the slot
/// (kJoinerThreadTag): the parker plus a joiner-owned mailbox for the
/// terminator's handoff stamp. The stamp travels through waiter-owned
/// memory (never the unit) for the same reason obs_handoff_tsc lives on
/// the joining ULT — after resuming, the joiner must not touch the unit
/// at all (see join_unit).
struct alignas(8) ThreadJoinWaiter {
    explicit ThreadJoinWaiter(sync::ParkingLot* lot) noexcept : parker(lot) {}
    sync::ThreadParker parker;
    std::atomic<std::uint64_t> terminate_tsc{0};
};

/// Record one signal->resume sample; `stamp` comes from joiner-owned
/// memory, 0 means metrics were off at termination time.
void record_handoff_latency(std::uint64_t stamp) noexcept {
    if (stamp == 0 || !Metrics::instance().enabled()) {
        return;
    }
    static MetricsRegistry& reg = MetricsRegistry::instance();
    static LatencyHistogram& hist = reg.histogram("join.signal_resume_ticks");
    hist.record(arch::rdtsc() - stamp);
}

/// Register the running ULT as `unit`'s joiner and, on success, suspend
/// until the terminator's wake. Returns what the registration found:
/// kJoinerNone means we were registered, woke, and the join is done.
std::uintptr_t block_as_joiner(Ult* self, WorkUnit* unit) {
    // Arm the kBlocking/kWakePending handshake BEFORE publishing ourselves:
    // the terminator's wake may fire the instant the CAS lands, even
    // before we reach suspend().
    self->state.store(State::kBlocking, std::memory_order_release);
    const std::uintptr_t prev = register_joiner(
        unit, reinterpret_cast<std::uintptr_t>(self) | kJoinerUltTag);
    if (prev != kJoinerNone) {
        self->state.store(State::kRunning, std::memory_order_relaxed);
        return prev;
    }
    self->suspend(YieldStatus::kBlocked);
    // Only the terminator's wake routes through the slot, so resuming means
    // the join is done and published. Do NOT touch the unit from here on
    // (not even to assert): a concurrent second joiner can observe the
    // publish and let its caller free the unit before we are rescheduled.
    // The handoff stamp therefore arrives in OUR descriptor.
    record_handoff_latency(
        self->obs_handoff_tsc.exchange(0, std::memory_order_relaxed));
    return kJoinerNone;
}

/// Wake a ULT joiner from the terminating `stream`. A joiner that would be
/// queued on this stream's main pool runs next here instead: the stream
/// would dispatch it from that pool anyway, only after everything queued
/// ahead of it. Only the scheduler context plants the hint (a ULT that is
/// running a unit inline still owns the slot for its own yield_to), and
/// only a fully blocked joiner can be claimed. Another stream's joiner, a
/// kBlocking handshake still in flight or a taken hint slot fall back to
/// the ordinary wake.
void wake_joiner(Ult* joiner, XStream* stream) noexcept {
    if (Ult::current() == nullptr && stream->next_hint() == nullptr &&
        joiner->home_pool.load(std::memory_order_relaxed) ==
            stream->scheduler().main_pool() &&
        Ult::claim_blocked(joiner)) {
        stream->set_next_hint(joiner);
        return;
    }
    Ult::wake(joiner);
}

/// Stack a call needs on top of the child's promise: the frames between
/// the room check and the child's function (run_unit's and the function
/// wrapper's).
constexpr std::size_t kCallFrameBytes = 1024;

/// Work-first join stealing: if `unit` is still kReady and its pool can
/// remove() by identity, pull it and run it on `stream`, the caller's own
/// stream, from the caller's own context — exactly as progress() would run
/// it. A ULT joiner runs a never-started ULT child as a plain call on its
/// own stack when the room below this frame covers the child's promise:
/// the child's unused stack goes back to the cache, and the child runs as
/// its host, so a block or yield inside it suspends the joiner. Any other
/// ULT child is switched to on its own stack: it returns here when it
/// finishes, yields or blocks, and run_unit requeues or parks it as the
/// scheduler would. Returns whether it ran the unit.
bool try_join_steal(WorkUnit* unit, XStream* stream) {
    if (unit->state.load(std::memory_order_acquire) != State::kReady) {
        return false;
    }
    // The home_pool read races with a concurrent dispatch (relaxed by
    // design), but remove() verifies identity under the pool's own
    // synchronisation: a stale pointer simply fails to find the unit.
    Pool* pool = unit->home_pool.load(std::memory_order_relaxed);
    if (pool == nullptr || !stream->scheduler().can_run_from(pool) ||
        !pool->remove(unit)) {
        // Placement guard: a unit queued where this stream could never
        // dispatch from (another stream's private pool) must run there —
        // stealing it would silently migrate explicitly-placed work.
        return false;
    }
    bool as_call = false;
    Ult* const host = Ult::current();
    if (host != nullptr && unit->kind == Kind::kUlt) {
        auto* child = static_cast<Ult*>(unit);
        as_call = child->unstarted() &&
                  host->room() >= child->promise() + kCallFrameBytes;
        if (as_call) {
            child->release_stack();
        }
    }
    stream->run_unit(unit, as_call);
    return true;
}

}  // namespace

void publish_termination(WorkUnit* unit, XStream* stream) noexcept {
    const std::uint64_t stamp =
        Metrics::instance().enabled() ? arch::rdtsc() : 0;
    if (stamp != 0) {
        // Unit-side copy, for the joiner that notices join_done() without
        // suspending (it still owns the unit then). Must land before the
        // exchange below.
        unit->obs_terminate_tsc.store(stamp, std::memory_order_relaxed);
    }
    // The exchange is our LAST access to the unit: the instant it lands, a
    // joiner gating on join_done()/await_reclaim() may free it. Everything
    // touched below — including the stamp mailbox — is waiter-owned, never
    // unit memory, and a registered waiter cannot return (or destroy its
    // record) until the wake we issue here.
    const std::uintptr_t waiter =
        unit->joiner.exchange(kJoinerTerminated, std::memory_order_acq_rel);
    switch (waiter & kJoinerTagMask) {
        case kJoinerUltTag: {
            auto* joiner = reinterpret_cast<Ult*>(waiter & ~kJoinerTagMask);
            joiner->obs_handoff_tsc.store(stamp, std::memory_order_relaxed);
            wake_joiner(joiner, stream);
            break;
        }
        case kJoinerThreadTag: {
            auto* record =
                reinterpret_cast<ThreadJoinWaiter*>(waiter & ~kJoinerTagMask);
            record->terminate_tsc.store(stamp, std::memory_order_relaxed);
            record->parker.notify();
            break;
        }
        case kJoinerCounterTag:
            reinterpret_cast<EventCounter*>(waiter & ~kJoinerTagMask)
                ->signal();
            break;
        default:
            break;  // kJoinerNone: nobody waiting yet
    }
}

bool register_counter_joiner(WorkUnit* unit, EventCounter* counter) noexcept {
    return register_joiner(unit,
                           reinterpret_cast<std::uintptr_t>(counter) |
                               kJoinerCounterTag) == kJoinerNone;
}

void join_unit(WorkUnit* unit) {
    if (unit == nullptr) {
        return;
    }
    assert(!unit->detached && "joining a detached unit");
    if (unit->join_done()) {
        return;
    }
    XStream* stream = XStream::current();
    bool may_steal = stream != nullptr;
    for (;;) {
        if (unit->join_done()) {
            return;
        }
        // Work-first: while the child is still queued, run it ourselves
        // instead of sleeping on it — but at most ONCE. A child that
        // yielded instead of terminating went back to its pool, and the
        // wait below lets the stream run it in turn: re-stealing it here
        // would run it out of turn, jumping yield_to hints and queue
        // order, and starve whatever it yields to.
        if (may_steal && try_join_steal(unit, stream)) {
            may_steal = false;
            continue;
        }
        if (Ult* self = Ult::current()) {
            const std::uintptr_t prev = block_as_joiner(self, unit);
            if (prev == kJoinerNone || prev == kJoinerTerminated) {
                return;
            }
            poll_join(unit);  // second joiner: degrade, don't deadlock
            return;
        }
        // OS-thread joiner. Help-first: while this stream still holds
        // runnable work, run it instead of registering — every unit run
        // is progress the workload needs, on FIFO pools the joinee
        // surfaces in queue order anyway, and fine-grained join storms
        // never pay the register/notify round trip while queues are
        // nonempty. When the stream runs dry the joiner registers once
        // and waits for one direct wake.
        if (stream != nullptr && stream->progress()) {
            continue;
        }
        // Backoff-then-suspend (see kJoinBackoffSteps). A ULT joiner
        // never spins: suspending it is cheap and frees the stream for
        // other work.
        arch::Backoff backoff;
        for (unsigned step = 0; step < kJoinBackoffSteps; ++step) {
            backoff.pause();
            if (unit->join_done()) {
                // We never suspended, so OUR caller still owns the unit
                // until we return — reading the unit-side stamp here is
                // as safe as the join_done load itself (plain load, not
                // exchange: a degraded second joiner at worst records a
                // duplicate sample, never writes freed memory).
                record_handoff_latency(unit->obs_terminate_tsc.load(
                    std::memory_order_relaxed));
                return;
            }
        }
        // An attached stream routes its parker through the runtime lot,
        // which every pool push notifies too: its wait keeps serving the
        // stream's pools and walks the stream's idle ladder up to a park
        // there, so work pushed at this thread (round-robin children,
        // woken joiners homed here) wakes it as promptly as the
        // termination does. A plain thread sleeps on a bare parker.
        ThreadJoinWaiter waiter(stream != nullptr ? stream->parking_lot()
                                                  : nullptr);
        const std::uintptr_t prev = register_joiner(
            unit,
            reinterpret_cast<std::uintptr_t>(&waiter) | kJoinerThreadTag);
        if (prev == kJoinerNone) {
            thread_wait_impl(waiter.parker, stream);
            // As on the ULT path: no unit access after the wake — the
            // stamp arrives in our stack record.
            record_handoff_latency(
                waiter.terminate_tsc.load(std::memory_order_relaxed));
            return;
        }
        if (prev == kJoinerTerminated) {
            return;
        }
        poll_join(unit);
        return;
    }
}

}  // namespace lwt::core
