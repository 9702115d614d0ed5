// work_unit.hpp — the two work-unit kinds every LWT library in the paper
// builds on: stackful ULTs and stackless tasklets.
#pragma once

#include <atomic>
#include <cstdint>

#include "arch/cpu.hpp"
#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "core/unique_function.hpp"
#include "core/unit_cache.hpp"

namespace lwt::core {

class Pool;

/// What a unit is; determines how an execution stream runs it.
enum class Kind : std::uint8_t {
    kTasklet,  ///< run-to-completion closure, no private stack
    kUlt,      ///< suspendable/yieldable/migratable thread with own stack
};

/// Work-unit lifecycle. `kBlocking`/`kWakePending` are transient handshake
/// states between a suspending ULT's scheduler and a concurrent waker.
enum class State : std::uint8_t {
    kCreated,      ///< constructed, not yet in any pool
    kReady,        ///< waiting in a pool
    kRunning,      ///< executing on some stream
    kBlocking,     ///< suspending; context not yet saved by the scheduler
    kBlocked,      ///< fully suspended; a waker owns the resume
    kWakePending,  ///< woken while still kBlocking; scheduler requeues it
    kTerminated,   ///< finished; safe to reclaim once joined
};

// --- joiner slot ------------------------------------------------------------
//
// One atomic word per unit carries the direct-handoff join protocol
// (docs/join_path.md): a joiner CASes a tagged pointer to itself into the
// slot and suspends; the terminating stream exchanges the slot to
// kJoinerTerminated and wakes whatever it found — zero polling, exactly one
// wakeup. All waiter objects are >= 8-byte aligned, so the low three bits
// encode the waiter kind.
inline constexpr std::uintptr_t kJoinerNone = 0;        ///< nobody waiting
inline constexpr std::uintptr_t kJoinerTerminated = 1;  ///< unit finished
inline constexpr std::uintptr_t kJoinerTagMask = 7;
inline constexpr std::uintptr_t kJoinerUltTag = 2;      ///< Ult* waiter
inline constexpr std::uintptr_t kJoinerThreadTag = 3;   ///< OS-thread waiter
                                                        ///< record (join.cpp)
inline constexpr std::uintptr_t kJoinerCounterTag = 4;  ///< EventCounter*

/// Common header of every schedulable unit. Personalities allocate these
/// (or the Ult subclass) and hand ownership to the runtime via pools; the
/// `detached` flag says whether the stream reclaims the unit on completion
/// or a joiner does.
struct WorkUnit {
    explicit WorkUnit(Kind k, UniqueFunction f) noexcept
        : kind(k), fn(std::move(f)) {
        Tracer::instance().record(TraceEvent::kCreate, this);
        if (Metrics::instance().enabled()) {
            obs_create_tsc = arch::rdtsc();
        }
    }
    WorkUnit(const WorkUnit&) = delete;
    WorkUnit& operator=(const WorkUnit&) = delete;
    virtual ~WorkUnit() = default;

    const Kind kind;
    std::atomic<State> state{State::kCreated};
    /// Pool this unit returns to when yielded or woken. Atomic (relaxed)
    /// because a join-stealing thread reads it while the dispatching
    /// stream rebinds it; correctness never rides on the value read —
    /// Pool::remove() re-verifies membership under the pool's own lock.
    std::atomic<Pool*> home_pool{nullptr};
    /// When true the stream deletes the unit after it terminates.
    bool detached = false;
    /// Set by a creator that placed the unit nowhere in particular
    /// (glt Placement::any() on an abt stream) just before it pushes the
    /// unit into a DequePool, whose idle peers may then take it
    /// (DequePool::take_unpinned). The pool clears it, under its lock,
    /// when the unit first leaves it, so yields and wakes requeue it
    /// pinned. Sits in WorkUnit's existing padding.
    bool unpinned = false;
    UniqueFunction fn;

    // Metrics timestamps (raw TSC; 0 = unset / metrics disabled). The
    // create stamp is consumed by the first dispatch (queue-dwell); the
    // block stamp is written by the suspending scheduler and consumed by
    // the waker (atomic: the two race by design, ordered by the state
    // handshake).
    std::uint64_t obs_create_tsc = 0;
    std::atomic<std::uint64_t> obs_block_tsc{0};
    /// Stamped by the terminating stream BEFORE its joiner-slot exchange
    /// (the exchange stays the terminator's last unit access); read by a
    /// joiner that notices join_done() without ever suspending — that
    /// joiner still holds the unit (its own caller reclaims only after it
    /// returns), so the read shares the join_done() load's lifetime.
    std::atomic<std::uint64_t> obs_terminate_tsc{0};
    /// Handoff stamp written into the JOINER's descriptor (never the
    /// terminating unit's) by publish_termination just before the direct
    /// wake; consumed once by the joiner after it resumes (signal->resume
    /// join latency, "join.signal_resume_ticks"). A SUSPENDED joiner must
    /// not touch the joined unit after resuming — a concurrent second
    /// joiner may observe the slot publish and let the caller reclaim the
    /// unit before the slot joiner is rescheduled — so the stamp rides in
    /// memory the joiner owns.
    std::atomic<std::uint64_t> obs_handoff_tsc{0};

    /// Direct-handoff join slot (see tag constants above and
    /// docs/join_path.md). Written by at most one joiner (CAS from
    /// kJoinerNone) and exchanged exactly once by the terminating stream.
    std::atomic<std::uintptr_t> joiner{kJoinerNone};

    [[nodiscard]] bool terminated() const noexcept {
        return state.load(std::memory_order_acquire) == State::kTerminated;
    }

    /// True once the terminator published the joiner slot. Reclaiming a
    /// non-detached unit must gate on THIS, not terminated(): the state
    /// store happens before the terminator's final slot exchange, so a
    /// state-only check can free the unit under the terminator's feet.
    [[nodiscard]] bool join_done() const noexcept {
        return joiner.load(std::memory_order_acquire) == kJoinerTerminated;
    }

    /// Spin out the (nanosecond) window between the terminator's state
    /// store and its joiner-slot publish. Poll-style joins and external
    /// terminated()-then-free call sites use this before reclaiming.
    void await_reclaim() const noexcept {
        while (joiner.load(std::memory_order_acquire) != kJoinerTerminated) {
            arch::cpu_relax();
        }
    }
};

/// Stackless atomic work unit (Argobots Tasklet / Converse Message).
/// Cannot yield, block, or migrate mid-execution — which is exactly why it
/// is cheaper: no stack, no context.
struct Tasklet final : WorkUnit {
    explicit Tasklet(UniqueFunction f) noexcept
        : WorkUnit(Kind::kTasklet, std::move(f)) {}

    // Descriptors churn at create/join rates (Figs. 2-3); route them
    // through the per-thread freelist cache instead of the heap. Deleting
    // through WorkUnit* still lands here via the virtual destructor.
    static void* operator new(std::size_t size) {
        return unit_cache_alloc(size);
    }
    static void operator delete(void* ptr, std::size_t size) noexcept {
        unit_cache_free(ptr, size);
    }
};

}  // namespace lwt::core
