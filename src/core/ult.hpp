// ult.hpp — the stackful user-level thread and its switch protocol.
//
// Invariant: every suspension returns control to the context that resumed
// the ULT, on the same OS thread. That is the stream's scheduler context
// (the worker's native stack), or a joiner that runs its still-queued child
// from its own context (core/join.cpp). Either resume goes through
// XStream::run_unit, which requeues or parks the ULT by the status it
// suspended with. A ULT that never started, joined by a ULT with room for
// its promise, is not resumed at all: it runs as a plain call on the
// joiner's stack, as its host. Ult::current() stays the joiner, so a block
// or yield inside the child suspends the joiner with the child's frames on
// top, and the two resume and migrate together. `yield_to` is expressed as
// a scheduler hint, which keeps the protocol single-entry/single-exit and
// race-free.
#pragma once

#include <cstddef>
#include <cstdint>

#include "arch/fcontext.hpp"
#include "arch/stack.hpp"
#include "core/work_unit.hpp"

namespace lwt::core {

/// Message a suspending ULT sends to the context that resumed it,
/// encoded in the transfer data pointer of the context switch back.
enum class YieldStatus : std::uintptr_t {
    kFinished = 1,  ///< entry function completed
    kYielded = 2,   ///< reschedule me (go back to my home pool)
    kBlocked = 3,   ///< do not reschedule; a waker owns my resume
};

/// Stackful, yieldable, suspendable, migratable work unit.
class Ult final : public WorkUnit {
  public:
    /// Create a ULT on a stack from the process-wide default stack source
    /// (arch::acquire_default_stack) — every personality's spawn path
    /// reuses stacks instead of paying an mmap per create. The stream that
    /// runs the ULT to completion hands that stack back to its own cache
    /// (release_stack), so a finished ULT awaiting its joiner holds none;
    /// destruction recycles only the stack of a ULT that never finished.
    /// The ULT is promised arch::default_stack_size() below its entry frame.
    explicit Ult(UniqueFunction f);

    /// Create a ULT on a caller-supplied stack: a caller-pooled one (the
    /// caller recycles it through take_stack; see StackPool), or a fresh
    /// arch::Stack::allocate(n), which unmaps when the ULT is destroyed.
    /// The ULT is promised all of the stack's usable bytes.
    Ult(UniqueFunction f, arch::Stack stack);

    ~Ult() override;

    /// Release the stack back to a pool instead of unmapping; call before
    /// destruction when the creator owns a pool. Transfers recycling
    /// responsibility to the caller.
    arch::Stack take_stack() noexcept {
        pooled_default_ = false;
        return std::move(stack_);
    }

    /// Scheduler side, once the ULT reported kFinished or before it runs as
    /// a call: return a stack owed to the default source to the calling
    /// thread's cache. No-op for caller-supplied stacks.
    void release_stack() noexcept;

    /// Whether the ULT still owns a stack (tests).
    [[nodiscard]] bool holds_stack() const noexcept { return stack_.valid(); }

    /// Whether the ULT was never resumed. Its context is made at the first
    /// resume, so until then it has none.
    [[nodiscard]] bool unstarted() const noexcept { return ctx_ == nullptr; }

    /// Stack bytes the ULT is promised below its entry frame, wherever it
    /// runs: arch::default_stack_size() on a default stack (which maps
    /// twice that), all of a caller-supplied one.
    [[nodiscard]] std::size_t promise() const noexcept;

    /// Bytes of this ULT's stack below the caller's frame. Call only from
    /// code running on that stack: the ULT itself, or a unit it runs as a
    /// call.
    [[nodiscard]] std::size_t room() const noexcept;

    /// The ULT currently running on this OS thread, or nullptr when the
    /// caller is ordinary thread code.
    static Ult* current() noexcept;

    /// From inside the ULT only: suspend with the given status. Returns
    /// when some scheduler or joiner resumes us (possibly on another OS
    /// thread).
    void suspend(YieldStatus status);

    /// From inside the ULT only: cooperative yield back to the scheduler.
    void yield() { suspend(YieldStatus::kYielded); }

    /// Make a kBlocked/kBlocking ULT runnable again and hand it to its home
    /// pool. Safe to race with the suspending scheduler. No-op if the unit
    /// is already awake.
    static void wake(Ult* ult);

    /// Wake a fully suspended (kBlocked) ULT without queueing it: on success
    /// it is kReady in no pool and the caller must dispatch it (the join
    /// path plants it as its stream's next unit). Fails, leaving the ULT
    /// untouched, in any other state — while the kBlocking handshake is
    /// still in flight only wake() can reach it.
    static bool claim_blocked(Ult* ult) noexcept;

    // --- scheduler-side interface (used by XStream) ---

    /// Resume (or first-start) the ULT on the calling OS thread. Returns the
    /// status it suspended with. Afterwards the saved context reflects the
    /// new suspension point.
    YieldStatus resume_on_this_thread();

    /// Descriptors come from the per-thread freelist cache (unit_cache.hpp)
    /// so the spawn path skips the heap; delete through WorkUnit* resolves
    /// here via the virtual destructor.
    static void* operator new(std::size_t size) {
        return unit_cache_alloc(size);
    }
    static void operator delete(void* ptr, std::size_t size) noexcept {
        unit_cache_free(ptr, size);
    }

  private:
    static void entry(arch::transfer_t t);

    arch::Stack stack_;
    arch::fcontext_t ctx_ = nullptr;        // suspended context; null until
                                            // the first resume
    arch::fcontext_t sched_ctx_ = nullptr;  // context to suspend back into
    bool pooled_default_ = false;  // stack owed to the default source
};

/// Cooperative yield usable from anywhere: ULT yield inside a ULT,
/// OS-thread yield otherwise.
void yield_anywhere();

}  // namespace lwt::core
