// ult.hpp — the stackful user-level thread and its switch protocol.
//
// Invariant: every suspension returns control to the scheduler context of
// the stream that resumed the ULT (the worker's native stack). Only
// schedulers resume ULTs; `yield_to` is expressed as a scheduler hint, which
// keeps the protocol single-entry/single-exit and race-free.
#pragma once

#include <cstdint>

#include "arch/fcontext.hpp"
#include "arch/stack.hpp"
#include "core/work_unit.hpp"

namespace lwt::core {

/// Message a suspending ULT sends to the scheduler that resumed it,
/// encoded in the transfer data pointer of the context switch back.
enum class YieldStatus : std::uintptr_t {
    kFinished = 1,  ///< entry function completed
    kYielded = 2,   ///< reschedule me (go back to my home pool)
    kBlocked = 3,   ///< do not reschedule; a waker owns my resume
};

/// Stackful, yieldable, suspendable, migratable work unit.
class Ult final : public WorkUnit {
  public:
    /// Create a ULT. With `stack_bytes == 0` the stack comes from the
    /// process-wide default stack source (arch::acquire_default_stack) and
    /// is recycled there on destruction — every personality's plain spawn
    /// path reuses stacks instead of paying an mmap per create. An explicit
    /// size maps a fresh stack that unmaps on destruction.
    explicit Ult(UniqueFunction f, std::size_t stack_bytes = 0);

    /// Create a ULT reusing a caller-pooled stack (the caller recycles it;
    /// see StackPool).
    Ult(UniqueFunction f, arch::Stack stack);

    ~Ult() override;

    /// Release the stack back to a pool instead of unmapping; call before
    /// destruction when the creator owns a pool. Transfers recycling
    /// responsibility to the caller.
    arch::Stack take_stack() noexcept {
        pooled_default_ = false;
        return std::move(stack_);
    }

    /// The ULT currently running on this OS thread, or nullptr when the
    /// caller is ordinary thread code.
    static Ult* current() noexcept;

    /// From inside the ULT only: suspend with the given status. Returns
    /// when some scheduler resumes us (possibly on another OS thread).
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
    void init_context();

    arch::Stack stack_;
    arch::fcontext_t ctx_ = nullptr;        // suspended ULT context
    arch::fcontext_t sched_ctx_ = nullptr;  // context to suspend back into
    bool pooled_default_ = false;  // stack owed to the default source
};

/// Cooperative yield usable from anywhere: ULT yield inside a ULT,
/// OS-thread yield otherwise.
void yield_anywhere();

}  // namespace lwt::core
