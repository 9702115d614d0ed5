#include "core/ult.hpp"

#include <cassert>
#include <cstdint>
#include <thread>

#include "arch/cpu.hpp"
#include "core/metrics.hpp"
#include "core/pool.hpp"
#include "core/trace.hpp"
#include "core/xstream.hpp"

namespace lwt::core {
namespace {

thread_local Ult* tl_current_ult = nullptr;

void* encode(YieldStatus s) noexcept {
    return reinterpret_cast<void*>(static_cast<std::uintptr_t>(s));
}

YieldStatus decode(void* p) noexcept {
    return static_cast<YieldStatus>(reinterpret_cast<std::uintptr_t>(p));
}

void record_wake(Ult* ult) noexcept {
    Tracer::instance().record(TraceEvent::kWake, ult);
    if (Metrics::instance().enabled()) {
        // Consume the block stamp exactly once even if wakers race; a
        // kBlocking-stage wake reads a stamp from the unit's *previous*
        // block, which is at worst one stale sample.
        const std::uint64_t blocked_at =
            ult->obs_block_tsc.exchange(0, std::memory_order_relaxed);
        if (blocked_at != 0) {
            Metrics::instance().record_wake_latency(arch::rdtsc() -
                                                    blocked_at);
        }
    }
}

}  // namespace

Ult::Ult(UniqueFunction f)
    : WorkUnit(Kind::kUlt, std::move(f)),
      stack_(arch::acquire_default_stack()),
      pooled_default_(true) {}

Ult::Ult(UniqueFunction f, arch::Stack stack)
    : WorkUnit(Kind::kUlt, std::move(f)), stack_(std::move(stack)) {}

Ult::~Ult() { release_stack(); }

void Ult::release_stack() noexcept {
    if (pooled_default_) {
        pooled_default_ = false;
        arch::recycle_default_stack(std::move(stack_));
    }
}

std::size_t Ult::promise() const noexcept {
    return pooled_default_ ? arch::default_stack_size() : stack_.usable();
}

std::size_t Ult::room() const noexcept {
    const auto frame =
        reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    const auto top = reinterpret_cast<std::uintptr_t>(stack_.top());
    const std::uintptr_t low = top - stack_.usable();
    assert(frame > low && frame <= top && "room() off the ULT's stack");
    return frame - low;
}

Ult* Ult::current() noexcept { return tl_current_ult; }

void Ult::entry(arch::transfer_t t) {
    auto* self = static_cast<Ult*>(t.data);
    self->sched_ctx_ = t.fctx;
    self->fn();
    // Report completion; never returns.
    arch::lwt_jump_fcontext(self->sched_ctx_, encode(YieldStatus::kFinished));
}

void Ult::suspend(YieldStatus status) {
    assert(tl_current_ult == this && "suspend() must run inside the ULT");
    const arch::transfer_t t =
        arch::lwt_jump_fcontext(sched_ctx_, encode(status));
    // Resumed, possibly by a different stream: remember its scheduler
    // context so the next suspension lands in the right place.
    sched_ctx_ = t.fctx;
}

YieldStatus Ult::resume_on_this_thread() {
    if (ctx_ == nullptr) {
        // First resume: the context is made here rather than at create, so
        // a null ctx_ marks a ULT that never started.
        assert(stack_.valid());
        ctx_ = arch::lwt_make_fcontext(stack_.top(), stack_.usable(),
                                       &Ult::entry);
    }
    Ult* prev = tl_current_ult;  // support nested scheduling (run_until)
    tl_current_ult = this;
    state.store(State::kRunning, std::memory_order_relaxed);
    const arch::transfer_t t = arch::lwt_jump_fcontext(ctx_, this);
    tl_current_ult = prev;
    const YieldStatus status = decode(t.data);
    if (status != YieldStatus::kFinished) {
        ctx_ = t.fctx;  // save the new suspension point
    }
    return status;
}

void Ult::wake(Ult* ult) {
    record_wake(ult);
    for (;;) {
        State s = ult->state.load(std::memory_order_acquire);
        if (s == State::kBlocking) {
            // Suspension in progress; tell the scheduler to requeue.
            if (ult->state.compare_exchange_weak(s, State::kWakePending,
                                                 std::memory_order_acq_rel)) {
                return;
            }
        } else if (s == State::kBlocked) {
            if (ult->state.compare_exchange_weak(s, State::kReady,
                                                 std::memory_order_acq_rel)) {
                assert(ult->home_pool.load(std::memory_order_relaxed) !=
                       nullptr);
                ult->home_pool.load(std::memory_order_relaxed)->push(ult);
                return;
            }
        } else {
            return;  // already awake (or racing waker won)
        }
    }
}

bool Ult::claim_blocked(Ult* ult) noexcept {
    State expected = State::kBlocked;
    if (!ult->state.compare_exchange_strong(expected, State::kReady,
                                            std::memory_order_acq_rel)) {
        return false;
    }
    record_wake(ult);
    return true;
}

void yield_anywhere() {
    if (Ult* u = Ult::current()) {
        u->yield();
        return;
    }
    // Plain thread code: if this thread is an attached stream (the primary),
    // yielding means letting its scheduler run a unit — the Argobots
    // behaviour of ABT_thread_yield on the primary ES. Otherwise just give
    // up the timeslice.
    if (XStream* stream = XStream::current()) {
        if (stream->progress()) {
            return;
        }
    }
    std::this_thread::yield();
}

}  // namespace lwt::core
