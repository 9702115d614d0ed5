// fcontext_ucontext.cpp — portable ucontext(3) backend for the fcontext API.
//
// Each context carries a Record carved out of the top of its own stack; the
// host OS thread's native context gets a thread-local Record. The Record
// stores the transfer payload across the switch, which is how the two-pointer
// fcontext ABI is emulated on top of swapcontext().
//
// Only compiled when LWT_USE_UCONTEXT is ON; see fcontext_x86_64.S otherwise.

#include "arch/fcontext.hpp"

#include <ucontext.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace lwt::arch {
namespace {

struct Record {
    ucontext_t uctx{};
    transfer_t in{};       // payload delivered when this context is resumed
    context_fn fn = nullptr;
};

thread_local Record tl_main_record;
thread_local Record* tl_current = nullptr;

Record* current_record() noexcept {
    return tl_current != nullptr ? tl_current : &tl_main_record;
}

// makecontext() entry; reads its Record via the thread-local set by the
// jump that started it.
void trampoline() {
    Record* self = tl_current;
    self->fn(self->in);
    // A context entry function must switch away instead of returning.
    std::fputs("lwt: context entry function returned\n", stderr);
    std::abort();
}

}  // namespace
}  // namespace lwt::arch

using lwt::arch::transfer_t;
using lwt::arch::fcontext_t;
using lwt::arch::context_fn;

extern "C" transfer_t lwt_jump_fcontext(fcontext_t to, void* data) {
    using lwt::arch::Record;
    auto* to_rec = static_cast<Record*>(to);
    Record* from = lwt::arch::current_record();
    to_rec->in = transfer_t{from, data};
    lwt::arch::tl_current = to_rec;
    swapcontext(&from->uctx, &to_rec->uctx);
    // Resumed, possibly on another OS thread. The resuming side already set
    // its own thread's tl_current to `from`; touching the thread-local here
    // could write through an address computed on the old thread before the
    // switch (PIC code keeps __tls_get_addr's result across the call).
    return from->in;
}

extern "C" fcontext_t lwt_make_fcontext(void* stack_top, std::size_t size,
                                        context_fn fn) {
    using lwt::arch::Record;
    auto top = reinterpret_cast<std::uintptr_t>(stack_top);
    std::uintptr_t rec_addr = (top - sizeof(Record)) & ~std::uintptr_t{63};
    auto* rec = new (reinterpret_cast<void*>(rec_addr)) Record{};
    getcontext(&rec->uctx);
    auto base = top - size;
    rec->uctx.uc_stack.ss_sp = reinterpret_cast<void*>(base);
    rec->uctx.uc_stack.ss_size = rec_addr - base;
    rec->uctx.uc_link = nullptr;
    rec->fn = fn;
    makecontext(&rec->uctx, reinterpret_cast<void (*)()>(&lwt::arch::trampoline), 0);
    return rec;
}
