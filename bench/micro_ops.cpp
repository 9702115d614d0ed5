// micro_ops — google-benchmark suite for the substrate primitives that the
// paper's figures are built from: context switches, stack management,
// locks, queues, FEB operations, and work-unit create/run costs. These
// numbers explain *why* the figure-level results look the way they do
// (e.g. tasklet create ≈ closure alloc, ULT create ≈ + stack + context).
#include <benchmark/benchmark.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "arch/fcontext.hpp"
#include "arch/stack.hpp"
#include "core/metrics.hpp"
#include "core/pool.hpp"
#include "core/trace.hpp"
#include "core/ult.hpp"
#include "core/work_unit.hpp"
#include "core/channel.hpp"
#include "core/sync_ult.hpp"
#include "queue/chase_lev_deque.hpp"
#include "queue/global_queue.hpp"
#include "queue/locked_deque.hpp"
#include "queue/mpmc_queue.hpp"
#include "qth/feb.hpp"
#include "sync/spinlock.hpp"

namespace {

using namespace lwt;

// --- context switching -----------------------------------------------------

void switcher_entry(arch::transfer_t t) {
    for (;;) {
        t = arch::lwt_jump_fcontext(t.fctx, t.data);
    }
}

void BM_ContextSwitchRoundTrip(benchmark::State& state) {
    arch::Stack stack = arch::Stack::allocate(64 * 1024);
    arch::fcontext_t ctx = arch::lwt_make_fcontext(stack.top(), stack.usable(),
                                                   &switcher_entry);
    arch::transfer_t t{ctx, nullptr};
    for (auto _ : state) {
        t = arch::lwt_jump_fcontext(t.fctx, nullptr);
    }
}
BENCHMARK(BM_ContextSwitchRoundTrip);

void BM_StackAllocateFresh(benchmark::State& state) {
    for (auto _ : state) {
        arch::Stack s = arch::Stack::allocate(64 * 1024);
        benchmark::DoNotOptimize(s.top());
    }
}
BENCHMARK(BM_StackAllocateFresh);

void BM_StackAcquireFromPool(benchmark::State& state) {
    arch::StackPool pool(64 * 1024, 8);
    for (auto _ : state) {
        arch::Stack s = pool.acquire();
        benchmark::DoNotOptimize(s.top());
        pool.recycle(std::move(s));
    }
}
BENCHMARK(BM_StackAcquireFromPool);

// --- work-unit creation (the Figure 2 story) --------------------------------

void BM_TaskletCreateDestroy(benchmark::State& state) {
    for (auto _ : state) {
        auto* t = new core::Tasklet([] {});
        benchmark::DoNotOptimize(t);
        delete t;
    }
}
BENCHMARK(BM_TaskletCreateDestroy);

void BM_UltCreateDestroyFreshStack(benchmark::State& state) {
    for (auto _ : state) {
        auto* u = new core::Ult([] {});
        benchmark::DoNotOptimize(u);
        delete u;
    }
}
BENCHMARK(BM_UltCreateDestroyFreshStack);

void BM_UltCreateDestroyPooledStack(benchmark::State& state) {
    arch::StackPool pool(arch::default_stack_size(), 8);
    for (auto _ : state) {
        auto* u = new core::Ult([] {}, pool.acquire());
        benchmark::DoNotOptimize(u);
        pool.recycle(u->take_stack());
        delete u;
    }
}
BENCHMARK(BM_UltCreateDestroyPooledStack);

void BM_UltRunToCompletion(benchmark::State& state) {
    arch::StackPool pool(arch::default_stack_size(), 8);
    for (auto _ : state) {
        core::Ult u([] {}, pool.acquire());
        u.resume_on_this_thread();
        pool.recycle(u.take_stack());
    }
}
BENCHMARK(BM_UltRunToCompletion);

void BM_UltYieldRoundTrip(benchmark::State& state) {
    core::Ult u([] {
        for (;;) {
            core::Ult::current()->yield();
        }
    });
    for (auto _ : state) {
        u.resume_on_this_thread();
    }
}
BENCHMARK(BM_UltYieldRoundTrip);

// --- locks -------------------------------------------------------------------

void BM_SpinlockUncontended(benchmark::State& state) {
    sync::Spinlock lock;
    for (auto _ : state) {
        lock.lock();
        lock.unlock();
    }
}
BENCHMARK(BM_SpinlockUncontended);

// --- queues (the pool-topology story) ------------------------------------------

void BM_MpmcQueuePushPop(benchmark::State& state) {
    queue::MpmcQueue<void*> q(1024);
    for (auto _ : state) {
        q.try_push(nullptr);
        benchmark::DoNotOptimize(q.try_pop());
    }
}
BENCHMARK(BM_MpmcQueuePushPop);

void BM_ChaseLevPushPop(benchmark::State& state) {
    queue::ChaseLevDeque<void*> d(1024);
    for (auto _ : state) {
        d.push_bottom(nullptr);
        benchmark::DoNotOptimize(d.pop_bottom());
    }
}
BENCHMARK(BM_ChaseLevPushPop);

void BM_LockedDequePushPop(benchmark::State& state) {
    queue::LockedDeque<void*> d;
    for (auto _ : state) {
        d.push_back(nullptr);
        benchmark::DoNotOptimize(d.pop_back());
    }
}
BENCHMARK(BM_LockedDequePushPop);

void BM_GlobalQueuePushPop(benchmark::State& state) {
    queue::GlobalQueue<void*> q;
    for (auto _ : state) {
        q.push(nullptr);
        benchmark::DoNotOptimize(q.try_pop());
    }
}
BENCHMARK(BM_GlobalQueuePushPop);

// --- suspend-based sync and FEB (the join story) ----------------------------

void BM_ChannelSendRecvBuffered(benchmark::State& state) {
    core::Channel<int> ch(64);
    for (auto _ : state) {
        ch.send(1);
        benchmark::DoNotOptimize(ch.recv());
    }
}
BENCHMARK(BM_ChannelSendRecvBuffered);

void BM_UltMutexLockUnlockUncontended(benchmark::State& state) {
    core::UltMutex mutex;
    for (auto _ : state) {
        mutex.lock();
        mutex.unlock();
    }
}
BENCHMARK(BM_UltMutexLockUnlockUncontended);

void BM_EventCounterAddSignal(benchmark::State& state) {
    core::EventCounter ec;
    for (auto _ : state) {
        ec.add(1);
        ec.signal();
    }
}
BENCHMARK(BM_EventCounterAddSignal);

/// Cross-thread signal→resume round trips on the parker path — the latency
/// the join.signal_resume_ticks histogram captures in situ. A partner
/// thread signals each armed counter; the measured region is arm + park +
/// direct wake + resume. With `pin`, the two threads first move to two
/// different allowed CPUs; the unpinned row is the host control.
void signal_resume_round_trips(benchmark::State& state, bool pin) {
    cpu_set_t allowed;
    sched_getaffinity(0, sizeof allowed, &allowed);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) {
            cpus.push_back(c);
        }
    }
    if (pin && cpus.size() < 2) {
        state.SkipWithError("needs two allowed CPUs to pin its threads");
        return;
    }
    auto pin_to = [&](bool partner) {
        if (pin) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(partner ? cpus.back() : cpus.front(), &one);
            pthread_setaffinity_np(pthread_self(), sizeof one, &one);
        }
    };
    pin_to(/*partner=*/false);
    core::EventCounter ec;
    std::atomic<core::EventCounter*> armed{nullptr};
    std::atomic<bool> stop{false};
    std::thread partner([&] {
        pin_to(/*partner=*/true);
        for (;;) {
            core::EventCounter* c =
                armed.exchange(nullptr, std::memory_order_acq_rel);
            if (c != nullptr) {
                c->signal();
            } else if (stop.load(std::memory_order_acquire)) {
                return;
            }
        }
    });
    for (auto _ : state) {
        ec.add(1);
        armed.store(&ec, std::memory_order_release);
        ec.wait();
    }
    stop.store(true, std::memory_order_release);
    partner.join();
    if (pin) {
        pthread_setaffinity_np(pthread_self(), sizeof allowed, &allowed);
    }
}

void BM_EventCounterSignalResumeLatency(benchmark::State& state) {
    signal_resume_round_trips(state, /*pin=*/false);
}
BENCHMARK(BM_EventCounterSignalResumeLatency)->UseRealTime();

void BM_EventCounterSignalResumeLatencyPinned(benchmark::State& state) {
    signal_resume_round_trips(state, /*pin=*/true);
}
BENCHMARK(BM_EventCounterSignalResumeLatencyPinned)->UseRealTime();

void BM_FebWriteFReadFF(benchmark::State& state) {
    qth::FebTable table;
    qth::aligned_t word = 0;
    for (auto _ : state) {
        table.write_f(&word, 1);
        benchmark::DoNotOptimize(table.read_ff(&word));
    }
}
BENCHMARK(BM_FebWriteFReadFF);

void BM_FebPurgeFill(benchmark::State& state) {
    qth::FebTable table;
    qth::aligned_t word = 0;
    for (auto _ : state) {
        table.purge(&word);
        table.fill(&word);
    }
}
BENCHMARK(BM_FebPurgeFill);

// --- observability hooks (the disabled-path ≈ one-relaxed-load claim) -------
//
// BM_TraceHookDisabled / BM_MetricsHookDisabled measure the cost every
// scheduler hook pays when LWT_TRACE/LWT_METRICS are off — it should be
// indistinguishable from BM_RelaxedAtomicLoad. The *Enabled variants show
// what turning recording on costs per event.

void BM_RelaxedAtomicLoad(benchmark::State& state) {
    std::atomic<bool> flag{false};
    for (auto _ : state) {
        benchmark::DoNotOptimize(flag.load(std::memory_order_relaxed));
    }
}
BENCHMARK(BM_RelaxedAtomicLoad);

void BM_TraceHookDisabled(benchmark::State& state) {
    auto& tracer = core::Tracer::instance();
    tracer.disable();
    core::Tasklet unit([] {});
    for (auto _ : state) {
        tracer.record(core::TraceEvent::kStart, &unit);
    }
}
BENCHMARK(BM_TraceHookDisabled);

void BM_TraceHookEnabled(benchmark::State& state) {
    auto& tracer = core::Tracer::instance();
    tracer.enable();
    core::Tasklet unit([] {});
    for (auto _ : state) {
        tracer.record(core::TraceEvent::kStart, &unit);
    }
    tracer.disable();
    tracer.clear();
}
BENCHMARK(BM_TraceHookEnabled);

void BM_MetricsHookDisabled(benchmark::State& state) {
    auto& metrics = core::Metrics::instance();
    metrics.disable();
    for (auto _ : state) {
        // The call-site pattern used in xstream.cpp/ult.cpp: a relaxed
        // enabled() check guards the record call.
        if (metrics.enabled()) {
            metrics.record_exec(1);
        }
    }
}
BENCHMARK(BM_MetricsHookDisabled);

void BM_MetricsHookEnabled(benchmark::State& state) {
    auto& metrics = core::Metrics::instance();
    metrics.enable();
    std::uint64_t v = 0;
    for (auto _ : state) {
        if (metrics.enabled()) {
            metrics.record_exec(++v);
        }
    }
    metrics.disable();
    metrics.reset();
}
BENCHMARK(BM_MetricsHookEnabled);

void BM_HistogramRecord(benchmark::State& state) {
    core::LatencyHistogram hist;
    std::uint64_t v = 0;
    for (auto _ : state) {
        hist.record(++v);
    }
}
BENCHMARK(BM_HistogramRecord);

}  // namespace

BENCHMARK_MAIN();
