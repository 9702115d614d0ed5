// micro_ops — google-benchmark suite for the substrate primitives that the
// paper's figures are built from: context switches, stack management,
// locks, queues, FEB operations, and work-unit create/run costs. These
// numbers explain *why* the figure-level results look the way they do
// (e.g. tasklet create ≈ closure alloc, ULT create ≈ + stack; its context
// is made at the first resume).
#include <benchmark/benchmark.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "../tests/idle_policy_pin.hpp"
#include "abt/abt.hpp"
#include "arch/fcontext.hpp"
#include "arch/stack.hpp"
#include "core/join.hpp"
#include "core/metrics.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/trace.hpp"
#include "core/ult.hpp"
#include "core/work_unit.hpp"
#include "core/channel.hpp"
#include "core/sync_ult.hpp"
#include "glt/glt.hpp"
#include "mth/mth.hpp"
#include "queue/chase_lev_deque.hpp"
#include "queue/global_queue.hpp"
#include "queue/mpmc_queue.hpp"
#include "qth/feb.hpp"
#include "sync/parking_lot.hpp"
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

// The stack stage of a default ULT's create and finish: `new core::Ult(fn)`
// pops the calling thread's cache of the default source, and the stream
// that finishes the ULT (or the join that runs it as a call) pushes it
// back there.
void BM_DefaultStackAcquireRecycle(benchmark::State& state) {
    arch::recycle_default_stack(arch::acquire_default_stack());  // warm
    for (auto _ : state) {
        arch::Stack s = arch::acquire_default_stack();
        benchmark::DoNotOptimize(s.top());
        arch::recycle_default_stack(std::move(s));
    }
}
BENCHMARK(BM_DefaultStackAcquireRecycle);

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
        // A stack of its own: mapped here, unmapped by the delete.
        auto* u = new core::Ult(
            [] {}, arch::Stack::allocate(arch::default_stack_size()));
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

// --- one create+join: glt vs the native call ---------------------------------
//
// A one-stream runtime whose stream 0 is the calling thread: the join runs
// the unit inline, so no OS wake is on the path and each glt row differs
// from its native row only by glt's dispatch and token.

void BM_AbtNativeCreateJoin(benchmark::State& state) {
    abt::Library lib(abt::Config{.num_xstreams = 1});
    for (auto _ : state) {
        abt::UnitHandle h = lib.thread_create([] {});
        benchmark::DoNotOptimize(h);
        h.free();
    }
}
BENCHMARK(BM_AbtNativeCreateJoin);

void BM_AbtGltCreateJoin(benchmark::State& state) {
    auto rt = glt::Runtime::create(glt::Backend::kAbt, 1);
    for (auto _ : state) {
        glt::UnitToken t = rt->ult_create([] {});
        benchmark::DoNotOptimize(t);
        rt->join(t);
    }
}
BENCHMARK(BM_AbtGltCreateJoin);

// perfbench tree's cycle: a ULT creates an any() child and joins it while
// the child is still queued, so the join runs the child from the joining
// ULT's own stack. The root ULT runs inline on the calling thread (stream
// 0), so the timed loop runs on the thread the benchmark times.
void BM_AbtGltCreateJoinFromUlt(benchmark::State& state) {
    auto rt = glt::Runtime::create(glt::Backend::kAbt, 1);
    glt::UnitToken root = rt->ult_create([&rt, &state] {
        for (auto _ : state) {
            glt::UnitToken t = rt->ult_create([] {});
            benchmark::DoNotOptimize(t);
            rt->join(t);
        }
    });
    rt->join(root);
}
BENCHMARK(BM_AbtGltCreateJoinFromUlt);

// The floor of that cycle: the same create+join with a tasklet child, which
// the join runs as a call with no stack at all.
void BM_AbtGltTaskletCreateJoinFromUlt(benchmark::State& state) {
    auto rt = glt::Runtime::create(glt::Backend::kAbt, 1);
    glt::UnitToken root = rt->ult_create([&rt, &state] {
        for (auto _ : state) {
            glt::UnitToken t = rt->tasklet_create([] {});
            benchmark::DoNotOptimize(t);
            rt->join(t);
        }
    });
    rt->join(root);
}
BENCHMARK(BM_AbtGltTaskletCreateJoinFromUlt);

// The terminator's publish when nobody waits in the slot yet, as for a
// child its joiner runs itself: one exchange of the joiner slot.
void BM_PublishTerminationNoJoiner(benchmark::State& state) {
    core::Tasklet unit([] {});
    for (auto _ : state) {
        unit.joiner.store(core::kJoinerNone, std::memory_order_relaxed);
        core::publish_termination(&unit, nullptr);
        benchmark::DoNotOptimize(unit.joiner.load(std::memory_order_relaxed));
    }
}
BENCHMARK(BM_PublishTerminationNoJoiner);

void BM_MthNativeCreateJoin(benchmark::State& state) {
    mth::Library lib(
        mth::Config{.num_workers = 1, .policy = mth::Policy::kHelpFirst});
    for (auto _ : state) {
        mth::ThreadHandle h = lib.create([] {});
        benchmark::DoNotOptimize(h);
        h.join();
    }
}
BENCHMARK(BM_MthNativeCreateJoin);

void BM_MthGltCreateJoin(benchmark::State& state) {
    auto rt = glt::Runtime::create(glt::Backend::kMth, 1);
    for (auto _ : state) {
        glt::UnitToken t = rt->ult_create([] {});
        benchmark::DoNotOptimize(t);
        rt->join(t);
    }
}
BENCHMARK(BM_MthGltCreateJoin);

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

// The pool the private-queue and MassiveThreads-style runtimes run: one
// push and one pop of a Tasklet, with no waker attached (no parking-lot
// notify).
void BM_DequePoolPushPop(benchmark::State& state) {
    core::DequePool pool;
    core::Tasklet unit([] {});
    for (auto _ : state) {
        pool.push(&unit);
        benchmark::DoNotOptimize(pool.pop());
    }
}
BENCHMARK(BM_DequePoolPushPop);

// The pool stage of a create and a join that takes its queued child back:
// a push of an unpinned unit (glt Placement::any() on abt) into a pool
// with a parking lot attached and nobody parked, then remove() of that
// unit by identity.
void BM_DequePoolPushRemoveWithLot(benchmark::State& state) {
    sync::ParkingLot lot;
    core::DequePool pool;
    pool.set_waker(&lot);
    core::Tasklet unit([] {});
    for (auto _ : state) {
        unit.unpinned = true;
        pool.push(&unit);
        benchmark::DoNotOptimize(pool.remove(&unit));
    }
    pool.set_waker(nullptr);
}
BENCHMARK(BM_DequePoolPushRemoveWithLot);

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

// --- the idle ladder's price per gap, and the join wake per backend ---------

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time of the calling OS thread, in microseconds.
double thread_cpu_us() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) / 1e3;
}

/// A two-stream abt runtime under the park policy (LWT_IDLE_POLICY held off
/// its boot). Each iteration the main thread waits out the gap, pushes one
/// tasklet to stream 1's private pool and joins it. Counters: push to the
/// tasklet's first instruction, and stream 1's thread CPU per gap, read
/// inside the tasklet: its spinning, yielding and parking between tasklets.
void BM_IdleGapWake(benchmark::State& state) {
    const auto gap = std::chrono::microseconds(state.range(0));
    std::optional<abt::Library> lib;
    {
        test::IdlePolicyEnvPin pin;
        core::set_default_idle_policy(sync::IdlePolicy::kPark);
        lib.emplace(abt::Config{.num_xstreams = 2});
        core::set_default_idle_policy(std::nullopt);
    }
    Clock::time_point started{};
    double stream1_cpu_us = 0;
    auto wake_on_stream1 = [&] {
        abt::UnitHandle h = lib->task_create(
            [&] {
                started = Clock::now();
                stream1_cpu_us = thread_cpu_us();
            },
            /*pool_idx=*/1);
        h.free();
    };
    wake_on_stream1();  // the first CPU reading
    double wake_us = 0;
    double idle_cpu_us = 0;
    for (auto _ : state) {
        const Clock::time_point until = Clock::now() + gap;
        while (Clock::now() < until) {
            arch::cpu_relax();
        }
        const double cpu_before = stream1_cpu_us;
        const Clock::time_point pushed = Clock::now();
        wake_on_stream1();
        wake_us += us_between(pushed, started);
        idle_cpu_us += stream1_cpu_us - cpu_before;
    }
    state.counters["wake_us"] =
        benchmark::Counter(wake_us, benchmark::Counter::kAvgIterations);
    state.counters["stream1_cpu_us"] =
        benchmark::Counter(idle_cpu_us, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_IdleGapWake)
    ->ArgName("gap_us")
    ->Arg(10)
    ->Arg(50)
    ->Arg(150)
    ->Arg(300)
    ->Arg(1000)
    ->UseRealTime();

/// glt over `backend` with 2 workers: one unit on worker 1 spins 50 us and
/// stamps its last instruction; the manual time is that stamp to `join`
/// returning on the main thread. abt and cvt run their main thread as an
/// attached stream that waits on the idle ladder; qth and gol's is a plain
/// thread on a bare parker.
void BM_GltJoinWake(benchmark::State& state, glt::Backend backend) {
    auto rt = glt::Runtime::create(backend, 2);
    Clock::time_point last{};
    for (auto _ : state) {
        glt::UnitToken t = rt->ult_create(
            [&last] {
                const Clock::time_point until =
                    Clock::now() + std::chrono::microseconds(50);
                while (Clock::now() < until) {
                    arch::cpu_relax();
                }
                last = Clock::now();
            },
            glt::Placement::worker(1));
        rt->join(t);
        state.SetIterationTime(us_between(last, Clock::now()) / 1e6);
    }
}
BENCHMARK_CAPTURE(BM_GltJoinWake, abt, glt::Backend::kAbt)->UseManualTime();
BENCHMARK_CAPTURE(BM_GltJoinWake, qth, glt::Backend::kQth)->UseManualTime();
BENCHMARK_CAPTURE(BM_GltJoinWake, mth, glt::Backend::kMth)->UseManualTime();
BENCHMARK_CAPTURE(BM_GltJoinWake, cvt, glt::Backend::kCvt)->UseManualTime();
BENCHMARK_CAPTURE(BM_GltJoinWake, gol, glt::Backend::kGol)->UseManualTime();

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
