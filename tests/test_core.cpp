// Tests for the threading kernel: work units, ULT switch protocol, pools,
// schedulers, execution streams, ULT-level sync, channels.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/scheduler.hpp"
#include "core/sync_ult.hpp"
#include "core/ult.hpp"
#include "core/unique_function.hpp"
#include "core/work_unit.hpp"
#include "core/xstream.hpp"

namespace {

using namespace lwt::core;

// --- UniqueFunction -----------------------------------------------------------

TEST(UniqueFunction, InvokesSmallCallable) {
    int x = 0;
    UniqueFunction f([&x] { x = 42; });
    ASSERT_TRUE(static_cast<bool>(f));
    f();
    EXPECT_EQ(x, 42);
}

TEST(UniqueFunction, InvokesLargeCallableViaHeap) {
    struct Big {
        char pad[200] = {};
        int* out;
        void operator()() const { *out = 7; }
    };
    int x = 0;
    Big big;
    big.out = &x;
    UniqueFunction f(big);
    f();
    EXPECT_EQ(x, 7);
}

TEST(UniqueFunction, MoveTransfersCallable) {
    auto counter = std::make_shared<int>(0);
    UniqueFunction a([counter] { ++*counter; });
    UniqueFunction b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    b();
    EXPECT_EQ(*counter, 1);
}

TEST(UniqueFunction, MoveOnlyCaptureWorks) {
    auto p = std::make_unique<int>(9);
    int got = 0;
    UniqueFunction f([q = std::move(p), &got] { got = *q; });
    f();
    EXPECT_EQ(got, 9);
}

TEST(UniqueFunction, DestroysCaptureExactlyOnce) {
    auto counter = std::make_shared<int>(0);
    {
        UniqueFunction f([counter] {});
        EXPECT_EQ(counter.use_count(), 2);
    }
    EXPECT_EQ(counter.use_count(), 1);
}

// --- ULT switch protocol (scheduler-less, driving resume directly) -------------

TEST(Ult, RunsToCompletionAndReportsFinished) {
    bool ran = false;
    Ult ult([&] { ran = true; });
    EXPECT_EQ(ult.resume_on_this_thread(), YieldStatus::kFinished);
    EXPECT_TRUE(ran);
}

TEST(Ult, YieldSuspendsAndResumes) {
    std::vector<int> trace;
    Ult ult([&] {
        trace.push_back(1);
        Ult::current()->yield();
        trace.push_back(3);
    });
    EXPECT_EQ(ult.resume_on_this_thread(), YieldStatus::kYielded);
    trace.push_back(2);
    EXPECT_EQ(ult.resume_on_this_thread(), YieldStatus::kFinished);
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(Ult, CurrentIsVisibleOnlyInsideUlt) {
    EXPECT_EQ(Ult::current(), nullptr);
    Ult* seen = nullptr;
    Ult ult([&] { seen = Ult::current(); });
    ult.resume_on_this_thread();
    EXPECT_EQ(seen, &ult);
    EXPECT_EQ(Ult::current(), nullptr);
}

TEST(Ult, ManyYieldsKeepStackIntact) {
    int local_probe = 0;
    Ult ult([&] {
        // Locals must survive arbitrarily many suspensions.
        int mine = 100;
        for (int i = 0; i < 1000; ++i) {
            mine += i;
            Ult::current()->yield();
        }
        local_probe = mine;
    });
    while (ult.resume_on_this_thread() != YieldStatus::kFinished) {
    }
    EXPECT_EQ(local_probe, 100 + 999 * 1000 / 2);
}

TEST(Ult, MigratesBetweenOsThreads) {
    // The ULT reads a host marker the resuming thread publishes before each
    // resume (TLS-derived ids can be cached across suspension points, so the
    // ULT cannot reliably ask "which thread am I on" itself).
    std::atomic<int> host{0};
    int first = 0, second = 0;
    {
        Ult ult([&] {
            first = host.load();
            Ult::current()->yield();
            second = host.load();
        });
        host.store(1);
        EXPECT_EQ(ult.resume_on_this_thread(), YieldStatus::kYielded);
        std::thread other([&] {
            host.store(2);
            EXPECT_EQ(ult.resume_on_this_thread(), YieldStatus::kFinished);
        });
        other.join();
    }
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 2);
    // The migrated ULT is gone. This thread's next switches must save into
    // its own context record: a switch that wrote its thread-local after
    // resuming on `other` would leave this thread pointing at the dead
    // ULT's record (the ucontext backend's `tl_current`).
    int steps = 0;
    Ult local([&] {
        ++steps;
        Ult::current()->yield();
        ++steps;
    });
    EXPECT_EQ(local.resume_on_this_thread(), YieldStatus::kYielded);
    EXPECT_EQ(steps, 1);
    EXPECT_EQ(local.resume_on_this_thread(), YieldStatus::kFinished);
    EXPECT_EQ(steps, 2);
}

TEST(Ult, ReusesPooledStack) {
    lwt::arch::StackPool pool(32 * 1024);
    int runs = 0;
    for (int i = 0; i < 3; ++i) {
        Ult ult([&] { ++runs; }, pool.acquire());
        ult.resume_on_this_thread();
        pool.recycle(ult.take_stack());
    }
    EXPECT_EQ(runs, 3);
    EXPECT_EQ(pool.cached(), 1u);
}

// --- pools -----------------------------------------------------------------------

std::unique_ptr<Tasklet> make_noop_tasklet() {
    return std::make_unique<Tasklet>([] {});
}

template <typename P>
void expect_pool_fifo_semantics(P&& pool) {
    auto a = make_noop_tasklet();
    auto b = make_noop_tasklet();
    pool.push(a.get());
    pool.push(b.get());
    EXPECT_EQ(pool.size_hint(), 2u);
    EXPECT_EQ(pool.pop(), a.get());
    EXPECT_EQ(pool.pop(), b.get());
    EXPECT_EQ(pool.pop(), nullptr);
}

TEST(Pools, SharedFifoPoolIsFifo) { expect_pool_fifo_semantics(SharedFifoPool{}); }
TEST(Pools, MpmcPoolIsFifo) { expect_pool_fifo_semantics(MpmcPool{16}); }

/// Resident set size of this process in bytes (/proc/self/statm).
long resident_bytes() {
    std::ifstream statm("/proc/self/statm");
    long size_pages = 0;
    long resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return resident_pages * sysconf(_SC_PAGESIZE);
}

TEST(Pools, MpmcPoolRingIsResidentOnlyWhenUsed) {
    // A default MpmcPool ring spans 64 Ki slots (1 MiB); constructing one
    // must not touch them, so eight pools add well under one ring's worth.
    const long before = resident_bytes();
    std::vector<std::unique_ptr<MpmcPool>> pools;
    for (int i = 0; i < 8; ++i) {
        pools.push_back(std::make_unique<MpmcPool>());
    }
    EXPECT_LT(resident_bytes() - before, 1L << 20);
    for (auto& pool : pools) {
        expect_pool_fifo_semantics(*pool);
    }
}

TEST(Pools, DequePoolFifoOrder) {
    expect_pool_fifo_semantics(DequePool{DequePool::PopOrder::kFifo});
}

TEST(Pools, DequePoolLifoOrder) {
    DequePool pool(DequePool::PopOrder::kLifo);
    auto a = make_noop_tasklet();
    auto b = make_noop_tasklet();
    pool.push(a.get());
    pool.push(b.get());
    EXPECT_EQ(pool.pop(), b.get());    // newest first for the owner
    EXPECT_EQ(pool.pop(), a.get());
    EXPECT_EQ(pool.steal(), nullptr);  // empty now
    pool.push(a.get());
    pool.push(b.get());
    EXPECT_EQ(pool.steal(), a.get());  // thief takes the oldest
}

TEST(Pools, PushMarksUnitsReady) {
    SharedFifoPool pool;
    auto t = make_noop_tasklet();
    EXPECT_EQ(t->state.load(), State::kCreated);
    pool.push(t.get());
    EXPECT_EQ(t->state.load(), State::kReady);
    pool.pop();
}

TEST(Pools, RemoveByIdentity) {
    DequePool pool;
    auto a = make_noop_tasklet();
    auto b = make_noop_tasklet();
    pool.push(a.get());
    pool.push(b.get());
    EXPECT_TRUE(pool.remove(a.get()));
    EXPECT_FALSE(pool.remove(a.get()));
    EXPECT_EQ(pool.pop(), b.get());
}

// --- schedulers --------------------------------------------------------------------

TEST(Scheduler, ScansPoolsInOrder) {
    DequePool p0, p1;
    auto a = make_noop_tasklet();
    auto b = make_noop_tasklet();
    p1.push(b.get());
    p0.push(a.get());
    Scheduler sched({&p0, &p1});
    EXPECT_EQ(sched.next(), a.get());  // pool 0 has priority
    EXPECT_EQ(sched.next(), b.get());
    EXPECT_EQ(sched.next(), nullptr);
    EXPECT_FALSE(sched.has_work());
}

TEST(Scheduler, StealingSchedulerFallsBackToVictims) {
    DequePool mine;
    DequePool victim;
    auto a = make_noop_tasklet();
    victim.push(a.get());
    StealingScheduler sched(&mine, {&victim});
    // Random victim selection: poll until the single victim is probed.
    WorkUnit* got = nullptr;
    for (int i = 0; i < 100 && got == nullptr; ++i) {
        got = sched.next();
    }
    EXPECT_EQ(got, a.get());
}

// --- XStream ----------------------------------------------------------------------

TEST(XStream, ExecutesTaskletsPushedToItsPool) {
    auto pool = std::make_unique<DequePool>();
    DequePool* pool_ptr = pool.get();
    struct Holder {
        std::unique_ptr<DequePool> p;
    };
    // Keep the pool alive for the stream's lifetime.
    Holder holder{std::move(pool)};
    XStream stream(1, std::make_unique<Scheduler>(std::vector<Pool*>{pool_ptr}));
    stream.start();
    std::atomic<int> ran{0};
    constexpr int kUnits = 100;
    for (int i = 0; i < kUnits; ++i) {
        auto* t = new Tasklet([&] { ran.fetch_add(1); });
        t->detached = true;
        pool_ptr->push(t);
    }
    while (ran.load() < kUnits) {
        std::this_thread::yield();
    }
    stream.stop_and_join();
    EXPECT_EQ(ran.load(), kUnits);
    EXPECT_GE(stream.executed(), static_cast<std::uint64_t>(kUnits));
}

TEST(XStream, RunsUltsWithYields) {
    DequePool pool;
    XStream stream(1, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.start();
    std::atomic<bool> done{false};
    auto* u = new Ult([&] {
        for (int i = 0; i < 50; ++i) {
            Ult::current()->yield();
        }
        done.store(true);
    });
    u->detached = true;
    pool.push(u);
    while (!done.load()) {
        std::this_thread::yield();
    }
    stream.stop_and_join();
    EXPECT_TRUE(done.load());
}

TEST(XStream, JoinableUnitIsReclaimedByJoiner) {
    DequePool pool;
    XStream stream(1, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.start();
    auto u = std::make_unique<Ult>([] {});
    pool.push(u.get());
    while (!u->terminated()) {
        std::this_thread::yield();
    }
    stream.stop_and_join();
    SUCCEED();  // no double free: we own `u`
}

TEST(XStream, ProgressDrivesWorkOnCallingThread) {
    DequePool pool;
    XStream stream(0, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.attach_caller();
    int ran = 0;
    auto* t = new Tasklet([&] { ++ran; });
    t->detached = true;
    pool.push(t);
    EXPECT_TRUE(stream.progress());
    EXPECT_EQ(ran, 1);
    EXPECT_FALSE(stream.progress());  // nothing left
    stream.detach_caller();
}

TEST(XStream, RunUntilMakesProgressWhileWaiting) {
    DequePool pool;
    XStream stream(0, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.attach_caller();
    int ran = 0;
    for (int i = 0; i < 10; ++i) {
        auto* t = new Tasklet([&] { ++ran; });
        t->detached = true;
        pool.push(t);
    }
    stream.run_until([&] { return ran == 10; });
    EXPECT_EQ(ran, 10);
    stream.detach_caller();
}

TEST(XStream, StackedSchedulerPreemptsAndPops) {
    DequePool base_pool, urgent_pool;
    XStream stream(0,
                   std::make_unique<Scheduler>(std::vector<Pool*>{&base_pool}));
    stream.attach_caller();

    // A stacked scheduler that drains `urgent_pool` and then declares itself
    // finished.
    class DrainScheduler : public Scheduler {
      public:
        explicit DrainScheduler(Pool* p) : Scheduler({p}) {}
        [[nodiscard]] bool finished() const override {
            return pools_.front()->empty();
        }
    };

    std::vector<std::string> order;
    auto push_named = [&](Pool& pool, const char* name) {
        auto* t = new Tasklet([&order, name] { order.emplace_back(name); });
        t->detached = true;
        pool.push(t);
    };
    push_named(base_pool, "base");
    push_named(urgent_pool, "urgent1");
    push_named(urgent_pool, "urgent2");

    stream.push_scheduler(std::make_unique<DrainScheduler>(&urgent_pool));
    while (stream.progress()) {
    }
    stream.detach_caller();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "urgent1");  // stacked scheduler ran first
    EXPECT_EQ(order[1], "urgent2");
    EXPECT_EQ(order[2], "base");     // base scheduler resumed after pop
}

TEST(XStream, YieldToRunsTargetNext) {
    DequePool pool;
    XStream stream(0, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.attach_caller();
    std::vector<int> order;
    Ult* target = new Ult([&] { order.push_back(2); });
    target->detached = true;
    Ult* decoy = new Ult([&] { order.push_back(3); });
    decoy->detached = true;
    Ult* source = new Ult([&] {
        order.push_back(1);
        EXPECT_TRUE(lwt::core::yield_to(target));
        order.push_back(4);
    });
    source->detached = true;
    pool.push(source);
    pool.push(decoy);   // ahead of target in FIFO order
    pool.push(target);
    while (stream.progress()) {
    }
    stream.detach_caller();
    // yield_to must beat the decoy despite queue order.
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

// --- blocking & wake handshake -------------------------------------------------

TEST(UltBlocking, MutexBlocksUltUntilUnlocked) {
    DequePool pool;
    XStream stream(0, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.attach_caller();
    UltMutex mutex;
    std::vector<int> order;

    Ult* holder = new Ult([&] {
        mutex.lock();
        order.push_back(1);
        // Let the waiter run and block on the mutex.
        for (int i = 0; i < 5; ++i) {
            Ult::current()->yield();
        }
        order.push_back(2);
        mutex.unlock();
    });
    holder->detached = true;
    Ult* waiter = new Ult([&] {
        mutex.lock();
        order.push_back(3);
        mutex.unlock();
    });
    waiter->detached = true;
    pool.push(holder);
    pool.push(waiter);
    while (stream.progress()) {
    }
    stream.detach_caller();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(UltBlocking, CondVarWakesWaiters) {
    DequePool pool;
    XStream stream(0, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.attach_caller();
    UltMutex mutex;
    UltCondVar cv;
    bool flag = false;
    int observed = 0;

    for (int i = 0; i < 3; ++i) {
        auto* w = new Ult([&] {
            mutex.lock();
            while (!flag) {
                cv.wait(mutex);
            }
            ++observed;
            mutex.unlock();
        });
        w->detached = true;
        pool.push(w);
    }
    auto* setter = new Ult([&] {
        mutex.lock();
        flag = true;
        mutex.unlock();
        cv.notify_all();
    });
    setter->detached = true;
    pool.push(setter);
    while (stream.progress()) {
    }
    stream.detach_caller();
    EXPECT_EQ(observed, 3);
}

TEST(UltBlocking, CrossStreamWake) {
    // A ULT blocks on stream A; a plain thread wakes it; it finishes on A.
    DequePool pool;
    XStream stream(1, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.start();
    UltMutex mutex;
    mutex.lock();  // held by the main (plain) thread
    std::atomic<bool> reached{false}, done{false};
    auto* u = new Ult([&] {
        reached.store(true);
        mutex.lock();  // blocks: main thread holds it
        mutex.unlock();
        done.store(true);
    });
    u->detached = true;
    pool.push(u);
    while (!reached.load()) {
        std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(done.load());
    mutex.unlock();  // wakes the blocked ULT
    while (!done.load()) {
        std::this_thread::yield();
    }
    stream.stop_and_join();
    EXPECT_TRUE(done.load());
}

// --- EventCounter / UltBarrier ---------------------------------------------------

TEST(EventCounter, WaitReturnsWhenAllSignalled) {
    EventCounter ec;
    ec.add(3);
    std::thread t([&] {
        for (int i = 0; i < 3; ++i) {
            ec.signal();
        }
    });
    ec.wait();
    t.join();
    EXPECT_EQ(ec.value(), 0);
}

TEST(UltBarrierTest, SynchronisesUltsAcrossStreams) {
    DequePool pool0, pool1;
    XStream s0(0, std::make_unique<Scheduler>(std::vector<Pool*>{&pool0}));
    XStream s1(1, std::make_unique<Scheduler>(std::vector<Pool*>{&pool1}));
    s0.start();
    s1.start();
    constexpr int kUlts = 4;
    UltBarrier barrier(kUlts);
    std::atomic<int> before{0}, after{0};
    std::atomic<int> finished{0};
    for (int i = 0; i < kUlts; ++i) {
        auto* u = new Ult([&] {
            before.fetch_add(1);
            barrier.arrive_and_wait();
            EXPECT_EQ(before.load(), kUlts);
            after.fetch_add(1);
            finished.fetch_add(1);
        });
        u->detached = true;
        (i % 2 == 0 ? pool0 : pool1).push(u);
    }
    while (finished.load() < kUlts) {
        std::this_thread::yield();
    }
    s0.stop_and_join();
    s1.stop_and_join();
    EXPECT_EQ(after.load(), kUlts);
}

// --- Channel -----------------------------------------------------------------------

TEST(ChannelTest, BufferedSendRecvFifo) {
    Channel<int> ch(4);
    EXPECT_TRUE(ch.send(1));
    EXPECT_TRUE(ch.send(2));
    EXPECT_EQ(ch.recv().value_or(-1), 1);
    EXPECT_EQ(ch.recv().value_or(-1), 2);
}

TEST(ChannelTest, TrySendRespectsCapacity) {
    Channel<int> ch(2);
    EXPECT_TRUE(ch.try_send(1));
    EXPECT_TRUE(ch.try_send(2));
    EXPECT_FALSE(ch.try_send(3));
    EXPECT_EQ(ch.recv().value_or(-1), 1);
    EXPECT_TRUE(ch.try_send(3));
}

TEST(ChannelTest, CloseDrainsThenSignals) {
    Channel<int> ch(4);
    ch.send(1);
    ch.close();
    EXPECT_FALSE(ch.send(2));
    EXPECT_EQ(ch.recv().value_or(-1), 1);  // drain
    EXPECT_FALSE(ch.recv().has_value());   // closed
}

TEST(ChannelTest, UnbufferedHandsOffBetweenThreads) {
    Channel<int> ch(0);
    std::int64_t sum = 0;
    std::thread receiver([&] {
        for (int i = 0; i < 100; ++i) {
            sum += ch.recv().value_or(0);
        }
    });
    for (int i = 1; i <= 100; ++i) {
        EXPECT_TRUE(ch.send(i));
    }
    receiver.join();
    EXPECT_EQ(sum, 100 * 101 / 2);
}

TEST(ChannelTest, UnbufferedTrySendFailsWithoutReceiver) {
    Channel<int> ch(0);
    EXPECT_FALSE(ch.try_send(1));
}

TEST(ChannelTest, ManyUltSendersOneMainReceiver) {
    // The Go join idiom from the paper: N goroutine sends, main receives N.
    DequePool pool;
    XStream stream(1, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.start();
    Channel<int> ch(128);
    constexpr int kUlts = 64;
    for (int i = 0; i < kUlts; ++i) {
        auto* u = new Ult([&ch, i] { ch.send(i); });
        u->detached = true;
        pool.push(u);
    }
    std::set<int> got;
    for (int i = 0; i < kUlts; ++i) {
        auto v = ch.recv();
        ASSERT_TRUE(v.has_value());
        got.insert(*v);
    }
    stream.stop_and_join();
    EXPECT_EQ(got.size(), static_cast<std::size_t>(kUlts));
}

// --- Runtime -----------------------------------------------------------------------

TEST(RuntimeTest, BootsAndStopsStreams) {
    std::vector<std::unique_ptr<DequePool>> pools;
    for (int i = 0; i < 3; ++i) {
        pools.push_back(std::make_unique<DequePool>());
    }
    std::atomic<int> ran{0};
    {
        Runtime rt(3, [&](unsigned rank) {
            return std::make_unique<Scheduler>(
                std::vector<Pool*>{pools[rank].get()});
        });
        EXPECT_EQ(rt.num_streams(), 3u);
        EXPECT_EQ(XStream::current(), &rt.primary());
        for (int i = 0; i < 30; ++i) {
            auto* t = new Tasklet([&] { ran.fetch_add(1); });
            t->detached = true;
            pools[1 + (i % 2)]->push(t);  // only secondary streams
        }
        rt.primary().run_until([&] { return ran.load() == 30; });
    }
    EXPECT_EQ(ran.load(), 30);
    EXPECT_EQ(XStream::current(), nullptr);
}

TEST(RuntimeTest, ResolveStreamCountPrecedence) {
    EXPECT_EQ(Runtime::resolve_stream_count(5, "LWT_TEST_NOT_SET"), 5u);
    ::setenv("LWT_TEST_STREAMS", "7", 1);
    EXPECT_EQ(Runtime::resolve_stream_count(0, "LWT_TEST_STREAMS"), 7u);
    ::unsetenv("LWT_TEST_STREAMS");
    EXPECT_GE(Runtime::resolve_stream_count(0, "LWT_TEST_STREAMS"), 1u);
}

// --- property sweep: units created == units executed, across pool types ---------

class ConservationTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConservationTest, EveryUnitRunsExactlyOnce) {
    const int num_streams = std::get<0>(GetParam());
    const int num_units = std::get<1>(GetParam());
    std::vector<std::unique_ptr<DequePool>> pools;
    for (int i = 0; i < num_streams; ++i) {
        pools.push_back(std::make_unique<DequePool>());
    }
    std::vector<std::atomic<int>> run_counts(num_units);
    {
        Runtime rt(static_cast<std::size_t>(num_streams), [&](unsigned rank) {
            return std::make_unique<Scheduler>(
                std::vector<Pool*>{pools[rank].get()});
        });
        std::atomic<int> done{0};
        for (int i = 0; i < num_units; ++i) {
            UniqueFunction body = [&run_counts, &done, i] {
                run_counts[static_cast<std::size_t>(i)].fetch_add(1);
                done.fetch_add(1);
            };
            WorkUnit* unit;
            if (i % 2 == 0) {
                unit = new Tasklet(std::move(body));
            } else {
                unit = new Ult(std::move(body));
            }
            unit->detached = true;
            pools[static_cast<std::size_t>(i % num_streams)]->push(unit);
        }
        rt.primary().run_until([&] { return done.load() == num_units; });
    }
    for (int i = 0; i < num_units; ++i) {
        EXPECT_EQ(run_counts[static_cast<std::size_t>(i)].load(), 1)
            << "unit " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    StreamAndUnitSweep, ConservationTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1, 16, 256)));

}  // namespace
