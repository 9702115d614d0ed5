// Tests for the suspend-based synchronisation suite (core/sync_ult.hpp,
// core/channel.hpp, core/future.hpp, qth/feb.hpp; docs/sync.md): the
// Mutex/Condvar/RwLock/Semaphore/UltBarrier/EventCounter family on the
// shared waiter machinery, FEB words parked on their shard, the rendezvous
// Channel, and the plain-thread Future wake path.
//
// TSan builds (tools/tsan.sh) run this file too: TSan cannot follow
// fcontext switches, so every test that suspends/resumes a ULT is gated
// out under thread sanitizer. The OS-thread protocol tests — parker wakes,
// FEB waiter-list races, the rendezvous channel, destroy-race stress — all
// stay enabled; they are the racy part the suite has to get right.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "abt/abt.hpp"
#include "core/channel.hpp"
#include "core/future.hpp"
#include "core/metrics.hpp"
#include "core/pool.hpp"
#include "core/scheduler.hpp"
#include "core/sync_ult.hpp"
#include "core/xstream.hpp"
#include "cvt/cvt.hpp"
#include "gol/gol.hpp"
#include "mth/mth.hpp"
#include "qth/feb.hpp"
#include "qth/qth.hpp"
#include "sync/parking_lot.hpp"

#if defined(__SANITIZE_THREAD__)
#define LWT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LWT_TSAN 1
#endif
#endif

namespace {

using lwt::core::Condvar;
using lwt::core::Mutex;
using lwt::core::RwLock;
using lwt::core::Semaphore;
using lwt::core::UltBarrier;

// --- Mutex / Condvar: OS-thread protocol -------------------------------------

TEST(SyncMutex, MutualExclusionOsThreads) {
    constexpr int kThreads = 4;
    constexpr int kIncrements = 20000;
    Mutex m;
    long counter = 0;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < kIncrements; ++i) {
                std::lock_guard guard(m);
                ++counter;
            }
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SyncMutex, TryLockReflectsState) {
    Mutex m;
    EXPECT_TRUE(m.try_lock());
    EXPECT_FALSE(m.try_lock());
    m.unlock();
    EXPECT_TRUE(m.try_lock());
    m.unlock();
}

TEST(SyncCondvar, OsThreadPredicateHandoff) {
    // The old UltCondVar asserted ULT context; plain threads must now be
    // able to block and be woken. Spurious/Mesa-safe predicate loops.
    Mutex m;
    Condvar cv;
    int stage = 0;
    std::thread consumer([&] {
        std::lock_guard g(m);
        cv.wait(m, [&] { return stage == 1; });
        stage = 2;
        cv.notify_all();
    });
    {
        std::lock_guard g(m);
        stage = 1;
        cv.notify_all();
    }
    {
        std::lock_guard g(m);
        cv.wait(m, [&] { return stage == 2; });
    }
    consumer.join();
    EXPECT_EQ(stage, 2);
}

TEST(SyncCondvar, NotifyAllWakesEveryOsThreadWaiter) {
    constexpr int kWaiters = 4;
    Mutex m;
    Condvar cv;
    bool go = false;
    std::atomic<int> woken{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kWaiters; ++i) {
        threads.emplace_back([&] {
            std::lock_guard g(m);
            cv.wait(m, [&] { return go; });
            woken.fetch_add(1);
        });
    }
    // Let everyone reach the wait; notify_all must then release them all.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
        std::lock_guard g(m);
        go = true;
        cv.notify_all();
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(woken.load(), kWaiters);
}

// --- RwLock ------------------------------------------------------------------

TEST(SyncRwLock, ReadersShareWritersExclude) {
    RwLock rw;
    rw.lock_shared();
    EXPECT_TRUE(rw.try_lock_shared());  // second reader fits
    EXPECT_FALSE(rw.try_lock());        // writer excluded
    rw.unlock_shared();
    rw.unlock_shared();
    EXPECT_TRUE(rw.try_lock());
    EXPECT_FALSE(rw.try_lock_shared());  // reader excluded by writer
    rw.unlock();
}

TEST(SyncRwLock, WriterNotStarvedByReaderChurn) {
    // Writer-preference bound: under continuous reader churn a writer must
    // still get in (fresh readers stop acquiring once it is registered).
    RwLock rw;
    std::atomic<bool> stop{false};
    std::atomic<bool> writer_done{false};
    std::atomic<long> read_sections{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                rw.lock_shared();
                read_sections.fetch_add(1);
                rw.unlock_shared();
            }
        });
    }
    // Let the churn establish itself, then demand the write lock.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::thread writer([&] {
        rw.lock();
        writer_done.store(true);
        rw.unlock();
    });
    writer.join();  // hangs here = starvation = test timeout
    EXPECT_TRUE(writer_done.load());
    stop.store(true);
    for (auto& r : readers) {
        r.join();
    }
    EXPECT_GT(read_sections.load(), 0);
}

TEST(SyncRwLock, WriterMutualExclusionUnderContention) {
    RwLock rw;
    long counter = 0;
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < 5000; ++i) {
                rw.lock();
                ++counter;
                rw.unlock();
            }
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    EXPECT_EQ(counter, 4 * 5000);
}

// --- Semaphore ---------------------------------------------------------------

TEST(SyncSemaphore, BoundsConcurrency) {
    constexpr int kPermits = 3;
    constexpr int kThreads = 8;
    Semaphore sem(kPermits);
    std::atomic<int> inside{0};
    std::atomic<int> peak{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < 200; ++i) {
                sem.acquire();
                const int now = inside.fetch_add(1) + 1;
                int prev = peak.load();
                while (now > prev && !peak.compare_exchange_weak(prev, now)) {
                }
                inside.fetch_sub(1);
                sem.release();
            }
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    EXPECT_LE(peak.load(), kPermits);
    EXPECT_GT(peak.load(), 0);
    EXPECT_EQ(sem.value(), kPermits);
}

TEST(SyncSemaphore, TryAcquireReflectsCount) {
    Semaphore sem(1);
    EXPECT_TRUE(sem.try_acquire());
    EXPECT_FALSE(sem.try_acquire());
    sem.release();
    EXPECT_TRUE(sem.try_acquire());
    sem.release(2);
    EXPECT_EQ(sem.value(), 2);
}

// --- UltBarrier with OS threads ----------------------------------------------

TEST(SyncBarrier, OsThreadRoundsAndGenerationReuse) {
    constexpr int kN = 4;
    constexpr int kRounds = 100;
    UltBarrier barrier(kN);
    std::atomic<int> phase_counts[kRounds] = {};
    std::vector<std::thread> workers;
    for (int t = 0; t < kN; ++t) {
        workers.emplace_back([&] {
            for (int r = 0; r < kRounds; ++r) {
                phase_counts[r].fetch_add(1);
                barrier.arrive_and_wait();
                EXPECT_EQ(phase_counts[r].load(), kN);
            }
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    EXPECT_EQ(barrier.generation(), static_cast<std::uint64_t>(kRounds));
}

TEST(SyncBarrier, SingleParticipantNeverBlocks) {
    UltBarrier barrier(1);
    for (int i = 0; i < 100; ++i) {
        barrier.arrive_and_wait();
    }
    EXPECT_EQ(barrier.generation(), 100u);
}

// --- FEB words: the shard waiter list --------------------------------------

TEST(FebWord, DestroyRaceStress) {
    // A reader may free its word the moment read_ff returns, while the
    // writer is still waking it: past the shard lock the wake touches only
    // the waiters' stack nodes, never the word. 300 rounds of that race.
    constexpr int kRounds = 300;
    lwt::qth::FebTable table;
    std::atomic<lwt::qth::aligned_t*> handoff{nullptr};
    std::thread writer([&] {
        for (int r = 0; r < kRounds; ++r) {
            lwt::qth::aligned_t* w;
            while ((w = handoff.exchange(nullptr)) == nullptr) {
                std::this_thread::yield();
            }
            table.write_f(w, 1);  // its wake may outlive the word
        }
    });
    for (int r = 0; r < kRounds; ++r) {
        auto word = std::make_unique<lwt::qth::aligned_t>(0);
        table.purge(word.get());
        handoff.store(word.get());
        EXPECT_EQ(table.read_ff(word.get()), 1u);
        table.forget(word.get());
        word.reset();  // destroy immediately; the writer may still be waking
    }
    writer.join();
}

TEST(FebWord, AttachedStreamWaitParksOnItsLot) {
    // An OS thread attached to a stream blocks in read_ff through the
    // stream's idle ladder. Its parker is routed through the stream's lot,
    // so the wait reaches the park rung there and the write's wake ends
    // the park, counted in the stream's unparks. (A bare parker never
    // touches the lot: the writer below would give up after 2 s each
    // round.)
    constexpr int kRounds = 5;
    lwt::qth::FebTable table;
    lwt::sync::ParkingLot lot;
    lwt::core::DequePool pool;
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.set_parking_lot(&lot);
    stream.attach_caller();
    for (int round = 0; round < kRounds; ++round) {
        lwt::qth::aligned_t word = 0;
        table.purge(&word);
        std::thread writer([&] {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(2);
            while (lot.waiters() == 0 &&
                   std::chrono::steady_clock::now() < deadline) {
                std::this_thread::yield();
            }
            table.write_f(&word, 1);
        });
        EXPECT_EQ(table.read_ff(&word), 1u);
        writer.join();
        table.forget(&word);
    }
    stream.detach_caller();
    EXPECT_GT(stream.sched_stats().unparks, 0u);
}

// --- EventCounter: the shared block path ------------------------------------

/// Wait on an EventCounter(1) through `wait_on`, signalling it only once
/// the wait's suspend is visible in sync.suspends (bounded at 5 s); returns
/// the suspends and wake-latency samples the round added.
template <typename WaitOn>
std::pair<std::uint64_t, std::uint64_t> event_counter_wait_telemetry(
    WaitOn&& wait_on) {
    auto& registry = lwt::core::MetricsRegistry::instance();
    auto& suspends = registry.counter("sync.suspends");
    auto& hist = registry.histogram("sync.wake_latency_ticks");
    lwt::core::Metrics::instance().enable();
    const std::uint64_t suspends_before = suspends.value();
    const std::uint64_t samples_before = hist.snapshot().count;
    lwt::core::EventCounter counter(1);
    wait_on(counter, [&] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (suspends.value() == suspends_before &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
        }
        counter.signal();
    });
    const std::uint64_t suspended = suspends.value() - suspends_before;
    const std::uint64_t samples = hist.snapshot().count - samples_before;
    lwt::core::Metrics::instance().disable();
    return {suspended, samples};
}

TEST(SyncEventCounter, ThreadWaitReportsSyncTelemetry) {
    // EventCounter waits block through SyncBlocker like every other
    // primitive, so a plain thread's wait counts exactly one suspend and
    // one wake-latency sample.
    const auto [suspended, samples] = event_counter_wait_telemetry(
        [](lwt::core::EventCounter& counter, auto&& signal_once_parked) {
            std::thread signaller(signal_once_parked);
            counter.wait();
            signaller.join();
        });
    EXPECT_EQ(suspended, 1u);
    EXPECT_EQ(samples, 1u);
}

// --- Future: plain-thread wake path ------------------------------------------

TEST(SyncFuture, SetWakesParkedOsThread) {
    // The plain-thread wait used to spin on yield_anywhere(); it must now
    // park and be woken by set() — asserted via the sync.wake_latency
    // histogram, which only the suspend path records.
    auto& hist = lwt::core::MetricsRegistry::instance().histogram(
        "sync.wake_latency_ticks");
    lwt::core::Metrics::instance().enable();
    hist.reset();
    lwt::core::Future<int> fut;
    int got = 0;
    std::thread waiter([&] { got = fut.wait(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fut.set(42);
    waiter.join();
    const std::uint64_t samples = hist.snapshot().count;
    lwt::core::Metrics::instance().disable();
    hist.reset();
    EXPECT_EQ(got, 42);
    EXPECT_GT(samples, 0u);
}

TEST(SyncFuture, TryGetAndReadyAgree) {
    lwt::core::Future<int> fut;
    EXPECT_FALSE(fut.ready());
    EXPECT_FALSE(fut.try_get().has_value());
    fut.set(9);
    EXPECT_TRUE(fut.ready());
    EXPECT_EQ(fut.try_get().value(), 9);
    EXPECT_EQ(fut.wait(), 9);  // post-set wait never blocks
}

// --- Channel: rendezvous semantics (OS threads) ------------------------------

TEST(SyncChannel, UnbufferedRendezvousTwoSendersOneReceiver) {
    // Regression for the stranded-value race: the old unbuffered send
    // pushed into the buffer whenever a receiver was COUNTED as waiting —
    // but that receiver could already be departing with an earlier item,
    // so two sends could "succeed" for one receive, stranding a value in
    // a capacity-0 channel. A true rendezvous delivers exactly as many
    // values as are received.
    for (int round = 0; round < 50; ++round) {
        lwt::core::Channel<int> ch;  // unbuffered
        std::atomic<int> send_ok{0};
        std::thread s1([&] { send_ok.fetch_add(ch.send(1) ? 1 : 0); });
        std::thread s2([&] { send_ok.fetch_add(ch.send(2) ? 1 : 0); });
        std::optional<int> got = ch.recv();  // take exactly one value
        ch.close();                          // strand nobody: wake the loser
        s1.join();
        s2.join();
        ASSERT_TRUE(got.has_value());
        // Exactly one send may report success, and nothing may be left
        // buffered in a capacity-0 channel.
        EXPECT_EQ(send_ok.load(), 1) << "round " << round;
        EXPECT_EQ(ch.size(), 0u) << "round " << round;
        EXPECT_FALSE(ch.recv().has_value());  // closed and drained
    }
}

TEST(SyncChannel, CloseWakesBlockedSenderAndReceiver) {
    // close() must wake a sender blocked on a full/unbuffered channel
    // (send returns false) and a receiver blocked on an empty one
    // (recv returns nullopt). Both block as OS threads here.
    lwt::core::Channel<int> ch;  // unbuffered: both directions block
    std::atomic<int> send_result{-1};
    std::atomic<int> recv_has_value{-1};
    std::thread sender([&] { send_result.store(ch.send(5) ? 1 : 0); });
    std::thread receiver(
        [&] { recv_has_value.store(ch.recv().has_value() ? 1 : 0); });
    // The rendezvous may legitimately pair the two before close(); only
    // assert consistency: either both completed the handoff, or close()
    // failed them both.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ch.close();
    sender.join();
    receiver.join();
    EXPECT_EQ(send_result.load(), recv_has_value.load());
}

TEST(SyncChannel, CloseFailsBlockedSenderWithNoReceiver) {
    lwt::core::Channel<int> ch(1);
    EXPECT_TRUE(ch.send(1));  // fills the buffer
    std::atomic<int> second{-1};
    std::thread sender([&] { second.store(ch.send(2) ? 1 : 0); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(second.load(), -1);  // blocked on the full buffer
    ch.close();
    sender.join();
    EXPECT_EQ(second.load(), 0);  // woken with failure, value not consumed
    // The buffered value drains even after close.
    EXPECT_EQ(ch.recv().value(), 1);
    EXPECT_FALSE(ch.recv().has_value());
}

TEST(SyncChannel, BlockedSenderPromotedIntoFreedBufferSlot) {
    lwt::core::Channel<int> ch(1);
    EXPECT_TRUE(ch.send(1));
    std::atomic<bool> second_sent{false};
    std::thread sender([&] {
        EXPECT_TRUE(ch.send(2));  // blocks until recv frees the slot
        second_sent.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(second_sent.load());
    EXPECT_EQ(ch.recv().value(), 1);  // frees the slot -> promotes sender
    sender.join();
    EXPECT_TRUE(second_sent.load());
    EXPECT_EQ(ch.recv().value(), 2);  // FIFO preserved through promotion
}

TEST(SyncChannel, TryRecvCompletesBlockedSenderRendezvous) {
    lwt::core::Channel<int> ch;  // unbuffered
    std::atomic<bool> sent{false};
    std::thread sender([&] {
        EXPECT_TRUE(ch.send(7));
        sent.store(true);
    });
    // Wait until the sender is parked, then take its value non-blockingly.
    std::optional<int> got;
    while (!(got = ch.try_recv()).has_value()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    sender.join();
    EXPECT_EQ(got.value(), 7);
    EXPECT_TRUE(sent.load());
}

#if !defined(LWT_TSAN)

// --- ULT-context tests (suspend/resume through the scheduler) ----------------

TEST(SyncUlt, BlockedUltsSuspendWhileStreamKeepsWorking) {
    // The acceptance check for the suite: with the lock held for a long
    // time on another stream, contending ULTs must SUSPEND (not spin-yield)
    // — the holder observes their suspends in the sync.suspends counter
    // before it ever releases, and the contenders' stream keeps executing
    // other ready units (the background ULTs) the whole time. If waiters
    // spun instead, sync.suspends would never move and this test would
    // hang (ctest timeout), not just fail.
    auto& suspends =
        lwt::core::MetricsRegistry::instance().counter("sync.suspends");
    lwt::core::Metrics::instance().enable();
    const std::uint64_t before = suspends.value();

    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    Mutex m;
    std::atomic<bool> held{false};
    std::atomic<int> background{0};
    std::atomic<int> done_contenders{0};
    constexpr int kContenders = 4;

    // Holder on the worker stream's pool: takes the lock, then yields in
    // place until it has SEEN four suspended waiters and background
    // progress — proof the stream scheduled other units while they parked.
    std::vector<lwt::abt::UnitHandle> handles;
    handles.push_back(lib.thread_create(
        [&] {
            m.lock();
            held.store(true);
            while (suspends.value() - before < kContenders ||
                   background.load() == 0) {
                lwt::abt::Library::yield();
            }
            m.unlock();
        },
        /*pool_idx=*/1));
    for (int i = 0; i < kContenders; ++i) {
        handles.push_back(lib.thread_create(
            [&] {
                // Don't race the holder to the lock: a contender that wins
                // would finish without ever suspending and the holder would
                // then wait for a fourth suspend forever.
                while (!held.load()) {
                    lwt::abt::Library::yield();
                }
                m.lock();
                m.unlock();
                done_contenders.fetch_add(1);
            },
            /*pool_idx=*/1));
    }
    for (int i = 0; i < 8; ++i) {
        handles.push_back(lib.thread_create(
            [&] { background.fetch_add(1); }, /*pool_idx=*/1));
    }
    // Per-handle joins wait in the joiner slot, which records nothing in
    // sync.*: join_all_free's EventCounter wait would count as a suspend
    // and could stand in for a contender's.
    for (auto& h : handles) {
        h.free();
    }
    lwt::core::Metrics::instance().disable();
    EXPECT_EQ(done_contenders.load(), kContenders);
    EXPECT_EQ(background.load(), 8);
    EXPECT_GE(suspends.value() - before, 4u);
}

TEST(SyncUlt, CondvarPingPongFourUltsPerStream) {
    // >= 4 ULTs per stream on a mutex/condvar ping-pong (the acceptance
    // contention shape): turn-taking over a shared counter, predicate
    // loops absorbing Mesa wakeups, wake latency recorded by the suspend
    // path.
    auto& hist = lwt::core::MetricsRegistry::instance().histogram(
        "sync.wake_latency_ticks");
    lwt::core::Metrics::instance().enable();
    hist.reset();

    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    constexpr int kUlts = 8;  // 4 per stream
    constexpr int kRounds = 32;
    Mutex m;
    Condvar cv;
    int turn = 0;
    std::vector<lwt::abt::UnitHandle> handles;
    for (int id = 0; id < kUlts; ++id) {
        handles.push_back(lib.thread_create(
            [&, id] {
                for (int r = 0; r < kRounds; ++r) {
                    std::lock_guard g(m);
                    cv.wait(m, [&] { return turn % kUlts == id; });
                    ++turn;
                    cv.notify_all();
                }
            },
            /*pool_idx=*/1));  // worker pool; the primary helps via joins
    }
    // Per-handle joins wait in the joiner slot, which records nothing in
    // sync.*: join_all_free's EventCounter wait would add a wake sample
    // of its own even if no condvar wait ever parked.
    for (auto& h : handles) {
        h.free();
    }
    const std::uint64_t samples = hist.snapshot().count;
    lwt::core::Metrics::instance().disable();
    hist.reset();
    EXPECT_EQ(turn, kUlts * kRounds);
    // Strict turn order forces real suspends: every wait that was not
    // immediately satisfiable recorded a wake.
    EXPECT_GT(samples, 0u);
}

TEST(SyncUlt, BarrierGenerationReuseAcrossUltRounds) {
    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    constexpr int kUlts = 6;
    constexpr int kRounds = 25;
    UltBarrier barrier(kUlts);
    std::atomic<int> phase_counts[kRounds] = {};
    std::vector<lwt::abt::UnitHandle> handles;
    for (int id = 0; id < kUlts; ++id) {
        handles.push_back(lib.thread_create(
            [&] {
                for (int r = 0; r < kRounds; ++r) {
                    phase_counts[r].fetch_add(1);
                    barrier.arrive_and_wait();
                    EXPECT_EQ(phase_counts[r].load(), kUlts);
                }
            },
            /*pool_idx=*/1));
    }
    lib.join_all_free(handles);
    EXPECT_EQ(barrier.generation(), static_cast<std::uint64_t>(kRounds));
}

TEST(SyncUlt, MixedUltAndOsThreadBarrier) {
    // One side arrives from a ULT, the other from the (attached) main
    // thread — the barrier must pair suspend-wake with parker-wake.
    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    UltBarrier barrier(2);
    constexpr int kRounds = 10;
    std::vector<lwt::abt::UnitHandle> handles;
    handles.push_back(lib.thread_create(
        [&] {
            for (int r = 0; r < kRounds; ++r) {
                barrier.arrive_and_wait();
            }
        },
        /*pool_idx=*/1));
    for (int r = 0; r < kRounds; ++r) {
        barrier.arrive_and_wait();
    }
    lib.join_all_free(handles);
    EXPECT_EQ(barrier.generation(), static_cast<std::uint64_t>(kRounds));
}

TEST(SyncUlt, SemaphoreBoundsUltConcurrency) {
    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    constexpr int kPermits = 2;
    constexpr int kUlts = 6;
    Semaphore sem(kPermits);
    std::atomic<int> inside{0};
    std::atomic<int> peak{0};
    std::vector<lwt::abt::UnitHandle> handles;
    for (int i = 0; i < kUlts; ++i) {
        handles.push_back(lib.thread_create(
            [&] {
                for (int r = 0; r < 50; ++r) {
                    sem.acquire();
                    const int now = inside.fetch_add(1) + 1;
                    int prev = peak.load();
                    while (now > prev &&
                           !peak.compare_exchange_weak(prev, now)) {
                    }
                    lwt::abt::Library::yield();
                    inside.fetch_sub(1);
                    sem.release();
                }
            },
            /*pool_idx=*/1));
    }
    lib.join_all_free(handles);
    EXPECT_LE(peak.load(), kPermits);
    EXPECT_EQ(sem.value(), kPermits);
}

TEST(SyncUlt, RwLockUltReadersAndWriters) {
    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    RwLock rw;
    long shared_value = 0;
    std::atomic<long> reads{0};
    std::vector<lwt::abt::UnitHandle> handles;
    for (int w = 0; w < 2; ++w) {
        handles.push_back(lib.thread_create(
            [&] {
                for (int i = 0; i < 500; ++i) {
                    rw.lock();
                    ++shared_value;
                    rw.unlock();
                }
            },
            /*pool_idx=*/1));
    }
    for (int r = 0; r < 4; ++r) {
        handles.push_back(lib.thread_create(
            [&] {
                for (int i = 0; i < 500; ++i) {
                    rw.lock_shared();
                    reads.fetch_add(shared_value >= 0 ? 1 : 0);
                    rw.unlock_shared();
                }
            },
            /*pool_idx=*/1));
    }
    lib.join_all_free(handles);
    EXPECT_EQ(shared_value, 2 * 500);
    EXPECT_EQ(reads.load(), 4 * 500);
}

TEST(SyncUlt, FebBlockedUltSuspendsAndWakes) {
    // qthreads personality: a forked ULT blocks in read_ff on an EMPTY
    // word (suspending its worker's current unit, not the worker), and the
    // main thread's write_f wakes it off the word's shard.
    lwt::qth::Config c;
    c.num_shepherds = 2;
    c.workers_per_shepherd = 1;
    lwt::qth::Library lib(c);
    lwt::qth::aligned_t word = 0;
    lib.purge(&word);
    std::atomic<lwt::qth::aligned_t> got{0};
    lwt::qth::Sinc sinc;
    sinc.expect(1);
    lib.fork(
        [&lib, &word, &got, &sinc] {
            got.store(lib.read_ff(&word));
            sinc.submit();
        },
        nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(got.load(), 0u);  // still blocked
    lib.write_f(&word, 123);
    sinc.wait();
    EXPECT_EQ(got.load(), 123u);
}

TEST(SyncUlt, EventCounterUltWaitReportsSyncTelemetry) {
    // The ULT side of SyncEventCounter.ThreadWaitReportsSyncTelemetry: a
    // ULT waiting on an EventCounter suspends through SyncBlocker. The main
    // thread joins it with free(), whose joiner slot records nothing in
    // sync.*.
    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    const auto [suspended, samples] = event_counter_wait_telemetry(
        [&lib](lwt::core::EventCounter& counter, auto&& signal_once_parked) {
            lwt::abt::UnitHandle waiter = lib.thread_create(
                [&counter] { counter.wait(); }, /*pool_idx=*/1);
            signal_once_parked();
            waiter.free();
        });
    EXPECT_EQ(suspended, 1u);
    EXPECT_EQ(samples, 1u);
}

// --- Channel rendezvous on every personality ---------------------------------
//
// The 2-senders/1-receiver interleaving from the stranded-value regression,
// run with each personality's native units doing the sending and the
// personality's main thread receiving.

template <typename SpawnTwoSenders>
void expect_rendezvous_exact(lwt::core::Channel<int>& ch,
                             SpawnTwoSenders&& spawn_and_join) {
    std::atomic<int> send_ok{0};
    auto sender = [&ch, &send_ok](int v) {
        if (ch.send(v)) {
            send_ok.fetch_add(1);
        }
    };
    spawn_and_join(sender, [&ch] {
        std::optional<int> got = ch.recv();
        EXPECT_TRUE(got.has_value());
        ch.close();
    });
    EXPECT_EQ(send_ok.load(), 1);
    EXPECT_EQ(ch.size(), 0u);
}

TEST(SyncUlt, ChannelRendezvousAbt) {
    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    lwt::core::Channel<int> ch;
    expect_rendezvous_exact(ch, [&](auto sender, auto receive_and_close) {
        std::vector<lwt::abt::UnitHandle> hs;
        hs.push_back(lib.thread_create([&] { sender(1); }, 1));
        hs.push_back(lib.thread_create([&] { sender(2); }, 1));
        receive_and_close();
        lib.join_all_free(hs);
    });
}

TEST(SyncUlt, ChannelRendezvousQth) {
    lwt::qth::Config c;
    c.num_shepherds = 2;
    c.workers_per_shepherd = 1;
    lwt::qth::Library lib(c);
    lwt::core::Channel<int> ch;
    expect_rendezvous_exact(ch, [&](auto sender, auto receive_and_close) {
        lwt::qth::Sinc sinc;
        sinc.expect(2);
        lib.fork([&] { sender(1); sinc.submit(); }, nullptr);
        lib.fork_to([&] { sender(2); sinc.submit(); }, nullptr, 1);
        receive_and_close();
        sinc.wait();
    });
}

TEST(SyncUlt, ChannelRendezvousMth) {
    lwt::mth::Config c;
    c.num_workers = 2;
    lwt::mth::Library lib(c);
    lwt::core::Channel<int> ch;
    expect_rendezvous_exact(ch, [&](auto sender, auto receive_and_close) {
        // Everything happens inside the main ULT, as MassiveThreads
        // requires: receiving suspends the main ULT, not worker 0.
        lib.run([&] {
            auto h1 = lib.create([&] { sender(1); });
            auto h2 = lib.create([&] { sender(2); });
            receive_and_close();
            h1.join();
            h2.join();
        });
    });
}

TEST(SyncUlt, ChannelRendezvousCvt) {
    lwt::cvt::Config c;
    c.num_pes = 2;
    lwt::cvt::Library lib(c);
    lwt::core::Channel<int> ch;
    expect_rendezvous_exact(ch, [&](auto sender, auto receive_and_close) {
        auto h1 = lib.cth_create([&] { sender(1); });
        auto h2 = lib.cth_create([&] { sender(2); });
        receive_and_close();
        h1.join();
        h2.join();
    });
}

TEST(SyncUlt, ChannelRendezvousGol) {
    lwt::gol::Config c;
    c.num_threads = 2;
    lwt::gol::Library lib(c);
    lwt::gol::Chan<int> ch;
    expect_rendezvous_exact(ch, [&](auto sender, auto receive_and_close) {
        lwt::gol::WaitGroup wg;
        wg.add(2);
        lib.go([&] { sender(1); wg.done(); });
        lib.go([&] { sender(2); wg.done(); });
        receive_and_close();
        wg.wait();
    });
}

TEST(SyncUlt, ChannelCloseWakesBlockedUltSender) {
    // A goroutine blocked in an unbuffered send with no receiver must be
    // woken by close() and report failure.
    lwt::gol::Config c;
    c.num_threads = 2;
    lwt::gol::Library lib(c);
    lwt::gol::Chan<int> ch;
    std::atomic<int> result{-1};
    lwt::gol::WaitGroup wg;
    wg.add(1);
    lib.go([&] {
        result.store(ch.send(9) ? 1 : 0);
        wg.done();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(result.load(), -1);  // parked in send
    ch.close();
    wg.wait();
    EXPECT_EQ(result.load(), 0);
}

#endif  // !LWT_TSAN

}  // namespace
