// Tests for the direct-handoff join path (core/join.hpp,
// docs/join_path.md): joiner-slot registration and wake-on-terminate,
// join-stealing, the suspend-based EventCounter, ThreadParker, and the
// ParkingLot notify_one herd-avoidance — plus handoff-vs-poll equivalence
// across the personalities.
//
// TSan builds (tools/tsan.sh) run this file too: TSan cannot follow
// fcontext switches, so every test that suspends/resumes a ULT is gated
// out under thread sanitizer. Tasklet and OS-thread protocol tests — the
// racy part of the handoff machinery — all stay enabled.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "abt/abt.hpp"
#include "core/join.hpp"
#include "core/metrics.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/sync_ult.hpp"
#include "core/ult.hpp"
#include "core/xstream.hpp"
#include "cvt/cvt.hpp"
#include "gol/gol.hpp"
#include "mth/mth.hpp"
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

using lwt::core::JoinMode;
using lwt::core::join_mode;
using lwt::core::set_join_mode;

/// Force a join mode for one scope; restores handoff (the default under
/// test) on exit so test order cannot leak poll mode.
struct ModeGuard {
    explicit ModeGuard(JoinMode m) { set_join_mode(m); }
    ~ModeGuard() { set_join_mode(JoinMode::kHandoff); }
};

// --- kernel-level protocol ---------------------------------------------------

TEST(JoinCore, UnboundedSharedPoolSizeHintSaturates) {
    lwt::core::UnboundedSharedPool pool;
    EXPECT_TRUE(pool.empty());
    EXPECT_EQ(pool.size_hint(), 0u);
    auto a = std::make_unique<lwt::core::Tasklet>([] {});
    auto b = std::make_unique<lwt::core::Tasklet>([] {});
    pool.push(a.get());
    pool.push(b.get());
    // An MS queue has no O(1) size: the hint must saturate at 1 ("not
    // empty"), never report occupancy — while empty() stays exact.
    EXPECT_FALSE(pool.empty());
    EXPECT_EQ(pool.size_hint(), 1u);
    EXPECT_NE(pool.pop(), nullptr);
    EXPECT_NE(pool.pop(), nullptr);
    EXPECT_TRUE(pool.empty());
    EXPECT_EQ(pool.size_hint(), 0u);
}

TEST(JoinCore, NotifyOneCountsAvoidedWakeups) {
    lwt::sync::ParkingLot lot;
    std::atomic<bool> release{false};
    auto parked_waiter = [&] {
        while (!release.load()) {
            const std::uint64_t ticket = lot.prepare_park();
            if (release.load()) {
                lot.cancel_park();
                break;
            }
            (void)lot.park(ticket, std::chrono::microseconds(100000));
        }
    };
    std::thread t1(parked_waiter);
    std::thread t2(parked_waiter);
    while (lot.waiters() < 2) {
        std::this_thread::yield();
    }
    EXPECT_EQ(lot.wakeups_avoided(), 0u);
    lot.notify_one();  // two parked, one woken: one avoided wakeup
    EXPECT_EQ(lot.wakeups_avoided(), 1u);
    release.store(true);
    lot.notify_all();
    t1.join();
    t2.join();
    lot.reset_wake_stats();
    EXPECT_EQ(lot.wakeups_avoided(), 0u);
}

TEST(JoinCore, ThreadParkerBareRoundTrip) {
    lwt::sync::ThreadParker parker;
    std::thread waker([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        parker.notify();
    });
    parker.wait();
    EXPECT_TRUE(parker.notified());
    waker.join();
}

TEST(JoinCore, PlainThreadJoinerIsWokenDirectly) {
    // A joiner that is not an execution stream blocks on a bare
    // ThreadParker; the terminating stream's publish must wake it and
    // leave the unit reclaimable (join_done).
    lwt::core::DequePool pool;
    auto stream = std::make_unique<lwt::core::XStream>(
        0, std::make_unique<lwt::core::Scheduler>(
               std::vector<lwt::core::Pool*>{&pool}));
    stream->start();
    auto* unit = new lwt::core::Tasklet(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); });
    pool.push(unit);
    lwt::core::join_unit(unit);
    EXPECT_TRUE(unit->join_done());
    delete unit;
    stream->stop_and_join();
}

TEST(JoinCore, JoinStealRunsQueuedTaskletInline) {
    // Joiner on an attached stream + unit still kReady in a removable pool
    // the joiner's scheduler drains => the joiner pulls it and runs it on
    // its own stack (work-first), no parking, no second thread involved.
    lwt::core::DequePool pool;
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    std::thread::id ran_on;
    auto* unit =
        new lwt::core::Tasklet([&] { ran_on = std::this_thread::get_id(); });
    pool.push(unit);
    lwt::core::join_unit(unit);
    EXPECT_TRUE(unit->join_done());
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    delete unit;
    stream.detach_caller();
}

TEST(JoinCore, JoinStealRespectsPlacement) {
    // The joined unit sits in a pool the joiner's scheduler can NOT
    // dispatch from (another stream's private pool): stealing it would
    // migrate explicitly-placed work, so the joiner must wait instead.
    lwt::core::DequePool mine;
    lwt::core::DequePool theirs;
    lwt::core::XStream me(0, std::make_unique<lwt::core::Scheduler>(
                                 std::vector<lwt::core::Pool*>{&mine}));
    auto other = std::make_unique<lwt::core::XStream>(
        1, std::make_unique<lwt::core::Scheduler>(
               std::vector<lwt::core::Pool*>{&theirs}));
    other->start();
    me.attach_caller();
    std::thread::id ran_on;
    auto* unit =
        new lwt::core::Tasklet([&] { ran_on = std::this_thread::get_id(); });
    theirs.push(unit);
    lwt::core::join_unit(unit);
    EXPECT_TRUE(unit->join_done());
    EXPECT_NE(ran_on, std::this_thread::get_id());
    delete unit;
    me.detach_caller();
    other->stop_and_join();
}

TEST(JoinCore, HandoffRecordsSignalResumeLatency) {
    // Deterministic discriminator for CI's join-smoke leg: a joiner that
    // MUST suspend (the unit runs-and-sleeps on another stream, so steal/
    // help-first/backoff all fail) records its signal→resume sample in
    // the "join.signal_resume_ticks" histogram; poll mode records none.
    // fig3's empty-bodied units can legally complete every join on the
    // help-first fast path on a small host, so the bench histogram alone
    // cannot assert the direct path was exercised.
    auto& hist = lwt::core::MetricsRegistry::instance().histogram(
        "join.signal_resume_ticks");
    const auto blocked_join = [] {
        lwt::core::DequePool pool;
        auto stream = std::make_unique<lwt::core::XStream>(
            0, std::make_unique<lwt::core::Scheduler>(
                   std::vector<lwt::core::Pool*>{&pool}));
        stream->start();
        auto* unit = new lwt::core::Tasklet([] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        });
        pool.push(unit);
        lwt::core::join_unit(unit);
        EXPECT_TRUE(unit->join_done());
        delete unit;
        stream->stop_and_join();
    };
    lwt::core::Metrics::instance().enable();
    hist.reset();
    {
        ModeGuard guard(JoinMode::kHandoff);
        blocked_join();
    }
    const std::uint64_t handoff_samples = hist.snapshot().count;
    hist.reset();
    {
        ModeGuard guard(JoinMode::kPoll);
        blocked_join();
    }
    const std::uint64_t poll_samples = hist.snapshot().count;
    lwt::core::Metrics::instance().disable();
    hist.reset();
    EXPECT_GT(handoff_samples, 0u);
    EXPECT_EQ(poll_samples, 0u);
}

TEST(JoinCore, EventCounterLastSignalRaceStress) {
    // OS threads only (TSan-safe): hammer the zero-crossing window where
    // the waiter registers while the final signal() drains the list. Any
    // lost wakeup hangs the test (ctest timeout).
    for (int round = 0; round < 300; ++round) {
        lwt::core::EventCounter done;
        done.add(1);
        std::thread sig([&] { done.signal(); });
        done.wait();
        EXPECT_LE(done.value(), 0);
        sig.join();
    }
}

TEST(JoinCore, EventCounterDestroyRaceWithFinalSignal) {
    // Regression (REVIEW: EventCounter::signal UAF): the waiter owns the
    // counter and destroys it the instant wait() returns, while the
    // zero-crossing signal() may still be in flight on another thread.
    // signal() must not touch counter memory after the decrement that
    // lets a fast-path waiter pass, nor after the wake that releases a
    // registered waiter — ASan/TSan flag the old drain-under-guard here.
    for (int round = 0; round < 300; ++round) {
        auto owned = std::make_unique<lwt::core::EventCounter>(1);
        lwt::core::EventCounter* done = owned.get();
        std::thread sig([done] { done->signal(); });
        done->wait();
        owned.reset();  // free immediately; signal() may still be running
        sig.join();
    }
}

TEST(JoinCore, EventCounterManyWaitersAllWake) {
    lwt::core::EventCounter done;
    done.add(2);
    std::atomic<int> woken{0};
    std::vector<std::thread> waiters;
    for (int i = 0; i < 4; ++i) {
        waiters.emplace_back([&] {
            done.wait();
            woken.fetch_add(1);
        });
    }
    done.signal();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(woken.load(), 0);  // count still 1: nobody may pass
    done.signal();               // zero crossing wakes the whole list
    for (auto& t : waiters) {
        t.join();
    }
    EXPECT_EQ(woken.load(), 4);
}

TEST(JoinCore, EventCounterReusesAcrossRounds) {
    // WaitGroup shape: the same counter is re-armed after each wait.
    lwt::core::EventCounter done;
    for (int round = 0; round < 50; ++round) {
        done.add(1);
        std::thread sig([&] { done.signal(); });
        done.wait();
        sig.join();
    }
    EXPECT_EQ(done.value(), 0);
}

#if !defined(LWT_TSAN)

TEST(JoinCore, UltJoinerResumesRightAfterStolenChild) {
    // Parent ULT joins a still-queued sibling: the join must hand the
    // stream straight to the joinee, running it ahead of units queued
    // before it, and the parent must resume as soon as the joinee exits —
    // not from the back of the FIFO.
    lwt::core::DequePool pool;  // FIFO: b would run before c normally
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    std::vector<int> order;
    auto* b = new lwt::core::Ult([&] { order.push_back(1); });
    auto* c = new lwt::core::Ult([&] { order.push_back(2); });
    auto* parent = new lwt::core::Ult([&] {
        lwt::core::join_unit(c);  // queued LAST, must still run FIRST
        order.push_back(3);
    });
    parent->detached = true;
    pool.push(parent);  // parent dequeues first, with b and c still queued
    pool.push(b);
    pool.push(c);
    stream.run_until([&] { return order.size() == 3; });
    EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
    EXPECT_TRUE(b->join_done() || !b->terminated());
    lwt::core::join_unit(b);
    delete b;
    delete c;
    stream.detach_caller();
}

TEST(JoinCore, UltJoinerSuspendsUntilTermination) {
    // The joinee runs on ANOTHER stream: the joining ULT must suspend
    // (kBlocked) and be requeued by the terminator's wake, not poll — into
    // its own stream's pool, not onto the terminating stream.
    lwt::core::DequePool mine;
    lwt::core::DequePool theirs;
    lwt::core::XStream me(0, std::make_unique<lwt::core::Scheduler>(
                                 std::vector<lwt::core::Pool*>{&mine}));
    auto other = std::make_unique<lwt::core::XStream>(
        1, std::make_unique<lwt::core::Scheduler>(
               std::vector<lwt::core::Pool*>{&theirs}));
    other->start();
    me.attach_caller();
    std::atomic<bool> child_ran{false};
    auto* child = new lwt::core::Ult([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        child_ran.store(true);
    });
    std::atomic<bool> joined{false};
    lwt::core::XStream* resumed_on = nullptr;
    auto* parent = new lwt::core::Ult([&] {
        lwt::core::join_unit(child);
        EXPECT_TRUE(child_ran.load());
        resumed_on = lwt::core::XStream::current();
        joined.store(true);
    });
    parent->detached = true;
    theirs.push(child);
    mine.push(parent);
    me.run_until([&] { return joined.load(); });
    EXPECT_EQ(resumed_on, &me);
    delete child;
    me.detach_caller();
    other->stop_and_join();
}

TEST(JoinCore, WokenJoinerRunsRightAfterChildOnItsStream) {
    // The joinee is blocked when the join starts, so there is nothing to
    // steal: the parent registers and blocks. The joinee is then woken to
    // the back of the FIFO, behind x1 and ahead of x2. When it terminates
    // on the parent's own stream the parent must run next — before x2,
    // which a wake to the pool's tail would run first.
    lwt::core::DequePool pool;
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    std::vector<int> order;
    lwt::core::EventCounter gate(1);
    auto* x1 = new lwt::core::Tasklet([&] { order.push_back(1); });
    auto* x2 = new lwt::core::Tasklet([&] { order.push_back(4); });
    x1->detached = true;
    x2->detached = true;
    auto* child = new lwt::core::Ult([&] {
        gate.wait();
        order.push_back(2);
    });
    auto* parent = new lwt::core::Ult([&] {
        lwt::core::join_unit(child);
        order.push_back(3);
    });
    parent->detached = true;
    auto* opener = new lwt::core::Tasklet([&] {
        pool.push(x1);
        gate.signal();  // child requeued behind x1
        pool.push(x2);
    });
    opener->detached = true;
    pool.push(child);   // blocks on the gate
    pool.push(parent);  // joins the blocked child
    pool.push(opener);
    stream.run_until([&] { return order.size() == 4; });
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    delete child;
    stream.detach_caller();
}

TEST(JoinCore, DetachRequeuesPendingHint) {
    // A drive loop can return with a unit still planted as the stream's
    // next hint (here the child a ULT joiner stole). Detaching must put it
    // back in its pool, or nothing would ever run it.
    lwt::core::DequePool pool;
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    bool joining = false;
    bool joined = false;
    auto* child = new lwt::core::Ult([] {});
    auto* parent = new lwt::core::Ult([&] {
        joining = true;
        lwt::core::join_unit(child);
        joined = true;
    });
    parent->detached = true;
    pool.push(parent);
    pool.push(child);
    stream.run_until([&] { return joining; });  // returns with child hinted
    stream.detach_caller();
    ASSERT_EQ(pool.size_hint(), 1u);
    lwt::core::WorkUnit* queued = pool.pop();
    EXPECT_EQ(queued, child);
    pool.push(queued);
    stream.attach_caller();
    stream.run_until([&] { return joined; });
    EXPECT_TRUE(child->join_done());
    delete child;
    stream.detach_caller();
}

// --- handoff vs poll equivalence across the personalities --------------------

int abt_workload() {
    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    std::atomic<int> sum{0};
    std::vector<lwt::abt::UnitHandle> handles;
    for (int i = 0; i < 32; ++i) {
        handles.push_back(lib.thread_create([&, i] { sum.fetch_add(i); }));
    }
    lib.join_all_free(handles);
    lwt::abt::UnitHandle tl = lib.task_create([&] { sum.fetch_add(1000); });
    tl.free();
    return sum.load();
}

int qth_workload() {
    lwt::qth::Config c;
    c.num_shepherds = 2;
    c.workers_per_shepherd = 1;
    lwt::qth::Library lib(c);
    std::atomic<int> sum{0};
    lwt::qth::Sinc sinc;
    lib.fork_bulk(48, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); },
                  sinc);
    sinc.wait();
    return sum.load();
}

int mth_workload() {
    lwt::mth::Config c;
    c.num_workers = 2;
    lwt::mth::Library lib(c);
    std::atomic<int> sum{0};
    lib.run([&] {
        std::vector<lwt::mth::ThreadHandle> hs;
        for (int i = 0; i < 32; ++i) {
            hs.push_back(lib.create([&, i] { sum.fetch_add(i); }));
        }
        for (auto& h : hs) {
            h.join();
        }
    });
    return sum.load();
}

long mth_fib(lwt::mth::Library& lib, int n) {
    if (n < 2) {
        return n;
    }
    long left = 0;
    lwt::mth::ThreadHandle child =
        lib.create([&lib, &left, n] { left = mth_fib(lib, n - 1); });
    const long right = mth_fib(lib, n - 2);
    child.join();
    return left + right;
}

int cvt_workload() {
    lwt::cvt::Config c;
    c.num_pes = 2;
    lwt::cvt::Library lib(c);
    std::atomic<int> sum{0};
    std::vector<lwt::cvt::CthHandle> hs;
    for (int i = 0; i < 16; ++i) {
        hs.push_back(lib.cth_create([&, i] { sum.fetch_add(i); }));
    }
    for (auto& h : hs) {
        h.join();
    }
    return sum.load();
}

int gol_workload() {
    lwt::gol::Config c;
    c.num_threads = 2;
    lwt::gol::Library lib(c);
    std::atomic<int> sum{0};
    lwt::gol::WaitGroup wg;
    wg.add(64);
    for (int i = 0; i < 64; ++i) {
        lib.go([&, i] {
            sum.fetch_add(i);
            wg.done();
        });
    }
    wg.wait();
    return sum.load();
}

template <typename Workload>
void expect_mode_equivalence(Workload&& workload) {
    int handoff = 0;
    int poll = 0;
    {
        ModeGuard guard(JoinMode::kHandoff);
        handoff = workload();
    }
    {
        ModeGuard guard(JoinMode::kPoll);
        poll = workload();
    }
    EXPECT_EQ(handoff, poll);
}

TEST(JoinModes, AbtHandoffMatchesPoll) { expect_mode_equivalence(abt_workload); }
TEST(JoinModes, QthHandoffMatchesPoll) { expect_mode_equivalence(qth_workload); }
TEST(JoinModes, MthHandoffMatchesPoll) { expect_mode_equivalence(mth_workload); }
TEST(JoinModes, CvtHandoffMatchesPoll) { expect_mode_equivalence(cvt_workload); }
TEST(JoinModes, GolHandoffMatchesPoll) { expect_mode_equivalence(gol_workload); }

TEST(JoinModes, PollModeRecursiveWorkFirstJoinCompletes) {
    // Regression: under LWT_JOIN=poll a ULT joining a child ULT must hand
    // the stream to the joinee each pass (yield_to), not plain-yield —
    // under mth's LIFO deques a plain yield re-pops the joiner ahead of
    // the child forever (the fib divide-and-conquer livelock).
    ModeGuard guard(JoinMode::kPoll);
    lwt::mth::Config c;
    c.num_workers = 2;
    c.policy = lwt::mth::Policy::kWorkFirst;
    lwt::mth::Library lib(c);
    long result = 0;
    lib.run([&] { result = mth_fib(lib, 10); });
    EXPECT_EQ(result, 55);
}

TEST(JoinModes, HandoffJoinAvoidsIdleYields) {
    // The join phase of fig3 in miniature: the primary creates units onto
    // a worker's pool and join-waits for each. Under handoff the primary
    // registers and parks (zero idle ladder); under poll it walks
    // run_until's spin/yield ladder. Handoff must burn no more yields.
    auto run = [](JoinMode mode) {
        ModeGuard guard(mode);
        lwt::abt::Config c;
        c.num_xstreams = 2;
        lwt::abt::Library lib(c);
        lib.runtime().reset_stats();
        for (int round = 0; round < 8; ++round) {
            lwt::abt::UnitHandle h = lib.thread_create(
                [] {
                    std::this_thread::sleep_for(std::chrono::milliseconds(2));
                },
                /*pool_idx=*/1);
            h.free();
        }
        // Primary stream only: the joiner's own idle behaviour, without
        // the worker's unrelated between-rounds idling.
        return lib.runtime().primary().sched_stats().idle_yields;
    };
    const std::uint64_t handoff_yields = run(JoinMode::kHandoff);
    const std::uint64_t poll_yields = run(JoinMode::kPoll);
    // Polling a 2 ms unit walks past the spin limit into yields every
    // round; the handoff joiner registers and parks — its wait never
    // touches the idle ladder at all.
    EXPECT_EQ(handoff_yields, 0u);
    EXPECT_GT(poll_yields, 0u);
}

#endif  // !LWT_TSAN

}  // namespace
