// Tests for the direct-handoff join path (core/join.hpp,
// docs/join_path.md): joiner-slot registration and wake-on-terminate,
// join-stealing, the second-joiner fallback, the next-hint slot, the
// suspend-based EventCounter, ThreadParker, and the ParkingLot notify_one
// herd-avoidance — plus each personality's join workload.
//
// TSan builds (tools/tsan.sh) run this file too: TSan cannot follow
// fcontext switches, so every test that suspends/resumes a ULT is gated
// out under thread sanitizer. Tasklet and OS-thread protocol tests — the
// racy part of the handoff machinery — all stay enabled.
#include <alloca.h>
#include <gtest/gtest.h>
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <thread>
#include <vector>

#include "abt/abt.hpp"
#include "arch/stack.hpp"
#include "core/join.hpp"
#include "core/metrics.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/stream_dir.hpp"
#include "core/sync_ult.hpp"
#include "core/ult.hpp"
#include "core/xstream.hpp"
#include "cvt/cvt.hpp"
#include "gol/gol.hpp"
#include "idle_policy_pin.hpp"
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

/// A stream over one pool, not started.
std::unique_ptr<lwt::core::XStream> make_stream(unsigned rank,
                                                lwt::core::Pool& pool) {
    return std::make_unique<lwt::core::XStream>(
        rank, std::make_unique<lwt::core::Scheduler>(
                  std::vector<lwt::core::Pool*>{&pool}));
}

/// A ULT on a caller-supplied stack of twice LWT_STACKSIZE. Its promise,
/// all of that stack, exceeds the room below any joiner's frame in this
/// file (a default stack maps the same size), so a join switches to it on
/// its own stack instead of calling it.
lwt::core::Ult* own_stack_ult(lwt::core::UniqueFunction fn) {
    return new lwt::core::Ult(
        std::move(fn),
        lwt::arch::Stack::allocate(2 * lwt::arch::default_stack_size()));
}

// --- kernel-level protocol ---------------------------------------------------

TEST(JoinCore, NotifyOneCountsAvoidedWakeups) {
    lwt::sync::ParkingLot lot;
    std::atomic<bool> release{false};
    auto parked_waiter = [&] {
        while (!release.load()) {
            const std::uint32_t ticket = lot.prepare_park();
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

TEST(JoinCore, ThreadParkerPolledDestroyRace) {
    // The attached-stream waits poll notified() between units and destroy
    // the parker the moment it reads true — while the notifier may still
    // be inside notify(). After the store, notify() reaches the word only
    // through the kernel (ASan/TSan flag any later access).
    for (int round = 0; round < 300; ++round) {
        auto owned = std::make_unique<lwt::sync::ThreadParker>();
        lwt::sync::ThreadParker* parker = owned.get();
        std::thread waker([parker] { parker->notify(); });
        while (!parker->notified()) {
        }
        owned.reset();  // free immediately; notify() may still be running
        waker.join();
    }
}

TEST(JoinCore, ThreadParkerWaitIgnoresStaleWakes) {
    // wait() can return while its notifier is still inside notify(), about
    // to futex-wake the word; a parker built again at that address can take
    // the stale wake. Its wait() must not return before its own notify.
    // Wakes aimed at every word of the storage while the waiter sleeps make
    // the check certain: a wait that returned on any futex wake fails here.
    using lwt::sync::ThreadParker;
    alignas(ThreadParker) unsigned char storage[sizeof(ThreadParker)];
    for (int round = 0; round < 40; ++round) {
        auto* stale = new (storage) ThreadParker();
        std::thread notifier([stale] { stale->notify(); });
        stale->wait();
        stale->~ThreadParker();
        auto* parker = new (storage) ThreadParker();
        std::atomic<bool> returned{false};
        std::thread waiter([&] {
            parker->wait();
            returned.store(true);
        });
        for (int i = 0; i < 20; ++i) {
            for (std::size_t off = 0; off < sizeof storage; off += 4) {
                syscall(SYS_futex, storage + off, FUTEX_WAKE_PRIVATE, INT_MAX,
                        nullptr, nullptr, 0);
            }
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        notifier.join();
        EXPECT_FALSE(returned.load()) << "round " << round;
        parker->notify();
        waiter.join();
        parker->~ThreadParker();
    }
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
    // the "join.signal_resume_ticks" histogram. fig3's empty-bodied units
    // can legally complete every join on the help-first fast path on a
    // small host, so the bench histogram alone cannot assert the direct
    // path was exercised.
    auto& hist = lwt::core::MetricsRegistry::instance().histogram(
        "join.signal_resume_ticks");
    lwt::core::Metrics::instance().enable();
    hist.reset();
    {
        lwt::core::DequePool pool;
        auto stream = make_stream(0, pool);
        stream->start();
        auto* unit = new lwt::core::Tasklet([] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        });
        pool.push(unit);
        lwt::core::join_unit(unit);
        EXPECT_TRUE(unit->join_done());
        delete unit;
        stream->stop_and_join();
    }
    const std::uint64_t samples = hist.snapshot().count;
    lwt::core::Metrics::instance().disable();
    hist.reset();
    EXPECT_GT(samples, 0u);
}

TEST(JoinCore, SecondThreadJoinerReturnsAfterPublish) {
    // The unit's joiner slot is already taken (by a countdown counter, as
    // join_all_free registers one), so a second joiner cannot register
    // and takes the polling fallback instead — from a bare OS thread and
    // from one driving its own stream. Either way it may return only once
    // the terminator published the slot: the caller reclaims the unit
    // right after.
    lwt::core::DequePool theirs;
    auto other = make_stream(1, theirs);
    other->start();
    for (const bool attached : {false, true}) {
        std::atomic<bool> release{false};
        auto* unit = new lwt::core::Tasklet([&] {
            while (!release.load()) {
                std::this_thread::yield();
            }
        });
        lwt::core::EventCounter first(1);
        ASSERT_TRUE(lwt::core::register_counter_joiner(unit, &first));
        theirs.push(unit);
        bool published_at_return = false;
        std::thread joiner([&] {
            lwt::core::DequePool mine;
            auto me = make_stream(2, mine);
            if (attached) {
                me->attach_caller();
            }
            lwt::core::join_unit(unit);
            published_at_return = unit->join_done();
            if (attached) {
                me->detach_caller();
            }
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        release.store(true);
        joiner.join();
        first.wait();  // the slot's own waiter was signalled too
        EXPECT_TRUE(published_at_return) << "attached=" << attached;
        delete unit;
    }
    other->stop_and_join();
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
    // Parent ULT joins a still-queued sibling: the join must run the
    // joinee as a call, from the parent's own stack, ahead of units queued
    // before it, and the parent must continue as soon as the joinee exits
    // — not from the back of the FIFO.
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
    // next hint (here the child its parent yield_to'd). Detaching must put
    // it back in its pool, or nothing would ever run it.
    lwt::core::DequePool pool;
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    bool yielding = false;
    bool joined = false;
    auto* child = new lwt::core::Ult([] {});
    auto* parent = new lwt::core::Ult([&] {
        yielding = true;
        (void)lwt::core::yield_to(child);
        lwt::core::join_unit(child);
        joined = true;
    });
    parent->detached = true;
    pool.push(parent);
    pool.push(child);
    stream.run_until([&] { return yielding; });  // returns with child hinted
    ASSERT_EQ(stream.next_hint(), child);
    stream.detach_caller();
    // The yielded parent, then the requeued child.
    ASSERT_EQ(pool.size_hint(), 2u);
    lwt::core::WorkUnit* first = pool.pop();
    lwt::core::WorkUnit* second = pool.pop();
    EXPECT_EQ(first, parent);
    EXPECT_EQ(second, child);
    pool.push(first);
    pool.push(second);
    stream.attach_caller();
    stream.run_until([&] { return joined; });
    EXPECT_TRUE(child->join_done());
    delete child;
    stream.detach_caller();
}

TEST(JoinCore, NewHintRequeuesPendingHint) {
    // The main thread's drive can leave a hint pending (here the child a
    // ULT yield_to'd, as in DetachRequeuesPendingHint). Its next join runs
    // a queued ULT inline, and that ULT's own yield_to plants a new hint.
    // The pending one must go back to its pool: a hinted unit sits in no
    // pool, so dropping it would strand it and its joiner for good.
    lwt::core::DequePool pool;
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    bool yielding = false;
    bool first_joined = false;
    auto* first_child = new lwt::core::Ult([] {});
    auto* first = new lwt::core::Ult([&] {
        yielding = true;
        (void)lwt::core::yield_to(first_child);
        lwt::core::join_unit(first_child);
        first_joined = true;
    });
    first->detached = true;
    pool.push(first);
    pool.push(first_child);
    stream.run_until([&] { return yielding; });  // returns with child hinted
    EXPECT_EQ(stream.next_hint(), first_child);
    auto* second_child = new lwt::core::Ult([] {});
    auto* second = new lwt::core::Ult([&] {
        (void)lwt::core::yield_to(second_child);
        lwt::core::join_unit(second_child);
    });
    pool.push(second);
    pool.push(second_child);
    lwt::core::join_unit(second);  // runs `second` inline; it hints its child
    for (int i = 0; i < 16 && !first_joined; ++i) {
        (void)stream.progress();
    }
    const bool resumed = first_joined;
    stream.detach_caller();
    ASSERT_TRUE(resumed) << "the pending hint was dropped";
    delete first_child;
    delete second;
    delete second_child;
}

TEST(JoinCore, StolenChildThatYieldsLetsQueuedSiblingRun) {
    // The joiner runs its queued child at most once. A child that yields
    // goes back to the pool behind its sibling, and the joiner waits in the
    // slot, so the stream runs the sibling next. A joiner that re-stole the
    // child after every yield would never let the sibling run: the child
    // would give up after its bounded yields without seeing the flag.
    lwt::core::DequePool pool;  // FIFO: the sibling is queued behind
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    bool flag = false;
    bool saw_flag = false;
    bool joined = false;
    auto* child = new lwt::core::Ult([&] {
        for (int i = 0; i < 1000 && !flag; ++i) {
            lwt::core::Ult::current()->yield();
        }
        saw_flag = flag;
    });
    auto* sibling = new lwt::core::Tasklet([&] { flag = true; });
    sibling->detached = true;
    auto* parent = new lwt::core::Ult([&] {
        lwt::core::join_unit(child);
        joined = true;
    });
    parent->detached = true;
    pool.push(parent);
    pool.push(child);
    pool.push(sibling);
    stream.run_until([&] { return joined; });
    EXPECT_TRUE(saw_flag) << "the joiner kept running its yielding child";
    delete child;
    stream.detach_caller();
}

TEST(JoinCore, StolenChildRunsAsItselfInsideTheJoin) {
    // The joiner runs its queued child from its own context: inside the
    // child, Ult::current() is the child while the joiner is still running
    // (it never blocked), and after the join it is the joiner again. The
    // child's promise exceeds the joiner's room, so it runs on its own
    // stack.
    lwt::core::DequePool pool;
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    lwt::core::Ult* in_child = nullptr;
    lwt::core::Ult* after_join = nullptr;
    lwt::core::State joiner_state = lwt::core::State::kReady;
    bool joined = false;
    lwt::core::Ult* parent = nullptr;
    auto* child = own_stack_ult([&] {
        in_child = lwt::core::Ult::current();
        joiner_state = parent->state.load();
    });
    parent = new lwt::core::Ult([&] {
        lwt::core::join_unit(child);
        after_join = lwt::core::Ult::current();
        joined = true;
    });
    pool.push(parent);
    pool.push(child);
    stream.run_until([&] { return joined; });
    EXPECT_EQ(in_child, child);
    EXPECT_EQ(joiner_state, lwt::core::State::kRunning);
    EXPECT_EQ(after_join, parent);
    EXPECT_EQ(lwt::core::Ult::current(), nullptr);
    lwt::core::join_unit(parent);
    delete parent;
    delete child;
    stream.detach_caller();
}

TEST(JoinCore, QueuedChildRunsAsACallOnItsJoinersStack) {
    // StolenChildRunsAsItselfInsideTheJoin with a default-stack child: the
    // joiner has room for its promise, so the child runs as a plain call on
    // the joiner's stack. It runs as its host: Ult::current() is the
    // joiner, still kRunning, and the child's own stack went back unused.
    lwt::core::DequePool pool;
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    lwt::core::Ult* in_child = nullptr;
    lwt::core::Ult* after_join = nullptr;
    lwt::core::State joiner_state = lwt::core::State::kReady;
    bool child_holds_stack = true;
    bool joined = false;
    lwt::core::Ult* parent = nullptr;
    lwt::core::Ult* child = nullptr;
    child = new lwt::core::Ult([&] {
        in_child = lwt::core::Ult::current();
        joiner_state = parent->state.load();
        child_holds_stack = child->holds_stack();
    });
    parent = new lwt::core::Ult([&] {
        lwt::core::join_unit(child);
        after_join = lwt::core::Ult::current();
        joined = true;
    });
    pool.push(parent);
    pool.push(child);
    stream.run_until([&] { return joined; });
    EXPECT_EQ(in_child, parent);
    EXPECT_EQ(joiner_state, lwt::core::State::kRunning);
    EXPECT_FALSE(child_holds_stack);
    EXPECT_EQ(after_join, parent);
    EXPECT_TRUE(child->join_done());
    lwt::core::join_unit(parent);
    delete parent;
    delete child;
    stream.detach_caller();
}

/// A called child blocks on a counter that another stream signals once the
/// child's host is blocked; the join must return only after the signal,
/// with the child's slot published.
void called_child_blocks_its_joiner() {
    lwt::core::DequePool mine;
    lwt::core::DequePool theirs;
    lwt::core::Runtime rt(2, [&](unsigned rank) {
        return std::make_unique<lwt::core::Scheduler>(
            std::vector<lwt::core::Pool*>{rank == 0 ? &mine : &theirs});
    });
    lwt::core::EventCounter gate(1);
    std::atomic<lwt::core::Ult*> host{nullptr};
    std::atomic<bool> signalled{false};
    lwt::core::State host_state = lwt::core::State::kReady;
    bool signalled_before_return = false;
    bool published_at_return = false;
    std::atomic<bool> joined{false};
    auto* child = new lwt::core::Ult([&] {
        host.store(lwt::core::Ult::current());
        gate.wait();
    });
    auto* parent = new lwt::core::Ult([&] {
        lwt::core::join_unit(child);
        signalled_before_return = signalled.load();
        published_at_return = child->join_done();
        joined.store(true);
    });
    parent->detached = true;
    auto* signaller = new lwt::core::Tasklet([&] {
        lwt::core::Ult* ult = nullptr;
        while ((ult = host.load()) == nullptr ||
               ult->state.load() != lwt::core::State::kBlocked) {
            std::this_thread::yield();
        }
        host_state = ult->state.load();
        signalled.store(true);
        gate.signal();
    });
    signaller->detached = true;
    mine.push(parent);
    mine.push(child);
    theirs.push(signaller);
    rt.primary().run_until([&] { return joined.load(); });
    EXPECT_EQ(host.load(), parent);
    EXPECT_EQ(host_state, lwt::core::State::kBlocked);
    EXPECT_TRUE(signalled_before_return);
    EXPECT_TRUE(published_at_return);
    delete child;
}

TEST(JoinCore, CalledChildBlocksItsJoinerUntilAnotherStreamSignals) {
    called_child_blocks_its_joiner();
}

TEST(JoinCore, CalledChildBlocksItsJoinerUnderPark) {
    // The same with both streams parking when idle: the signal's wake
    // must reach stream 0's pool through the lot.
    {
        lwt::test::IdlePolicyEnvPin pin;
        lwt::core::set_default_idle_policy(lwt::sync::IdlePolicy::kPark);
        called_child_blocks_its_joiner();
    }
    lwt::core::set_default_idle_policy(std::nullopt);
}

TEST(JoinCore, CalledChildMigratesWithItsJoiner) {
    // A called child blocks its joiner on stream A; the wake queues the
    // joiner in a pool that only stream B is driving by then, so the two
    // resume there together. The child's end is published from B, B keeps
    // the stamp of its dispatch of the joiner, and A, which the joiner
    // left, reports no unit on its CPU.
    lwt::core::set_watchdog_armed(true);
    lwt::core::DequePool pa;
    lwt::core::DequePool pb;
    lwt::core::XStream a(0, std::make_unique<lwt::core::Scheduler>(
                                std::vector<lwt::core::Pool*>{&pa}));
    auto b = std::make_unique<lwt::core::XStream>(
        1, std::make_unique<lwt::core::Scheduler>(
               std::vector<lwt::core::Pool*>{&pb, &pa}));
    a.attach_caller();
    lwt::core::EventCounter gate(1);
    std::atomic<lwt::core::Ult*> host{nullptr};
    lwt::core::XStream* child_resumed_on = nullptr;
    std::uint64_t child_resumed_stamp = 0;
    lwt::core::XStream* joiner_resumed_on = nullptr;
    std::uint64_t stamp_after_join = 0;
    std::atomic<bool> joined{false};
    auto* child = new lwt::core::Ult([&] {
        host.store(lwt::core::Ult::current());
        gate.wait();
        child_resumed_on = lwt::core::XStream::current();
        child_resumed_stamp = child_resumed_on->exec_start_tsc();
    });
    auto* parent = new lwt::core::Ult([&] {
        lwt::core::join_unit(child);
        joiner_resumed_on = lwt::core::XStream::current();
        stamp_after_join = joiner_resumed_on->exec_start_tsc();
        joined.store(true);
    });
    parent->detached = true;
    pa.push(parent);
    pa.push(child);
    a.run_until([&] {
        lwt::core::Ult* ult = host.load();
        return ult != nullptr &&
               ult->state.load() == lwt::core::State::kBlocked;
    });
    b->start();  // from here on only B drives pa
    gate.signal();
    while (!joined.load()) {
        std::this_thread::yield();
    }
    EXPECT_EQ(host.load(), parent);
    EXPECT_EQ(child_resumed_on, b.get());
    EXPECT_EQ(joiner_resumed_on, b.get());
    EXPECT_NE(stamp_after_join, 0u);
    EXPECT_EQ(stamp_after_join, child_resumed_stamp);
    EXPECT_EQ(a.exec_start_tsc(), 0u);
    EXPECT_TRUE(child->join_done());
    b->stop_and_join();
    delete child;
    a.detach_caller();
    lwt::core::set_watchdog_armed(false);
}

TEST(JoinCore, RoomRulePicksThePathAndKeepsThePromise) {
    // Both sides of the room rule. A fresh joiner has room for its child's
    // promise and calls it: the child sees the joiner as Ult::current(). A
    // joiner that recursed until its room fell below the promise switches
    // to the child's own stack, where the child is Ult::current(). On
    // either path the child gets its promise: touching LWT_STACKSIZE less
    // 8 KiB of locals reaches no guard page.
    const std::size_t promise = lwt::arch::default_stack_size();
    const std::size_t touched = promise - 8 * 1024;
    lwt::core::DequePool pool;
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    for (const bool deep : {false, true}) {
        lwt::core::Ult* in_child = nullptr;
        std::size_t room_at_join = 0;
        bool joined = false;
        auto* child = new lwt::core::Ult([&] {
            in_child = lwt::core::Ult::current();
            auto* locals = static_cast<volatile char*>(alloca(touched));
            for (std::size_t i = 0; i < touched; i += 64) {
                locals[i] = 1;
            }
        });
        ASSERT_EQ(child->promise(), promise);
        std::function<void()> descend = [&] {
            volatile char frame[512];
            frame[0] = 1;
            if (deep && lwt::core::Ult::current()->room() >= promise) {
                descend();
            } else {
                room_at_join = lwt::core::Ult::current()->room();
                lwt::core::join_unit(child);
            }
            frame[1] = frame[0];
        };
        auto* parent = new lwt::core::Ult([&] {
            descend();
            joined = true;
        });
        parent->detached = true;
        pool.push(parent);
        pool.push(child);
        stream.run_until([&] { return joined; });
        if (deep) {
            EXPECT_LT(room_at_join, promise);
            EXPECT_EQ(in_child, child);
        } else {
            EXPECT_GE(room_at_join, promise);
            EXPECT_NE(in_child, child);
        }
        EXPECT_TRUE(child->join_done());
        delete child;
    }
    stream.detach_caller();
}

TEST(JoinCore, DeepChainOfStolenChildrenUnwindsInnermostFirst) {
    // 64 ULTs, each joining its own queued child, so each runs the next
    // from its own context. Every child's promise exceeds its joiner's
    // room, so each runs on its own stack. The deepest blocks on a counter
    // that another stream signals once it has blocked: every joiner above
    // it then gets control back and blocks in its child's slot, and the
    // signal unwinds the chain innermost first, each joiner resumed by its
    // child's end.
    constexpr int kDepth = 64;
    lwt::core::DequePool mine;
    lwt::core::DequePool theirs;
    lwt::core::XStream me(0, std::make_unique<lwt::core::Scheduler>(
                                 std::vector<lwt::core::Pool*>{&mine}));
    auto other = make_stream(1, theirs);
    other->start();
    me.attach_caller();
    lwt::core::EventCounter gate(1);
    std::atomic<lwt::core::Ult*> deepest{nullptr};
    std::vector<int> order;
    std::function<void(int)> level = [&](int depth) {
        if (depth == kDepth) {
            deepest.store(lwt::core::Ult::current());
            gate.wait();
        } else {
            auto* child = own_stack_ult([&, depth] { level(depth + 1); });
            mine.push(child);
            lwt::core::join_unit(child);
            delete child;
        }
        order.push_back(depth);
    };
    auto* root = new lwt::core::Ult([&] { level(1); });
    root->detached = true;
    auto* signaller = new lwt::core::Tasklet([&] {
        lwt::core::Ult* ult = nullptr;
        while ((ult = deepest.load()) == nullptr ||
               ult->state.load() != lwt::core::State::kBlocked) {
            std::this_thread::yield();
        }
        gate.signal();
    });
    signaller->detached = true;
    mine.push(root);
    theirs.push(signaller);
    me.run_until(
        [&] { return order.size() == static_cast<std::size_t>(kDepth); });
    std::vector<int> expect;
    for (int depth = kDepth; depth >= 1; --depth) {
        expect.push_back(depth);
    }
    EXPECT_EQ(order, expect);
    me.detach_caller();
    other->stop_and_join();
}

TEST(JoinCore, DeepChainOfCalledChildrenBlocksTheRootOnce) {
    // DeepChainOfStolenChildrenUnwindsInnermostFirst with default-stack
    // children: every level runs as a call on the root's stack, so every
    // level sees the root as Ult::current(), the deepest level's block is
    // the root's one block, and its one resume unwinds all 64 levels. The
    // stream dispatches the root twice and runs each child once. The root's
    // caller-supplied stack leaves room for a child's promise below all 64
    // levels' frames in every build (sanitizer frames are larger).
    constexpr int kDepth = 64;
    lwt::core::DequePool mine;
    lwt::core::DequePool theirs;
    lwt::core::XStream me(0, std::make_unique<lwt::core::Scheduler>(
                                 std::vector<lwt::core::Pool*>{&mine}));
    auto other = make_stream(1, theirs);
    other->start();
    me.attach_caller();
    lwt::core::EventCounter gate(1);
    std::atomic<lwt::core::Ult*> deepest{nullptr};
    std::vector<int> order;
    std::vector<lwt::core::Ult*> hosts;
    std::function<void(int)> level = [&](int depth) {
        hosts.push_back(lwt::core::Ult::current());
        if (depth == kDepth) {
            deepest.store(lwt::core::Ult::current());
            gate.wait();
        } else {
            auto* child = new lwt::core::Ult([&, depth] { level(depth + 1); });
            mine.push(child);
            lwt::core::join_unit(child);
            delete child;
        }
        order.push_back(depth);
    };
    auto* root = new lwt::core::Ult(
        [&] { level(1); },
        lwt::arch::Stack::allocate(8 * lwt::arch::default_stack_size()));
    root->detached = true;
    auto* signaller = new lwt::core::Tasklet([&] {
        lwt::core::Ult* ult = nullptr;
        while ((ult = deepest.load()) == nullptr ||
               ult->state.load() != lwt::core::State::kBlocked) {
            std::this_thread::yield();
        }
        gate.signal();
    });
    signaller->detached = true;
    const std::uint64_t executed0 = me.executed();
    mine.push(root);
    theirs.push(signaller);
    me.run_until(
        [&] { return order.size() == static_cast<std::size_t>(kDepth); });
    std::vector<int> expect;
    for (int depth = kDepth; depth >= 1; --depth) {
        expect.push_back(depth);
    }
    EXPECT_EQ(order, expect);
    EXPECT_EQ(hosts, std::vector<lwt::core::Ult*>(kDepth, hosts.front()));
    EXPECT_EQ(deepest.load(), hosts.front());
    EXPECT_EQ(me.executed() - executed0,
              static_cast<std::uint64_t>(kDepth + 1));
    me.detach_caller();
    other->stop_and_join();
}

TEST(JoinCore, JoinStealKeepsTheJoinersWatchdogStamp) {
    // A join-steal runs the child inside the joiner's own dispatch: when
    // the child ends, the stall watchdog's stamp must be the joiner's
    // dispatch time again, not 0 (no unit on the CPU) or the child's.
    // Children: a tasklet, a called ULT and a ULT on its own stack.
    lwt::core::set_watchdog_armed(true);
    lwt::core::DequePool pool;
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    for (const int kind : {0, 1, 2}) {
        lwt::core::WorkUnit* child =
            kind == 0   ? static_cast<lwt::core::WorkUnit*>(
                            new lwt::core::Tasklet([] {}))
            : kind == 1 ? new lwt::core::Ult([] {})
                        : own_stack_ult([] {});
        std::uint64_t before = 0;
        std::uint64_t after = 0;
        bool joined = false;
        auto* parent = new lwt::core::Ult([&] {
            before = stream.exec_start_tsc();
            lwt::core::join_unit(child);
            after = stream.exec_start_tsc();
            joined = true;
        });
        parent->detached = true;
        pool.push(parent);
        pool.push(child);
        stream.run_until([&] { return joined; });
        EXPECT_NE(before, 0u) << "child kind: " << kind;
        EXPECT_EQ(after, before) << "child kind: " << kind;
        EXPECT_TRUE(child->join_done());
        delete child;
    }
    // A called child that blocks suspends its joiner. The joiner's next
    // dispatch on this stream stamps it anew, and that stamp must stay when
    // the child ends: not 0, and not the joiner's first dispatch.
    lwt::core::EventCounter gate(1);
    std::uint64_t before = 0;
    std::uint64_t resumed = 0;
    std::uint64_t after = 0;
    bool joined = false;
    auto* child = new lwt::core::Ult([&] {
        gate.wait();
        resumed = stream.exec_start_tsc();
    });
    auto* opener = new lwt::core::Tasklet([&] { gate.signal(); });
    opener->detached = true;
    auto* parent = new lwt::core::Ult([&] {
        before = stream.exec_start_tsc();
        lwt::core::join_unit(child);
        after = stream.exec_start_tsc();
        joined = true;
    });
    parent->detached = true;
    pool.push(parent);
    pool.push(child);
    pool.push(opener);
    stream.run_until([&] { return joined; });
    EXPECT_NE(after, 0u);
    EXPECT_NE(after, before);
    EXPECT_EQ(after, resumed);
    EXPECT_TRUE(child->join_done());
    delete child;
    EXPECT_EQ(stream.exec_start_tsc(), 0u);
    stream.detach_caller();
    lwt::core::set_watchdog_armed(false);
}

TEST(JoinCore, SecondUltJoinerReturnsAfterPublish) {
    // ULT half of SecondThreadJoinerReturnsAfterPublish: the joinee is
    // blocked on another stream with its slot taken, so the joining ULT
    // polls, yielding its stream between checks — and still returns only
    // after the slot is published.
    lwt::core::DequePool mine;
    lwt::core::DequePool theirs;
    lwt::core::XStream me(0, std::make_unique<lwt::core::Scheduler>(
                                 std::vector<lwt::core::Pool*>{&mine}));
    auto other = make_stream(1, theirs);
    other->start();
    me.attach_caller();
    lwt::core::EventCounter gate(1);
    auto* unit = new lwt::core::Ult([&] { gate.wait(); });
    lwt::core::EventCounter first(1);
    ASSERT_TRUE(lwt::core::register_counter_joiner(unit, &first));
    theirs.push(unit);
    while (unit->state.load() != lwt::core::State::kBlocked) {
        std::this_thread::yield();
    }
    bool joined = false;
    bool published_at_return = false;
    auto* joiner = new lwt::core::Ult([&] {
        lwt::core::join_unit(unit);
        published_at_return = unit->join_done();
        joined = true;
    });
    joiner->detached = true;
    mine.push(joiner);
    for (int i = 0; i < 8; ++i) {
        (void)me.progress();  // the joiner polls and yields each pass
    }
    EXPECT_FALSE(joined);
    gate.signal();
    me.run_until([&] { return joined; });
    first.wait();
    EXPECT_TRUE(published_at_return);
    delete unit;
    me.detach_caller();
    other->stop_and_join();
}

TEST(JoinCore, AttachedNativeJoinerWokenByPoolPush) {
    // The main thread is stream 0 of a parked abt runtime and natively
    // joins a ULT on stream 1 that cannot finish before a tasklet it puts
    // in stream 0's private pool has run. Only the joiner can run that
    // tasklet, so its wait must keep serving stream 0, and the push must
    // wake it where it parks: on the runtime lot, counted in stream 0's
    // unparks. (A wait that naps on a bare parker never touches the lot.)
    constexpr long kRounds = 20;
    lwt::core::set_default_idle_policy(lwt::sync::IdlePolicy::kPark);
    long sum = 0;
    lwt::core::SchedStats stats;
    {
        lwt::abt::Config c;
        c.num_xstreams = 2;
        lwt::abt::Library lib(c);
        const lwt::sync::ParkingLot& lot = lib.runtime().parking_lot();
        lib.runtime().reset_stats();
        for (long round = 0; round < kRounds; ++round) {
            lwt::abt::UnitHandle h = lib.thread_create(
                [&lib, &lot, &sum, round] {
                    // Push once the joiner has registered to park; bounded,
                    // so a joiner that never registers still gets it.
                    const auto deadline = std::chrono::steady_clock::now() +
                                          std::chrono::milliseconds(100);
                    while (lot.waiters() == 0 &&
                           std::chrono::steady_clock::now() < deadline) {
                        std::this_thread::yield();
                    }
                    lib.task_create([&sum, round] { sum += round; },
                                    /*pool_idx=*/0)
                        .free();
                },
                /*pool_idx=*/1);
            h.free();
        }
        stats = lib.runtime().primary().sched_stats();
    }
    lwt::core::set_default_idle_policy(std::nullopt);
    EXPECT_EQ(sum, kRounds * (kRounds - 1) / 2);
    EXPECT_GT(stats.unparks, 0u) << "the joiner never parked on the lot";
}

// --- each personality's join workload -----------------------------------------

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

// Each workload's sum in closed form: sum(0..n-1) (+1000 for abt's tasklet).
TEST(JoinWorkloads, AbtSum) { EXPECT_EQ(abt_workload(), 1496); }
TEST(JoinWorkloads, QthSum) { EXPECT_EQ(qth_workload(), 1128); }
TEST(JoinWorkloads, MthSum) { EXPECT_EQ(mth_workload(), 496); }
TEST(JoinWorkloads, CvtSum) { EXPECT_EQ(cvt_workload(), 120); }
TEST(JoinWorkloads, GolSum) { EXPECT_EQ(gol_workload(), 2016); }

TEST(JoinWorkloads, MthRecursiveWorkFirstJoinCompletes) {
    // Work-first fib on mth's LIFO deques: joins nested under continuation
    // stealing must complete, not livelock.
    lwt::mth::Config c;
    c.num_workers = 2;
    c.policy = lwt::mth::Policy::kWorkFirst;
    lwt::mth::Library lib(c);
    long result = 0;
    lib.run([&] { result = mth_fib(lib, 10); });
    EXPECT_EQ(result, 55);
}

TEST(JoinWorkloads, HandoffJoinYieldsAtMostOneLadderPerJoin) {
    // The join phase of fig3 in miniature: the primary creates units onto
    // a worker's pool and join-waits for each. A 2 ms unit outlasts the
    // spin rung, so a polling joiner would yield for the whole 2 ms every
    // round; the handoff joiner registers, walks its stream's idle ladder
    // once — at most yield_limit yields — and then parks on the lot until
    // the termination wakes it.
    constexpr unsigned kRounds = 8;
    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    lib.runtime().reset_stats();
    for (unsigned round = 0; round < kRounds; ++round) {
        lwt::abt::UnitHandle h = lib.thread_create(
            [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); },
            /*pool_idx=*/1);
        h.free();
    }
    // Primary stream only: the joiner's own idle behaviour, without the
    // worker's unrelated between-rounds idling.
    const lwt::core::XStream& primary = lib.runtime().primary();
    EXPECT_LE(primary.sched_stats().idle_yields,
              kRounds * primary.idle_config().yield_limit);
}

long abt_tree(lwt::abt::Library& lib, int depth, long k) {
    if (depth == 0) {
        return k;
    }
    long left = 0;
    lwt::abt::UnitHandle child = lib.thread_create(
        [&lib, &left, depth, k] { left = abt_tree(lib, depth - 1, 2 * k); });
    const long right = abt_tree(lib, depth - 1, 2 * k + 1);
    child.free();
    return left + right;
}

TEST(JoinWorkloads, AbtMainThreadRunsTreeRoot) {
    // Fork-join trees whose root recursion runs on the main thread: its
    // joins are native joins nested in the recursion, which run queued
    // ULTs inline while hints are pending on the primary stream, and park
    // on stack parkers that the next join reuses. Parked idle streams, as
    // in the benchmark. A dropped next hint, or a parker freed while its
    // notifier still signals it, hangs the run.
    constexpr int kDepth = 10;
    constexpr long kFirstLeaf = 1L << kDepth;
    // Leaves are nodes kFirstLeaf .. 2*kFirstLeaf-1, each worth its index.
    constexpr long kSum = (kFirstLeaf + 2 * kFirstLeaf - 1) * kFirstLeaf / 2;
    lwt::core::set_default_idle_policy(lwt::sync::IdlePolicy::kPark);
    int wrong = 0;
    {
        lwt::abt::Config c;
        c.num_xstreams = 2;
        lwt::abt::Library lib(c);
        for (int tree = 0; tree < 300; ++tree) {
            wrong += abt_tree(lib, kDepth, 1) != kSum ? 1 : 0;
        }
    }
    lwt::core::set_default_idle_policy(std::nullopt);
    EXPECT_EQ(wrong, 0);
}

#endif  // !LWT_TSAN

}  // namespace
