// Tests for the idle/steal path: the home-pool probe fix, victim-list
// filtering, multi-probe sweeps, steal telemetry, parking, and a
// contention stress test (K thief streams draining one producer pool with
// no lost or duplicated units). Tasklet-only on purpose: this file is the
// one tools/tsan.sh runs under ThreadSanitizer, and TSan cannot follow the
// kernel's user-level context switches.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "abt/abt.hpp"
#include "arch/cpu.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/sched_stats.hpp"
#include "core/scheduler.hpp"
#include "core/work_unit.hpp"
#include "core/xstream.hpp"
#include "idle_policy_pin.hpp"
#include "sync/idle_backoff.hpp"
#include "sync/parking_lot.hpp"

namespace {

using namespace lwt::core;

std::unique_ptr<Tasklet> make_noop_tasklet() {
    return std::make_unique<Tasklet>([] {});
}

// --- the headline bugfix ----------------------------------------------------

// Pre-fix, a probe that landed on the home pool returned nullptr and ended
// the sweep; with one victim besides home that failed ~half of all calls.
// Post-fix (home filtered at construction + linear fallback) every next()
// call must find the victim's unit, first try, for any RNG seed.
TEST(StealingScheduler, HomePoolProbeNeverEndsTheSweep) {
    for (unsigned seed = 1; seed <= 64; ++seed) {
        DequePool home;
        DequePool victim;
        auto unit = make_noop_tasklet();
        victim.push(unit.get());
        StealingScheduler sched(&home, {&home, &victim}, seed);
        EXPECT_EQ(sched.next(), unit.get()) << "seed " << seed;
    }
}

TEST(StealingScheduler, HomeIsFilteredFromVictimsAtConstruction) {
    DequePool home;
    DequePool v1;
    DequePool v2;
    StealingScheduler sched(&home, {&v1, &home, &v2, nullptr});
    EXPECT_EQ(sched.victims().size(), 2u);
    for (const Pool* v : sched.victims()) {
        EXPECT_NE(v, &home);
    }
}

TEST(StealingScheduler, HasWorkChecksEachPoolOnce) {
    DequePool home;
    DequePool victim;
    StealingScheduler sched(&home, {&home, &victim});
    EXPECT_FALSE(sched.has_work());
    auto a = make_noop_tasklet();
    home.push(a.get());
    EXPECT_TRUE(sched.has_work());
    ASSERT_EQ(sched.next(), a.get());
    EXPECT_FALSE(sched.has_work());
    auto b = make_noop_tasklet();
    victim.push(b.get());
    EXPECT_TRUE(sched.has_work());
}

TEST(StealingScheduler, SweepFindsWorkInAnyVictim) {
    // With the linear fallback, one next() call must find the single unit
    // regardless of which of many victims holds it.
    constexpr std::size_t kVictims = 8;
    for (std::size_t holder = 0; holder < kVictims; ++holder) {
        DequePool home;
        std::vector<std::unique_ptr<DequePool>> victims;
        std::vector<Pool*> raw{&home};
        for (std::size_t i = 0; i < kVictims; ++i) {
            victims.push_back(std::make_unique<DequePool>());
            raw.push_back(victims.back().get());
        }
        auto unit = make_noop_tasklet();
        victims[holder]->push(unit.get());
        StealingScheduler sched(&home, raw, /*seed=*/7);
        EXPECT_EQ(sched.next(), unit.get()) << "holder " << holder;
    }
}

TEST(StealingScheduler, NoVictimsDegradesToHomeOnly) {
    DequePool home;
    auto unit = make_noop_tasklet();
    home.push(unit.get());
    StealingScheduler sched(&home, {&home});  // filters to zero victims
    EXPECT_EQ(sched.next(), unit.get());
    EXPECT_EQ(sched.next(), nullptr);
}

// --- telemetry ---------------------------------------------------------------

TEST(StealingScheduler, CountsProbesAndOutcomes) {
    DequePool home;
    DequePool victim;
    SchedCounters counters;
    StealingScheduler sched(&home, {&victim}, /*seed=*/3);
    sched.bind_stats(&counters);

    auto unit = make_noop_tasklet();
    victim.push(unit.get());
    ASSERT_EQ(sched.next(), unit.get());
    SchedStats stats = counters.snapshot();
    EXPECT_EQ(stats.steal_hits, 1u);
    EXPECT_GE(stats.steal_attempts, 1u);

    // An all-empty sweep: probes plus the linear fallback, zero hits.
    ASSERT_EQ(sched.next(), nullptr);
    stats = counters.snapshot();
    EXPECT_EQ(stats.steal_hits, 1u);
    EXPECT_GT(stats.steal_empty, 0u);
    EXPECT_EQ(stats.steal_attempts,
              stats.steal_hits + stats.steal_empty + stats.steal_lost);
    EXPECT_GT(stats.steal_hit_rate(), 0.0);
    EXPECT_LT(stats.steal_hit_rate(), 1.0);
}

// --- tiered victim ordering --------------------------------------------------

TEST(StealingScheduler, TieredStealPrefersSiblingThenPackageThenRemote) {
    DequePool home;
    DequePool sibling;
    DequePool same_pkg;
    DequePool remote;
    SchedCounters counters;
    StealingScheduler sched(&home,
                            VictimTiers{{&sibling}, {&same_pkg}, {&remote}},
                            /*seed=*/11);
    sched.bind_stats(&counters);

    // One unit in every tier: the sweep must take the SMT sibling's.
    auto a = make_noop_tasklet();
    auto b = make_noop_tasklet();
    auto c = make_noop_tasklet();
    sibling.push(a.get());
    same_pkg.push(b.get());
    remote.push(c.get());
    EXPECT_EQ(sched.next(), a.get());
    SchedStats stats = counters.snapshot();
    EXPECT_EQ(stats.tier_hits[0], 1u);
    EXPECT_EQ(stats.tier_hits[1], 0u);
    EXPECT_EQ(stats.tier_hits[2], 0u);

    // Sibling drained: next comes from the package tier, then remote.
    EXPECT_EQ(sched.next(), b.get());
    EXPECT_EQ(sched.next(), c.get());
    stats = counters.snapshot();
    EXPECT_EQ(stats.tier_hits[0], 1u);
    EXPECT_EQ(stats.tier_hits[1], 1u);
    EXPECT_EQ(stats.tier_hits[2], 1u);
    EXPECT_EQ(stats.steal_hits, 3u);
    EXPECT_EQ(stats.tier_attempts[0] + stats.tier_attempts[1] +
                  stats.tier_attempts[2],
              stats.steal_attempts);
}

TEST(StealingScheduler, TieredCtorFiltersHomeAndNullPerTier) {
    DequePool home;
    DequePool v1;
    DequePool v2;
    StealingScheduler sched(
        &home, VictimTiers{{&home, &v1}, {nullptr, &v2}, {&home, nullptr}});
    ASSERT_EQ(sched.victims().size(), 2u);
    EXPECT_EQ(sched.tier_victims(0), (std::vector<Pool*>{&v1}));
    EXPECT_EQ(sched.tier_victims(1), (std::vector<Pool*>{&v2}));
    EXPECT_TRUE(sched.tier_victims(2).empty());
}

TEST(StealingScheduler, FlatCtorAccountsToPackageTier) {
    // The flat (untiered) constructor treats every victim as same-package,
    // so the legacy totals and the tier breakdown stay consistent.
    DequePool home;
    DequePool victim;
    SchedCounters counters;
    StealingScheduler sched(&home, {&victim}, /*seed=*/5);
    sched.bind_stats(&counters);
    auto unit = make_noop_tasklet();
    victim.push(unit.get());
    ASSERT_EQ(sched.next(), unit.get());
    ASSERT_EQ(sched.next(), nullptr);  // an all-empty sweep on top
    const SchedStats stats = counters.snapshot();
    EXPECT_EQ(stats.tier_hits[1], 1u);
    EXPECT_EQ(stats.tier_attempts[0], 0u);
    EXPECT_EQ(stats.tier_attempts[2], 0u);
    EXPECT_EQ(stats.tier_attempts[1], stats.steal_attempts);
}

TEST(SchedStats, SnapshotsAggregate) {
    SchedStats a;
    a.steal_attempts = 4;
    a.steal_hits = 1;
    a.tier_attempts[1] = 4;
    SchedStats b;
    b.steal_attempts = 6;
    b.parks = 2;
    b.tier_attempts[1] = 5;
    b.tier_attempts[2] = 1;
    a += b;
    EXPECT_EQ(a.steal_attempts, 10u);
    EXPECT_EQ(a.steal_hits, 1u);
    EXPECT_EQ(a.parks, 2u);
    EXPECT_EQ(a.tier_attempts[1], 9u);
    EXPECT_EQ(a.tier_attempts[2], 1u);
    EXPECT_DOUBLE_EQ(a.steal_hit_rate(), 0.1);
}

// --- parking lot -------------------------------------------------------------

TEST(ParkingLot, NotifyAfterPrepareAbortsThePark) {
    lwt::sync::ParkingLot lot;
    const std::uint32_t ticket = lot.prepare_park();
    lot.notify_all();  // epoch moves while we are registered
    // Must return immediately (notified), not wait for the full timeout.
    EXPECT_TRUE(lot.park(ticket, std::chrono::microseconds(60'000'000)));
    EXPECT_EQ(lot.waiters(), 0u);
}

TEST(ParkingLot, TimeoutSafetyNetFires) {
    lwt::sync::ParkingLot lot;
    const std::uint32_t ticket = lot.prepare_park();
    EXPECT_FALSE(lot.park(ticket, std::chrono::microseconds(1000)));
}

TEST(ParkingLot, WakesAParkedThread) {
    lwt::sync::ParkingLot lot;
    std::atomic<bool> woken{false};
    std::thread waiter([&] {
        const std::uint32_t ticket = lot.prepare_park();
        lot.park(ticket, std::chrono::microseconds(60'000'000));
        woken.store(true, std::memory_order_release);
    });
    while (lot.waiters() == 0) {
        std::this_thread::yield();
    }
    lot.notify_all();
    waiter.join();
    EXPECT_TRUE(woken.load(std::memory_order_acquire));
    EXPECT_GE(lot.notifies(), 1u);
}

TEST(ParkingLot, NoLostWakeUnderConcurrentNotifies) {
    // notify_one/notify_all skip the epoch bump and the futex wake while no
    // waiter is registered, relying on their fence pairing with
    // prepare_park. Each producer publishes one item at a time with a
    // plain release store, notifies, and waits until every published item
    // is taken, so its next publish races the waiters' spin and
    // registration. Waiters take items and, when none is left, spin
    // briefly, then register, re-check and park with a timeout far longer
    // than the run. A wake lost between a waiter's registration and its
    // park leaves an item untaken while every waiter sleeps: the park
    // times out.
    constexpr int kProducers = 2;
    constexpr int kWaiters = 3;
    constexpr int kItemsPerProducer = 5'000;
    constexpr int kItems = kProducers * kItemsPerProducer;
    lwt::sync::ParkingLot lot;
    std::array<std::atomic<int>, kProducers> made{};
    std::atomic<int> taken{0};
    std::atomic<int> timeouts{0};
    auto published = [&] {
        int n = 0;
        for (auto& m : made) {
            n += m.load(std::memory_order_acquire);
        }
        return n;
    };
    std::vector<std::thread> threads;
    for (int w = 0; w < kWaiters; ++w) {
        threads.emplace_back([&] {
            for (;;) {
                int t = taken.load();
                if (t >= kItems) {
                    break;
                }
                if (t < published()) {
                    if (taken.compare_exchange_weak(t, t + 1) &&
                        t + 1 == kItems) {
                        lot.notify_all();  // release the parked waiters
                    }
                    continue;
                }
                bool seen = false;
                for (int spin = 0; spin < 64 && !seen; ++spin) {
                    lwt::arch::cpu_relax();
                    seen = published() > taken.load();
                }
                if (seen) {
                    continue;
                }
                const std::uint32_t ticket = lot.prepare_park();
                if (published() > taken.load() || taken.load() >= kItems) {
                    lot.cancel_park();
                    continue;
                }
                if (!lot.park(ticket, std::chrono::seconds(10))) {
                    timeouts.fetch_add(1);
                }
            }
        });
    }
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 1; i <= kItemsPerProducer; ++i) {
                made[p].store(i, std::memory_order_release);
                if ((i + p) % 2 == 0) {
                    lot.notify_one();
                } else {
                    lot.notify_all();
                }
                for (int spin = 0; taken.load() < published(); ++spin) {
                    if (spin < 64) {
                        lwt::arch::cpu_relax();
                    } else {
                        std::this_thread::yield();
                    }
                }
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(taken.load(), kItems);
    EXPECT_EQ(timeouts.load(), 0) << "a park outlived its wake";
    EXPECT_EQ(lot.waiters(), 0u);
}

// --- idle ladder -------------------------------------------------------------

TEST(IdleBackoff, EscalatesSpinYieldPark) {
    using lwt::sync::IdleBackoff;
    using Step = IdleBackoff::Step;
    lwt::sync::ParkingLot lot;
    lwt::sync::IdleConfig config;
    config.policy = lwt::sync::IdlePolicy::kPark;
    config.spin_limit = 2;
    config.yield_limit = 1;
    config.park_timeout = std::chrono::microseconds(100);
    IdleBackoff idle(config, &lot);
    auto no_work = [] { return false; };
    EXPECT_EQ(idle.step(no_work), Step::kSpun);
    EXPECT_EQ(idle.step(no_work), Step::kSpun);
    EXPECT_EQ(idle.step(no_work), Step::kYielded);
    EXPECT_EQ(idle.step(no_work), Step::kParkTimeout);
    // A positive re-check aborts the park without blocking.
    EXPECT_EQ(idle.step([] { return true; }), Step::kParkAborted);
    idle.reset();
    EXPECT_EQ(idle.step(no_work), Step::kSpun);
}

TEST(IdleBackoff, ParkWithoutLotDegradesToBackoff) {
    using lwt::sync::IdleBackoff;
    lwt::sync::IdleConfig config;
    config.policy = lwt::sync::IdlePolicy::kPark;
    config.spin_limit = 0;
    config.yield_limit = 1;
    IdleBackoff idle(config, nullptr);
    auto no_work = [] { return false; };
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(idle.step(no_work), IdleBackoff::Step::kYielded);
    }
}

// --- spin window ---------------------------------------------------------------

TEST(SpinWindow, LadderParksOnceTheEpisodeHasLastedTheWindow) {
    using lwt::sync::IdleBackoff;
    using lwt::sync::SpinWindow;
    using Clock = SpinWindow::Clock;
    using Step = IdleBackoff::Step;
    lwt::sync::ParkingLot lot;
    lwt::sync::IdleConfig config;
    config.policy = lwt::sync::IdlePolicy::kPark;
    config.spin_limit = 1u << 30;  // the window, not the steps, ends the spin
    config.yield_limit = 0;
    config.park_timeout = std::chrono::microseconds(100);
    SpinWindow window;
    // A first episode longer than kMax: the ladder's, the second in a row,
    // will halve the window when it closes.
    window.update(SpinWindow::kMax + std::chrono::microseconds(1));
    const Clock::duration w = window.width();
    IdleBackoff idle(config, &lot, &window);
    auto no_work = [] { return false; };
    const Clock::time_point t0 = Clock::now();
    ASSERT_EQ(idle.step(no_work), Step::kSpun);  // opens the episode
    const Clock::time_point t1 = Clock::now();
    // Steps begun once the window has surely elapsed since the episode
    // opened: the first of them latches the park rung, the next parks.
    unsigned late_steps = 0;
    Clock::time_point park_begin;
    for (;;) {
        const bool parks = idle.parks_next();
        const Clock::time_point begin = Clock::now();
        ASSERT_LT(begin - t0, std::chrono::seconds(10)) << "never parked";
        const Step step = idle.step(no_work);
        if (step != Step::kSpun) {
            EXPECT_EQ(step, Step::kParkTimeout);
            EXPECT_TRUE(parks) << "parks_next() must turn true a step early";
            park_begin = begin;
            break;
        }
        EXPECT_FALSE(parks);
        late_steps += begin - t1 >= w ? 1 : 0;
    }
    EXPECT_GE(park_begin - t0, w) << "parked before the window elapsed";
    EXPECT_LE(late_steps, 1u) << "spun on after the window elapsed";
    // The episode outlasted kMax (window + park), the second such in a
    // row: closing it halves w.
    idle.reset();
    EXPECT_EQ(window.width(), w / 2);

    // Steps that run out before the window park first, as without one
    // (one spin step opens the episode, so no check can latch before the
    // yield).
    config.spin_limit = 1;
    config.yield_limit = 1;
    SpinWindow fresh;
    IdleBackoff short_ladder(config, &lot, &fresh);
    EXPECT_EQ(short_ladder.step(no_work), Step::kSpun);
    EXPECT_EQ(short_ladder.step(no_work), Step::kYielded);
    EXPECT_TRUE(short_ladder.parks_next());
    EXPECT_EQ(short_ladder.step(no_work), Step::kParkTimeout);
}

TEST(SpinWindow, KeepsDoublesOrHalvesWithinItsBounds) {
    using lwt::sync::SpinWindow;
    using std::chrono::microseconds;
    const SpinWindow::Clock::duration long_episode =
        SpinWindow::kMax + microseconds(1);
    SpinWindow window;
    EXPECT_EQ(window.width(), SpinWindow::kMax);
    // A lone episode that outlasts kMax keeps the window; the second in a
    // row halves it...
    window.update(long_episode);
    EXPECT_EQ(window.width(), SpinWindow::kMax);
    window.update(long_episode);
    const SpinWindow::Clock::duration half = SpinWindow::kMax / 2;
    EXPECT_EQ(window.width(), half);
    // ...one that ends within it keeps it and ends the run of long ones...
    window.update(half);
    window.update(microseconds(1));
    EXPECT_EQ(window.width(), half);
    window.update(long_episode);
    EXPECT_EQ(window.width(), half);
    // ...and it never shrinks below kMin.
    for (int i = 0; i < 20; ++i) {
        window.update(std::chrono::milliseconds(10));
        EXPECT_GE(window.width(), SpinWindow::kMin);
    }
    EXPECT_EQ(window.width(), SpinWindow::kMin);
    // An episode that ends after the window but within kMax doubles it
    // (and ends the run of long ones)...
    window.update(SpinWindow::kMin + microseconds(1));
    EXPECT_EQ(window.width(), 2 * SpinWindow::kMin);
    window.update(long_episode);
    EXPECT_EQ(window.width(), 2 * SpinWindow::kMin);
    window.update(SpinWindow::kMax);
    EXPECT_EQ(window.width(), 4 * SpinWindow::kMin);
    // ...and it never grows beyond kMax.
    for (int i = 0; i < 20; ++i) {
        window.update(SpinWindow::kMax);
        EXPECT_LE(window.width(), SpinWindow::kMax);
    }
    EXPECT_EQ(window.width(), SpinWindow::kMax);
}

TEST(SpinWindow, SkipToParkEpisodeLeavesTheWindowAlone) {
    using lwt::sync::IdleBackoff;
    using lwt::sync::SpinWindow;
    using Step = IdleBackoff::Step;
    lwt::sync::ParkingLot lot;
    lwt::sync::IdleConfig config;
    config.policy = lwt::sync::IdlePolicy::kPark;
    config.spin_limit = 4;
    config.yield_limit = 2;
    config.park_timeout = std::chrono::microseconds(200);  // > kMax
    SpinWindow window;
    // One episode longer than kMax: a second in a row would halve w.
    window.update(SpinWindow::kMax + std::chrono::microseconds(1));
    const SpinWindow::Clock::duration w = window.width();
    auto no_work = [] { return false; };
    IdleBackoff idle(config, &lot, &window);
    EXPECT_EQ(idle.step(no_work), Step::kSpun);  // opens the episode
    idle.skip_to_park();
    EXPECT_EQ(idle.step(no_work), Step::kParkTimeout);
    idle.reset();
    EXPECT_EQ(window.width(), w);
    // The same episode walked up the ladder halves the window: the
    // skipped one did not count, not even as the end of a run of long
    // episodes.
    Step step = Step::kSpun;
    while (step == Step::kSpun || step == Step::kYielded) {
        step = idle.step(no_work);
    }
    EXPECT_EQ(step, Step::kParkTimeout);
    idle.reset();
    EXPECT_EQ(window.width(), w / 2);
}

/// Two streams over one pool each, parking (LWT_IDLE_POLICY held off the
/// boot: the tests assert on kPark). The spin rung is 1,024 steps, longer
/// than kMin on any host, so a window shrunk to kMin ends every episode
/// inside it and no yield is left, while a ladder without a window walks
/// on to its 16 yields.
std::unique_ptr<Runtime> boot_two_parking_streams(
    std::array<DequePool, 2>& pools) {
    lwt::sync::IdleConfig idle;
    idle.policy = lwt::sync::IdlePolicy::kPark;
    idle.spin_limit = 1024;
    lwt::test::IdlePolicyEnvPin pin;
    return std::make_unique<Runtime>(2, [&pools](unsigned rank) {
        return std::make_unique<Scheduler>(std::vector<Pool*>{&pools[rank]});
    }, idle);
}

TEST(SpinWindow, IdleStreamStopsYieldingThroughLongGaps) {
    // Gaps of 2 ms between pushes outlast kMax, so from the second on each
    // halves stream 1's window (to kMin by the seventh), and it parks
    // without yielding instead of walking the ladder.
    constexpr int kGaps = 10;
    constexpr int kLast = 3;
    std::array<DequePool, 2> pools;
    std::atomic<int> ran{0};
    std::vector<SchedStats> after_gap;
    {
        const std::unique_ptr<Runtime> rt = boot_two_parking_streams(pools);
        after_gap.push_back(rt->stream(1).sched_stats());
        for (int gap = 0; gap < kGaps; ++gap) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            auto* t = new Tasklet([&ran] { ran.fetch_add(1); });
            t->detached = true;
            pools[1].push(t);
            rt->primary().run_until([&] { return ran.load() == gap + 1; });
            after_gap.push_back(rt->stream(1).sched_stats());
        }
    }
    // The early gaps may not reach the park on a loaded host: the plain
    // ladder's 16 yields can outlast a gap there.
    for (int gap = kGaps - kLast; gap < kGaps; ++gap) {
        EXPECT_GE(after_gap[gap + 1].parks, after_gap[gap].parks + 1)
            << "stream 1 did not park in gap " << gap;
    }
    const std::uint64_t late_yields =
        after_gap[kGaps].idle_yields - after_gap[kGaps - kLast].idle_yields;
    EXPECT_EQ(late_yields, 0u)
        << "stream 1 still walks its yield rung before parking";
}

TEST(SpinWindow, AttachedWaitStopsYieldingThroughLongWaits) {
    // The same for a thread attached to stream 0 that waits 2 ms for a
    // notify: the wait's episodes shrink stream 0's window.
    constexpr int kWaits = 10;
    constexpr int kLast = 3;
    std::array<DequePool, 2> pools;
    std::vector<SchedStats> after_wait;
    {
        const std::unique_ptr<Runtime> rt = boot_two_parking_streams(pools);
        after_wait.push_back(rt->primary().sched_stats());
        for (int wait = 0; wait < kWaits; ++wait) {
            lwt::sync::ThreadParker parker(&rt->parking_lot());
            std::thread notifier([&parker] {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                parker.notify();
            });
            rt->primary().run_until_notified(parker);
            notifier.join();
            after_wait.push_back(rt->primary().sched_stats());
        }
    }
    for (int wait = kWaits - kLast; wait < kWaits; ++wait) {
        EXPECT_GE(after_wait[wait + 1].parks, after_wait[wait].parks + 1)
            << "the attached thread did not park in wait " << wait;
    }
    const std::uint64_t late_yields =
        after_wait[kWaits].idle_yields - after_wait[kWaits - kLast].idle_yields;
    EXPECT_EQ(late_yields, 0u)
        << "the attached wait still walks its yield rung before parking";
}

TEST(IdlePolicy, ParsesFromStrings) {
    using lwt::sync::IdlePolicy;
    using lwt::sync::idle_policy_from_string;
    EXPECT_EQ(idle_policy_from_string("spin", IdlePolicy::kPark),
              IdlePolicy::kSpin);
    EXPECT_EQ(idle_policy_from_string("backoff", IdlePolicy::kSpin),
              IdlePolicy::kBackoff);
    EXPECT_EQ(idle_policy_from_string("park", IdlePolicy::kSpin),
              IdlePolicy::kPark);
    EXPECT_EQ(idle_policy_from_string(nullptr, IdlePolicy::kBackoff),
              IdlePolicy::kBackoff);
    EXPECT_EQ(idle_policy_from_string("bogus", IdlePolicy::kBackoff),
              IdlePolicy::kBackoff);
}

// --- pools wake parked streams ----------------------------------------------

TEST(Pool, PushNotifiesAttachedWaker) {
    lwt::sync::ParkingLot lot;
    DequePool pool;
    pool.set_waker(&lot);
    std::atomic<bool> parked_and_woken{false};
    std::thread waiter([&] {
        const std::uint32_t ticket = lot.prepare_park();
        if (pool.empty()) {
            lot.park(ticket, std::chrono::microseconds(60'000'000));
        } else {
            lot.cancel_park();
        }
        parked_and_woken.store(true, std::memory_order_release);
    });
    while (lot.waiters() == 0) {
        std::this_thread::yield();
    }
    auto unit = make_noop_tasklet();
    pool.push(unit.get());  // publish + notify
    waiter.join();
    EXPECT_TRUE(parked_and_woken.load(std::memory_order_acquire));
    pool.set_waker(nullptr);
}

// --- end-to-end: streams park while idle and wake for work -------------------

TEST(XStreamParking, IdleStreamsParkAndWakeOnPush) {
    constexpr std::size_t kStreams = 3;
    std::vector<std::unique_ptr<DequePool>> pools;
    std::vector<Pool*> raw;
    for (std::size_t i = 0; i < kStreams; ++i) {
        pools.push_back(std::make_unique<DequePool>(DequePool::PopOrder::kLifo));
        raw.push_back(pools.back().get());
    }
    lwt::sync::IdleConfig idle;
    idle.policy = lwt::sync::IdlePolicy::kPark;
    idle.spin_limit = 4;
    idle.yield_limit = 2;
    idle.park_timeout = std::chrono::microseconds(50'000);
    std::atomic<std::size_t> done{0};
    {
        lwt::test::IdlePolicyEnvPin pin;  // the test asserts on kPark
        Runtime rt(kStreams, [&](unsigned rank) {
            return std::make_unique<StealingScheduler>(raw[rank], raw,
                                                       0x51edu + rank);
        }, idle);
        pin.restore();
        // Wait until a secondary stream has demonstrably parked (idle parks
        // time out and re-park, bumping the counter) before pushing work —
        // the point is that parked streams wake and help drain it.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (rt.sched_stats().parks == 0) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << "no idle stream parked";
            std::this_thread::yield();
        }
        constexpr std::size_t kUnits = 256;
        for (std::size_t i = 0; i < kUnits; ++i) {
            auto* t = new Tasklet([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
            t->detached = true;
            raw[0]->push(t);
        }
        rt.primary().run_until([&] { return done.load() >= kUnits; });
        SchedStats stats = rt.sched_stats();
        EXPECT_GT(stats.parks, 0u);  // somebody actually slept
        EXPECT_EQ(done.load(), kUnits);
    }
}

// --- stacked schedulers come and go on a running stream ---------------------

TEST(XStreamSchedulerStack, PushedSchedulersComeAndGoOnARunningStream) {
    // The stream reads its top scheduler without the stack lock while
    // another thread pushes schedulers that the stream pops once drained.
    class DrainScheduler : public Scheduler {
      public:
        explicit DrainScheduler(Pool* p) : Scheduler({p}) {}
        [[nodiscard]] bool finished() const override {
            return pools_.front()->empty();
        }
    };
    constexpr int kRounds = 200;
    constexpr int kPerRound = 4;
    std::atomic<int> ran{0};
    auto counted = [&ran] {
        auto* t = new Tasklet([&ran] { ran.fetch_add(1); });
        t->detached = true;
        return t;
    };
    DequePool base_pool;
    std::vector<std::unique_ptr<DequePool>> pushed;  // outlive the stream
    XStream stream(0,
                   std::make_unique<Scheduler>(std::vector<Pool*>{&base_pool}));
    stream.start();
    std::thread pusher([&] {
        for (int round = 0; round < kRounds; ++round) {
            auto pool = std::make_unique<DequePool>();
            for (int i = 0; i < kPerRound; ++i) {
                pool->push(counted());
            }
            stream.push_scheduler(std::make_unique<DrainScheduler>(pool.get()));
            pushed.push_back(std::move(pool));
            base_pool.push(counted());
        }
    });
    pusher.join();
    constexpr int kTotal = kRounds * (kPerRound + 1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (ran.load() < kTotal && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
    }
    stream.stop_and_join();
    EXPECT_EQ(ran.load(), kTotal);
}

// --- contention stress: no lost, no duplicated units -------------------------

TEST(StealStress, ManyThievesOneProducerNoLostOrDuplicatedWork) {
    constexpr std::size_t kStreams = 4;
    constexpr std::size_t kUnits = 20'000;
    // Per-worker LIFO deques under random stealing: what mth builds.
    std::vector<std::unique_ptr<DequePool>> pools;
    std::vector<Pool*> raw;
    for (std::size_t i = 0; i < kStreams; ++i) {
        pools.push_back(
            std::make_unique<DequePool>(DequePool::PopOrder::kLifo));
        raw.push_back(pools.back().get());
    }
    lwt::sync::IdleConfig idle;
    idle.policy = lwt::sync::IdlePolicy::kPark;
    idle.spin_limit = 8;
    idle.yield_limit = 4;
    idle.park_timeout = std::chrono::microseconds(500);
    std::vector<std::atomic<std::uint32_t>> executions(kUnits);
    for (auto& e : executions) {
        e.store(0, std::memory_order_relaxed);
    }
    std::atomic<std::size_t> done{0};
    {
        Runtime rt(kStreams, [&](unsigned rank) {
            return std::make_unique<StealingScheduler>(raw[rank], raw,
                                                       0xabcdu * (rank + 1));
        }, idle);
        // All units funnel through the primary's pool: every other stream
        // can only obtain work by stealing from it (or from each other
        // after migration).
        for (std::size_t i = 0; i < kUnits; ++i) {
            auto* t = new Tasklet([&executions, &done, i] {
                executions[i].fetch_add(1, std::memory_order_relaxed);
                done.fetch_add(1, std::memory_order_release);
            });
            t->detached = true;
            raw[0]->push(t);
        }
        // Hold the primary's drain until a thief has stolen: otherwise the
        // primary may run all the units before any thief probes.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (rt.sched_stats().steal_hits == 0 &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
        }
        ASSERT_GT(rt.sched_stats().steal_hits, 0u)
            << "no thief stole from the primary's pool within 30 s";
        rt.primary().run_until([&] { return done.load() >= kUnits; });
    }
    for (std::size_t i = 0; i < kUnits; ++i) {
        EXPECT_EQ(executions[i].load(std::memory_order_relaxed), 1u)
            << "unit " << i << " lost or duplicated";
    }
}

// --- unpinned units: DequePool bookkeeping and the abt peer probe --------------

Tasklet* unit_with(bool unpinned) {
    auto* t = new Tasklet([] {});
    t->unpinned = unpinned;
    return t;
}

TEST(UnpinnedPool, TakesTheOldestUnpinnedAndUnpinsEveryUnitThatLeaves) {
    DequePool pool;
    Tasklet* pinned = unit_with(false);
    Tasklet* first = unit_with(true);
    Tasklet* second = unit_with(true);
    Tasklet* third = unit_with(true);
    pool.push(pinned);
    pool.push(first);
    WorkUnit* batch[] = {second, third};
    pool.push_bulk(batch);
    EXPECT_EQ(pool.unpinned_hint(), 3u);
    EXPECT_EQ(pool.take_unpinned(), first);  // oldest unpinned, not pinned
    EXPECT_FALSE(first->unpinned);
    EXPECT_EQ(pool.unpinned_hint(), 2u);
    EXPECT_TRUE(pool.remove(third));  // a join-steal unpins too
    EXPECT_FALSE(third->unpinned);
    EXPECT_EQ(pool.unpinned_hint(), 1u);
    EXPECT_EQ(pool.pop(), pinned);
    EXPECT_EQ(pool.pop(), second);  // and so does the owner's pop
    EXPECT_FALSE(second->unpinned);
    EXPECT_EQ(pool.unpinned_hint(), 0u);
    EXPECT_EQ(pool.take_unpinned(), nullptr);
    // Requeued (a yield, a wake), a unit that left the pool stays pinned.
    pool.push(second);
    EXPECT_EQ(pool.unpinned_hint(), 0u);
    EXPECT_EQ(pool.take_unpinned(), nullptr);
    EXPECT_EQ(pool.steal(), second);
    for (Tasklet* t : {pinned, first, second, third}) {
        delete t;
    }
}

TEST(UnpinnedSteal, JoinersRaceThievesForUnpinnedTasklets) {
    // This thread is stream 0: it creates unpinned tasklets into its own
    // pool and joins them newest first, so each join's remove races
    // streams 1 and 2 taking the oldest. Whoever wins, each tasklet runs
    // exactly once. Tasklets only, so TSan follows every handoff.
    constexpr int kRounds = 200;
    constexpr int kUnits = 48;
    std::vector<std::atomic<int>> runs(kUnits);
    std::atomic<long> sum{0};
    {
        lwt::abt::Config c;
        c.num_xstreams = 3;
        lwt::abt::Library lib(c);
        std::vector<lwt::abt::UnitHandle> handles;
        for (int round = 0; round < kRounds; ++round) {
            for (int i = 0; i < kUnits; ++i) {
                handles.push_back(lib.task_create_unpinned([&runs, &sum, i] {
                    runs[i].fetch_add(1, std::memory_order_relaxed);
                    sum.fetch_add(i, std::memory_order_relaxed);
                }));
            }
            for (auto it = handles.rbegin(); it != handles.rend(); ++it) {
                it->free();
            }
            handles.clear();
        }
        const SchedStats s = lib.sched_stats();
        EXPECT_LE(s.steal_hits + s.steal_empty, s.steal_attempts);
    }
    EXPECT_EQ(sum.load(), static_cast<long>(kRounds) * kUnits * (kUnits - 1) / 2);
    for (int i = 0; i < kUnits; ++i) {
        EXPECT_EQ(runs[i].load(), kRounds) << "unit " << i;
    }
}

// --- stealing scheduler under a runtime reports hits -------------------------

TEST(SchedStatsRuntime, HitRateReportedUnderStealing) {
    constexpr std::size_t kStreams = 2;
    std::vector<std::unique_ptr<DequePool>> pools;
    std::vector<Pool*> raw;
    for (std::size_t i = 0; i < kStreams; ++i) {
        pools.push_back(std::make_unique<DequePool>(DequePool::PopOrder::kLifo));
        raw.push_back(pools.back().get());
    }
    std::atomic<std::size_t> done{0};
    {
        Runtime rt(kStreams, [&](unsigned rank) {
            return std::make_unique<StealingScheduler>(raw[rank], raw,
                                                       97u + rank);
        });
        constexpr std::size_t kUnits = 4000;
        for (std::size_t i = 0; i < kUnits; ++i) {
            auto* t = new Tasklet([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
            t->detached = true;
            raw[0]->push(t);
        }
        rt.primary().run_until([&] { return done.load() >= kUnits; });
        // Stop the thief first: a snapshot taken mid-probe counts the
        // attempt but not yet its outcome.
        rt.stream(1).stop_and_join();
        const SchedStats stats = rt.sched_stats();
        EXPECT_EQ(stats.steal_attempts,
                  stats.steal_hits + stats.steal_empty + stats.steal_lost);
    }
}

}  // namespace
