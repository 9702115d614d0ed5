// Tests for the Argobots-like personality.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "abt/abt.hpp"
#include "core/scheduler.hpp"
#include "idle_policy_pin.hpp"

namespace {

using lwt::abt::Config;
using lwt::abt::Library;
using lwt::abt::PoolKind;
using lwt::abt::UnitHandle;

Config cfg(std::size_t n, PoolKind kind = PoolKind::kPrivate) {
    Config c;
    c.num_xstreams = n;
    c.pool_kind = kind;
    return c;
}

TEST(Abt, InitAndFinalize) {
    Library lib(cfg(2));
    EXPECT_EQ(lib.num_xstreams(), 2u);
    EXPECT_EQ(lib.num_pools(), 2u);
}

TEST(Abt, SharedPoolConfigHasOnePool) {
    Library lib(cfg(3, PoolKind::kShared));
    EXPECT_EQ(lib.num_xstreams(), 3u);
    EXPECT_EQ(lib.num_pools(), 1u);
}

TEST(Abt, ThreadCreateJoinRunsBody) {
    Library lib(cfg(2));
    std::atomic<int> ran{0};
    UnitHandle h = lib.thread_create([&] { ran.fetch_add(1); });
    h.join();
    EXPECT_EQ(ran.load(), 1);
    h.free();
    EXPECT_FALSE(h.valid());
}

TEST(Abt, TaskCreateJoinRunsBody) {
    Library lib(cfg(2));
    std::atomic<int> ran{0};
    UnitHandle h = lib.task_create([&] { ran.fetch_add(1); });
    h.free();  // join-and-free
    EXPECT_EQ(ran.load(), 1);
}

TEST(Abt, HandleDestructorJoinsAndFrees) {
    Library lib(cfg(2));
    std::atomic<int> ran{0};
    {
        UnitHandle h = lib.thread_create([&] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 1);
}

TEST(Abt, DetachedUnitsComplete) {
    Library lib(cfg(2));
    std::atomic<int> ran{0};
    constexpr int kUnits = 64;
    for (int i = 0; i < kUnits; ++i) {
        if (i % 2 == 0) {
            lib.thread_create_detached([&] { ran.fetch_add(1); });
        } else {
            lib.task_create_detached([&] { ran.fetch_add(1); });
        }
    }
    while (ran.load() < kUnits) {
        Library::yield();  // the primary participates, as in Argobots
    }
    EXPECT_EQ(ran.load(), kUnits);
}

class AbtPoolKindTest : public ::testing::TestWithParam<PoolKind> {};

TEST_P(AbtPoolKindTest, ManyUnitsAllExecuteOnce) {
    Library lib(cfg(4, GetParam()));
    constexpr int kUnits = 500;
    std::vector<std::atomic<int>> counts(kUnits);
    std::vector<UnitHandle> handles;
    handles.reserve(kUnits);
    for (int i = 0; i < kUnits; ++i) {
        if (i % 3 == 0) {
            handles.push_back(lib.task_create([&counts, i] { counts[i]++; }));
        } else {
            handles.push_back(lib.thread_create([&counts, i] { counts[i]++; }));
        }
    }
    for (auto& h : handles) {
        h.free();
    }
    for (int i = 0; i < kUnits; ++i) {
        EXPECT_EQ(counts[i].load(), 1) << i;
    }
}

INSTANTIATE_TEST_SUITE_P(PoolKinds, AbtPoolKindTest,
                         ::testing::Values(PoolKind::kPrivate,
                                           PoolKind::kShared));

TEST(Abt, ExplicitPoolPlacement) {
    Library lib(cfg(3));
    // Pool 1 belongs to a dedicated stream; the unit must run there even if
    // the main thread never participates.
    std::atomic<bool> ran{false};
    UnitHandle h = lib.thread_create([&] { ran.store(true); }, /*pool_idx=*/1);
    h.free();
    EXPECT_TRUE(ran.load());
}

TEST(Abt, YieldInsideUlt) {
    Library lib(cfg(2));
    std::vector<int> trace;
    UnitHandle h = lib.thread_create(
        [&] {
            trace.push_back(1);
            Library::yield();
            trace.push_back(2);
        },
        /*pool_idx=*/1);
    h.free();
    EXPECT_EQ(trace, (std::vector<int>{1, 2}));
}

TEST(Abt, YieldToBeatsQueueOrder) {
    Library lib(cfg(1));
    std::vector<int> order;
    auto target = std::make_unique<UnitHandle>();
    UnitHandle source = lib.thread_create(
        [&] {
            order.push_back(1);
            EXPECT_TRUE(Library::yield_to(*target));
            order.push_back(4);
        },
        0);
    UnitHandle decoy = lib.thread_create([&] { order.push_back(3); }, 0);
    *target = lib.thread_create([&] { order.push_back(2); }, 0);
    source.free();
    decoy.free();
    target->free();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Abt, DynamicXstreamCreation) {
    // Booted under the park policy, a stream created at run time gets the
    // same idle ladder and lot as the boot streams: once idle, it parks.
    lwt::test::IdlePolicyEnvPin pin;
    lwt::core::set_default_idle_policy(lwt::sync::IdlePolicy::kPark);
    Library lib(cfg(1));
    lwt::core::set_default_idle_policy(std::nullopt);  // resolved at boot
    pin.restore();
    EXPECT_EQ(lib.num_xstreams(), 1u);
    const std::size_t rank = lib.xstream_create();
    EXPECT_EQ(rank, 1u);
    EXPECT_EQ(lib.num_xstreams(), 2u);
    // The new stream must actually execute work (private pool index 1).
    std::atomic<bool> ran{false};
    UnitHandle h = lib.thread_create([&] { ran.store(true); },
                                     static_cast<int>(lib.num_pools() - 1));
    h.free();
    EXPECT_TRUE(ran.load());
    // Stream 0 is this thread, which never runs an idle loop: every park
    // counted is the new stream's.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (lib.sched_stats().parks == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(lib.sched_stats().parks, 0u);
}

TEST(Abt, XstreamCreateRacesWithStreamReaders) {
    // xstream_create appends to the stream list while another thread reads
    // the count and the stats sum over it; under TSan this checks that
    // both sides hold the runtime's stream lock.
    Library lib(cfg(1));
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load()) {
            const std::size_t n = lib.num_xstreams();
            EXPECT_GE(n, 1u);
            EXPECT_LE(n, 5u);
            (void)lib.sched_stats();
        }
    });
    for (int i = 0; i < 4; ++i) {
        lib.xstream_create();
    }
    stop.store(true);
    reader.join();
    EXPECT_EQ(lib.num_xstreams(), 5u);
}

TEST(Abt, StackableSchedulerOnStream) {
    // The pool must outlive the library: stream 1's scheduler stack may
    // reference it until the stream stops.
    auto urgent = std::make_unique<lwt::core::DequePool>();
    lwt::core::DequePool* urgent_ptr = urgent.get();
    Library lib(cfg(2));

    class DrainSched : public lwt::core::Scheduler {
      public:
        explicit DrainSched(lwt::core::Pool* p) : Scheduler({p}) {}
        [[nodiscard]] bool finished() const override {
            return pools_.front()->empty();
        }
    };

    std::atomic<bool> urgent_ran{false};
    auto* t = new lwt::core::Tasklet([&] { urgent_ran.store(true); });
    t->detached = true;
    urgent_ptr->push(t);
    lib.push_scheduler(1, std::make_unique<DrainSched>(urgent_ptr));
    while (!urgent_ran.load()) {
        std::this_thread::yield();
    }
    EXPECT_TRUE(urgent_ran.load());
}

TEST(Abt, UltsCanCreateUlts) {
    Library lib(cfg(2));
    std::atomic<int> ran{0};
    UnitHandle outer = lib.thread_create([&] {
        std::vector<UnitHandle> inner;
        for (int i = 0; i < 8; ++i) {
            inner.push_back(lib.thread_create([&] { ran.fetch_add(1); }));
        }
        for (auto& h : inner) {
            h.free();
        }
    });
    outer.free();
    EXPECT_EQ(ran.load(), 8);
}

TEST(Abt, StackReuseAcrossCreates) {
    Library lib(cfg(1));
    for (int round = 0; round < 50; ++round) {
        UnitHandle h = lib.thread_create([] {}, 0);
        h.free();
    }
    SUCCEED();  // no leak/crash: stacks cycle through the pool
}

// --- unpinned creates (glt Placement::any()) ----------------------------------

/// Sleep-poll until `pred()` holds, without driving the caller's stream;
/// false after `limit`.
template <typename Pred>
bool wait_without_driving(Pred&& pred, std::chrono::milliseconds limit) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline) {
            return false;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
}

TEST(AbtUnpinned, IdlePeerRunsUnitsTheCreatorNeverDrives) {
    // Stream 0 is this thread. Its unpinned creates stay in its own pool,
    // which it does not drive here: every unit must still run, on the idle
    // stream 1. A round-robin create would strand half of them.
    Library lib(cfg(2));
    constexpr int kUnits = 32;
    std::atomic<int> ran{0};
    std::atomic<int> on_peer{0};
    std::vector<UnitHandle> handles;
    for (int i = 0; i < kUnits; ++i) {
        auto body = [&] {
            on_peer.fetch_add(Library::self_xstream_rank() == 1 ? 1 : 0);
            ran.fetch_add(1);
        };
        handles.push_back(i % 2 == 0 ? lib.thread_create_unpinned(body)
                                     : lib.task_create_unpinned(body));
    }
    EXPECT_TRUE(wait_without_driving([&] { return ran.load() == kUnits; },
                                     std::chrono::seconds(10)));
    EXPECT_EQ(on_peer.load(), kUnits);
    EXPECT_GE(lib.sched_stats().steal_hits,
              static_cast<std::uint64_t>(kUnits));
    for (UnitHandle& h : handles) {
        h.free();
    }
}

TEST(AbtUnpinned, PlainThreadCreatesRoundRobin) {
    // A thread that is no stream of the library keeps round-robin: half the
    // units land in pool 0, which nobody drives until the main thread joins
    // them, and stream 1 takes none of those (they are not unpinned).
    Library lib(cfg(2));
    std::atomic<int> per_rank[2] = {};
    std::vector<UnitHandle> handles;
    std::thread creator([&] {
        for (int i = 0; i < 16; ++i) {
            handles.push_back(lib.thread_create_unpinned([&] {
                per_rank[Library::self_xstream_rank()].fetch_add(1);
            }));
        }
    });
    creator.join();
    EXPECT_TRUE(wait_without_driving([&] { return per_rank[1].load() == 8; },
                                     std::chrono::seconds(10)));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(per_rank[0].load(), 0);
    EXPECT_EQ(per_rank[1].load(), 8);
    for (UnitHandle& h : handles) {
        h.free();
    }
    EXPECT_EQ(per_rank[0].load(), 8);
    EXPECT_EQ(lib.sched_stats().steal_attempts, 0u);
}

TEST(AbtUnpinned, PlacedUnitsAreNeverTaken) {
    // Units placed by pool index or by domain stay where they were put:
    // stream 1 idles beside them and takes none, so they wait for this
    // thread (stream 0). Two packages, one stream each, so domain 0's
    // shared pool is stream 0's alone.
    ::setenv("LWT_TOPOLOGY", "2x1x1", 1);
    Library lib(cfg(2));
    ::unsetenv("LWT_TOPOLOGY");
    ASSERT_EQ(lib.num_domains(), 2u);
    ASSERT_EQ(lib.locality().placement(0).domain, 0u);
    std::atomic<int> per_rank[2] = {};
    auto body = [&] { per_rank[Library::self_xstream_rank()].fetch_add(1); };
    std::vector<UnitHandle> handles;
    for (int i = 0; i < 8; ++i) {
        handles.push_back(lib.thread_create(body, 0));
        handles.push_back(lib.task_create(body, 0));
        handles.push_back(lib.thread_create_domain(body, 0));
        handles.push_back(lib.task_create_domain(body, 0));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(per_rank[1].load(), 0);
    for (UnitHandle& h : handles) {
        h.free();
    }
    EXPECT_EQ(per_rank[0].load(), 32);
    EXPECT_EQ(per_rank[1].load(), 0);
    EXPECT_EQ(lib.sched_stats().steal_attempts, 0u);
}

TEST(AbtUnpinned, StartedUnitResumesWhereItStarted) {
    // An unpinned ULT is pinned from its first dispatch on: after a yield,
    // or a block and its wake, it requeues on the stream that started it,
    // and stays there while that stream runs a 20 ms unit queued ahead of
    // it and the other stream idles.
    Library lib(cfg(2));
    for (const bool block : {false, true}) {
        SCOPED_TRACE(block ? "block" : "yield");
        int started = -1;
        int resumed = -2;
        UnitHandle outer = lib.thread_create(
            [&] {
                UnitHandle unit = lib.thread_create_unpinned([&] {
                    started = Library::self_xstream_rank();
                    lwt::abt::Event woken;
                    UnitHandle hog = lib.thread_create(
                        [&] {
                            if (block) {
                                woken.set();
                            }
                            const auto until = std::chrono::steady_clock::now() +
                                               std::chrono::milliseconds(20);
                            while (std::chrono::steady_clock::now() < until) {
                            }
                        },
                        started);
                    if (block) {
                        woken.wait();
                    } else {
                        Library::yield();
                    }
                    resumed = Library::self_xstream_rank();
                    hog.free();
                });
                unit.free();
            },
            /*pool_idx=*/1);
        outer.free();
        EXPECT_GE(started, 0);
        EXPECT_EQ(resumed, started);
    }
}

TEST(AbtUnpinned, DynamicStreamTakesUnpinnedWork) {
    // A stream added at run time is a peer: it takes the unpinned units
    // this thread (stream 0) creates and never drives.
    Library lib(cfg(1));
    ASSERT_EQ(lib.xstream_create(), 1u);
    constexpr int kUnits = 16;
    std::atomic<int> on_new{0};
    std::vector<UnitHandle> handles;
    for (int i = 0; i < kUnits; ++i) {
        handles.push_back(lib.task_create_unpinned([&] {
            on_new.fetch_add(Library::self_xstream_rank() == 1 ? 1 : 0);
        }));
    }
    EXPECT_TRUE(wait_without_driving([&] { return on_new.load() == kUnits; },
                                     std::chrono::seconds(10)));
    for (UnitHandle& h : handles) {
        h.free();
    }
}

TEST(AbtUnpinned, DynamicStreamsUnpinnedWorkCanBeTaken) {
    // A ULT on a stream added at run time creates unpinned units, then
    // holds its stream until they all ran: a peer must take every one.
    Library lib(cfg(1));
    ASSERT_EQ(lib.xstream_create(), 1u);
    ASSERT_EQ(lib.xstream_create(), 2u);
    constexpr int kUnits = 16;
    std::atomic<int> ran{0};
    std::atomic<int> on_creator{0};
    bool all_ran = false;
    UnitHandle outer = lib.thread_create(
        [&] {
            std::vector<UnitHandle> units;
            for (int i = 0; i < kUnits; ++i) {
                units.push_back(lib.task_create_unpinned([&] {
                    on_creator.fetch_add(
                        Library::self_xstream_rank() == 2 ? 1 : 0);
                    ran.fetch_add(1);
                }));
            }
            all_ran = wait_without_driving(
                [&] { return ran.load() == kUnits; }, std::chrono::seconds(10));
            for (UnitHandle& u : units) {
                u.free();
            }
        },
        /*pool_idx=*/2);
    outer.free();
    EXPECT_TRUE(all_ran);
    EXPECT_EQ(on_creator.load(), 0);
}

}  // namespace

namespace {

TEST(Abt, SelfIntrospection) {
    EXPECT_FALSE(Library::self_is_ult());
    Library lib(cfg(2));
    // Main thread is attached as the primary stream (rank 0).
    EXPECT_EQ(Library::self_xstream_rank(), 0);
    int rank_inside = -2;
    bool was_ult = false;
    UnitHandle h = lib.thread_create(
        [&] {
            rank_inside = Library::self_xstream_rank();
            was_ult = Library::self_is_ult();
        },
        /*pool_idx=*/1);
    h.free();
    EXPECT_EQ(rank_inside, 1);
    EXPECT_TRUE(was_ult);
}

}  // namespace
