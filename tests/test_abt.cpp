// Tests for the Argobots-like personality.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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
    Config c = cfg(1);
    c.reuse_stacks = true;
    Library lib(c);
    for (int round = 0; round < 50; ++round) {
        UnitHandle h = lib.thread_create([] {}, 0);
        h.free();
    }
    SUCCEED();  // no leak/crash: stacks cycle through the pool
}

TEST(Abt, NoStackReuseStillWorks) {
    Config c = cfg(1);
    c.reuse_stacks = false;
    Library lib(c);
    std::atomic<int> ran{0};
    for (int round = 0; round < 10; ++round) {
        UnitHandle h = lib.thread_create([&] { ran.fetch_add(1); }, 0);
        h.free();
    }
    EXPECT_EQ(ran.load(), 10);
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
