// Tests for the bulk create/join fast path: Pool::push_bulk's single
// notify per batch (asserted via parking-lot epochs), the GLT v2
// spawn_bulk/wait API across every backend, momp's bulk task submission
// and taskloop, the descriptor/stack caches, and a stress of concurrent
// bulk pushes into a shared pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "abt/abt.hpp"
#include "arch/stack.hpp"
#include "core/pool.hpp"
#include "core/sync_ult.hpp"
#include "core/unit_cache.hpp"
#include "core/work_unit.hpp"
#include "glt/glt.hpp"
#include "momp/momp.hpp"
#include "sync/parking_lot.hpp"

namespace {

using lwt::glt::Backend;
using lwt::glt::backend_name;
using lwt::glt::BulkHandle;
using lwt::glt::Runtime;
using lwt::glt::UnitKind;

// --- Pool::push_bulk notify batching -------------------------------------------

// The acceptance property of the batched submission path: pushing N units
// as one batch wakes parked consumers exactly ONCE (one parking-lot epoch
// bump), where the per-unit path bumps the epoch N times. The lot skips
// the bump while nobody waits, so a waiter stays registered throughout.
template <typename PoolT>
void expect_single_notify_per_batch(PoolT& pool) {
    lwt::sync::ParkingLot lot;
    pool.set_waker(&lot);
    (void)lot.prepare_park();

    constexpr std::size_t kBatch = 64;
    std::vector<lwt::core::WorkUnit*> batch;
    batch.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
        batch.push_back(new lwt::core::Tasklet([] {}));
    }
    const std::uint32_t before = lot.epoch();
    pool.push_bulk(batch);
    EXPECT_EQ(lot.epoch(), before + 1) << "bulk batch must notify once";

    // Empty batches must not notify at all.
    pool.push_bulk(std::vector<lwt::core::WorkUnit*>{});
    EXPECT_EQ(lot.epoch(), before + 1);

    // Per-unit pushes notify per unit — the cost the bulk path removes.
    const std::uint32_t mid = lot.epoch();
    for (int i = 0; i < 8; ++i) {
        pool.push(new lwt::core::Tasklet([] {}));
    }
    EXPECT_EQ(lot.epoch(), mid + 8);
    lot.cancel_park();

    std::size_t drained = 0;
    while (lwt::core::WorkUnit* u = pool.pop()) {
        delete u;
        ++drained;
    }
    EXPECT_EQ(drained, kBatch + 8);
    pool.set_waker(nullptr);
}

TEST(PushBulk, SharedFifoPoolNotifiesOnce) {
    lwt::core::SharedFifoPool pool;
    expect_single_notify_per_batch(pool);
}

TEST(PushBulk, MpmcPoolNotifiesOnce) {
    lwt::core::MpmcPool pool(1024);
    expect_single_notify_per_batch(pool);
}

TEST(PushBulk, DequePoolNotifiesOnce) {
    lwt::core::DequePool pool;
    expect_single_notify_per_batch(pool);
}

// --- GLT v2 spawn_bulk/wait over every backend ----------------------------------

class BulkBackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(BulkBackendTest, SpawnBulkRunsEveryIndexOnce) {
    auto rt = Runtime::create(GetParam(), 2);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    BulkHandle h = rt->spawn_bulk(kN, [&hits](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_TRUE(h.valid());
    EXPECT_EQ(h.size(), kN);
    rt->wait(h);
    EXPECT_FALSE(h.valid());
    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST_P(BulkBackendTest, ZeroSizeBatchIsInvalidAndWaitable) {
    auto rt = Runtime::create(GetParam(), 2);
    BulkHandle h = rt->spawn_bulk(0, [](std::size_t) { FAIL(); });
    EXPECT_FALSE(h.valid());
    EXPECT_EQ(h.size(), 0u);
    rt->wait(h);  // must be a no-op, not a hang
}

TEST_P(BulkBackendTest, MixedUltAndTaskletBatches) {
    auto rt = Runtime::create(GetParam(), 2);
    std::atomic<int> ran{0};
    BulkHandle ults = rt->spawn_bulk(
        64, [&ran](std::size_t) { ran.fetch_add(1); }, UnitKind::kUlt);
    BulkHandle tasklets = rt->spawn_bulk(
        64, [&ran](std::size_t) { ran.fetch_add(1); }, UnitKind::kTasklet);
    rt->wait(tasklets);
    rt->wait(ults);
    EXPECT_EQ(ran.load(), 128);
}

TEST_P(BulkBackendTest, LargeBatch) {
    auto rt = Runtime::create(GetParam(), 2);
    // 100k stackless units where the backend has them; 10k ULTs otherwise
    // (a 100k-ULT batch would need ~200k mappings, past vm.max_map_count).
    const bool stackless = rt->capabilities().native_tasklets;
    const std::size_t n = stackless ? 100000 : 10000;
    std::atomic<std::size_t> ran{0};
    BulkHandle h = rt->spawn_bulk(
        n, [&ran](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); },
        stackless ? UnitKind::kTasklet : UnitKind::kUlt);
    rt->wait(h);
    EXPECT_EQ(ran.load(), n);
}

TEST_P(BulkBackendTest, BackToBackBatchesReuseCaches) {
    // Several create/join rounds: exercises descriptor- and stack-cache
    // recycling between batches.
    auto rt = Runtime::create(GetParam(), 2);
    std::atomic<std::size_t> ran{0};
    for (int round = 0; round < 5; ++round) {
        BulkHandle h = rt->spawn_bulk(256, [&ran](std::size_t) {
            ran.fetch_add(1, std::memory_order_relaxed);
        });
        rt->wait(h);
    }
    EXPECT_EQ(ran.load(), 5u * 256u);
}

INSTANTIATE_TEST_SUITE_P(Backends, BulkBackendTest,
                         ::testing::Values(Backend::kAbt, Backend::kQth,
                                           Backend::kMth, Backend::kCvt,
                                           Backend::kGol),
                         [](const auto& info) {
                             return std::string(backend_name(info.param));
                         });

// --- Native abt bulk API ---------------------------------------------------------

TEST(AbtBulk, CreateBulkMixedKindsJoinAllFree) {
    lwt::abt::Config cfg;
    cfg.num_xstreams = 2;
    lwt::abt::Library lib(cfg);
    std::atomic<int> ran{0};
    auto ults = lib.create_bulk(lwt::abt::UnitKind::kUlt, 100,
                                [&ran](std::size_t) { ran.fetch_add(1); });
    auto tasklets = lib.create_bulk(lwt::abt::UnitKind::kTasklet, 100,
                                    [&ran](std::size_t) { ran.fetch_add(1); });
    lib.join_all_free(ults);
    lib.join_all_free(tasklets);
    EXPECT_EQ(ran.load(), 200);
}

TEST(AbtBulk, CreateBulkTargetsOnePool) {
    lwt::abt::Config cfg;
    cfg.num_xstreams = 2;
    lwt::abt::Library lib(cfg);
    std::atomic<int> ran{0};
    auto handles = lib.create_bulk(lwt::abt::UnitKind::kTasklet, 50,
                                   [&ran](std::size_t) { ran.fetch_add(1); },
                                   /*pool_idx=*/1);
    lib.join_all_free(handles);
    EXPECT_EQ(ran.load(), 50);
}

// --- momp bulk task submission ---------------------------------------------------

class MompBulkTest : public ::testing::TestWithParam<lwt::momp::Flavor> {};

TEST_P(MompBulkTest, TaskBulkRunsAllIndices) {
    lwt::momp::Config cfg;
    cfg.flavor = GetParam();
    cfg.num_threads = 4;
    lwt::momp::Runtime rt(cfg);
    constexpr std::size_t kN = 10000;  // past both flavours' cutoffs
    std::vector<std::atomic<int>> hits(kN);
    rt.parallel([&](std::size_t tid, std::size_t) {
        if (tid == 0) {
            lwt::momp::Runtime::task_bulk(kN, [&hits](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
        }
    });
    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST_P(MompBulkTest, TaskloopMatchesSerialSum) {
    lwt::momp::Config cfg;
    cfg.flavor = GetParam();
    cfg.num_threads = 4;
    lwt::momp::Runtime rt(cfg);
    constexpr std::size_t kN = 5000;
    std::atomic<std::uint64_t> sum{0};
    rt.parallel_for_taskloop(kN, /*grain=*/64, [&sum](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(kN) * (kN - 1) / 2);
}

TEST_P(MompBulkTest, TaskloopOneChunkPerThreadRunsEachIndexOnce) {
    lwt::momp::Config cfg;
    cfg.flavor = GetParam();
    cfg.num_threads = 2;
    lwt::momp::Runtime rt(cfg);
    constexpr std::size_t kN = 1000;
    std::vector<int> hits(kN, 0);
    std::atomic<std::size_t> ran{0};
    rt.parallel_for_taskloop(kN, /*grain=*/0, [&](std::size_t i) {
        hits[i] += 1;
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), kN);
    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[i], 1) << "index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Flavors, MompBulkTest,
                         ::testing::Values(lwt::momp::Flavor::kGcc,
                                           lwt::momp::Flavor::kIcc),
                         [](const auto& info) {
                             return info.param == lwt::momp::Flavor::kGcc
                                        ? std::string("gcc")
                                        : std::string("icc");
                         });

// --- descriptor / stack caches ---------------------------------------------------

TEST(UnitCache, RecyclesDescriptorsAcrossRounds) {
    const std::uint64_t hits_before = lwt::core::unit_cache_hits();
    for (int round = 0; round < 4; ++round) {
        std::vector<lwt::core::WorkUnit*> units;
        units.reserve(256);
        for (int i = 0; i < 256; ++i) {
            units.push_back(new lwt::core::Tasklet([] {}));
        }
        for (lwt::core::WorkUnit* u : units) {
            delete u;
        }
    }
    // After the first round every round's allocations hit the freelist.
    EXPECT_GT(lwt::core::unit_cache_hits(), hits_before);
}

TEST(StackCache, EnvOverridesMaxCached) {
    ::setenv("LWT_STACK_CACHE", "3", 1);
    lwt::arch::StackPool pool(1 << 16);
    EXPECT_EQ(pool.max_cached(), 3u);
    ::unsetenv("LWT_STACK_CACHE");
    lwt::arch::StackPool defaulted(1 << 16, 64);
    EXPECT_EQ(defaulted.max_cached(), 64u);
}

TEST(StackCache, BatchRefillAndDrainRoundTrip) {
    lwt::arch::SharedStackPool shared(1 << 16, 64);
    {
        lwt::arch::StackCache cache(&shared);
        std::vector<lwt::arch::Stack> held;
        for (std::size_t i = 0; i < 3 * lwt::arch::StackCache::kBatch; ++i) {
            held.push_back(cache.acquire());
            ASSERT_TRUE(held.back().valid());
        }
        for (auto& s : held) {
            cache.recycle(std::move(s));
        }
        // Past 2x batch the cache drains back to the shared pool.
        EXPECT_LE(cache.cached(), 2 * lwt::arch::StackCache::kBatch);
    }
    // Cache destruction returns the remainder to the shared pool.
    EXPECT_GT(shared.cached(), 0u);
}

// --- stress: concurrent bulk pushes ------------------------------------------

// Many producers bulk-push into one MPMC pool while consumers drain it.
TEST(BulkStress, MpmcPoolConcurrentBulkPushes) {
    lwt::core::MpmcPool pool(1 << 12);
    constexpr std::size_t kProducers = 3;
    constexpr std::size_t kBatches = 50;
    constexpr std::size_t kBatch = 32;
    constexpr std::size_t kTotal = kProducers * kBatches * kBatch;
    std::atomic<std::size_t> consumed{0};

    std::vector<std::thread> consumers;
    for (int t = 0; t < 2; ++t) {
        consumers.emplace_back([&] {
            while (consumed.load(std::memory_order_acquire) < kTotal) {
                if (lwt::core::WorkUnit* u = pool.pop()) {
                    delete u;
                    consumed.fetch_add(1, std::memory_order_relaxed);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&] {
            for (std::size_t b = 0; b < kBatches; ++b) {
                std::vector<lwt::core::WorkUnit*> batch;
                batch.reserve(kBatch);
                for (std::size_t i = 0; i < kBatch; ++i) {
                    batch.push_back(new lwt::core::Tasklet([] {}));
                }
                pool.push_bulk(batch);
            }
        });
    }
    for (auto& t : producers) {
        t.join();
    }
    for (auto& t : consumers) {
        t.join();
    }
    EXPECT_EQ(consumed.load(), kTotal);
}

}  // namespace
