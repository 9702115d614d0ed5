// Tests for OS-thread-level synchronisation: locks, barriers, FEB table.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sync/barrier.hpp"
#include "sync/feb.hpp"
#include "sync/spinlock.hpp"
#include "sync/wait_table.hpp"

namespace {

using lwt::sync::aligned_t;
using lwt::sync::CentralBarrier;
using lwt::sync::DisseminationBarrier;
using lwt::sync::FebTable;
using lwt::sync::Spinlock;
using lwt::sync::TicketLock;
using lwt::sync::WaitTable;

constexpr int kThreads = 4;
constexpr int kIncrementsPerThread = 20000;

// --- locks: mutual exclusion under contention -------------------------------

template <typename Lock>
long contended_count() {
    Lock lock;
    long counter = 0;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < kIncrementsPerThread; ++i) {
                std::lock_guard guard(lock);
                ++counter;
            }
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    return counter;
}

TEST(Spinlock, MutualExclusionUnderContention) {
    EXPECT_EQ(contended_count<Spinlock>(), kThreads * kIncrementsPerThread);
}

TEST(TicketLock, MutualExclusionUnderContention) {
    EXPECT_EQ(contended_count<TicketLock>(), kThreads * kIncrementsPerThread);
}

TEST(Spinlock, TryLockReflectsState) {
    Spinlock lock;
    EXPECT_TRUE(lock.try_lock());
    EXPECT_FALSE(lock.try_lock());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

TEST(TicketLock, TryLockReflectsState) {
    TicketLock lock;
    EXPECT_TRUE(lock.try_lock());
    EXPECT_FALSE(lock.try_lock());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

// --- barriers ---------------------------------------------------------------

TEST(CentralBarrier, NoThreadPassesEarly) {
    constexpr int kN = 4;
    constexpr int kRounds = 200;
    CentralBarrier barrier(kN);
    std::atomic<int> phase_counts[kRounds] = {};
    std::vector<std::thread> workers;
    for (int t = 0; t < kN; ++t) {
        workers.emplace_back([&] {
            for (int r = 0; r < kRounds; ++r) {
                phase_counts[r].fetch_add(1);
                barrier.arrive_and_wait();
                // After the barrier everyone must have bumped this round.
                EXPECT_EQ(phase_counts[r].load(), kN);
            }
        });
    }
    for (auto& w : workers) {
        w.join();
    }
}

TEST(CentralBarrier, SingleParticipantNeverBlocks) {
    CentralBarrier barrier(1);
    for (int i = 0; i < 100; ++i) {
        barrier.arrive_and_wait();
    }
    SUCCEED();
}

TEST(DisseminationBarrier, NoThreadPassesEarly) {
    constexpr int kN = 5;  // deliberately not a power of two
    constexpr int kRounds = 200;
    DisseminationBarrier barrier(kN);
    std::atomic<int> phase_counts[kRounds] = {};
    std::vector<std::thread> workers;
    for (int t = 0; t < kN; ++t) {
        workers.emplace_back([&, t] {
            for (int r = 0; r < kRounds; ++r) {
                phase_counts[r].fetch_add(1);
                barrier.arrive_and_wait(static_cast<std::size_t>(t));
                EXPECT_EQ(phase_counts[r].load(), kN);
            }
        });
    }
    for (auto& w : workers) {
        w.join();
    }
}

// --- FEB table ----------------------------------------------------------------

TEST(Feb, WordsStartImplicitlyFull) {
    FebTable table;
    aligned_t word = 77;
    EXPECT_TRUE(table.is_full(&word));
    EXPECT_EQ(table.read_ff(&word), 77u);
}

TEST(Feb, PurgeThenFillRoundTrip) {
    FebTable table;
    aligned_t word = 0;
    table.purge(&word);
    EXPECT_FALSE(table.is_full(&word));
    table.fill(&word);
    EXPECT_TRUE(table.is_full(&word));
}

TEST(Feb, WriteFSetsValueAndFull) {
    FebTable table;
    aligned_t word = 0;
    table.purge(&word);
    table.write_f(&word, 123);
    EXPECT_TRUE(table.is_full(&word));
    EXPECT_EQ(word, 123u);
}

TEST(Feb, ReadFeEmptiesTheWord) {
    FebTable table;
    aligned_t word = 55;
    EXPECT_EQ(table.read_fe(&word), 55u);
    EXPECT_FALSE(table.is_full(&word));
}

TEST(Feb, WriteEfBlocksUntilEmpty) {
    FebTable table;
    aligned_t word = 1;  // implicitly FULL
    std::atomic<bool> wrote{false};
    std::thread writer([&] {
        table.write_ef(&word, 99);  // must wait for an EMPTY state
        wrote.store(true);
    });
    // Give the writer a chance to (incorrectly) complete.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(wrote.load());
    table.purge(&word);  // now EMPTY -> writer proceeds
    writer.join();
    EXPECT_TRUE(wrote.load());
    EXPECT_EQ(word, 99u);
    EXPECT_TRUE(table.is_full(&word));
}

TEST(Feb, ReadFfBlocksUntilFull) {
    FebTable table;
    aligned_t word = 0;
    table.purge(&word);
    std::atomic<bool> read{false};
    aligned_t got = 0;
    std::thread reader([&] {
        got = table.read_ff(&word);
        read.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(read.load());
    table.write_f(&word, 42);
    reader.join();
    EXPECT_TRUE(read.load());
    EXPECT_EQ(got, 42u);
}

TEST(Feb, ProducerConsumerHandoffChain) {
    // readFE/writeEF alternation acts as a 1-slot channel.
    FebTable table;
    aligned_t word = 0;
    table.purge(&word);
    constexpr aligned_t kItems = 500;
    std::uint64_t sum = 0;
    std::thread producer([&] {
        for (aligned_t i = 1; i <= kItems; ++i) {
            table.write_ef(&word, i);
        }
    });
    for (aligned_t i = 1; i <= kItems; ++i) {
        sum += table.read_fe(&word);
    }
    producer.join();
    EXPECT_EQ(sum, kItems * (kItems + 1) / 2);
}

TEST(Feb, ForgetRestoresImplicitFull) {
    FebTable table;
    aligned_t word = 5;
    table.purge(&word);
    ASSERT_FALSE(table.is_full(&word));
    table.forget(&word);
    EXPECT_TRUE(table.is_full(&word));
    EXPECT_EQ(table.tracked(), 0u);
}

TEST(Feb, InstanceIsSingleton) {
    EXPECT_EQ(&FebTable::instance(), &FebTable::instance());
}

TEST(Feb, BlockedReaderParksInWaitTable) {
    // The FEB table blocks through sync::WaitTable (not a spin callback):
    // a blocked read_ff must show up as a parked waiter on the word's
    // address, and the state transition must wake it.
    FebTable table;
    aligned_t word = 0;
    table.purge(&word);
    std::atomic<bool> read{false};
    aligned_t got = 0;
    std::thread reader([&] {
        got = table.read_ff(&word);
        read.store(true);
    });
    // Wait until the reader is actually parked (it spins briefly first).
    auto& wt = WaitTable::instance();
    for (int i = 0; i < 2000 && wt.waiters(&word) == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(wt.waiters(&word), 1u);
    EXPECT_FALSE(read.load());
    table.write_f(&word, 42);
    reader.join();
    EXPECT_TRUE(read.load());
    EXPECT_EQ(got, 42u);
    EXPECT_EQ(wt.waiters(&word), 0u);
}

// --- WaitTable (futex-style address-keyed parking) ----------------------------

TEST(WaitTable, ValidationFailureRefusesToPark) {
    auto& wt = WaitTable::instance();
    int dummy = 0;
    // still_blocked returns false: park_if must return false immediately.
    const bool parked = wt.park_if(
        &dummy, [](void*) { return false; }, nullptr);
    EXPECT_FALSE(parked);
    EXPECT_EQ(wt.waiters(&dummy), 0u);
}

TEST(WaitTable, UnparkWakesOnlyMatchingKey) {
    auto& wt = WaitTable::instance();
    // Two keys in (very likely) the same shard: waking one must not wake
    // the other.
    alignas(64) std::atomic<int> a{0};
    alignas(64) std::atomic<int> b{0};
    auto block_while_zero = [](void* ctx) {
        return static_cast<std::atomic<int>*>(ctx)->load() == 0;
    };
    std::thread ta([&] {
        while (a.load() == 0) {
            wt.park_if(&a, block_while_zero, &a);
        }
    });
    std::thread tb([&] {
        while (b.load() == 0) {
            wt.park_if(&b, block_while_zero, &b);
        }
    });
    for (int i = 0; i < 2000 && (wt.waiters(&a) + wt.waiters(&b)) < 2; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(wt.waiters(&a), 1u);
    ASSERT_EQ(wt.waiters(&b), 1u);
    a.store(1);
    EXPECT_EQ(wt.unpark(&a), 1u);
    ta.join();
    EXPECT_EQ(wt.waiters(&b), 1u);  // b's waiter untouched
    b.store(1);
    EXPECT_EQ(wt.unpark(&b), 1u);
    tb.join();
}

TEST(WaitTable, NoUltOpsMeansNotUltContext) {
    // This suite links only lwt::sync — core never installed its hooks, so
    // plain threads are never misdiagnosed as ULTs (this is what lets
    // CentralBarrier's assert pass for its legitimate OS-thread users).
    EXPECT_FALSE(lwt::sync::in_ult_context());
}

}  // namespace
