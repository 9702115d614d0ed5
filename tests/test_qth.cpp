// Tests for the Qthreads-like personality and its full/empty-bit table.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <vector>

#include "qth/feb.hpp"
#include "qth/qth.hpp"

namespace {

using lwt::qth::aligned_t;
using lwt::qth::Config;
using lwt::qth::Library;

Config layout(std::size_t shepherds, std::size_t workers) {
    Config c;
    c.num_shepherds = shepherds;
    c.workers_per_shepherd = workers;
    return c;
}

TEST(Qth, InitializeCreatesHierarchy) {
    Library lib(layout(2, 2));
    EXPECT_EQ(lib.num_shepherds(), 2u);
    EXPECT_EQ(lib.num_workers(), 4u);
}

TEST(Qth, ForkAndReadFfJoins) {
    Library lib(layout(2, 1));
    std::atomic<int> ran{0};
    aligned_t ret = 0;
    lib.fork([&] { ran.fetch_add(1); }, &ret);
    EXPECT_EQ(lib.read_ff(&ret), 1u);
    EXPECT_EQ(ran.load(), 1);
}

TEST(Qth, ForkPurgesReturnWordUntilCompletion) {
    Library lib(layout(1, 1));
    std::atomic<bool> release{false};
    aligned_t ret = 0;
    lib.fork(
        [&] {
            while (!release.load()) {
                Library::yield();
            }
        },
        &ret);
    // The word must be EMPTY while the ULT runs.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(lib.is_full(&ret));
    release.store(true);
    lib.read_ff(&ret);
    EXPECT_TRUE(lib.is_full(&ret));
}

TEST(Qth, ForkToTargetsSpecificShepherd) {
    Library lib(layout(3, 1));
    // Dispatch everything to shepherd 2; joining proves that shepherd's
    // worker executes it even though the caller never does.
    std::atomic<int> ran{0};
    constexpr int kUnits = 20;
    std::vector<aligned_t> rets(kUnits, 0);
    for (int i = 0; i < kUnits; ++i) {
        lib.fork_to([&] { ran.fetch_add(1); }, &rets[i], 2);
    }
    for (auto& r : rets) {
        lib.read_ff(&r);
    }
    EXPECT_EQ(ran.load(), kUnits);
}

TEST(Qth, RoundRobinForkToBalancesAllShepherds) {
    Library lib(layout(4, 1));
    constexpr int kUnits = 64;
    std::vector<aligned_t> rets(kUnits, 0);
    std::atomic<int> ran{0};
    for (int i = 0; i < kUnits; ++i) {
        lib.fork_to([&] { ran.fetch_add(1); }, &rets[i],
                    static_cast<std::size_t>(i) % lib.num_shepherds());
    }
    for (auto& r : rets) {
        lib.read_ff(&r);
    }
    EXPECT_EQ(ran.load(), kUnits);
}

TEST(Qth, FebReadFeWriteEfChainBetweenUlts) {
    Library lib(layout(2, 1));
    aligned_t word = 0;
    lib.purge(&word);
    aligned_t consumed_sum = 0;
    aligned_t done_consumer = 0, done_producer = 0;
    constexpr aligned_t kItems = 50;
    lib.fork_to(
        [&] {
            for (aligned_t i = 1; i <= kItems; ++i) {
                lib.write_ef(&word, i);  // waits for EMPTY
            }
        },
        &done_producer, 0);
    lib.fork_to(
        [&] {
            for (aligned_t i = 1; i <= kItems; ++i) {
                consumed_sum += lib.read_fe(&word);  // waits for FULL
            }
        },
        &done_consumer, 1);
    lib.read_ff(&done_producer);
    lib.read_ff(&done_consumer);
    EXPECT_EQ(consumed_sum, kItems * (kItems + 1) / 2);
}

TEST(Qth, UltsCanForkChildren) {
    Library lib(layout(2, 1));
    std::atomic<int> ran{0};
    aligned_t parent_done = 0;
    lib.fork(
        [&] {
            std::vector<aligned_t> child_done(8, 0);
            for (std::size_t i = 0; i < child_done.size(); ++i) {
                lib.fork_to([&] { ran.fetch_add(1); }, &child_done[i], i % 2);
            }
            for (auto& c : child_done) {
                lib.read_ff(&c);  // blocks the ULT, yielding its worker
            }
        },
        &parent_done);
    lib.read_ff(&parent_done);
    EXPECT_EQ(ran.load(), 8);
}

TEST(Qth, LoopCoversAllIterations) {
    Library lib(layout(3, 1));
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    lib.loop(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << i;
    }
}

TEST(Qth, LoopEmptyRangeIsNoop) {
    Library lib(layout(2, 1));
    lib.loop(5, 5, [](std::size_t) { FAIL(); });
    SUCCEED();
}

TEST(Qth, LoopAccumSumsCorrectly) {
    Library lib(layout(2, 2));
    constexpr std::size_t kN = 500;
    const double got = lib.loop_accum_sum(
        0, kN, [](std::size_t i) { return static_cast<double>(i); });
    EXPECT_DOUBLE_EQ(got, static_cast<double>(kN - 1) * kN / 2);
}

TEST(Qth, SharedShepherdManyWorkers) {
    // One shepherd for the whole node: all workers drain one queue.
    Library lib(layout(1, 4));
    constexpr int kUnits = 200;
    std::vector<aligned_t> rets(kUnits, 0);
    std::atomic<int> ran{0};
    for (int i = 0; i < kUnits; ++i) {
        lib.fork([&] { ran.fetch_add(1); }, &rets[i]);
    }
    for (auto& r : rets) {
        lib.read_ff(&r);
    }
    EXPECT_EQ(ran.load(), kUnits);
}

TEST(Qth, ForkWithoutReturnWordIsFireAndForget) {
    Library lib(layout(2, 1));
    std::atomic<int> ran{0};
    lib.fork([&] { ran.fetch_add(1); }, nullptr);
    while (ran.load() == 0) {
        std::this_thread::yield();
    }
    EXPECT_EQ(ran.load(), 1);
}

class QthLayoutTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(QthLayoutTest, SscalKernelCorrectUnderAllLayouts) {
    const auto [sheps, workers] = GetParam();
    Library lib(layout(sheps, workers));
    constexpr std::size_t kN = 512;
    std::vector<float> v(kN, 2.0f);
    const float alpha = 1.5f;
    std::vector<aligned_t> rets(kN, 0);
    for (std::size_t i = 0; i < kN; ++i) {
        lib.fork_to([&v, alpha, i] { v[i] *= alpha; }, &rets[i], i % sheps);
    }
    for (auto& r : rets) {
        lib.read_ff(&r);
    }
    for (float x : v) {
        ASSERT_FLOAT_EQ(x, 3.0f);
    }
}

INSTANTIATE_TEST_SUITE_P(Layouts, QthLayoutTest,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{1, 4},
                                           std::pair<std::size_t, std::size_t>{4, 1},
                                           std::pair<std::size_t, std::size_t>{2, 2}));

}  // namespace

namespace {

TEST(Qth, WorkersBindCompactAndStillExecute) {
    lwt::qth::Config c;
    c.num_shepherds = 2;
    c.workers_per_shepherd = 1;
    // The policy is read once, at boot.
    lwt::arch::set_default_bind_policy(lwt::arch::BindPolicy::kCompact);
    lwt::qth::Library lib(c);
    lwt::arch::set_default_bind_policy(std::nullopt);
    std::atomic<int> ran{0};
    lwt::qth::aligned_t r0 = 0, r1 = 0;
    lib.fork_to([&] { ran.fetch_add(1); }, &r0, 0);
    lib.fork_to([&] { ran.fetch_add(1); }, &r1, 1);
    lib.read_ff(&r0);
    lib.read_ff(&r1);
    EXPECT_EQ(ran.load(), 2);
}

}  // namespace

// --- FEB table ----------------------------------------------------------------

namespace {

using lwt::qth::FebTable;

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

TEST(Feb, BlockedReaderParksOnItsWord) {
    // A blocked read_ff parks on its word (not a spin loop): it shows up
    // as a waiter on the word's address, a word sharing its shard sees
    // none, and the state transition wakes it.
    FebTable table;
    aligned_t words[FebTable::kShards + 1] = {};
    aligned_t& word = words[0];
    aligned_t& neighbour = words[FebTable::kShards];  // same shard
    table.purge(&word);
    std::atomic<bool> read{false};
    aligned_t got = 0;
    std::thread reader([&] {
        got = table.read_ff(&word);
        read.store(true);
    });
    // Wait until the reader is actually parked (it spins briefly first).
    for (int i = 0; i < 2000 && table.waiters(&word) == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(table.waiters(&word), 1u);
    EXPECT_EQ(table.waiters(&neighbour), 0u);
    table.fill(&neighbour);  // same shard, other word: no wake
    EXPECT_EQ(table.waiters(&word), 1u);
    EXPECT_FALSE(read.load());
    table.write_f(&word, 42);
    reader.join();
    EXPECT_TRUE(read.load());
    EXPECT_EQ(got, 42u);
    EXPECT_EQ(table.waiters(&word), 0u);
}

}  // namespace
