// Tests for the work-unit containers: MPMC queue, Chase-Lev deque, global
// queue.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "queue/chase_lev_deque.hpp"
#include "queue/global_queue.hpp"
#include "queue/mpmc_queue.hpp"

namespace {

using lwt::queue::ChaseLevDeque;
using lwt::queue::GlobalQueue;
using lwt::queue::MpmcQueue;

// --- MPMC queue ----------------------------------------------------------------

TEST(MpmcQueue, FifoOrderSingleThread) {
    MpmcQueue<int> q(16);
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(q.try_push(i));
    }
    for (int i = 0; i < 10; ++i) {
        auto v = q.try_pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpmcQueue, RejectsPushWhenFull) {
    MpmcQueue<int> q(4);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(q.try_push(i));
    }
    EXPECT_FALSE(q.try_push(4));
}

TEST(MpmcQueue, PushBulkWaitsForConsumersAcrossLaps) {
    // A bulk push into a full ring claims one slot past the consumer and
    // waits for that slot's previous lap to drain. Five laps of a 4-slot
    // ring take every slot's relative sequence through several wraps.
    MpmcQueue<int> q(4);
    constexpr int kValues = 20;
    std::vector<int> values(kValues);
    std::iota(values.begin(), values.end(), 0);
    std::thread producer([&] { q.push_bulk(values.data(), values.size()); });
    for (int i = 0; i < kValues; ++i) {
        if (i + 4 < kValues) {
            // The producer has claimed value i + 4's slot, which still
            // holds value i: it is spinning in push_bulk's wait loop.
            while (q.size_approx() != q.capacity() + 1) {
                std::this_thread::yield();
            }
        }
        std::optional<int> v;
        while (!(v = q.try_pop())) {
            std::this_thread::yield();  // the last values may still be landing
        }
        EXPECT_EQ(*v, i);
    }
    producer.join();
    EXPECT_FALSE(q.try_pop().has_value());
    // Still a well-formed 4-slot ring after the wraps.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(q.try_push(100 + i));
    }
    EXPECT_FALSE(q.try_push(104));
    EXPECT_EQ(q.try_pop(), std::optional<int>(100));
}

TEST(MpmcQueue, ManyProducersManyConsumersConserveItems) {
    MpmcQueue<int> q(1024);
    constexpr int kProducers = 3;
    constexpr int kConsumers = 3;
    constexpr int kPerProducer = 30000;
    std::atomic<std::int64_t> sum{0};
    std::atomic<int> consumed{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                const int value = p * kPerProducer + i + 1;
                while (!q.try_push(value)) {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            for (;;) {
                if (consumed.load() >= kProducers * kPerProducer) {
                    break;
                }
                if (auto v = q.try_pop()) {
                    sum.fetch_add(*v);
                    consumed.fetch_add(1);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    const std::int64_t n = static_cast<std::int64_t>(kProducers) * kPerProducer;
    EXPECT_EQ(consumed.load(), n);
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
}

// --- Chase-Lev deque -------------------------------------------------------------

TEST(ChaseLev, OwnerLifoThiefFifo) {
    ChaseLevDeque<int> d(8);
    d.push_bottom(1);
    d.push_bottom(2);
    d.push_bottom(3);
    EXPECT_EQ(d.steal_top().value_or(-1), 1);   // oldest
    EXPECT_EQ(d.pop_bottom().value_or(-1), 3);  // newest
    EXPECT_EQ(d.pop_bottom().value_or(-1), 2);
    EXPECT_FALSE(d.pop_bottom().has_value());
}

TEST(ChaseLev, GrowsBeyondInitialCapacity) {
    ChaseLevDeque<int> d(2);
    constexpr int kItems = 1000;
    for (int i = 0; i < kItems; ++i) {
        d.push_bottom(i);
    }
    EXPECT_EQ(d.size_approx(), static_cast<std::size_t>(kItems));
    for (int i = kItems - 1; i >= 0; --i) {
        EXPECT_EQ(d.pop_bottom().value_or(-1), i);
    }
}

TEST(ChaseLev, OwnerAndThievesConserveItems) {
    ChaseLevDeque<int> d(64);
    constexpr int kItems = 200000;
    constexpr int kThieves = 3;
    std::atomic<std::int64_t> stolen_sum{0};
    std::atomic<int> taken{0};
    std::atomic<bool> done_pushing{false};
    std::vector<std::thread> thieves;
    for (int t = 0; t < kThieves; ++t) {
        thieves.emplace_back([&] {
            while (taken.load() < kItems) {
                if (auto v = d.steal_top()) {
                    stolen_sum.fetch_add(*v);
                    taken.fetch_add(1);
                } else if (done_pushing.load() && d.empty()) {
                    if (taken.load() >= kItems) {
                        break;
                    }
                    std::this_thread::yield();
                }
            }
        });
    }
    std::int64_t owner_sum = 0;
    for (int i = 1; i <= kItems; ++i) {
        d.push_bottom(i);
        if (i % 3 == 0) {
            if (auto v = d.pop_bottom()) {
                owner_sum += *v;
                taken.fetch_add(1);
            }
        }
    }
    done_pushing.store(true);
    // Owner drains the rest.
    while (taken.load() < kItems) {
        if (auto v = d.pop_bottom()) {
            owner_sum += *v;
            taken.fetch_add(1);
        }
    }
    for (auto& t : thieves) {
        t.join();
    }
    const std::int64_t expect =
        static_cast<std::int64_t>(kItems) * (kItems + 1) / 2;
    EXPECT_EQ(owner_sum + stolen_sum.load(), expect);
}

// The owner publishes whole batches with push_bottom_bulk (one release
// store of `bottom` per batch, growing the ring as it goes) while thieves
// hammer steal_top and the owner interleaves pops: momp's taskloop path.
// Every item must be taken exactly once. tools/tsan.sh runs this suite.
TEST(ChaseLev, PushBulkVsStealersConservesItems) {
    ChaseLevDeque<int> d(64);
    constexpr int kBatches = 200;
    constexpr int kBatch = 64;
    constexpr int kItems = kBatches * kBatch;
    std::atomic<bool> stop{false};
    std::atomic<int> taken{0};
    std::atomic<std::int64_t> stolen_sum{0};

    std::vector<std::thread> thieves;
    for (int t = 0; t < 3; ++t) {
        thieves.emplace_back([&] {
            while (!stop.load(std::memory_order_acquire)) {
                if (auto v = d.steal_top()) {
                    stolen_sum.fetch_add(*v, std::memory_order_relaxed);
                    taken.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }

    // This thread is the deque owner: bulk pushes interleaved with pops.
    std::int64_t owner_sum = 0;
    std::vector<int> batch(kBatch);
    int next = 1;
    for (int b = 0; b < kBatches; ++b) {
        for (int& v : batch) {
            v = next++;
        }
        d.push_bottom_bulk(batch.data(), batch.size());
        if (auto v = d.pop_bottom()) {
            owner_sum += *v;
            taken.fetch_add(1, std::memory_order_relaxed);
        }
    }
    while (auto v = d.pop_bottom()) {
        owner_sum += *v;
        taken.fetch_add(1, std::memory_order_relaxed);
    }
    // Thieves may hold in-flight steals; wait for the count to converge.
    while (taken.load(std::memory_order_acquire) < kItems) {
        std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : thieves) {
        t.join();
    }
    EXPECT_EQ(taken.load(), kItems);
    EXPECT_EQ(owner_sum + stolen_sum.load(),
              static_cast<std::int64_t>(kItems) * (kItems + 1) / 2);
    EXPECT_EQ(d.size_approx(), 0u);
}

// --- global queue ------------------------------------------------------------------

TEST(GlobalQueue, FifoOrder) {
    GlobalQueue<int> q;
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.try_pop().value_or(-1), 1);
    EXPECT_EQ(q.try_pop().value_or(-1), 2);
    EXPECT_EQ(q.try_pop().value_or(-1), 3);
    EXPECT_FALSE(q.try_pop().has_value());
}

TEST(GlobalQueue, RemoveSpecificElement) {
    GlobalQueue<int> q;
    q.push(10);
    q.push(20);
    EXPECT_TRUE(q.remove(10));
    EXPECT_FALSE(q.remove(10));
    EXPECT_EQ(q.try_pop().value_or(-1), 20);
}

TEST(GlobalQueue, ManyThreadsShareOneQueue) {
    GlobalQueue<int> q;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    std::atomic<int> popped{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i) {
                q.push(i);
            }
            while (popped.load() < kThreads * kPerThread) {
                if (q.try_pop()) {
                    popped.fetch_add(1);
                } else if (q.empty() && popped.load() >= kThreads * kPerThread) {
                    break;
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(popped.load(), kThreads * kPerThread);
    EXPECT_TRUE(q.empty());
}

}  // namespace
