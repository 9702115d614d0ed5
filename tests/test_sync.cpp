// Tests for the OS-thread spin locks in src/sync.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sync/spinlock.hpp"

namespace {

using lwt::sync::Spinlock;
using lwt::sync::TicketLock;

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

}  // namespace
