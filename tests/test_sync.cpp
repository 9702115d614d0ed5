// Tests for the OS-thread spin lock in src/sync.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sync/spinlock.hpp"

namespace {

using lwt::sync::Spinlock;

constexpr int kThreads = 4;
constexpr int kIncrementsPerThread = 20000;

TEST(Spinlock, MutualExclusionUnderContention) {
    Spinlock lock;
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
    EXPECT_EQ(counter, kThreads * kIncrementsPerThread);
}

TEST(Spinlock, TryLockReflectsState) {
    Spinlock lock;
    EXPECT_TRUE(lock.try_lock());
    EXPECT_FALSE(lock.try_lock());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

}  // namespace
