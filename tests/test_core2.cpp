// Tests for the kernel extensions: futures/events (Argobots eventuals).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/future.hpp"
#include "core/scheduler.hpp"
#include "core/xstream.hpp"

namespace {

using namespace lwt::core;

// --- Future / Event ---------------------------------------------------------

TEST(Future, SetThenWaitReturnsValue) {
    Future<int> f;
    EXPECT_FALSE(f.ready());
    EXPECT_FALSE(f.try_get().has_value());
    f.set(42);
    EXPECT_TRUE(f.ready());
    EXPECT_EQ(f.wait(), 42);
    EXPECT_EQ(f.try_get().value_or(-1), 42);
}

TEST(Future, PlainThreadWaitBlocksUntilSet) {
    Future<int> f;
    std::atomic<bool> got{false};
    int value = 0;
    std::thread waiter([&] {
        value = f.wait();
        got.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(got.load());
    f.set(7);
    waiter.join();
    EXPECT_TRUE(got.load());
    EXPECT_EQ(value, 7);
}

TEST(Future, UltWaitSuspendsNotSpins) {
    // A ULT waiting on a future must leave its stream free to run other
    // units (suspension, not a yield storm).
    DequePool pool;
    XStream stream(1, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.start();
    Future<int> f;
    std::atomic<int> waiter_result{0};
    std::atomic<bool> other_ran{false};

    auto* waiter = new Ult([&] { waiter_result.store(f.wait()); });
    waiter->detached = true;
    pool.push(waiter);
    auto* other = new Ult([&] { other_ran.store(true); });
    other->detached = true;
    pool.push(other);

    while (!other_ran.load()) {
        std::this_thread::yield();
    }
    EXPECT_EQ(waiter_result.load(), 0);  // still blocked
    f.set(99);
    while (waiter_result.load() == 0) {
        std::this_thread::yield();
    }
    stream.stop_and_join();
    EXPECT_EQ(waiter_result.load(), 99);
}

TEST(Future, ManyUltWaitersAllWake) {
    DequePool pool;
    XStream stream(1, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.start();
    Future<int> f;
    constexpr int kWaiters = 16;
    std::atomic<int> sum{0};
    std::atomic<int> done{0};
    for (int i = 0; i < kWaiters; ++i) {
        auto* u = new Ult([&] {
            sum.fetch_add(f.wait());
            done.fetch_add(1);
        });
        u->detached = true;
        pool.push(u);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(done.load(), 0);
    f.set(3);
    while (done.load() < kWaiters) {
        std::this_thread::yield();
    }
    stream.stop_and_join();
    EXPECT_EQ(sum.load(), 3 * kWaiters);
}

TEST(Event, SignalsCompletion) {
    Event e;
    EXPECT_FALSE(e.ready());
    std::thread setter([&] { e.set(); });
    e.wait();
    setter.join();
    EXPECT_TRUE(e.ready());
}

}  // namespace
