// Property-style parameterized suites: invariants that must hold across
// configuration sweeps (capacities, thread counts, stack sizes), plus
// failure injection (stack-overflow guard).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "arch/stack.hpp"
#include "core/channel.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/scheduler.hpp"
#include "core/sync_ult.hpp"
#include "core/ult.hpp"
#include "core/xstream.hpp"
#include "patterns/patterns.hpp"

namespace {

using namespace lwt::core;

// --- Channel conservation across capacities and sender counts -----------------

class ChannelPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(ChannelPropertyTest, EveryMessageDeliveredExactlyOnce) {
    const std::size_t capacity = std::get<0>(GetParam());
    const int senders = std::get<1>(GetParam());
    constexpr int kPerSender = 500;

    Channel<int> ch(capacity);
    std::vector<std::thread> threads;
    threads.reserve(senders);
    for (int s = 0; s < senders; ++s) {
        threads.emplace_back([&ch, s] {
            for (int i = 0; i < kPerSender; ++i) {
                ASSERT_TRUE(ch.send(s * kPerSender + i));
            }
        });
    }
    std::set<int> seen;
    for (int i = 0; i < senders * kPerSender; ++i) {
        auto v = ch.recv();
        ASSERT_TRUE(v.has_value());
        EXPECT_TRUE(seen.insert(*v).second) << "duplicate " << *v;
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(senders * kPerSender));
    EXPECT_FALSE(ch.try_recv().has_value());
}

TEST_P(ChannelPropertyTest, PerSenderFifoOrderPreserved) {
    const std::size_t capacity = std::get<0>(GetParam());
    const int senders = std::get<1>(GetParam());
    constexpr int kPerSender = 200;

    Channel<std::pair<int, int>> ch(capacity);
    std::vector<std::thread> threads;
    for (int s = 0; s < senders; ++s) {
        threads.emplace_back([&ch, s] {
            for (int i = 0; i < kPerSender; ++i) {
                ch.send({s, i});
            }
        });
    }
    std::vector<int> last(static_cast<std::size_t>(senders), -1);
    for (int i = 0; i < senders * kPerSender; ++i) {
        auto v = ch.recv();
        ASSERT_TRUE(v.has_value());
        // Within one sender, sequence numbers must arrive in order.
        EXPECT_EQ(v->second, last[static_cast<std::size_t>(v->first)] + 1);
        last[static_cast<std::size_t>(v->first)] = v->second;
    }
    for (auto& t : threads) {
        t.join();
    }
}

INSTANTIATE_TEST_SUITE_P(
    CapacityAndSenders, ChannelPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 16, 1024),
                       ::testing::Values(1, 3)));

// --- Pattern correctness across thread counts ------------------------------------

class PatternThreadSweep
    : public ::testing::TestWithParam<
          std::tuple<lwt::patterns::Variant, std::size_t>> {};

TEST_P(PatternThreadSweep, ForLoopAndTasksMatchSerial) {
    const auto [variant, threads] = GetParam();
    auto runner = lwt::patterns::make_runner(variant, threads);
    lwt::patterns::Sscal problem(300);
    runner->for_loop(problem.v.size(),
                     [&](std::size_t i) { problem.apply(i); });
    ASSERT_TRUE(problem.verify_once());
    problem.reset();
    runner->task_single(problem.v.size(),
                        [&](std::size_t i) { problem.apply(i); });
    ASSERT_TRUE(problem.verify_once());
}

INSTANTIATE_TEST_SUITE_P(
    VariantsTimesThreads, PatternThreadSweep,
    ::testing::Combine(::testing::ValuesIn(lwt::patterns::all_variants()),
                       ::testing::Values<std::size_t>(1, 4)),
    [](const auto& info) {
        std::string n(lwt::patterns::variant_name(std::get<0>(info.param)));
        std::string out;
        for (char c : n) {
            if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
                out += c;
            }
        }
        return out + "_t" + std::to_string(std::get<1>(info.param));
    });

// --- ULT stack sizes --------------------------------------------------------------

class StackSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StackSizeSweep, DeepCallChainsFitTheStack) {
    const std::size_t stack_bytes = GetParam();
    // Consume roughly half the stack via recursion with a 256-byte frame.
    const int depth = static_cast<int>(stack_bytes / 2 / 256);
    struct Recur {
        static int go(int d) {
            volatile char frame[192];
            frame[0] = static_cast<char>(d);
            if (d <= 0) {
                return frame[0];
            }
            return go(d - 1) + (frame[0] != 0 ? 0 : 0);
        }
    };
    int result = -1;
    Ult ult([&] { result = Recur::go(depth); },
            lwt::arch::Stack::allocate(stack_bytes));
    while (ult.resume_on_this_thread() != YieldStatus::kFinished) {
    }
    EXPECT_EQ(result, 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StackSizeSweep,
                         ::testing::Values<std::size_t>(16 * 1024, 64 * 1024,
                                                        256 * 1024));

// --- stack overflow guard (failure injection) ---------------------------------------

TEST(StackGuardDeathTest, OverflowHitsGuardPageDeterministically) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_DEATH(
        {
            lwt::arch::Stack stack = lwt::arch::Stack::allocate(16 * 1024);
            // Write straight through the stack into the guard page.
            auto* p = static_cast<volatile char*>(stack.top());
            for (std::size_t i = 0; i < stack.usable() + 4096; ++i) {
                *(p - 1 - i) = 1;
            }
        },
        "");
}

// --- UltMutex stress across stream counts --------------------------------------------

class MutexStressSweep : public ::testing::TestWithParam<int> {};

TEST_P(MutexStressSweep, CounterExactUnderContention) {
    const int num_streams = GetParam();
    std::vector<std::unique_ptr<DequePool>> pools;
    for (int i = 0; i < num_streams; ++i) {
        pools.push_back(std::make_unique<DequePool>());
    }
    Runtime rt(static_cast<std::size_t>(num_streams), [&](unsigned rank) {
        return std::make_unique<Scheduler>(
            std::vector<Pool*>{pools[rank].get()});
    });
    UltMutex mutex;
    long counter = 0;
    constexpr int kUltsPerStream = 8;
    constexpr int kIncr = 300;
    std::atomic<int> done{0};
    const int total_ults = num_streams * kUltsPerStream;
    for (int i = 0; i < total_ults; ++i) {
        auto* u = new Ult([&] {
            for (int k = 0; k < kIncr; ++k) {
                mutex.lock();
                ++counter;
                mutex.unlock();
                if (k % 64 == 0) {
                    Ult::current()->yield();
                }
            }
            done.fetch_add(1);
        });
        u->detached = true;
        pools[static_cast<std::size_t>(i % num_streams)]->push(u);
    }
    rt.primary().run_until([&] { return done.load() == total_ults; });
    EXPECT_EQ(counter, static_cast<long>(total_ults) * kIncr);
}

INSTANTIATE_TEST_SUITE_P(Streams, MutexStressSweep, ::testing::Values(1, 2, 4));

// --- EventCounter over/under flow properties ----------------------------------------

TEST(EventCounterProperty, InterleavedAddSignalNeverLosesCounts) {
    EventCounter ec;
    constexpr int kThreads = 4;
    constexpr int kEvents = 2000;
    ec.add(kThreads * kEvents);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < kEvents; ++i) {
                ec.signal();
            }
        });
    }
    ec.wait();
    for (auto& w : workers) {
        w.join();
    }
    EXPECT_EQ(ec.value(), 0);
}

}  // namespace
