// Tests for the mini-OpenMP runtime (gcc and icc flavours) and its team
// barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "momp/barrier.hpp"
#include "momp/momp.hpp"

namespace {

using lwt::momp::Config;
using lwt::momp::Flavor;
using lwt::momp::Runtime;
using lwt::momp::TaskPool;
using lwt::momp::WaitPolicy;

Config cfg(Flavor flavor, std::size_t threads,
           WaitPolicy wp = WaitPolicy::kPassive) {
    Config c;
    c.flavor = flavor;
    c.num_threads = threads;
    c.wait_policy = wp;
    return c;
}

class MompFlavorTest : public ::testing::TestWithParam<Flavor> {};

TEST_P(MompFlavorTest, ParallelRunsAllThreads) {
    Runtime rt(cfg(GetParam(), 4));
    std::vector<std::atomic<int>> hits(4);
    rt.parallel([&](std::size_t tid, std::size_t nth) {
        EXPECT_EQ(nth, 4u);
        hits[tid].fetch_add(1);
    });
    for (auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST_P(MompFlavorTest, ParallelForCoversRangeOnce) {
    Runtime rt(cfg(GetParam(), 3));
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    rt.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << i;
    }
}

TEST_P(MompFlavorTest, ThreadNumAndInParallel) {
    Runtime rt(cfg(GetParam(), 2));
    EXPECT_FALSE(Runtime::in_parallel());
    EXPECT_EQ(Runtime::thread_num(), 0u);
    rt.parallel([&](std::size_t tid, std::size_t) {
        EXPECT_TRUE(Runtime::in_parallel());
        EXPECT_EQ(Runtime::thread_num(), tid);
        EXPECT_EQ(Runtime::num_threads_in_region(), 2u);
    });
    EXPECT_FALSE(Runtime::in_parallel());
}

TEST_P(MompFlavorTest, SingleRegionTasksAllRun) {
    // The paper's task-parallel single-region pattern: tid 0 creates all
    // tasks, the team executes them before the implicit barrier.
    Runtime rt(cfg(GetParam(), 4));
    constexpr int kTasks = 500;
    std::vector<std::atomic<int>> hits(kTasks);
    rt.parallel([&](std::size_t tid, std::size_t) {
        if (tid == 0) {
            for (int i = 0; i < kTasks; ++i) {
                Runtime::task([&hits, i] { hits[i].fetch_add(1); });
            }
        }
    });
    for (int i = 0; i < kTasks; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << i;
    }
}

TEST_P(MompFlavorTest, ParallelRegionTasksAllRun) {
    Runtime rt(cfg(GetParam(), 4));
    constexpr int kTasksPerThread = 100;
    std::atomic<int> ran{0};
    rt.parallel([&](std::size_t, std::size_t) {
        for (int i = 0; i < kTasksPerThread; ++i) {
            Runtime::task([&] { ran.fetch_add(1); });
        }
    });
    EXPECT_EQ(ran.load(), 4 * kTasksPerThread);
}

TEST_P(MompFlavorTest, TaskwaitDrainsBeforeContinuing) {
    Runtime rt(cfg(GetParam(), 2));
    std::atomic<int> before{0};
    bool saw_all = false;
    rt.parallel([&](std::size_t tid, std::size_t) {
        if (tid == 0) {
            for (int i = 0; i < 50; ++i) {
                Runtime::task([&] { before.fetch_add(1); });
            }
            Runtime::taskwait();
            saw_all = before.load() == 50;
        }
    });
    EXPECT_TRUE(saw_all);
}

TEST_P(MompFlavorTest, NestedParallelTotalWork) {
    Runtime rt(cfg(GetParam(), 3));
    std::atomic<int> inner_runs{0};
    rt.parallel([&](std::size_t, std::size_t) {
        rt.parallel([&](std::size_t, std::size_t) { inner_runs.fetch_add(1); },
                    3);
    });
    EXPECT_EQ(inner_runs.load(), 9);  // 3 outer x 3 inner
}

TEST_P(MompFlavorTest, NestedParallelForMatchesSerial) {
    Runtime rt(cfg(GetParam(), 2));
    constexpr std::size_t kN = 40;
    std::vector<std::atomic<int>> hits(kN * kN);
    rt.parallel_for(kN, [&](std::size_t i) {
        rt.parallel_for(kN, [&, i](std::size_t j) { hits[i * kN + j].fetch_add(1); },
                        2);
    });
    for (std::size_t k = 0; k < kN * kN; ++k) {
        ASSERT_EQ(hits[k].load(), 1) << k;
    }
}

TEST_P(MompFlavorTest, NestedTasksRunToCompletion) {
    Runtime rt(cfg(GetParam(), 4));
    constexpr int kParents = 50;
    constexpr int kChildren = 4;
    std::atomic<int> children{0};
    rt.parallel([&](std::size_t tid, std::size_t) {
        if (tid == 0) {
            for (int p = 0; p < kParents; ++p) {
                Runtime::task([&] {
                    for (int c = 0; c < kChildren; ++c) {
                        Runtime::task([&] { children.fetch_add(1); });
                    }
                });
            }
        }
    });
    EXPECT_EQ(children.load(), kParents * kChildren);
}

INSTANTIATE_TEST_SUITE_P(Flavors, MompFlavorTest,
                         ::testing::Values(Flavor::kGcc, Flavor::kIcc));

// --- flavour-specific semantics --------------------------------------------------

TEST(MompGcc, CutoffIs64TimesThreads) {
    Runtime rt(cfg(Flavor::kGcc, 2));
    // 2 threads -> cutoff 128 outstanding. Submitting many tasks from a
    // single region with the *other* thread busy forces inlining.
    std::atomic<bool> hold{true};
    std::atomic<int> ran{0};
    constexpr int kTasks = 1000;
    rt.parallel([&](std::size_t tid, std::size_t) {
        if (tid == 1) {
            while (hold.load()) {
                std::this_thread::yield();
            }
        } else {
            for (int i = 0; i < kTasks; ++i) {
                Runtime::task([&] { ran.fetch_add(1); });
            }
            hold.store(false);
        }
    });
    EXPECT_EQ(ran.load(), kTasks);
    EXPECT_GT(rt.last_region_inlined_tasks(), 0u);
}

TEST(MompIcc, CutoffIs256PerQueue) {
    Runtime rt(cfg(Flavor::kIcc, 2));
    std::atomic<bool> hold{true};
    std::atomic<int> ran{0};
    constexpr int kTasks = 1000;
    rt.parallel([&](std::size_t tid, std::size_t) {
        if (tid == 1) {
            while (hold.load()) {
                std::this_thread::yield();
            }
        } else {
            for (int i = 0; i < kTasks; ++i) {
                Runtime::task([&] { ran.fetch_add(1); });
            }
            hold.store(false);
        }
    });
    EXPECT_EQ(ran.load(), kTasks);
    // 256-entry queue fills; the rest inline: at least kTasks - 256 - slack.
    EXPECT_GT(rt.last_region_inlined_tasks(), 0u);
}

TEST(MompGcc, NestedRegionsSpawnFreshThreads) {
    Runtime rt(cfg(Flavor::kGcc, 2));
    rt.parallel([](std::size_t, std::size_t) {});  // materialise the team
    const auto base = rt.os_threads_created();
    constexpr std::size_t kOuter = 4;
    rt.parallel_for(kOuter, [&](std::size_t) {
        rt.parallel([](std::size_t, std::size_t) {}, 2);
    });
    // gcc: every nested region spawns nthreads-1 fresh OS threads.
    EXPECT_EQ(rt.os_threads_created() - base, kOuter * (2 - 1));
}

TEST(MompIcc, NestedRegionsReuseCachedThreads) {
    Runtime rt(cfg(Flavor::kIcc, 2));
    rt.parallel([](std::size_t, std::size_t) {});
    const auto base = rt.os_threads_created();
    constexpr int kRounds = 6;
    for (int round = 0; round < kRounds; ++round) {
        rt.parallel_for(4, [&](std::size_t) {
            rt.parallel([](std::size_t, std::size_t) {}, 2);
        });
    }
    // The cache bounds creation: far fewer spawns than regions entered.
    const auto created = rt.os_threads_created() - base;
    EXPECT_LE(created, 8u);  // at most ~concurrent-nesting-width threads
    EXPECT_GT(created, 0u);
}

TEST(MompTaskPool, GccSharedQueueTopology) {
    TaskPool pool(Flavor::kGcc, 4);
    EXPECT_EQ(pool.cutoff(), 256u);  // 64 * 4
    std::atomic<int> ran{0};
    pool.submit(0, [&] { ran.fetch_add(1); });
    pool.submit(3, [&] { ran.fetch_add(1); });
    EXPECT_EQ(pool.outstanding(), 2u);
    // Any thread can pop from the shared queue.
    EXPECT_TRUE(pool.run_one(2));
    EXPECT_TRUE(pool.run_one(1));
    EXPECT_FALSE(pool.run_one(0));
    EXPECT_EQ(ran.load(), 2);
}

TEST(MompTaskPool, IccStealsWhenOwnQueueEmpty) {
    TaskPool pool(Flavor::kIcc, 2);
    EXPECT_EQ(pool.cutoff(), 256u);
    std::atomic<int> ran{0};
    pool.submit(0, [&] { ran.fetch_add(1); });
    // Thread 1's own deque is empty; it must steal from thread 0.
    EXPECT_TRUE(pool.run_one(1));
    EXPECT_EQ(ran.load(), 1);
}

TEST(MompTaskPool, InlineBeyondCutoff) {
    TaskPool pool(Flavor::kIcc, 1);
    int ran = 0;
    for (std::size_t i = 0; i < TaskPool::kIccCutoffPerQueue + 10; ++i) {
        pool.submit(0, [&] { ++ran; });
    }
    EXPECT_EQ(pool.inlined(), 10u);
    EXPECT_EQ(ran, 10);  // only the inlined ones ran so far
    pool.wait_all(0);
    EXPECT_EQ(static_cast<std::size_t>(ran),
              TaskPool::kIccCutoffPerQueue + 10);
}

TEST(MompWaitPolicy, ActiveAndPassiveBothCorrect) {
    for (WaitPolicy wp : {WaitPolicy::kActive, WaitPolicy::kPassive}) {
        Runtime rt(cfg(Flavor::kGcc, 3, wp));
        std::atomic<int> ran{0};
        for (int round = 0; round < 3; ++round) {
            rt.parallel([&](std::size_t, std::size_t) { ran.fetch_add(1); });
        }
        EXPECT_EQ(ran.load(), 9);
    }
}

TEST(MompRuntime, RegionsAreRepeatable) {
    Runtime rt(cfg(Flavor::kIcc, 2));
    std::atomic<int> total{0};
    for (int i = 0; i < 20; ++i) {
        rt.parallel_for(10, [&](std::size_t) { total.fetch_add(1); });
    }
    EXPECT_EQ(total.load(), 200);
}

TEST(MompRuntime, SscalMatchesSerial) {
    Runtime rt(cfg(Flavor::kGcc, 4));
    constexpr std::size_t kN = 1000;
    std::vector<float> v(kN, 3.0f);
    rt.parallel_for(kN, [&](std::size_t i) { v[i] *= 2.0f; });
    for (float x : v) {
        ASSERT_FLOAT_EQ(x, 6.0f);
    }
}

// --- CentralBarrier (the OS-thread team barrier) ------------------------------

TEST(CentralBarrier, NoThreadPassesEarly) {
    constexpr int kN = 4;
    constexpr int kRounds = 200;
    lwt::momp::CentralBarrier barrier(kN);
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
    lwt::momp::CentralBarrier barrier(1);
    for (int i = 0; i < 100; ++i) {
        barrier.arrive_and_wait();
    }
    SUCCEED();
}

}  // namespace
