// ablation_sched — scheduler/pool-policy ablation on the threading kernel.
//
// Part 1 holds the workload fixed (N detached tasklets pushed by the main
// thread, drained by a fixed number of streams) while swapping the
// scheduling discipline — the axis Table I's "Plug-in Scheduler" row is
// about:
//   * shared FIFO pool (Go/gcc topology)
//   * lock-free MPMC shared pool
//   * private FIFO pools with round-robin dispatch (Argobots private)
//   * private LIFO pools + random work stealing (MassiveThreads)
//
// Part 2 ablates the idle ladder on the work-stealing configuration (spin
// vs backoff vs park — see docs/idle_loop.md) and reports the steal
// hit-rate observed through the SchedStats telemetry.
//
// LWTBENCH_N overrides the unit count (default 2,000).
#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "benchsupport/stats.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/sched_stats.hpp"
#include "core/scheduler.hpp"
#include "sync/idle_backoff.hpp"

namespace {

using lwt::core::DequePool;
using lwt::core::MpmcPool;
using lwt::core::Pool;
using lwt::core::Runtime;
using lwt::core::Scheduler;
using lwt::core::SharedFifoPool;
using lwt::core::StealingScheduler;
using lwt::core::Tasklet;

enum class Policy {
    kSharedFifo,
    kSharedMpmc,
    kPrivateRoundRobin,
    kPrivateStealing,
};

const char* policy_name(Policy p) {
    switch (p) {
        case Policy::kSharedFifo: return "shared FIFO (Go/gcc)";
        case Policy::kSharedMpmc: return "shared MPMC lock-free";
        case Policy::kPrivateRoundRobin: return "private FIFO + round-robin";
        case Policy::kPrivateStealing: return "private LIFO + stealing";
    }
    return "?";
}

double run_policy(Policy policy, std::size_t threads, std::size_t n,
                  std::size_t reps, std::size_t warmup) {
    // Build pools per policy.
    std::vector<std::unique_ptr<Pool>> pools;
    const bool shared = policy == Policy::kSharedFifo ||
                        policy == Policy::kSharedMpmc;
    if (policy == Policy::kSharedFifo) {
        pools.push_back(std::make_unique<SharedFifoPool>());
    } else if (policy == Policy::kSharedMpmc) {
        pools.push_back(std::make_unique<MpmcPool>());
    } else {
        for (std::size_t i = 0; i < threads; ++i) {
            pools.push_back(std::make_unique<DequePool>(
                policy == Policy::kPrivateStealing
                    ? DequePool::PopOrder::kLifo
                    : DequePool::PopOrder::kFifo));
        }
    }
    std::vector<Pool*> raw;
    raw.reserve(pools.size());
    for (auto& p : pools) {
        raw.push_back(p.get());
    }

    Runtime rt(threads, [&](unsigned rank) -> std::unique_ptr<Scheduler> {
        if (shared) {
            return std::make_unique<Scheduler>(std::vector<Pool*>{raw[0]});
        }
        if (policy == Policy::kPrivateStealing) {
            return std::make_unique<StealingScheduler>(raw[rank], raw,
                                                       0x9e3779b9u + rank);
        }
        return std::make_unique<Scheduler>(std::vector<Pool*>{raw[rank]});
    });

    std::atomic<std::size_t> done{0};
    auto once = [&] {
        const std::size_t before = done.load();
        for (std::size_t i = 0; i < n; ++i) {
            auto* t = new Tasklet([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
            t->detached = true;
            raw[shared ? 0 : i % raw.size()]->push(t);
        }
        rt.primary().run_until([&] { return done.load() >= before + n; });
    };
    return lwt::benchsupport::measure_ms(reps, warmup, once).mean;
}

/// Idle-policy ablation: the MassiveThreads-like configuration (private
/// LIFO pools + stealing) with an imbalanced feed — all units land in the
/// primary's pool, so the other streams live on the idle/steal path.
struct IdleAblationResult {
    double ms = 0.0;
    lwt::core::SchedStats stats;
};

IdleAblationResult run_idle_policy(lwt::sync::IdlePolicy policy,
                                   std::size_t threads, std::size_t n,
                                   std::size_t reps, std::size_t warmup) {
    std::vector<std::unique_ptr<Pool>> pools;
    std::vector<Pool*> raw;
    for (std::size_t i = 0; i < threads; ++i) {
        pools.push_back(
            std::make_unique<DequePool>(DequePool::PopOrder::kLifo));
        raw.push_back(pools.back().get());
    }
    lwt::sync::IdleConfig idle;
    idle.policy = policy;
    Runtime rt(threads, [&](unsigned rank) -> std::unique_ptr<Scheduler> {
        return std::make_unique<StealingScheduler>(raw[rank], raw,
                                                   0x9e3779b9u + rank);
    }, idle);
    rt.reset_sched_stats();

    std::atomic<std::size_t> done{0};
    auto once = [&] {
        const std::size_t before = done.load();
        for (std::size_t i = 0; i < n; ++i) {
            auto* t = new Tasklet([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
            t->detached = true;
            raw[0]->push(t);  // imbalanced on purpose: thieves must steal
        }
        rt.primary().run_until([&] { return done.load() >= before + n; });
    };
    IdleAblationResult result;
    result.ms = lwt::benchsupport::measure_ms(reps, warmup, once).mean;
    result.stats = rt.sched_stats();
    return result;
}

void idle_policy_ablation(const lwt::benchsupport::SweepConfig& sweep,
                          std::size_t n) {
    const lwt::sync::IdlePolicy policies[] = {lwt::sync::IdlePolicy::kSpin,
                                              lwt::sync::IdlePolicy::kBackoff,
                                              lwt::sync::IdlePolicy::kPark};
    std::printf("\n# Ablation: idle policy (private LIFO + stealing, "
                "imbalanced feed), %zu tasklets\n", n);
    std::printf("threads,policy,ms,steal_attempts,steal_hits,hit_rate,"
                "parks,unparks\n");
    for (std::size_t threads : sweep.thread_counts) {
        for (lwt::sync::IdlePolicy policy : policies) {
            const IdleAblationResult r =
                run_idle_policy(policy, threads, n, sweep.reps, sweep.warmup);
            std::printf("%zu,%s,%.6f,%llu,%llu,%.4f,%llu,%llu\n", threads,
                        lwt::sync::idle_policy_name(policy), r.ms,
                        static_cast<unsigned long long>(r.stats.steal_attempts),
                        static_cast<unsigned long long>(r.stats.steal_hits),
                        r.stats.steal_hit_rate(),
                        static_cast<unsigned long long>(r.stats.parks),
                        static_cast<unsigned long long>(r.stats.unparks));
        }
    }
}

}  // namespace

int main() {
    const auto sweep = lwt::benchsupport::SweepConfig::from_env();
    const std::size_t n = lwtbench::env_size("LWTBENCH_N", 2000);
    const Policy policies[] = {Policy::kSharedFifo, Policy::kSharedMpmc,
                               Policy::kPrivateRoundRobin,
                               Policy::kPrivateStealing};

    std::printf("# Ablation: scheduling policy, %zu detached tasklets\n", n);
    std::printf("# reps=%zu warmup=%zu unit=ms\n", sweep.reps, sweep.warmup);
    std::printf("threads");
    for (Policy p : policies) {
        std::printf(",%s", policy_name(p));
    }
    std::printf("\n");
    for (std::size_t threads : sweep.thread_counts) {
        std::printf("%zu", threads);
        for (Policy p : policies) {
            std::printf(",%.6f",
                        run_policy(p, threads, n, sweep.reps, sweep.warmup));
        }
        std::printf("\n");
    }
    idle_policy_ablation(sweep, n);
    return 0;
}
