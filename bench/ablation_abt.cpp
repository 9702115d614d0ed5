// ablation_abt — ablation over the Argobots-like backend's design axes
// that DESIGN.md calls out: work-unit kind (ULT vs tasklet) and pool
// topology (private per stream vs one shared). The task-single pattern
// (Figure 5's workload) is held fixed while one axis varies at a time.
// Pooled against fresh stacks is micro_ops' BM_UltCreateDestroy* pair.
//
// LWTBENCH_N overrides the task count (default 1,000).
#include <cstdio>
#include <memory>

#include "abt/abt.hpp"
#include "bench_common.hpp"
#include "benchsupport/stats.hpp"

namespace {

struct AblationPoint {
    const char* name;
    lwt::abt::Config config;
    bool tasklets;
};

double run_point(const AblationPoint& point, std::size_t threads,
                 std::size_t n, std::size_t reps, std::size_t warmup) {
    lwt::abt::Config cfg = point.config;
    cfg.num_xstreams = threads;
    lwt::abt::Library lib(cfg);
    auto once = [&] {
        std::vector<lwt::abt::UnitHandle> handles;
        handles.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const int where = static_cast<int>(i % lib.num_pools());
            handles.push_back(point.tasklets ? lib.task_create([] {}, where)
                                             : lib.thread_create([] {}, where));
        }
        for (auto& h : handles) {
            h.free();
        }
    };
    return lwt::benchsupport::measure_ms(reps, warmup, once).mean;
}

}  // namespace

int main() {
    const auto sweep = lwt::benchsupport::SweepConfig::from_env();
    const std::size_t n = lwtbench::env_size("LWTBENCH_N", 1000);

    lwt::abt::Config private_pools;
    private_pools.pool_kind = lwt::abt::PoolKind::kPrivate;
    lwt::abt::Config shared_pool;
    shared_pool.pool_kind = lwt::abt::PoolKind::kShared;

    const AblationPoint points[] = {
        {"ULT private pools (baseline)", private_pools, false},
        {"Tasklet private pools", private_pools, true},
        {"ULT shared pool", shared_pool, false},
        {"Tasklet shared pool", shared_pool, true},
    };

    std::printf("# Ablation: Argobots-like design axes, task-single with "
                "n=%zu units\n",
                n);
    std::printf("# reps=%zu warmup=%zu unit=ms\n", sweep.reps, sweep.warmup);
    std::printf("threads");
    for (const auto& p : points) {
        std::printf(",%s", p.name);
    }
    std::printf("\n");
    for (std::size_t threads : sweep.thread_counts) {
        std::printf("%zu", threads);
        for (const auto& p : points) {
            std::printf(",%.6f",
                        run_point(p, threads, n, sweep.reps, sweep.warmup));
        }
        std::printf("\n");
    }
    return 0;
}
