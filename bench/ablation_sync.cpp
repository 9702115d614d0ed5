// ablation_sync — the suspend-based synchronisation suite under contention.
//
// Ablates the lock family on one fixed workload: U = 4×T ULTs on T
// execution streams all hammering ONE lock for a fixed wall-clock window,
// swapping the primitive:
//   * core::Mutex       (suspend-based, intrusive FIFO waiters)
//   * core::Semaphore(1) (suspend-based binary semaphore)
//   * core::RwLock      (write mode: suspend-based, writer-preferring)
//   * sync::Spinlock    (pure spin — the pre-suite baseline)
// plus a 2-ULT core::Condvar ping-pong for the wake-latency path.
//
// Reported per primitive, into BENCH_sync.json (always written; the
// sync-smoke CI leg parses it) and as a human-readable table:
//   * throughput: lock acquisitions per millisecond, summed over ULTs
//   * fairness:   Jain index over per-ULT acquisition counts
//                 ((Σx)² / (n·Σx²); 1.0 = perfectly fair)
//   * wake latency: count/mean/p50/p99 ticks from the process-wide
//                 "sync.wake_latency_ticks" histogram (suspend-based
//                 primitives only — spin locks never park, so their
//                 count staying 0 is itself the ablation's point)
//
// Env: LWTBENCH_THREADS (streams, default hardware), LWTBENCH_REPS,
// LWTBENCH_SYNC_MS (contention window per rep, default 50).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "abt/abt.hpp"
#include "core/metrics.hpp"
#include "core/sync_ult.hpp"
#include "sync/spinlock.hpp"

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
    if (const char* v = std::getenv(name)) {
        const long parsed = std::atol(v);
        if (parsed > 0) {
            return static_cast<std::size_t>(parsed);
        }
    }
    return fallback;
}

using lwt::core::HistogramSnapshot;
using lwt::core::LatencyHistogram;
using lwt::core::Metrics;
using lwt::core::MetricsRegistry;

struct PrimitiveResult {
    std::string name;
    bool suspend_based = false;
    double ops_per_ms = 0.0;
    double fairness = 0.0;
    HistogramSnapshot wake;
};

double jain_index(const std::vector<std::uint64_t>& counts) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::uint64_t c : counts) {
        const double x = static_cast<double>(c);
        sum += x;
        sum_sq += x * x;
    }
    if (sum_sq == 0.0) {
        return 0.0;
    }
    return (sum * sum) / (static_cast<double>(counts.size()) * sum_sq);
}

/// Join with per-handle free(): it waits in the joiner slot, which records
/// nothing in sync.*, so the wake histogram holds only the primitive's own
/// parks (join_all_free waits on an EventCounter, which would add its
/// own).
void join_each(std::vector<lwt::abt::UnitHandle>& handles) {
    for (lwt::abt::UnitHandle& h : handles) {
        h.free();
    }
}

/// One contention window: U ULTs loop lock/unlock on `primitive` until the
/// stop flag rises, counting their own acquisitions. Returns ops/ms and
/// the Jain fairness of the per-ULT counts.
///
/// All workload ULTs go to WORKER pools (1..workers): the primary's pool
/// only drains while the main thread joins, and driving the primary through
/// the window would deadlock the spin baselines (a spinning ULT never
/// returns control to run_until's predicate). The main thread just times
/// the window. A worker whose first ULT spins starves its other ULTs until
/// stop — that starvation IS the spin baseline's fairness number.
template <typename LockFn, typename UnlockFn>
void run_lock_window(lwt::abt::Library& lib, std::size_t workers,
                     std::size_t ults, double window_ms, LockFn&& lock,
                     UnlockFn&& unlock, double& ops_per_ms,
                     double& fairness) {
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> counts(ults, 0);
    std::vector<lwt::abt::UnitHandle> handles;
    handles.reserve(ults);
    for (std::size_t i = 0; i < ults; ++i) {
        handles.push_back(lib.thread_create(
            [&, i] {
                std::uint64_t local = 0;
                while (!stop.load(std::memory_order_relaxed)) {
                    lock();
                    ++local;
                    unlock();
                }
                counts[i] = local;
            },
            /*pool_idx=*/static_cast<int>(1 + i % workers)));
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long>(window_ms * 1000.0)));
    stop.store(true);
    join_each(handles);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    std::uint64_t total = 0;
    for (std::uint64_t c : counts) {
        total += c;
    }
    ops_per_ms = static_cast<double>(total) / elapsed_ms;
    fairness = jain_index(counts);
}

template <typename MakeLock>
PrimitiveResult measure_lock(const std::string& name, bool suspend_based,
                             std::size_t threads, std::size_t ults,
                             std::size_t reps, double window_ms,
                             MakeLock&& make) {
    LatencyHistogram& hist =
        MetricsRegistry::instance().histogram("sync.wake_latency_ticks");
    PrimitiveResult r;
    r.name = name;
    r.suspend_based = suspend_based;
    hist.reset();
    double ops_sum = 0.0;
    double fairness_sum = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        lwt::abt::Config cfg;
        cfg.num_xstreams = threads + 1;  // primary (idle) + `threads` workers
        lwt::abt::Library lib(cfg);
        auto primitive = make();
        double ops = 0.0;
        double fair = 0.0;
        run_lock_window(
            lib, threads, ults, window_ms, [&] { primitive->lock(); },
            [&] { primitive->unlock(); }, ops, fair);
        ops_sum += ops;
        fairness_sum += fair;
    }
    r.ops_per_ms = ops_sum / static_cast<double>(reps);
    r.fairness = fairness_sum / static_cast<double>(reps);
    r.wake = hist.snapshot();
    return r;
}

/// Condvar ping-pong: pairs of ULTs alternate strict turns through one
/// mutex/condvar; every handoff is a suspend + targeted wake, so this is
/// the wake-latency microscope (throughput = handoffs per ms).
PrimitiveResult measure_condvar(std::size_t threads, std::size_t reps,
                                double window_ms) {
    LatencyHistogram& hist =
        MetricsRegistry::instance().histogram("sync.wake_latency_ticks");
    PrimitiveResult r;
    r.name = "core::Condvar ping-pong";
    r.suspend_based = true;
    hist.reset();
    double ops_sum = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        lwt::abt::Config cfg;
        cfg.num_xstreams = threads + 1;
        lwt::abt::Library lib(cfg);
        lwt::core::Mutex m;
        lwt::core::Condvar cv;
        std::atomic<bool> stop{false};
        bool turn = false;  // guarded by m
        std::uint64_t handoffs = 0;
        std::vector<lwt::abt::UnitHandle> handles;
        for (int side = 0; side < 2; ++side) {
            handles.push_back(lib.thread_create(
                [&, side] {
                    while (true) {
                        std::lock_guard g(m);
                        cv.wait(m, [&] {
                            return turn == (side == 1) ||
                                   stop.load(std::memory_order_relaxed);
                        });
                        if (stop.load(std::memory_order_relaxed)) {
                            return;
                        }
                        turn = !turn;
                        ++handoffs;
                        cv.notify_all();
                    }
                },
                /*pool_idx=*/1 + side % static_cast<int>(threads)));
        }
        const auto t0 = std::chrono::steady_clock::now();
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long>(window_ms * 1000.0)));
        {
            std::lock_guard g(m);
            stop.store(true);
            cv.notify_all();
        }
        join_each(handles);
        const double elapsed_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        ops_sum += static_cast<double>(handoffs) / elapsed_ms;
    }
    r.ops_per_ms = ops_sum / static_cast<double>(reps);
    r.fairness = 1.0;  // strict alternation by construction
    r.wake = hist.snapshot();
    return r;
}

bool write_json(const std::string& path, std::size_t threads,
                std::size_t ults, std::size_t reps, double window_ms,
                const std::vector<PrimitiveResult>& results) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"figure\": \"sync\",\n");
    std::fprintf(f, "  \"title\": \"Suspend-based sync suite under "
                    "contention\",\n");
    std::fprintf(f, "  \"threads\": %zu,\n", threads);
    std::fprintf(f, "  \"ults\": %zu,\n", ults);
    std::fprintf(f, "  \"reps\": %zu,\n", reps);
    std::fprintf(f, "  \"window_ms\": %.3f,\n", window_ms);
    std::fprintf(f, "  \"primitives\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PrimitiveResult& r = results[i];
        std::fprintf(f, "    {\n");
        std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
        std::fprintf(f, "      \"suspend_based\": %s,\n",
                     r.suspend_based ? "true" : "false");
        std::fprintf(f, "      \"throughput_ops_per_ms\": %.3f,\n",
                     r.ops_per_ms);
        std::fprintf(f, "      \"fairness_jain\": %.4f,\n", r.fairness);
        std::fprintf(f, "      \"wake_latency\": {\"count\": %llu, "
                        "\"mean_ticks\": %.1f, \"p50_ticks\": %llu, "
                        "\"p99_ticks\": %llu}\n",
                     static_cast<unsigned long long>(r.wake.count),
                     r.wake.mean(),
                     static_cast<unsigned long long>(r.wake.percentile(0.5)),
                     static_cast<unsigned long long>(r.wake.percentile(0.99)));
        std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
}

}  // namespace

int main() {
    const std::size_t threads = env_size(
        "LWTBENCH_THREADS",
        std::max<std::size_t>(2, std::thread::hardware_concurrency()));
    const std::size_t reps = env_size("LWTBENCH_REPS", 3);
    const double window_ms =
        static_cast<double>(env_size("LWTBENCH_SYNC_MS", 50));
    const std::size_t ults = 4 * threads;  // the acceptance contention shape

    // Wake-latency stamping is metrics-gated; turn it on for the whole run.
    Metrics::instance().enable();

    std::vector<PrimitiveResult> results;
    results.push_back(measure_lock(
        "core::Mutex", true, threads, ults, reps, window_ms, [] {
            struct W {
                lwt::core::Mutex m;
                void lock() { m.lock(); }
                void unlock() { m.unlock(); }
            };
            return std::make_unique<W>();
        }));
    results.push_back(measure_lock(
        "core::Semaphore(1)", true, threads, ults, reps, window_ms, [] {
            struct W {
                lwt::core::Semaphore s{1};
                void lock() { s.acquire(); }
                void unlock() { s.release(); }
            };
            return std::make_unique<W>();
        }));
    results.push_back(measure_lock(
        "core::RwLock (write)", true, threads, ults, reps, window_ms, [] {
            struct W {
                lwt::core::RwLock rw;
                void lock() { rw.lock(); }
                void unlock() { rw.unlock(); }
            };
            return std::make_unique<W>();
        }));
    results.push_back(measure_lock(
        "sync::Spinlock", false, threads, ults, reps, window_ms, [] {
            struct W {
                lwt::sync::Spinlock l;
                void lock() { l.lock(); }
                void unlock() { l.unlock(); }
            };
            return std::make_unique<W>();
        }));
    results.push_back(measure_condvar(threads, reps, window_ms));

    std::printf("# Ablation: sync primitives under contention "
                "(%zu streams, %zu ULTs, %.0f ms window, reps=%zu)\n",
                threads, ults, window_ms, reps);
    std::printf("primitive,suspend,ops_per_ms,fairness_jain,"
                "wake_count,wake_mean_ticks,wake_p99_ticks\n");
    for (const PrimitiveResult& r : results) {
        std::printf("%s,%d,%.3f,%.4f,%llu,%.1f,%llu\n", r.name.c_str(),
                    r.suspend_based ? 1 : 0, r.ops_per_ms, r.fairness,
                    static_cast<unsigned long long>(r.wake.count),
                    r.wake.mean(),
                    static_cast<unsigned long long>(r.wake.percentile(0.99)));
    }

    if (!write_json("BENCH_sync.json", threads, ults, reps, window_ms,
                    results)) {
        std::fprintf(stderr, "[lwtbench] failed to write BENCH_sync.json\n");
        return 1;
    }
    std::fprintf(stderr, "[lwtbench] wrote BENCH_sync.json\n");
    return 0;
}
