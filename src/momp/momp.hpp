// momp.hpp — miniature OpenMP-like runtime over OS threads.
//
// This is the paper's baseline: OpenMP as implemented by GNU (gcc) and
// Intel (icc) over Pthreads. The runtime reproduces the behavioural
// differences §III-A/§VII documents — they, not absolute speed, are what
// the figures measure:
//
//   * a persistent top-level thread team created at the first parallel
//     region, work distribution by static chunking, barrier at region end;
//   * tasks: gcc = one shared mutex-protected queue + cutoff 64×nthreads,
//     icc = per-thread deques + work stealing + cutoff 256 (task_pool.hpp);
//   * OMP_WAIT_POLICY active (spin) vs passive (yield) idle behaviour;
//   * nested parallel regions: gcc spawns a brand-new team of FRESH OS
//     threads at every nested pragma (no reuse -> the 35k-thread explosion
//     of Fig. 7), icc reuses idle threads from a cache but still
//     oversubscribes. `os_threads_created()` exposes the spawn count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/observability.hpp"
#include "obs/introspect.hpp"
#include "momp/task_pool.hpp"

namespace lwt::momp {

enum class WaitPolicy {
    kActive,   ///< idle threads spin (default in both runtimes)
    kPassive,  ///< idle threads OS-yield (the paper sets this for Fig. 5/6)
};

struct Config {
    Flavor flavor = Flavor::kGcc;
    /// Team size (OMP_NUM_THREADS); 0 resolves via LWT_OMP_NUM_THREADS then
    /// hardware.
    std::size_t num_threads = 0;
    WaitPolicy wait_policy = WaitPolicy::kActive;
};

/// Body of a parallel region: body(tid, nthreads).
using RegionBody = std::function<void(std::size_t, std::size_t)>;

class Runtime;

/// A worker parked in the icc-flavour thread cache: it sleeps on a condvar
/// between assignments instead of being destroyed (thread reuse).
class CachedWorker {
  public:
    CachedWorker();
    ~CachedWorker();
    CachedWorker(const CachedWorker&) = delete;
    CachedWorker& operator=(const CachedWorker&) = delete;

    /// Hand the worker a job; returns immediately.
    void submit(std::function<void()> job);
    /// Block until the submitted job finished.
    void wait_done();

  private:
    void loop();

    std::mutex mutex_;
    std::condition_variable cv_;
    std::function<void()> job_;
    bool has_job_ = false;
    bool job_done_ = true;
    bool stop_ = false;
    std::thread thread_;
};

/// One OpenMP-like runtime instance.
class Runtime {
  public:
    explicit Runtime(Config config = {});
    ~Runtime();
    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;

    /// #pragma omp parallel — run `body(tid, nthreads)` on `nthreads`
    /// threads (0 = configured team size). Returns after the implicit
    /// barrier (which, as in OpenMP, also completes all queued tasks).
    /// Called from inside a region, this creates a NESTED team with the
    /// flavour's spawn semantics.
    void parallel(const RegionBody& body, std::size_t nthreads = 0);

    /// #pragma omp parallel for — static schedule over [0, n).
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                      std::size_t nthreads = 0);

    /// #pragma omp taskloop grainsize(grain) inside a fresh region: the
    /// master bulk-submits ceil(n/grain) chunk tasks in one burst
    /// (TaskPool::submit_bulk) and the team executes them; the implicit
    /// barrier completes the batch. `grain` 0 = one chunk per team thread.
    void parallel_for_taskloop(std::size_t n, std::size_t grain,
                               const std::function<void(std::size_t)>& body,
                               std::size_t nthreads = 0);

    /// #pragma omp parallel for schedule(dynamic, chunk) — threads pull
    /// chunks from a shared counter (load balance at the cost of one atomic
    /// per chunk).
    void parallel_for_dynamic(std::size_t n, std::size_t chunk,
                              const std::function<void(std::size_t)>& body,
                              std::size_t nthreads = 0);

    /// #pragma omp parallel for schedule(guided, min_chunk) — chunk sizes
    /// decay from remaining/nthreads down to min_chunk (both runtimes'
    /// guided schedule).
    void parallel_for_guided(std::size_t n, std::size_t min_chunk,
                             const std::function<void(std::size_t)>& body,
                             std::size_t nthreads = 0);

    /// #pragma omp parallel for reduction(+:acc) — static chunks with
    /// per-thread partials combined after the implicit barrier.
    double parallel_reduce_sum(std::size_t n,
                               const std::function<double(std::size_t)>& body,
                               std::size_t nthreads = 0);

    /// #pragma omp critical(name) — runtime-wide named mutual exclusion.
    void critical(const std::string& name, const std::function<void()>& body);

    /// #pragma omp parallel sections — each section runs exactly once, on
    /// whichever team thread claims it first (dynamic assignment, as both
    /// runtimes implement it).
    void parallel_sections(const std::vector<std::function<void()>>& sections,
                           std::size_t nthreads = 0);

    /// #pragma omp single nowait — the first thread of the innermost region
    /// to encounter this (by per-thread encounter order) runs `body`;
    /// returns whether the calling thread was the one. All threads of a
    /// region must encounter the same singles in the same order.
    static bool single(const std::function<void()>& body);

    /// #pragma omp task — submit from inside a parallel region.
    static void task(core::UniqueFunction fn);

    /// Bulk task submission: `n` tasks running `body(i)`, enqueued into the
    /// region's task pool in one burst with a single wakeup (see
    /// TaskPool::submit_bulk). How `parallel_for` would feed a taskloop.
    static void task_bulk(std::size_t n,
                          const std::function<void(std::size_t)>& body);

    /// #pragma omp taskwait — drive task execution until none remain in the
    /// current team.
    static void taskwait();

    /// omp_get_thread_num/omp_get_num_threads for the innermost region
    /// enclosing the caller (0/1 outside any region).
    static std::size_t thread_num();
    static std::size_t num_threads_in_region();
    /// True when called inside a parallel region.
    static bool in_parallel();

    [[nodiscard]] Flavor flavor() const noexcept { return config_.flavor; }
    [[nodiscard]] WaitPolicy wait_policy() const noexcept {
        return config_.wait_policy;
    }
    [[nodiscard]] std::size_t team_size() const noexcept {
        return config_.num_threads;
    }

    /// Total OS threads this runtime has ever spawned (persistent team +
    /// nested teams). The Fig. 7 explosion metric.
    [[nodiscard]] std::uint64_t os_threads_created() const noexcept {
        return threads_created_.load(std::memory_order_relaxed);
    }

    /// Tasks executed inline by the innermost active task pool's cutoff
    /// since the last region started (see TaskPool::inlined()).
    [[nodiscard]] std::uint64_t last_region_inlined_tasks() const noexcept {
        return last_inlined_.load(std::memory_order_relaxed);
    }

    /// Idle ladder task-wait loops use, derived from OMP_WAIT_POLICY
    /// semantics. Both flavours end in a park on the task pool's lot (a
    /// submit or the last completion wakes them directly — no unbounded
    /// polling in wait_all); the policy only sizes the hot ladder before
    /// the park: active waiters spin long (stay hot, the real runtimes'
    /// OMP_WAIT_POLICY=active eventually sleeps too), passive waiters give
    /// the core up almost immediately.
    [[nodiscard]] sync::IdleConfig task_idle_config() const noexcept {
        sync::IdleConfig idle;
        idle.policy = sync::IdlePolicy::kPark;
        if (config_.wait_policy == WaitPolicy::kActive) {
            idle.spin_limit = 4096;
            idle.yield_limit = 64;
        }
        return idle;
    }

  private:
    friend class CachedWorker;

    class PersistentTeam;
    class SingleTable;

    void run_nested(const RegionBody& body, std::size_t nthreads);
    void run_region_member(const RegionBody& body, std::size_t tid,
                           std::size_t nthreads, TaskPool& tasks,
                           SingleTable& singles, std::size_t level);
    CachedWorker* cache_acquire();
    void cache_release(CachedWorker* worker);

    // Declared first so it detaches LAST: the env-driven shutdown flush
    // (LWT_TRACE / LWT_METRICS) must run after the team has stopped.
    core::ObservabilitySession obs_session_;
    Config config_;
    std::atomic<std::uint64_t> threads_created_{0};
    std::atomic<std::uint64_t> last_inlined_{0};
    std::unique_ptr<PersistentTeam> team_;

    std::mutex cache_mutex_;
    std::vector<std::unique_ptr<CachedWorker>> cache_all_;
    std::vector<CachedWorker*> cache_free_;

    std::mutex criticals_mutex_;
    std::unordered_map<std::string, std::unique_ptr<std::mutex>> criticals_;
    // Declared LAST (destroyed first), mirroring the other runtimes. momp
    // workers are plain OS threads (no XStreams), so the session usually
    // just contributes its refcount — the server needs another runtime's
    // streams to host its ULTs.
    std::optional<obs::IntrospectSession> introspect_;
};

}  // namespace lwt::momp
