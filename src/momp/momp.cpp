#include "momp/momp.hpp"

#include <cassert>

#include "arch/cpu.hpp"
#include "core/runtime.hpp"
#include "momp/barrier.hpp"

namespace lwt::momp {
namespace {

/// Innermost parallel-region context of the calling OS thread.
struct RegionCtx {
    Runtime* rt;
    std::size_t tid;
    std::size_t nthreads;
    TaskPool* tasks;
    void* singles;  // Runtime::SingleTable*, opaque at this point
    std::size_t single_seq;
    std::size_t level;
    RegionCtx* parent;
};

thread_local RegionCtx* tl_region = nullptr;

}  // namespace

/// Region-shared bookkeeping for #pragma omp single: the i-th single
/// encountered by each thread is claimed by exactly one of them.
class Runtime::SingleTable {
  public:
    /// True if the caller claimed the idx-th single of this region.
    bool claim(std::size_t idx) {
        std::lock_guard lock(mutex_);
        if (claimed_.size() <= idx) {
            claimed_.resize(idx + 1, false);
        }
        if (claimed_[idx]) {
            return false;
        }
        claimed_[idx] = true;
        return true;
    }

  private:
    std::mutex mutex_;
    std::vector<bool> claimed_;
};

// --- CachedWorker ---------------------------------------------------------------

CachedWorker::CachedWorker() : thread_([this] { loop(); }) {}

CachedWorker::~CachedWorker() {
    {
        std::lock_guard lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

void CachedWorker::submit(std::function<void()> job) {
    {
        std::lock_guard lock(mutex_);
        job_ = std::move(job);
        has_job_ = true;
        job_done_ = false;
    }
    cv_.notify_all();
}

void CachedWorker::wait_done() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return job_done_; });
}

void CachedWorker::loop() {
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock lock(mutex_);
            cv_.wait(lock, [this] { return has_job_ || stop_; });
            if (stop_ && !has_job_) {
                return;
            }
            job = std::move(job_);
            has_job_ = false;
        }
        job();
        {
            std::lock_guard lock(mutex_);
            job_done_ = true;
        }
        cv_.notify_all();
    }
}

// --- PersistentTeam ---------------------------------------------------------------

/// The top-level team: created at the first parallel region (as real OpenMP
/// runtimes do) and reused for every subsequent non-nested region. Workers
/// spin or yield between regions according to OMP_WAIT_POLICY.
class Runtime::PersistentTeam {
  public:
    PersistentTeam(Runtime* rt, std::size_t size)
        : rt_(rt), size_(size == 0 ? 1 : size), end_barrier_(size_) {
        threads_.reserve(size_ - 1);
        for (std::size_t tid = 1; tid < size_; ++tid) {
            threads_.emplace_back([this, tid] { worker(tid); });
        }
        rt_->threads_created_.fetch_add(size_ - 1, std::memory_order_relaxed);
    }

    ~PersistentTeam() {
        stop_.store(true, std::memory_order_release);
        for (auto& t : threads_) {
            t.join();
        }
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// Execute one region with `active` participating threads (<= size()).
    void run(const RegionBody& body, std::size_t active) {
        active_ = active == 0 || active > size_ ? size_ : active;
        tasks_ = std::make_unique<TaskPool>(rt_->config_.flavor, active_,
                                            rt_->task_idle_config());
        singles_ = std::make_unique<SingleTable>();
        body_ = &body;
        go_.fetch_add(1, std::memory_order_release);
        member(0);
        end_barrier_.arrive_and_wait();
        rt_->last_inlined_.store(tasks_->inlined(), std::memory_order_relaxed);
        tasks_.reset();
        singles_.reset();
        body_ = nullptr;
    }

  private:
    void worker(std::size_t tid) {
        std::uint64_t seen = 0;
        for (;;) {
            // Park between regions per the wait policy.
            while (go_.load(std::memory_order_acquire) == seen) {
                if (stop_.load(std::memory_order_acquire)) {
                    return;
                }
                if (rt_->config_.wait_policy == WaitPolicy::kActive) {
                    arch::cpu_relax();
                } else {
                    std::this_thread::yield();
                }
            }
            ++seen;
            member(tid);
            end_barrier_.arrive_and_wait();
        }
    }

    void member(std::size_t tid) {
        if (tid < active_) {
            rt_->run_region_member(*body_, tid, active_, *tasks_, *singles_, 0);
        }
        // Threads beyond `active_` go straight to the barrier.
    }

    Runtime* rt_;
    const std::size_t size_;
    CentralBarrier end_barrier_;
    std::atomic<std::uint64_t> go_{0};
    std::atomic<bool> stop_{false};
    const RegionBody* body_ = nullptr;
    std::size_t active_ = 0;
    std::unique_ptr<TaskPool> tasks_;
    std::unique_ptr<SingleTable> singles_;
    std::vector<std::thread> threads_;
};

// --- Runtime ------------------------------------------------------------------------

Runtime::Runtime(Config config) : config_(config) {
    config_.num_threads = core::Runtime::resolve_stream_count(
        config_.num_threads, "LWT_OMP_NUM_THREADS");
    introspect_.emplace();
}

Runtime::~Runtime() {
    introspect_.reset();
}

void Runtime::run_region_member(const RegionBody& body, std::size_t tid,
                                std::size_t nthreads, TaskPool& tasks,
                                SingleTable& singles, std::size_t level) {
    RegionCtx ctx{this, tid, nthreads, &tasks, &singles, 0, level, tl_region};
    tl_region = &ctx;
    body(tid, nthreads);
    // The implicit barrier at region end also completes queued tasks.
    tasks.wait_all(tid);
    tl_region = ctx.parent;
}

void Runtime::parallel(const RegionBody& body, std::size_t nthreads) {
    if (nthreads == 0) {
        nthreads = config_.num_threads;
    }
    if (tl_region != nullptr) {
        run_nested(body, nthreads);
        return;
    }
    if (team_ == nullptr) {
        // First region: materialise the persistent team (both runtimes
        // create their Pthreads here, not at init).
        team_ = std::make_unique<PersistentTeam>(
            this, std::max(nthreads, config_.num_threads));
    }
    team_->run(body, nthreads);
}

void Runtime::run_nested(const RegionBody& body, std::size_t nthreads) {
    const std::size_t level = tl_region->level + 1;
    TaskPool tasks(config_.flavor, nthreads, task_idle_config());
    SingleTable singles;
    if (config_.flavor == Flavor::kGcc) {
        // gcc: a brand-new team of fresh OS threads for EVERY nested
        // region; no reuse. This is the Fig. 7 thread explosion.
        std::vector<std::thread> members;
        members.reserve(nthreads - 1);
        for (std::size_t tid = 1; tid < nthreads; ++tid) {
            members.emplace_back([&, tid] {
                run_region_member(body, tid, nthreads, tasks, singles, level);
            });
        }
        threads_created_.fetch_add(nthreads - 1, std::memory_order_relaxed);
        run_region_member(body, 0, nthreads, tasks, singles, level);
        for (auto& m : members) {
            m.join();
        }
    } else {
        // icc: reuse idle threads from the runtime-wide cache; spawn only
        // on cache miss. Still oversubscribes, but creation is bounded.
        std::vector<CachedWorker*> members;
        members.reserve(nthreads - 1);
        for (std::size_t tid = 1; tid < nthreads; ++tid) {
            members.push_back(cache_acquire());
        }
        for (std::size_t tid = 1; tid < nthreads; ++tid) {
            members[tid - 1]->submit([&, tid] {
                run_region_member(body, tid, nthreads, tasks, singles, level);
            });
        }
        run_region_member(body, 0, nthreads, tasks, singles, level);
        for (CachedWorker* w : members) {
            w->wait_done();
            cache_release(w);
        }
    }
    last_inlined_.store(tasks.inlined(), std::memory_order_relaxed);
}

CachedWorker* Runtime::cache_acquire() {
    {
        std::lock_guard lock(cache_mutex_);
        if (!cache_free_.empty()) {
            CachedWorker* w = cache_free_.back();
            cache_free_.pop_back();
            return w;
        }
    }
    auto worker = std::make_unique<CachedWorker>();
    threads_created_.fetch_add(1, std::memory_order_relaxed);
    CachedWorker* raw = worker.get();
    std::lock_guard lock(cache_mutex_);
    cache_all_.push_back(std::move(worker));
    return raw;
}

void Runtime::cache_release(CachedWorker* worker) {
    std::lock_guard lock(cache_mutex_);
    cache_free_.push_back(worker);
}

void Runtime::parallel_for(std::size_t n,
                           const std::function<void(std::size_t)>& body,
                           std::size_t nthreads) {
    parallel(
        [&](std::size_t tid, std::size_t nth) {
            // Static schedule: contiguous chunks, like both runtimes'
            // default for #pragma omp parallel for.
            const std::size_t per = (n + nth - 1) / nth;
            const std::size_t lo = tid * per;
            const std::size_t hi = std::min(n, lo + per);
            for (std::size_t i = lo; i < hi; ++i) {
                body(i);
            }
        },
        nthreads);
}

void Runtime::parallel_for_taskloop(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t)>& body, std::size_t nthreads) {
    parallel(
        [&](std::size_t tid, std::size_t nth) {
            if (tid != 0) {
                return;  // region barrier drains the batch for everyone
            }
            const std::size_t g =
                grain != 0 ? grain : std::max<std::size_t>(1, (n + nth - 1) / nth);
            const std::size_t nchunks = (n + g - 1) / g;
            task_bulk(nchunks, [&body, n, g](std::size_t c) {
                const std::size_t lo = c * g;
                const std::size_t hi = std::min(n, lo + g);
                for (std::size_t i = lo; i < hi; ++i) {
                    body(i);
                }
            });
        },
        nthreads);
}

void Runtime::task(core::UniqueFunction fn) {
    assert(tl_region != nullptr && "momp::task requires a parallel region");
    tl_region->tasks->submit(tl_region->tid, std::move(fn));
}

void Runtime::task_bulk(std::size_t n,
                        const std::function<void(std::size_t)>& body) {
    assert(tl_region != nullptr && "momp::task_bulk requires a parallel region");
    tl_region->tasks->submit_bulk(tl_region->tid, n, body);
}

void Runtime::taskwait() {
    assert(tl_region != nullptr && "momp::taskwait requires a parallel region");
    tl_region->tasks->wait_all(tl_region->tid);
}

void Runtime::parallel_for_dynamic(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t)>& body, std::size_t nthreads) {
    if (chunk == 0) {
        chunk = 1;
    }
    std::atomic<std::size_t> next{0};
    parallel(
        [&](std::size_t, std::size_t) {
            for (;;) {
                const std::size_t lo =
                    next.fetch_add(chunk, std::memory_order_relaxed);
                if (lo >= n) {
                    break;
                }
                const std::size_t hi = std::min(n, lo + chunk);
                for (std::size_t i = lo; i < hi; ++i) {
                    body(i);
                }
            }
        },
        nthreads);
}

void Runtime::parallel_for_guided(
    std::size_t n, std::size_t min_chunk,
    const std::function<void(std::size_t)>& body, std::size_t nthreads) {
    if (min_chunk == 0) {
        min_chunk = 1;
    }
    if (nthreads == 0) {
        nthreads = config_.num_threads;
    }
    std::atomic<std::size_t> next{0};
    parallel(
        [&](std::size_t, std::size_t nth) {
            for (;;) {
                // Claim a chunk proportional to the remaining work.
                std::size_t lo = next.load(std::memory_order_relaxed);
                std::size_t want;
                do {
                    if (lo >= n) {
                        return;
                    }
                    const std::size_t remaining = n - lo;
                    want = std::max(min_chunk, remaining / (2 * nth));
                    want = std::min(want, remaining);
                } while (!next.compare_exchange_weak(
                    lo, lo + want, std::memory_order_relaxed));
                const std::size_t hi = lo + want;
                for (std::size_t i = lo; i < hi; ++i) {
                    body(i);
                }
            }
        },
        nthreads);
}

double Runtime::parallel_reduce_sum(
    std::size_t n, const std::function<double(std::size_t)>& body,
    std::size_t nthreads) {
    if (nthreads == 0) {
        nthreads = config_.num_threads;
    }
    std::vector<double> partial(nthreads, 0.0);
    parallel(
        [&](std::size_t tid, std::size_t nth) {
            const std::size_t per = (n + nth - 1) / nth;
            const std::size_t lo = tid * per;
            const std::size_t hi = std::min(n, lo + per);
            double acc = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
                acc += body(i);
            }
            partial[tid] = acc;
        },
        nthreads);
    double total = 0.0;
    for (double p : partial) {
        total += p;
    }
    return total;
}

void Runtime::critical(const std::string& name,
                       const std::function<void()>& body) {
    std::mutex* section;
    {
        std::lock_guard lock(criticals_mutex_);
        auto& slot = criticals_[name];
        if (slot == nullptr) {
            slot = std::make_unique<std::mutex>();
        }
        section = slot.get();
    }
    std::lock_guard lock(*section);
    body();
}

void Runtime::parallel_sections(
    const std::vector<std::function<void()>>& sections,
    std::size_t nthreads) {
    std::atomic<std::size_t> next{0};
    parallel(
        [&](std::size_t, std::size_t) {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= sections.size()) {
                    break;
                }
                sections[i]();
            }
        },
        nthreads);
}

bool Runtime::single(const std::function<void()>& body) {
    assert(tl_region != nullptr && "momp::single requires a parallel region");
    auto* singles = static_cast<SingleTable*>(tl_region->singles);
    const std::size_t idx = tl_region->single_seq++;
    if (singles->claim(idx)) {
        body();
        return true;
    }
    return false;
}

std::size_t Runtime::thread_num() {
    return tl_region != nullptr ? tl_region->tid : 0;
}

std::size_t Runtime::num_threads_in_region() {
    return tl_region != nullptr ? tl_region->nthreads : 1;
}

bool Runtime::in_parallel() { return tl_region != nullptr; }

}  // namespace lwt::momp
