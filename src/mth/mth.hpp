// mth.hpp — MassiveThreads-like personality.
//
// Reproduces §III-C/§VIII-B.2: workers (one per CPU) with mutex-protected
// per-worker deques, random work stealing by idle workers, and the two
// creation policies the paper evaluates:
//   * work-first (myth default): the creating ULT is pushed to the ready
//     deque — becoming stealable — and the child runs immediately;
//   * help-first: the child is pushed and the creator keeps running.
//
// Because work-first requires the *creating* control flow itself to be a
// ULT, the program's main function runs as a ULT on worker 0 (exactly what
// MassiveThreads does to main()): use Library::run().
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "arch/locality.hpp"
#include "obs/introspect.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/sync_ult.hpp"
#include "core/ult.hpp"
#include "core/unique_function.hpp"
#include "core/xstream.hpp"

namespace lwt::mth {

/// Creation policy (§VIII-B.2). The paper selects Help-first for the plain
/// for-loop and Work-first for task/nested patterns.
enum class Policy {
    kWorkFirst,
    kHelpFirst,
};

/// Worker pinning comes from LWT_BIND or glt::RuntimeOptions::bind
/// (arch::resolve_bind_policy). Pinned or not, the topology (LWT_TOPOLOGY
/// override included) tiers each worker's steal order: SMT sibling first,
/// then same package, then remote.
struct Config {
    /// Number of workers; 0 resolves via LWT_NUM_WORKERS then hardware.
    std::size_t num_workers = 0;
    Policy policy = Policy::kWorkFirst;
};

/// MassiveThreads synchronisation objects under their myth names. All of
/// them suspend the calling ULT instead of blocking its worker.
using Mutex = core::Mutex;         ///< myth_mutex
using Cond = core::Condvar;        ///< myth_cond
using Barrier = core::UltBarrier;  ///< myth_barrier

/// Joinable handle to a spawned ULT (myth_thread_t).
class ThreadHandle {
  public:
    ThreadHandle() noexcept = default;
    ThreadHandle(ThreadHandle&& other) noexcept
        : ult_(std::exchange(other.ult_, nullptr)) {}
    ThreadHandle& operator=(ThreadHandle&& other) noexcept;
    ThreadHandle(const ThreadHandle&) = delete;
    ThreadHandle& operator=(const ThreadHandle&) = delete;
    ~ThreadHandle() {
        if (ult_ != nullptr) {
            join();
        }
    }

    /// myth_join: cooperative wait, then reclaim.
    void join();

    [[nodiscard]] bool valid() const noexcept { return ult_ != nullptr; }

  private:
    friend class Library;
    explicit ThreadHandle(core::Ult* ult) noexcept : ult_(ult) {}
    core::Ult* ult_ = nullptr;
};

/// One initialised MassiveThreads-like runtime (myth_init .. myth_fini).
class Library {
  public:
    explicit Library(Config config = {});
    Library(const Library&) = delete;
    Library& operator=(const Library&) = delete;

    [[nodiscard]] std::size_t num_workers() const { return pools_.size(); }
    [[nodiscard]] Policy policy() const { return config_.policy; }

    /// The placement plan the workers were built under.
    [[nodiscard]] const arch::LocalityMap& locality() const noexcept {
        return runtime_->locality();
    }

    /// Run `main_fn` as the program's main ULT on worker 0 and return when
    /// it finishes. All create() calls must happen inside this scope (from
    /// the main ULT or its descendants).
    void run(core::UniqueFunction main_fn);

    /// myth_create. Under work-first the caller is suspended into the ready
    /// deque (stealable) and the child starts at once; under help-first the
    /// child is queued and the caller continues.
    ThreadHandle create(core::UniqueFunction fn);

    /// Fire-and-forget spawn (no join handle).
    void create_detached(core::UniqueFunction fn);

    /// Bulk spawn fast path (always help-first: a batch has no single
    /// continuation to steal). All `n` detached ULTs running `body(i)` go
    /// to the caller's deque in ONE push_bulk; idle workers distribute the
    /// batch by stealing. Each completion signals `done` (add(n) is called
    /// here) — join with wait_counter(done).
    void create_bulk_detached(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              core::EventCounter& done);

    /// Wait until `done` drains. From the attached main thread this drives
    /// worker 0's scheduler (a plain EventCounter::wait would OS-yield and
    /// deadlock single-worker configurations); inside a ULT it yields.
    void wait_counter(core::EventCounter& done);

    /// myth_yield.
    static void yield();

    /// Aggregate steal/idle counters over all workers including worker 0
    /// (sched_stats.hpp).
    [[nodiscard]] core::SchedStats sched_stats() const noexcept {
        return runtime_->sched_stats();
    }

  private:
    core::Ult* spawn(core::UniqueFunction fn, bool detached);

    Config config_;
    std::vector<std::unique_ptr<core::DequePool>> pools_;
    // After the deques (destroyed before them): its workers drain them.
    std::unique_ptr<core::Runtime> runtime_;
    // Declared LAST (destroyed first): the introspection server's ULTs
    // must drain while the workers above still run. Engaged at the end of
    // the ctor — the acceptor needs live streams to land on.
    std::optional<obs::IntrospectSession> introspect_;
};

}  // namespace lwt::mth
