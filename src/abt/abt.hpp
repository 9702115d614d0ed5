// abt.hpp — Argobots-like personality.
//
// Reproduces the programming model the paper attributes to Argobots
// (Sections III-E, IV): execution streams created at init *or dynamically at
// run time*, two work-unit types (ULTs and stackless Tasklets), pools that
// are either private per stream or shared by all, join-and-free semantics
// (ABT_thread_free both joins and reclaims), yield_to, and stackable
// plug-in schedulers. Function names mirror Table II: thread_create /
// task_create / yield / thread_free (join).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "arch/topology.hpp"
#include "obs/introspect.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/future.hpp"
#include "core/sync_ult.hpp"
#include "sync/spinlock.hpp"

namespace lwt::abt {

/// Pool topology, the paper's key Argobots configuration axis (§VIII-B.4).
enum class PoolKind {
    /// One FIFO pool per execution stream. The native create with no pool
    /// index (thread_create(fn), which lwomp uses to spread its teams)
    /// dispatches round-robin over the streams' pools, and the unit runs
    /// where it lands. An *unpinned* create (thread_create_unpinned,
    /// behind glt's Placement::any()) from one of the library's streams
    /// stays in that stream's pool instead, and a stream whose own pools
    /// are empty takes the oldest unpinned unit from a peer's pool before
    /// it idles: work stealing, as Argobots' ABT_SCHED_RANDWS scheduler
    /// does, restricted to units nobody placed.
    kPrivate,
    kShared,   ///< one lock-free MPMC pool shared by every stream
};

/// Work-unit type (§III-E): ULTs yield/suspend; tasklets are cheaper but
/// atomic.
enum class UnitKind {
    kUlt,
    kTasklet,
};

/// ULT stacks always come from the process-wide default stack source
/// (Argobots pools its stacks too), and stream pinning from LWT_BIND or
/// glt::RuntimeOptions::bind (arch::resolve_bind_policy).
struct Config {
    /// Number of execution streams; 0 resolves via LWT_NUM_STREAMS env var,
    /// then the hardware thread count.
    std::size_t num_xstreams = 0;
    PoolKind pool_kind = PoolKind::kPrivate;
};

class Library;

namespace detail {
struct PoolView;  // thread-cached pool snapshot (abt.cpp)
}  // namespace detail

/// Argobots synchronisation objects, re-exported under their ABT names.
/// All of them suspend the calling ULT through the scheduler rather than
/// blocking the execution stream.
using Mutex = core::Mutex;         ///< ABT_mutex
using CondVar = core::Condvar;     ///< ABT_cond
using Barrier = core::UltBarrier;  ///< ABT_barrier
using RwLock = core::RwLock;       ///< ABT_rwlock
using Semaphore = core::Semaphore; ///< no direct ABT name; sem-shaped
template <typename T>
using Eventual = core::Future<T>;  ///< ABT_eventual (typed)
using Event = core::Event;         ///< ABT_eventual with no payload

/// Owning handle to a joinable work unit (ABT_thread / ABT_task).
/// Join-and-free (`free()`) is the Argobots idiom the paper measures.
class UnitHandle {
  public:
    UnitHandle() noexcept = default;
    UnitHandle(UnitHandle&&) noexcept;
    UnitHandle& operator=(UnitHandle&&) noexcept;
    UnitHandle(const UnitHandle&) = delete;
    UnitHandle& operator=(const UnitHandle&) = delete;
    ~UnitHandle() {
        if (unit_ != nullptr) {
            free();
        }
    }

    /// Wait for completion (ABT_thread_join). Cooperative: drives the
    /// caller's scheduler when invoked from a stream, yields inside ULTs.
    void join();

    /// Join if needed, then reclaim the unit (ABT_thread_free).
    void free();

    [[nodiscard]] bool valid() const noexcept { return unit_ != nullptr; }
    [[nodiscard]] bool terminated() const noexcept {
        return unit_ != nullptr && unit_->terminated();
    }

    /// Underlying ULT, or nullptr for tasklets (yield_to target).
    [[nodiscard]] core::Ult* ult() const noexcept;

  private:
    friend class Library;
    explicit UnitHandle(core::WorkUnit* unit) noexcept : unit_(unit) {}

    core::WorkUnit* unit_ = nullptr;
};

/// One initialised Argobots-like runtime (ABT_init .. ABT_finalize).
class Library {
  public:
    explicit Library(Config config = {});
    Library(const Library&) = delete;
    Library& operator=(const Library&) = delete;

    [[nodiscard]] std::size_t num_xstreams() const {
        return runtime_->num_streams();
    }
    [[nodiscard]] std::size_t num_pools() const { return pools_.size(); }

    /// Create an execution stream *while running* (ABT_xstream_create) —
    /// the dynamic-creation capability Table I credits only to Argobots.
    /// Returns the new stream's rank. With private pools the stream gets a
    /// fresh pool; with a shared pool it joins the common one.
    std::size_t xstream_create();

    /// Create a ULT into pool `pool_idx` (ABT_thread_create). Negative
    /// index dispatches round-robin over all pools.
    UnitHandle thread_create(core::UniqueFunction fn, int pool_idx = -1);

    /// Create a stackless tasklet (ABT_task_create).
    UnitHandle task_create(core::UniqueFunction fn, int pool_idx = -1);

    /// Unpinned creation (glt::Placement::any()): from a stream of this
    /// library under kPrivate, the unit goes into that stream's own pool,
    /// and a peer stream with nothing else to run may take it until it
    /// first leaves the pool (docs/join_path.md). From a plain thread, or
    /// under a shared pool kind, this is thread_create(fn) / task_create(fn).
    UnitHandle thread_create_unpinned(core::UniqueFunction fn);
    UnitHandle task_create_unpinned(core::UniqueFunction fn);

    /// Domain-targeted creation: the unit goes to locality domain
    /// `domain`'s shared pool, so it runs on a stream of that package and
    /// nowhere else. Domains with no streams fall back to the first
    /// populated domain. (glt::Placement::domain routes here.)
    UnitHandle thread_create_domain(core::UniqueFunction fn,
                                    std::size_t domain);
    UnitHandle task_create_domain(core::UniqueFunction fn,
                                  std::size_t domain);

    /// Fire-and-forget variants: the runtime reclaims the unit on completion.
    void thread_create_detached(core::UniqueFunction fn, int pool_idx = -1);
    void task_create_detached(core::UniqueFunction fn, int pool_idx = -1);

    /// Bulk creation fast path: make `n` units running `body(i)` and submit
    /// them with ONE Pool::push_bulk per target pool (single notify per
    /// pool, batched enqueue) instead of n push/notify round-trips. Stacks
    /// come from the caller's per-stream cache. Negative `pool_idx`
    /// round-robins the batch across all pools; otherwise every unit lands
    /// in that pool.
    std::vector<UnitHandle> create_bulk(
        UnitKind kind, std::size_t n,
        const std::function<void(std::size_t)>& body, int pool_idx = -1);

    /// Bulk creation into one locality domain: the whole batch lands in the
    /// domain's shared pool with a single push_bulk, and only that
    /// package's streams consume it.
    std::vector<UnitHandle> create_bulk_domain(
        UnitKind kind, std::size_t n,
        const std::function<void(std::size_t)>& body, std::size_t domain);

    /// Join-and-free a whole batch. From a stream's native thread this
    /// drives the scheduler with one run_until over the batch instead of a
    /// run_until per handle.
    void join_all_free(std::span<UnitHandle> handles);

    /// ABT_thread_yield.
    static void yield();

    /// ABT_self_get_xstream_rank: rank of the stream running the caller,
    /// or -1 from an unattached plain thread.
    static int self_xstream_rank();

    /// ABT_self_is_ult equivalent: true when running inside a ULT.
    static bool self_is_ult();

    /// ABT_thread_yield_to: hand the processor straight to `target`,
    /// skipping scheduler selection. Falls back to plain yield (returns
    /// false) if the target is not ready. Must be called from a ULT.
    static bool yield_to(UnitHandle& target);

    /// Push a custom scheduler onto stream `rank`'s scheduler stack
    /// (stackable schedulers, Table I's Argobots-only rows).
    void push_scheduler(std::size_t rank,
                        std::unique_ptr<core::Scheduler> scheduler);

    [[nodiscard]] core::Pool& pool(std::size_t idx) { return *pools_[idx]; }
    [[nodiscard]] core::Runtime& runtime() { return *runtime_; }
    [[nodiscard]] const Config& config() const { return config_; }

    /// The placement plan the initial streams were built under.
    [[nodiscard]] const arch::LocalityMap& locality() const noexcept {
        return runtime_->locality();
    }
    [[nodiscard]] std::size_t num_domains() const noexcept {
        return runtime_->locality().num_domains();
    }

    /// Aggregate steal/idle counters over every stream, including
    /// dynamically created ones (ABT_info-style introspection;
    /// sched_stats.hpp).
    [[nodiscard]] core::SchedStats sched_stats() const noexcept {
        return runtime_->sched_stats();
    }

  private:
    friend class UnitHandle;

    /// Stream `rank`'s scheduler: the shared pool (kShared), or its
    /// private pool, then its locality domain `domain`'s overflow pool,
    /// then the unpinned units of its peers' private pools (kPrivate).
    std::unique_ptr<core::Scheduler> make_scheduler(std::size_t rank,
                                                    std::size_t domain) const;
    core::WorkUnit* make_unit(UnitKind kind, core::UniqueFunction fn,
                              bool detached, int pool_idx);
    core::WorkUnit* make_unpinned(UnitKind kind, core::UniqueFunction fn);
    /// Publish the private pools as the peer set every kPrivate scheduler
    /// probes. Under pools_lock_ (or in the constructor).
    void publish_peers();
    core::WorkUnit* build_unit(UnitKind kind, core::UniqueFunction fn);
    /// Lock-free spawn-path dispatch: resolve the target pool from the
    /// thread-cached PoolView, round-robining via batched tickets.
    core::Pool* pick_target(int pool_idx);
    /// The calling thread's cached pool snapshot, refreshed (under
    /// pools_lock_) only when pool_gen_ moved — the common spawn takes
    /// zero shared RMWs here.
    const detail::PoolView& pool_view();
    /// Next round-robin ticket. Tickets are taken from rr_next_ in chunks
    /// of 16, so the shared fetch_add is paid once per chunk instead of
    /// once per spawn.
    std::size_t next_ticket();
    /// The pool feeding locality domain `domain` (with fallback to a
    /// populated domain when that one has no streams).
    core::Pool* domain_pool(std::size_t domain);

    Config config_;
    std::vector<std::unique_ptr<core::Pool>> pools_;
    /// kPrivate only: one shared MPMC *overflow* pool per locality domain,
    /// scanned by each of the domain's streams after its private pool —
    /// the landing zone for domain-targeted spawns. (kShared needs none.)
    std::vector<std::unique_ptr<core::Pool>> domain_pools_;
    std::vector<std::size_t> populated_domains_;  // domains with >= 1 stream
    /// kPrivate: every private pool, index == stream rank, as immutable
    /// snapshots; xstream_create appends one and repoints peers_. Old
    /// snapshots stay until the library dies (a scheduler may still read
    /// one), and a deque never moves its elements.
    std::deque<std::vector<core::DequePool*>> peer_sets_;
    std::atomic<const std::vector<core::DequePool*>*> peers_{nullptr};
    // After the pools (destroyed before them): its streams drain them.
    std::unique_ptr<core::Runtime> runtime_;
    std::atomic<std::size_t> rr_next_{0};
    /// Bumped (to a globally unique value) whenever pools_ changes —
    /// xstream_create under kPrivate — invalidating every thread's cached
    /// PoolView.
    std::atomic<std::uint64_t> pool_gen_{0};
    sync::Spinlock pools_lock_;  // guards pools_ growth
    // Declared LAST (destroyed first): the introspection server's ULTs
    // must drain while the streams above still run. Engaged at the end of
    // the ctor — the acceptor needs live streams to land on.
    std::optional<obs::IntrospectSession> introspect_;
};

}  // namespace lwt::abt
