// qth.hpp — Qthreads-like personality.
//
// Reproduces the model from §III-D/§VIII-B.3: a three-level hierarchy of
// Shepherds (each owning a work-unit queue) and Workers (OS threads bound to
// a shepherd that execute units from its queue), full/empty-bit word
// synchronisation used both for data sync and for joins (qthread_readFF on
// the return word), and the fork/fork_to pair whose only difference is which
// shepherd's queue receives the new ULT.
//
// The paper's two surviving layouts are expressible directly:
//   * one shepherd for the whole node: Config{1, N}
//   * one shepherd per CPU:            Config{N, 1}
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <memory>
#include <optional>
#include <vector>

#include "arch/locality.hpp"
#include "arch/topology.hpp"
#include "obs/introspect.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/sync_ult.hpp"
#include "core/unique_function.hpp"
#include "core/xstream.hpp"
#include "qth/feb.hpp"
#include "sync/spinlock.hpp"

namespace lwt::qth {

struct Config {
    /// Number of shepherds (queues). 0 resolves via LWT_NUM_SHEPHERDS, then
    /// the hardware thread count.
    std::size_t num_shepherds = 0;
    /// Workers (OS threads) per shepherd. 0 resolves via
    /// LWT_NUM_WORKERS_PER_SHEPHERD, then 1.
    std::size_t workers_per_shepherd = 0;
    /// Bind workers to CPUs (Qthreads binds shepherds/workers to hardware;
    /// §III-D). kCompact fills cores in order, kScatter spreads sockets.
    arch::BindPolicy bind = arch::BindPolicy::kNone;
};

/// qt_sinc-like completion counter: a scalable way to wait for N
/// contributions, optionally aggregating a value per contribution
/// (Qthreads uses sincs to implement its loops and reductions).
///
/// Built on core::EventCounter since the direct-handoff join PR: the last
/// submit() wakes the waiter directly (ULT wake / thread unpark) instead
/// of a polled countdown.
class Sinc {
  public:
    /// Expect `n` more submissions.
    void expect(std::int64_t n) noexcept { done_.add(n); }

    /// One contribution with an optional summed value. Value-less
    /// submissions (the bulk-join common case) skip the sum lock entirely.
    void submit(double value = 0.0) {
        if (value != 0.0) {
            std::lock_guard g(lock_);
            sum_ += value;
        }
        done_.signal();
    }

    /// Cooperatively wait until every expected submission arrived; returns
    /// the aggregated sum.
    double wait();

    [[nodiscard]] std::int64_t remaining() const noexcept {
        return done_.value();
    }

    /// Rearm for reuse (qt_sinc_reset).
    void reset() noexcept {
        done_.reset();
        std::lock_guard g(lock_);
        sum_ = 0.0;
    }

  private:
    core::EventCounter done_;
    mutable sync::Spinlock lock_;
    double sum_ = 0.0;
};

/// One initialised Qthreads-like runtime (qthread_initialize ..
/// qthread_finalize). The calling (main) thread is *not* a worker; as in
/// the paper's microbenchmarks it only creates work and joins via readFF.
class Library {
  public:
    /// Task signature: returns the value stored to the return word.
    using Fn = core::UniqueFunction;

    explicit Library(Config config = {});
    Library(const Library&) = delete;
    Library& operator=(const Library&) = delete;

    [[nodiscard]] std::size_t num_shepherds() const { return pools_.size(); }
    [[nodiscard]] std::size_t num_workers() const {
        return runtime_->num_streams();
    }

    /// The placement plan the workers were built under (worker rank =
    /// shepherd * workers_per_shepherd + worker).
    [[nodiscard]] const arch::LocalityMap& locality() const noexcept {
        return runtime_->locality();
    }
    [[nodiscard]] std::size_t num_domains() const noexcept {
        return runtime_->locality().num_domains();
    }

    /// qthread_fork: spawn a ULT into the *current* shepherd's queue (the
    /// shepherd of the calling worker, or shepherd 0 from outside). When
    /// `ret` is non-null the word is emptied now and filled with 1 when the
    /// ULT completes — join with read_ff(ret).
    void fork(Fn fn, aligned_t* ret);

    /// qthread_fork_to: same, but into shepherd `shepherd`'s queue — the
    /// round-robin dispatch the paper found necessary for load balance.
    void fork_to(Fn fn, aligned_t* ret, std::size_t shepherd);

    /// Fork into locality domain `domain`'s shared overflow queue: any
    /// worker whose shepherd sits on that package may run it (Qthreads'
    /// socket-level binding granularity, §III-D). Domains with no workers
    /// fall back to the first populated one.
    void fork_to_domain(Fn fn, aligned_t* ret, std::size_t domain);

    /// Bulk fork fast path: spawn `n` ULTs running `body(i)`, block-
    /// distributed round-robin over shepherds, submitted with ONE
    /// Pool::push_bulk per shepherd queue. Completion is reported through
    /// `sinc` (expect(n) is called here); join with sinc.wait(). This is
    /// the qt_sinc idiom Qthreads builds its loops on, minus the
    /// one-readFF-per-task join cost.
    void fork_bulk(std::size_t n, const std::function<void(std::size_t)>& body,
                   Sinc& sinc);

    /// Bulk fork pinned to one locality domain: the whole batch goes to
    /// the domain's shared overflow queue with a single push_bulk, so only
    /// that package's workers consume it.
    void fork_bulk_domain(std::size_t n,
                          const std::function<void(std::size_t)>& body,
                          Sinc& sinc, std::size_t domain);

    /// qthread_yield.
    static void yield();

    // Full/empty-bit operations (qthread_readFF and friends). Blocking
    // variants cooperate with the scheduler: a waiting ULT yields its
    // worker instead of spinning it.
    aligned_t read_ff(const aligned_t* addr);
    aligned_t read_fe(aligned_t* addr);
    void write_ef(aligned_t* addr, aligned_t value);
    void write_f(aligned_t* addr, aligned_t value);
    void purge(aligned_t* addr);
    [[nodiscard]] bool is_full(const aligned_t* addr);

    /// qt_loop: execute fn(i) for i in [start, stop) as one ULT per
    /// shepherd (block distribution), blocking until done.
    void loop(std::size_t start, std::size_t stop,
              const std::function<void(std::size_t)>& fn);

    /// qt_loopaccum-style reduction: sums fn(i) over [start, stop).
    double loop_accum_sum(std::size_t start, std::size_t stop,
                          const std::function<double(std::size_t)>& fn);

    /// Aggregate steal/idle counters over all workers (the introspection
    /// Qthreads exposes through its performance hooks; sched_stats.hpp).
    [[nodiscard]] core::SchedStats sched_stats() const noexcept {
        return runtime_->sched_stats();
    }

  private:
    std::size_t current_shepherd() const;
    core::Pool* domain_queue(std::size_t domain);
    /// A detached ULT running `fn`, which fills `ret` (when non-null) once
    /// `fn` returns.
    core::Ult* make_ult(Fn fn, aligned_t* ret);

    Config config_;
    FebTable feb_;
    std::vector<std::unique_ptr<core::DequePool>> pools_;  // one per shepherd
    /// One shared MPMC overflow queue per locality domain, scanned by the
    /// domain's workers after their shepherd queue; the landing zone for
    /// fork_to_domain / fork_bulk_domain.
    std::vector<std::unique_ptr<core::Pool>> domain_pools_;
    std::vector<std::size_t> populated_domains_;  // domains with >= 1 worker
    // After the queues and the FEB table (destroyed before them): its
    // workers drain the queues and their ULTs fill FEB words.
    std::unique_ptr<core::Runtime> runtime_;
    // Declared LAST (destroyed first): the introspection server's ULTs
    // must drain while the workers above still run. Engaged at the end of
    // the ctor — the acceptor needs live streams to land on.
    std::optional<obs::IntrospectSession> introspect_;
};

}  // namespace lwt::qth
