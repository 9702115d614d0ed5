// cvt.hpp — Converse Threads-like personality.
//
// Reproduces §III-B/§VIII-B.1: processors (PEs), each with a private
// work-unit queue; two unit types — Cth ULTs (local to their PE) and
// stackless Messages, the only units that may be pushed into *another*
// PE's queue (CmiSyncSend with a round-robin dispatch is how the paper's
// microbenchmarks distribute work); completion via a barrier, which is why
// the paper sees Converse join times grow linearly with PEs; and the
// "return mode" scheduler (CsdScheduler) that the main thread drives
// explicitly.
//
// PE 0 is the calling (main) thread, as in Converse: it only executes work
// while inside scheduler_run_until()/barrier().
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

namespace lwt::cvt {

/// PE pinning comes from LWT_BIND or glt::RuntimeOptions::bind
/// (arch::resolve_bind_policy). Converse has no shared queues, so locality
/// only affects which PEs domain-targeted sends pick.
struct Config {
    /// Number of processors (PEs); 0 resolves via LWT_NUM_PES then hardware.
    std::size_t num_pes = 0;
};

/// Converse-flavoured synchronisation: CmiNodeLock-shaped mutual exclusion
/// and the CthSemaphore counting semaphore, both suspend-based (a blocked
/// Cth thread yields its PE instead of spinning it).
using Mutex = core::Mutex;          ///< CmiNodeLock (PE-blocking variant)
using Semaphore = core::Semaphore;  ///< CthSemaphore

/// Handle to a Cth ULT (CthThread).
class CthHandle {
  public:
    CthHandle() noexcept = default;
    CthHandle(CthHandle&& other) noexcept
        : ult_(std::exchange(other.ult_, nullptr)) {}
    CthHandle& operator=(CthHandle&& other) noexcept;
    CthHandle(const CthHandle&) = delete;
    CthHandle& operator=(const CthHandle&) = delete;
    ~CthHandle();

    /// Wait for the ULT and reclaim it.
    void join();

    [[nodiscard]] bool valid() const noexcept { return ult_ != nullptr; }
    [[nodiscard]] core::Ult* ult() const noexcept { return ult_; }

  private:
    friend class Library;
    explicit CthHandle(core::Ult* ult) noexcept : ult_(ult) {}
    core::Ult* ult_ = nullptr;
};

/// One initialised Converse-like runtime (ConverseInit .. ConverseExit,
/// return mode).
class Library {
  public:
    explicit Library(Config config = {});
    Library(const Library&) = delete;
    Library& operator=(const Library&) = delete;

    [[nodiscard]] std::size_t num_pes() const { return pools_.size(); }

    /// CmiSyncSend: enqueue a stackless Message onto PE `pe`'s queue. The
    /// only cross-PE work transfer Converse allows before execution.
    void send_message(std::size_t pe, core::UniqueFunction handler);

    /// Convenience round-robin broadcast of `count` messages (the paper's
    /// dispatch pattern). Each message runs `handler(i)`.
    void send_round_robin(std::size_t count,
                          const std::function<void(std::size_t)>& handler);

    /// Bulk send fast path: `count` messages running `handler(i)`, grouped
    /// round-robin and submitted with ONE Pool::push_bulk per PE queue.
    /// The handler is shared, not copied per message.
    void send_bulk(std::size_t count,
                   const std::function<void(std::size_t)>& handler);

    /// Bulk send confined to locality domain `domain`: messages are
    /// round-robined over that package's PEs only (Converse's queues are
    /// strictly per-PE, so domain targeting is a choice of recipients, not
    /// a shared pool). Domains with no PEs fall back to every PE.
    void send_bulk_domain(std::size_t count,
                          const std::function<void(std::size_t)>& handler,
                          std::size_t domain);

    /// The placement plan the PEs were built under.
    [[nodiscard]] const arch::LocalityMap& locality() const noexcept {
        return runtime_->locality();
    }
    [[nodiscard]] std::size_t num_domains() const noexcept {
        return runtime_->locality().num_domains();
    }

    /// CthCreate: a ULT on the *current* PE (PE 0 when called from main).
    /// Cth threads cannot be pushed to other PEs.
    CthHandle cth_create(core::UniqueFunction fn);

    /// CthYield.
    static void cth_yield();

    /// CsdScheduler in return mode: drive PE 0's scheduler on the calling
    /// thread until `pred()` holds.
    template <typename Pred>
    void scheduler_run_until(Pred&& pred) {
        runtime_->primary().run_until(std::forward<Pred>(pred));
    }

    /// Completion barrier over all PEs: every PE (including PE 0, driven by
    /// the caller) must drain its queue and check in. This is the linear-
    /// cost join mechanism the paper measures for Converse Threads.
    void barrier();

    /// Outstanding-message counter helpers for message-counting joins.
    void msg_track_begin(std::size_t expected);
    void msg_signal();
    /// Drive PE 0 until all tracked messages completed.
    void msg_wait();

    /// CmiReduce-style global reduction: every PE contributes
    /// `contrib(pe)`; returns the sum after all PEs (PE 0 driven by the
    /// caller) have checked in.
    double reduce_sum(const std::function<double(std::size_t)>& contrib);

    /// Broadcast a handler to every PE (CmiSyncBroadcastAll): runs once per
    /// PE, including PE 0 (executed while the caller drives its scheduler).
    /// Returns after all PEs ran it.
    void broadcast(const std::function<void(std::size_t)>& handler);

    /// Aggregate steal/idle counters over all PEs including PE 0
    /// (sched_stats.hpp).
    [[nodiscard]] core::SchedStats sched_stats() const noexcept {
        return runtime_->sched_stats();
    }

  private:
    Config config_;
    std::vector<std::unique_ptr<core::DequePool>> pools_;
    core::EventCounter tracked_;
    // After the queues and the message counter (destroyed before them):
    // its PEs drain the queues, and messages may still signal tracked_.
    std::unique_ptr<core::Runtime> runtime_;
    // Declared LAST (destroyed first): the introspection server's ULTs
    // must drain while the PEs above still run. Engaged at the end of
    // the ctor — the acceptor needs live streams to land on.
    std::optional<obs::IntrospectSession> introspect_;
};

}  // namespace lwt::cvt
