// gol.hpp — Go-like personality.
//
// Reproduces §III-F/§VIII-B.5: goroutines (ULTs) stored in ONE global
// shared run queue that every scheduler thread contends on — the mutex
// contention the paper blames for Go's scaling — channels as the (only)
// synchronisation mechanism with out-of-order completion, and no public
// yield. The thread count is the GOMAXPROCS analogue.
//
// The main thread is not a scheduler thread; like the paper's Go
// microbenchmark driver it creates goroutines and blocks on channel
// receives (which cooperate by OS-yielding).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/channel.hpp"
#include "obs/introspect.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/sync_ult.hpp"
#include "core/unique_function.hpp"
#include "core/xstream.hpp"
#include "io/io.hpp"

namespace lwt::gol {

/// Re-export: Go channels are the core Channel with Go semantics.
template <typename T>
using Chan = core::Channel<T>;

/// sync.Mutex / sync.RWMutex equivalents — goroutine-suspending, not
/// stream-blocking, exactly like Go's runtime-integrated locks.
using Mutex = core::Mutex;
using RWMutex = core::RwLock;
using Cond = core::Condvar;  ///< sync.Cond

// --- netpoller surface (net.Conn / net.Listener / time.Sleep shapes) --------
//
// The reactor (core/reactor.hpp) is this runtime's netpoller: a goroutine
// blocking in Conn::read suspends and its scheduler thread runs other
// goroutines, exactly Go's behaviour. These are thin names over glt::io —
// identical objects, so gol code and glt code interoperate freely.
using Conn = ::lwt::io::Socket;
using Listener = ::lwt::io::Listener;

/// time.Sleep: suspend the calling goroutine (or park a plain thread) on
/// the reactor's timer wheel.
inline void sleep(std::chrono::nanoseconds d) { ::lwt::io::sleep_for(d); }

/// net.Dial("tcp", "127.0.0.1:port").
inline ::lwt::io::Result<Conn> dial(std::uint16_t port,
                                    ::lwt::io::Deadline deadline = {}) {
    return ::lwt::io::connect_tcp(port, deadline);
}

struct Config {
    /// Scheduler thread count (GOMAXPROCS); 0 resolves via LWT_NUM_THREADS
    /// then hardware.
    std::size_t num_threads = 0;
};

/// sync.WaitGroup equivalent (the idiomatic Go join).
class WaitGroup {
  public:
    void add(std::int64_t n = 1) noexcept { counter_.add(n); }
    void done() noexcept { counter_.signal(); }
    void wait() noexcept { counter_.wait(); }

  private:
    core::EventCounter counter_;
};

/// One initialised Go-like runtime.
class Library {
  public:
    explicit Library(Config config = {});
    Library(const Library&) = delete;
    Library& operator=(const Library&) = delete;

    [[nodiscard]] std::size_t num_threads() const {
        return runtime_->num_streams();
    }

    /// `go fn()`: spawn a goroutine into the global run queue. Goroutines
    /// are always detached; synchronise through channels or a WaitGroup.
    void go(core::UniqueFunction fn);

    /// Bulk spawn fast path: `n` goroutines running `body(i)`, enqueued
    /// into the global run queue with ONE lock acquisition and one notify
    /// instead of n — the contended-global-queue cost the paper measures
    /// for Go, amortised over the batch.
    void go_bulk(std::size_t n, const std::function<void(std::size_t)>& body);

    /// Number of goroutines currently queued (diagnostics).
    [[nodiscard]] std::size_t runqueue_len() const {
        return global_.size_hint();
    }

    /// Aggregate steal/idle counters over all scheduler threads
    /// (sched_stats.hpp).
    [[nodiscard]] core::SchedStats sched_stats() const noexcept {
        return runtime_->sched_stats();
    }

  private:
    Config config_;
    mutable core::SharedFifoPool global_;
    // After the run queue (destroyed before it): its threads drain it.
    std::unique_ptr<core::Runtime> runtime_;
    // Declared LAST (destroyed first): the introspection server's ULTs
    // must drain while the threads above still run. Engaged at the end of
    // the ctor — the acceptor needs live streams to land on.
    std::optional<obs::IntrospectSession> introspect_;
};

}  // namespace lwt::gol
