// runtime.hpp — bootstrap/teardown shared by the personalities.
//
// Every library in the paper exposes the same life cycle (Table II row
// "Initialization"/"Finalization"); this class is its one implementation,
// behind all five personalities: size the descriptor allocator to the
// topology, build one scheduler per stream through a caller-supplied
// factory, give every stream the idle ladder and the parking lot its pools
// wake, start the streams, and drain/stop them at destruction. The
// libraries differ in one thing, who drives stream 0 (the *primary*;
// see Primary):
//   * abt, mth, cvt: the program's main thread is stream 0, driven by
//     explicit progress()/run_until() calls and by waits that drain it —
//     the paper's main thread that creates work and joins;
//   * qth, gol: the main thread is not a worker; stream 0 gets a dedicated
//     OS thread like every other stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/metrics.hpp"
#include "core/observability.hpp"
#include "core/trace.hpp"
#include "core/xstream.hpp"
#include "sync/idle_backoff.hpp"
#include "sync/parking_lot.hpp"
#include "sync/spinlock.hpp"

namespace lwt::core {

/// Programmatic default for the streams' idle policy, consulted by Runtime
/// construction when LWT_IDLE_POLICY is unset (the env var always wins —
/// glt::RuntimeOptions plumbing, see arch/topology.hpp). Applies to
/// runtimes booted after the call; nullopt clears.
void set_default_idle_policy(std::optional<sync::IdlePolicy> policy);

class Runtime {
  public:
    /// Builds the scheduler for stream `rank` (0 = primary).
    using SchedulerFactory =
        std::function<std::unique_ptr<Scheduler>(unsigned rank)>;

    /// Who drives stream 0. Each personality fixes it (see the file
    /// comment); it is not a user setting.
    enum class Primary : std::uint8_t {
        kAdoptCaller,      ///< the constructing thread becomes stream 0
        kDedicatedThread,  ///< stream 0 gets its own OS thread too
    };

    /// Create `num_streams` streams (>= 1) over a flat single-domain map.
    /// Streams 1..n-1 get dedicated OS threads; stream 0 adopts the
    /// calling thread.
    ///
    /// `idle` selects the streams' idle ladder (spin/backoff/park; see
    /// docs/idle_loop.md); LWT_IDLE_POLICY=spin|backoff|park overrides the
    /// policy field. The runtime owns a ParkingLot and attaches it as the
    /// waker of every pool reachable through the schedulers, so kPark
    /// works out of the box.
    Runtime(std::size_t num_streams, const SchedulerFactory& factory,
            sync::IdleConfig idle = {});

    /// Locality-aware form: `locality` (an arch::LocalityMap over the same
    /// stream count) sizes the descriptor allocator's depot tier, stamps
    /// each stream's placement, and — when locality.should_bind() — pins
    /// every stream's OS thread (including an adopted calling thread) to
    /// its planned CPU before the scheduling loop runs. The factory
    /// typically derives pool views or tiered victim lists from the same
    /// map, read before it moves in here.
    Runtime(std::size_t num_streams, const SchedulerFactory& factory,
            arch::LocalityMap locality, Primary primary,
            sync::IdleConfig idle = {});
    ~Runtime();
    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;

    /// Streams so far, add_stream() ones included.
    [[nodiscard]] std::size_t num_streams() const noexcept {
        std::lock_guard guard(streams_lock_);
        return streams_.size();
    }
    [[nodiscard]] XStream& stream(std::size_t i) noexcept {
        std::lock_guard guard(streams_lock_);
        return *streams_[i];
    }
    [[nodiscard]] XStream& primary() noexcept { return stream(0); }

    /// Start one more stream while running (Argobots' ABT_xstream_create)
    /// with the same idle ladder and lot as the boot streams; returns its
    /// rank. Pools the runtime has not seen yet get the lot as waker and
    /// broadcast on push. A pool every existing stream shares wakes one
    /// stream per push (Pool::WakeMode::kOne), so `scheduler` must see it
    /// too. The new stream has no placement of its own and is not pinned.
    std::size_t add_stream(std::unique_ptr<Scheduler> scheduler);

    /// Resolve a stream count request: explicit value, else the env var
    /// (e.g. "LWT_NUM_STREAMS"), else the hardware thread count.
    static std::size_t resolve_stream_count(std::size_t requested,
                                            const char* env_var);

    /// The lot idle streams park on; pools created outside the schedulers
    /// can be wired to it with Pool::set_waker.
    [[nodiscard]] sync::ParkingLot& parking_lot() noexcept { return lot_; }

    /// The placement plan the streams were built under (a flat single-domain
    /// map when the locality-blind constructor was used).
    [[nodiscard]] const arch::LocalityMap& locality() const noexcept {
        return locality_;
    }

    /// Sum of every stream's steal/idle counters (see sched_stats.hpp),
    /// plus the lot's herd-wakeup savings (Pool::WakeMode::kOne).
    [[nodiscard]] SchedStats sched_stats() const noexcept {
        SchedStats total;
        {
            std::lock_guard guard(streams_lock_);
            for (const auto& s : streams_) {
                total += s->sched_stats();
            }
        }
        total.wakeups_avoided += lot_.wakeups_avoided();
        return total;
    }
    void reset_sched_stats() noexcept {
        std::lock_guard guard(streams_lock_);
        for (auto& s : streams_) {
            s->reset_sched_stats();
        }
    }

    /// Zero ALL telemetry in one call: every stream's SchedCounters, the
    /// process tracer, the per-stream unit-latency histograms, and the
    /// registry values — so benches can scope measurement to exactly the
    /// region after this call (the manual per-stream path is bug-prone:
    /// forgetting one stream skews aggregate rates).
    void reset_stats() noexcept {
        reset_sched_stats();
        lot_.reset_wake_stats();
        Tracer::instance().clear();
        Metrics::instance().reset();
        MetricsRegistry::instance().reset_values();
    }

  private:
    /// A stream with the runtime's idle ladder, lot and (boot streams
    /// only) planned placement.
    std::unique_ptr<XStream> make_stream(unsigned rank,
                                         std::unique_ptr<Scheduler> scheduler);

    // Declared first so it detaches LAST: the shutdown flush (LWT_TRACE /
    // LWT_METRICS, see observability.hpp) must run after the streams have
    // stopped recording.
    ObservabilitySession obs_session_;
    sync::ParkingLot lot_;
    arch::LocalityMap locality_;  // before streams_: bind hooks reference it
    sync::IdleConfig idle_;  // LWT_IDLE_POLICY / programmatic default applied
    // Guards streams_ and wired_pools_ against add_stream() growing them
    // while other threads read the stream list.
    mutable sync::Spinlock streams_lock_;
    std::vector<std::unique_ptr<XStream>> streams_;
    std::vector<Pool*> wired_pools_;
};

}  // namespace lwt::core
