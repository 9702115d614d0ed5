// glt.hpp — the common lightweight-thread API the paper's conclusion
// proposes as future work ("we plan to design and implement a common API
// for the LWT libraries"; the authors later published it as GLT).
//
// The API surface is the reduced function set of Table II / Listing 4,
// shown there to suffice for every parallel pattern studied:
//
//   initialization  ULT creation  tasklet creation  yield  join  finalize
//
// v2 extends that set with the bulk fast path (spawn_bulk/wait): one call
// creates a whole batch of units through the backend's native batched
// submission (one pool push + one wakeup per target queue) and one call
// joins the batch through the backend's native aggregate-join primitive
// (sinc, event counter, batched run_until, ...). A Capabilities struct
// replaces the ad-hoc feature predicates so callers can query the Table I
// feature matrix uniformly.
//
// glt::Runtime is a runtime-dispatch wrapper selected by enum or name
// (e.g. from GLT_BACKEND), so one binary can host every backend — which is
// how the benchmark harness sweeps libraries. Code that fixes its backend
// at compile time should use the personality APIs directly (lwt::abt &c.);
// they are the zero-overhead path this layer adapts.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "abt/abt.hpp"
#include "arch/topology.hpp"
#include "core/channel.hpp"
#include "core/future.hpp"
#include "core/join.hpp"
#include "core/metrics.hpp"
#include "core/sched_stats.hpp"
#include "core/sync_ult.hpp"
#include "core/trace.hpp"
#include "core/unique_function.hpp"
#include "cvt/cvt.hpp"
#include "gol/gol.hpp"
#include "io/io.hpp"
#include "mth/mth.hpp"
#include "qth/qth.hpp"
#include "sync/idle_backoff.hpp"

namespace lwt::glt {

/// The async-I/O surface (reactor-backed sockets, timers, deadlines) under
/// its GLT-level name: glt::io::Socket, glt::io::sleep_for, ... — see
/// docs/io_reactor.md. Identical under every backend (the reactor wakes
/// core ULTs, which is what all five personalities run).
namespace io = ::lwt::io;

/// Backends a GLT instance can sit on.
enum class Backend {
    kAbt,  ///< Argobots-like
    kQth,  ///< Qthreads-like
    kMth,  ///< MassiveThreads-like
    kCvt,  ///< Converse-Threads-like
    kGol,  ///< Go-like
};

/// Parse a backend name ("abt", "qth", "mth", "cvt", "gol"). Matching is
/// case-insensitive and ignores surrounding whitespace, so an environment
/// like GLT_BACKEND=" Abt" still selects abt instead of silently falling
/// back to the default. Empty optional on anything else.
[[nodiscard]] std::optional<Backend> backend_from_name(
    std::string_view name) noexcept;
std::string_view backend_name(Backend backend);

// --- Blocking synchronisation family (docs/sync.md) -------------------------
//
// Backend-independent by construction: every backend's units are core ULTs,
// so the core:: suspend-based primitives work identically under all five —
// a blocked unit suspends through its scheduler (the stream keeps running
// other units) and a plain-thread caller parks. These are the GLT-level
// names; each personality also re-exports its native subset (abt::Mutex,
// gol::Chan, mth::Cond, cvt::Semaphore, qthreads-style FEB words on
// qth::Library).
using Mutex = core::Mutex;
using Condvar = core::Condvar;
using RwLock = core::RwLock;
using Semaphore = core::Semaphore;
using Barrier = core::UltBarrier;
template <typename T>
using Channel = core::Channel<T>;
template <typename T>
using Future = core::Future<T>;

/// Typed placement hint for creation calls — replaces the v1 raw
/// `int where` (whose -1/index encoding could not say "this package").
///
///   Placement::any()       backend picks (round-robin where natural)
///   Placement::worker(i)   a specific worker/shepherd/PE's queue
///   Placement::domain(d)   any worker of locality domain (package) d —
///                          lands in the backend's per-package shared pool
///                          where it has one (abt, qth), or on the
///                          domain's workers (cvt)
///
/// Backends without placement_hints ignore the hint entirely (mth, gol);
/// capabilities().locality_domains says whether domain() is meaningful.
class Placement {
  public:
    enum class Kind {
        kAny,
        kWorker,
        kDomain,
    };

    /// Default: no preference (== any()).
    constexpr Placement() noexcept = default;

    [[nodiscard]] static constexpr Placement any() noexcept { return {}; }
    [[nodiscard]] static constexpr Placement worker(std::size_t i) noexcept {
        return Placement(Kind::kWorker, i);
    }
    [[nodiscard]] static constexpr Placement domain(std::size_t d) noexcept {
        return Placement(Kind::kDomain, d);
    }

    /// Adapter for the deprecated v1 encoding: negative -> any(), else
    /// worker(where).
    [[nodiscard]] static constexpr Placement from_where(int where) noexcept {
        return where < 0 ? any()
                         : worker(static_cast<std::size_t>(where));
    }

    [[nodiscard]] constexpr Kind kind() const noexcept { return kind_; }
    /// Worker or domain index; 0 for any().
    [[nodiscard]] constexpr std::size_t index() const noexcept {
        return index_;
    }

    [[nodiscard]] constexpr bool is_any() const noexcept {
        return kind_ == Kind::kAny;
    }

    friend constexpr bool operator==(const Placement& a,
                                     const Placement& b) noexcept {
        return a.kind_ == b.kind_ && a.index_ == b.index_;
    }

  private:
    constexpr Placement(Kind kind, std::size_t index) noexcept
        : kind_(kind), index_(index) {}

    Kind kind_ = Kind::kAny;
    std::size_t index_ = 0;
};

/// What a backend natively supports — the queryable subset of the paper's
/// Table I feature matrix. Callers branch on this instead of hard-coding
/// backend names.
struct Capabilities {
    /// tasklet_create / spawn_bulk(kTasklet) map to a genuine stackless
    /// unit (Table I row "tasklets": abt, cvt).
    bool native_tasklets = false;
    /// `where` hints actually target a specific worker/queue (abt pools,
    /// qth shepherds, cvt PEs; mth and gol ignore them).
    bool placement_hints = false;
    /// spawn_bulk batches pool submission (one enqueue burst + one wakeup
    /// per target queue) rather than looping over unit creation.
    bool native_bulk = false;
    /// yield() reschedules from unit context (Go exposes no yield).
    bool yieldable = false;
    /// Locality domains (packages) Placement::domain() can target; 0 when
    /// the backend has no domain routing (mth steals freely, gol has one
    /// global queue).
    std::size_t locality_domains = 0;
};

/// Work-unit flavour for spawn_bulk, mirroring Table I's two unit types.
/// Backends without the requested flavour degrade exactly as the scalar
/// creation calls do (tasklet -> ULT on qth/mth/gol).
enum class UnitKind {
    kUlt,
    kTasklet,
};

/// Body of a bulk spawn: invoked as fn(i) for i in [0, n). Shared by all
/// units of the batch, not copied per unit.
using BulkBody = std::function<void(std::size_t)>;

/// Opaque join token returned by creation calls.
class UnitToken;
/// Opaque aggregate join handle returned by spawn_bulk.
class BulkHandle;
class Runtime;

/// Programmatic runtime configuration — the one place the LWT_* / GLT_*
/// environment knobs appear as typed fields (docs/api.md has the full
/// table). Every field follows the same contract: the matching environment
/// variable, when set, ALWAYS wins over the programmatic value, so an
/// operator can re-route a deployed binary without a rebuild; the
/// programmatic value replaces only the built-in default.
///
///   RuntimeOptions opts;
///   opts.backend = Backend::kGol;
///   opts.workers = 4;
///   opts.metrics_sink = "run.json";
///   auto rt = glt::init(opts);
struct RuntimeOptions {
    /// Backend to instantiate (GLT_BACKEND).
    Backend backend = Backend::kAbt;
    /// Execution streams / shepherds / workers / PEs (GLT_NUM_WORKERS;
    /// 0 = per-backend resolution, usually the hardware thread count).
    std::size_t workers = 0;
    /// Synthetic topology spec, e.g. "2x4" = 2 packages x 4 PUs
    /// (LWT_TOPOLOGY); empty = discover the real machine.
    std::string topology;
    /// Thread-pinning policy (LWT_BIND); nullopt = backend default.
    std::optional<arch::BindPolicy> bind;
    /// Join protocol, handoff vs poll (LWT_JOIN); nullopt = handoff.
    std::optional<core::JoinMode> join;
    /// Idle-stream ladder policy (LWT_IDLE_POLICY); nullopt = backoff.
    std::optional<sync::IdlePolicy> idle;
    /// Free-stack cap of the default ULT stack source (LWT_STACK_CACHE);
    /// nullopt = 1024.
    std::optional<std::size_t> stack_cache;
    /// Back ULT stacks with transparent huge pages — MADV_HUGEPAGE on the
    /// usable range, guard page intact (LWT_STACK_HUGE); nullopt = off.
    /// Falls back gracefully where THP is unavailable (the denial count is
    /// the alloc.stack.thp_denied gauge).
    std::optional<bool> stack_huge;
    /// Trace sink: path for the Chrome-trace JSON (LWT_TRACE); empty = off.
    std::string trace_sink;
    /// Metrics sink: "1" = stderr table, "*.json" = table + JSON dump
    /// (LWT_METRICS); empty = off.
    std::string metrics_sink;
    /// Run the dedicated reactor poller thread (LWT_IO_POLLER); nullopt =
    /// on. With it off, I/O readiness is only discovered by idle streams.
    std::optional<bool> io_poller;
    /// Introspection HTTP endpoint, "127.0.0.1:PORT" / ":PORT" / "PORT"
    /// (LWT_INTROSPECT); port 0 picks a free port — read it back with
    /// glt::introspect_addr(). Empty = off. Loopback only.
    std::string introspect_addr;
    /// Stall-watchdog sampling interval in ms (LWT_WATCHDOG_MS);
    /// nullopt/0 = off.
    std::optional<std::uint32_t> watchdog_ms;

    /// Backend + worker count from GLT_BACKEND / GLT_NUM_WORKERS (the two
    /// knobs without a programmatic-default channel of their own); all
    /// other fields stay at their defaults — the LWT_* variables reach the
    /// subsystems directly whether or not they pass through here.
    [[nodiscard]] static RuntimeOptions from_env();
};

/// Boot a runtime from RuntimeOptions: installs the programmatic defaults
/// into the subsystems (topology, binding, stacks, idle ladder, join mode,
/// observability sinks, reactor poller) — each deferring to its
/// environment variable when set — then creates the backend. The defaults
/// are process-wide and persist for later runtimes too (they are defaults,
/// not per-instance state); call again to change them.
std::unique_ptr<Runtime> init(const RuntimeOptions& opts = {});

/// Runtime-dispatch GLT instance: Table II's six rows as virtual calls,
/// plus the v2 bulk extension.
///
/// Semantics follow the least common denominator the paper identifies:
/// work units are created from the main thread (or any unit), joined
/// explicitly, and each backend maps the call onto its native mechanism —
/// e.g. join() is ABT_thread_free for abt, readFF for qth, myth_join for
/// mth, message-counting for cvt, and a channel receive for gol.
class Runtime {
  public:
    /// `num_workers` = execution streams / shepherds / workers / PEs /
    /// scheduler threads, uniformly (0 = resolve per backend env).
    static std::unique_ptr<Runtime> create(Backend backend,
                                           std::size_t num_workers = 0);

    /// Build from the environment — a thin wrapper over
    /// init(RuntimeOptions::from_env()): GLT_BACKEND selects the backend
    /// ("abt" when unset or unrecognised; name matching is case- and
    /// whitespace-insensitive), GLT_NUM_WORKERS the worker count (0 =
    /// per-backend default). The legacy GLT_WORKERS alias is no longer
    /// consulted.
    static std::unique_ptr<Runtime> create_from_env();

    virtual ~Runtime() = default;

    [[nodiscard]] virtual Backend backend() const = 0;
    [[nodiscard]] virtual std::size_t num_workers() const = 0;

    /// The backend's native feature set (Table I, queryable).
    [[nodiscard]] virtual Capabilities capabilities() const = 0;

    /// Worker indices belonging to locality domain `d` — the streams a
    /// Placement::domain(d) spawn may land on. Empty when the backend has
    /// no domain routing or `d` is out of range.
    [[nodiscard]] virtual std::vector<std::size_t> domain_workers(
        std::size_t /*d*/) const {
        return {};
    }

    /// ULT creation (Table II row 2). `where` hints placement; any() lets
    /// the backend pick (round-robin where natural), worker(i) targets a
    /// specific queue, domain(d) any worker of package d.
    virtual UnitToken ult_create(core::UniqueFunction fn,
                                 Placement where = {}) = 0;

    /// Tasklet creation (Table II row 3). Backends without a stackless
    /// unit type (qth, mth, gol) fall back to a ULT, which is exactly what
    /// the paper's Table I says those libraries offer.
    virtual UnitToken tasklet_create(core::UniqueFunction fn,
                                     Placement where = {}) = 0;

    /// Bulk creation fast path (v2): spawn `n` units running `fn(i)` as a
    /// single batch. Backends with native_bulk build the whole batch and
    /// submit it with one enqueue burst + one wakeup per target queue;
    /// completion is tracked by the backend's aggregate mechanism, not one
    /// token per unit. `where` as in ult_create; it applies to the whole
    /// batch (domain(d) submits everything to package d's shared pool).
    /// n == 0 yields an invalid handle (wait on it is a no-op).
    virtual BulkHandle spawn_bulk(std::size_t n, BulkBody fn,
                                  UnitKind kind = UnitKind::kUlt,
                                  Placement where = {}) = 0;

    /// Join a batch created by spawn_bulk, reclaiming it. Cooperative from
    /// unit context where the backend allows; callable from the main
    /// thread everywhere.
    virtual void wait(BulkHandle& handle) = 0;

    /// Cooperative yield (Table II row 4). Go has none; its implementation
    /// is a no-op from plain code and a scheduler yield inside a unit.
    virtual void yield() = 0;

    /// Join one unit (Table II row 5), reclaiming it.
    virtual void join(UnitToken& token) = 0;

    /// Join a batch of scalar tokens (the common epilogue of Listing 4).
    void join_all(std::span<UnitToken> tokens);
    /// Convenience overload for vector callers.
    void join_all(std::vector<UnitToken>& tokens);

    /// Aggregate steal/idle counters over the backend's workers — the
    /// uniform introspection surface every personality exposes natively
    /// (ABT_info, Qthreads hooks, ...) mapped onto one signature.
    [[nodiscard]] virtual core::SchedStats sched_stats() const = 0;

  protected:
    Runtime() = default;
};

/// Process-wide observability snapshot returned by glt::stats().
struct Stats {
    /// Lifecycle event counts (create/start/yield/block/wake/finish) plus
    /// the ring-overwrite total; zero unless tracing is on.
    core::TraceStats trace;
    /// Per-stream queue-dwell / execution / wake-latency histograms in TSC
    /// ticks; empty unless metrics recording is on.
    std::vector<core::StreamUnitMetrics> unit_latency;
};

/// Snapshot the process-wide recorders. Data accumulates while recording
/// is armed — either by the LWT_TRACE / LWT_METRICS environment switches
/// (core/observability.hpp) or by an explicit trace_begin().
[[nodiscard]] Stats stats();

/// Begin a manual recording window: clears prior data and enables the
/// process tracer and the unit-latency metrics, independent of the env
/// switches. Affects all backends in the process (the recorders are
/// process-wide singletons).
void trace_begin();

/// End the window started by trace_begin(): disables the recorders and
/// writes the captured events as Chrome-trace JSON (Perfetto-loadable) to
/// `path` (empty path: discard the events). Latency histograms are kept
/// so stats() remains meaningful after the window closes. Returns false
/// on IO failure.
bool trace_end(const std::string& path);

/// Address the live introspection endpoint is serving on
/// ("127.0.0.1:PORT"), or "" when LWT_INTROSPECT /
/// RuntimeOptions::introspect_addr did not enable it. Useful with port 0
/// (auto-pick) and in banners/logs.
std::string introspect_addr();

/// Join token implementation detail: type-erased state with a deleter.
class UnitToken {
  public:
    UnitToken() noexcept = default;
    UnitToken(UnitToken&&) noexcept = default;
    UnitToken& operator=(UnitToken&&) noexcept = default;

    [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

    /// Backend-private payload.
    struct State {
        virtual ~State() = default;
    };

    explicit UnitToken(std::unique_ptr<State> state) noexcept
        : state_(std::move(state)) {}

    template <typename T>
    [[nodiscard]] T* state_as() const noexcept {
        return static_cast<T*>(state_.get());
    }

    void reset() noexcept { state_.reset(); }

  private:
    std::unique_ptr<State> state_;
};

/// Aggregate join handle: one type-erased completion record for a whole
/// batch (a handle vector, a sinc, an event counter, ... — whatever the
/// backend's native bulk join is).
class BulkHandle {
  public:
    BulkHandle() noexcept = default;
    BulkHandle(BulkHandle&&) noexcept = default;
    BulkHandle& operator=(BulkHandle&&) noexcept = default;

    [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
    /// Units in the batch (0 for an invalid handle).
    [[nodiscard]] std::size_t size() const noexcept { return count_; }

    /// Backend-private payload.
    struct State {
        virtual ~State() = default;
    };

    explicit BulkHandle(std::unique_ptr<State> state,
                        std::size_t count) noexcept
        : state_(std::move(state)), count_(count) {}

    template <typename T>
    [[nodiscard]] T* state_as() const noexcept {
        return static_cast<T*>(state_.get());
    }

    void reset() noexcept {
        state_.reset();
        count_ = 0;
    }

  private:
    std::unique_ptr<State> state_;
    std::size_t count_ = 0;
};

}  // namespace lwt::glt
