#include "glt/glt.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <utility>

#include "arch/stack.hpp"
#include "core/channel.hpp"
#include "core/observability.hpp"
#include "obs/introspect.hpp"
#include "core/reactor.hpp"
#include "core/runtime.hpp"
#include "core/sync_ult.hpp"
#include "core/trace_export.hpp"
#include "core/unit_cache.hpp"

namespace lwt::glt {

std::optional<Backend> backend_from_name(std::string_view name) noexcept {
    // Tolerate surrounding whitespace and any letter case: names usually
    // arrive via environment variables, where " Abt" is a config typo, not
    // a different backend.
    constexpr std::string_view kSpace = " \t\n\r\f\v";
    const std::size_t first = name.find_first_not_of(kSpace);
    if (first == std::string_view::npos) {
        return std::nullopt;
    }
    name = name.substr(first, name.find_last_not_of(kSpace) - first + 1);
    if (name.size() != 3) {
        return std::nullopt;
    }
    char lower[3];
    for (std::size_t i = 0; i < 3; ++i) {
        lower[i] = static_cast<char>(
            std::tolower(static_cast<unsigned char>(name[i])));
    }
    const std::string_view n(lower, 3);
    if (n == "abt") return Backend::kAbt;
    if (n == "qth") return Backend::kQth;
    if (n == "mth") return Backend::kMth;
    if (n == "cvt") return Backend::kCvt;
    if (n == "gol") return Backend::kGol;
    return std::nullopt;
}

std::string_view backend_name(Backend backend) {
    switch (backend) {
        case Backend::kAbt: return "abt";
        case Backend::kQth: return "qth";
        case Backend::kMth: return "mth";
        case Backend::kCvt: return "cvt";
        case Backend::kGol: return "gol";
    }
    return "?";
}

void Runtime::join_all(std::vector<UnitToken>& tokens) {
    join_all(std::span<UnitToken>(tokens));
}

namespace {

/// A backend's batch join: one loop over its own join, which the final
/// backend class lets the compiler call directly.
template <typename Self>
class BatchJoin : public Runtime {
  public:
    void join_all(std::span<UnitToken> tokens) final {
        for (UnitToken& t : tokens) {
            static_cast<Self*>(this)->join(t);
        }
    }
};

// --- Argobots backend ---------------------------------------------------------

class AbtGlt final : public BatchJoin<AbtGlt> {
    struct Bulk final : BulkHandle::State {
        std::vector<abt::UnitHandle> handles;
    };

  public:
    explicit AbtGlt(const abt::Config& config)
        : lib_(config), streams_(lib_.num_xstreams()) {}

    Backend backend() const override { return Backend::kAbt; }
    std::size_t num_workers() const override { return lib_.num_xstreams(); }
    Capabilities capabilities() const override {
        return {.native_tasklets = true,
                .placement_hints = true,
                .native_bulk = true,
                .yieldable = true,
                .locality_domains = lib_.num_domains()};
    }

    std::vector<std::size_t> domain_workers(std::size_t d) const override {
        if (d >= lib_.num_domains()) {
            return {};
        }
        return lib_.locality().streams_in_domain(d);
    }

    UnitToken ult_create(core::UniqueFunction fn, Placement where) override {
        return UnitToken(
            where.kind() == Placement::Kind::kDomain
                ? lib_.thread_create_domain(std::move(fn), where.index())
                : lib_.thread_create(std::move(fn), to_pool(where)));
    }

    UnitToken tasklet_create(core::UniqueFunction fn,
                             Placement where) override {
        return UnitToken(
            where.kind() == Placement::Kind::kDomain
                ? lib_.task_create_domain(std::move(fn), where.index())
                : lib_.task_create(std::move(fn), to_pool(where)));
    }

    BulkHandle spawn_bulk(std::size_t n, BulkBody fn, UnitKind kind,
                          Placement where) override {
        if (n == 0) {
            return {};
        }
        const abt::UnitKind ak = kind == UnitKind::kTasklet
                                     ? abt::UnitKind::kTasklet
                                     : abt::UnitKind::kUlt;
        auto state = std::make_shared<Bulk>();
        state->handles =
            where.kind() == Placement::Kind::kDomain
                ? lib_.create_bulk_domain(ak, n, fn, where.index())
                : lib_.create_bulk(ak, n, fn, to_pool(where));
        return BulkHandle(std::move(state), n);
    }

    void wait(BulkHandle& handle) override {
        if (auto* b = handle.state_as<Bulk>()) {
            lib_.join_all_free(b->handles);  // one run_until over the batch
            handle.reset();
        }
    }

    void yield() override { abt::Library::yield(); }

    core::SchedStats sched_stats() const override { return lib_.sched_stats(); }

    void join(UnitToken& token) override {
        if (auto* h = token.get_if<abt::UnitHandle>()) {
            h->free();  // join-and-free, the Argobots idiom
            token.reset();
        }
    }

  private:
    /// any() -> -1 (library round-robin); worker(i) -> the pool stream i
    /// takes its work from: its private pool, the shared pool, or its
    /// domain's pool.
    int to_pool(Placement where) const {
        if (where.kind() != Placement::Kind::kWorker) {
            return -1;
        }
        const std::size_t i = where.index() < streams_
                                  ? where.index()
                                  : where.index() % streams_;
        switch (lib_.config().pool_kind) {
            case abt::PoolKind::kPrivate:
                return static_cast<int>(i);
            case abt::PoolKind::kShared:
                return 0;
            case abt::PoolKind::kDomainShared:
                return static_cast<int>(lib_.locality().placement(i).domain);
        }
        return -1;
    }

    abt::Library lib_;
    /// glt adds no streams, so the count (which the library reads under a
    /// lock) is fixed at boot.
    const std::size_t streams_;
};

// --- Qthreads backend ---------------------------------------------------------

/// std::allocate_shared over the descriptor slab magazines
/// (core/unit_cache.hpp): a joined qth block goes back to the joining
/// thread's magazine, where its next create finds it, with no lock.
template <typename T>
struct UnitCacheAllocator {
    using value_type = T;
    UnitCacheAllocator() = default;
    template <typename U>
    UnitCacheAllocator(const UnitCacheAllocator<U>&) noexcept {}
    T* allocate(std::size_t n) {
        return static_cast<T*>(core::unit_cache_alloc(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t n) noexcept {
        core::unit_cache_free(p, n * sizeof(T));
    }
    template <typename U>
    bool operator==(const UnitCacheAllocator<U>&) const noexcept {
        return true;
    }
};

class QthGlt final : public BatchJoin<QthGlt> {
    /// A unit's FEB return word and its body in one block, shared by the
    /// token and the running unit: a dropped token cannot free the word
    /// before the unit fills it.
    struct Unit {
        qth::aligned_t word = 0;
        core::UniqueFunction fn;
    };
    struct Bulk final : BulkHandle::State {
        qth::Sinc sinc;  // qt_sinc: the native aggregate join
    };

  public:
    explicit QthGlt(const qth::Config& config)
        : lib_(config),
          workers_(lib_.num_workers()),
          per_shepherd_(workers_ / lib_.num_shepherds()) {}

    Backend backend() const override { return Backend::kQth; }
    std::size_t num_workers() const override { return lib_.num_workers(); }
    Capabilities capabilities() const override {
        return {.native_tasklets = false,
                .placement_hints = true,
                .native_bulk = true,
                .yieldable = true,
                .locality_domains = lib_.num_domains()};
    }

    std::vector<std::size_t> domain_workers(std::size_t d) const override {
        if (d >= lib_.num_domains()) {
            return {};
        }
        return lib_.locality().streams_in_domain(d);
    }

    UnitToken ult_create(core::UniqueFunction fn, Placement where) override {
        auto unit = std::allocate_shared<Unit>(UnitCacheAllocator<Unit>{}, 0,
                                               std::move(fn));
        qth::aligned_t* word = &unit->word;
        lib_.purge(word);  // EMPTY until the unit fills it
        // The unit fills the word itself, so the fork keeps this small
        // closure inline and the block stands in for the heap closure of a
        // native fork with a return word. The body runs from the ULT's
        // frame, so its captures die with the unit, as on the native path.
        auto run = [this, unit] {
            core::UniqueFunction body = std::move(unit->fn);
            body();
            lib_.write_f(&unit->word, 1);
        };
        if (where.kind() == Placement::Kind::kDomain) {
            lib_.fork_to_domain(std::move(run), nullptr, where.index());
        } else {
            lib_.fork_to(std::move(run), nullptr, shepherd_for(where));
        }
        return UnitToken(std::shared_ptr<qth::aligned_t>(std::move(unit), word));
    }

    UnitToken tasklet_create(core::UniqueFunction fn,
                             Placement where) override {
        // Table I: Qthreads has no tasklet type; degrade to a ULT.
        return ult_create(std::move(fn), where);
    }

    BulkHandle spawn_bulk(std::size_t n, BulkBody fn, UnitKind /*kind*/,
                          Placement where) override {
        // Everything is a ULT; fork_bulk block-distributes over shepherds,
        // fork_bulk_domain pins the batch to one package's shared queue.
        // A worker() hint applies to the whole batch via its shepherd.
        if (n == 0) {
            return {};
        }
        auto state = std::make_shared<Bulk>();
        qth::Sinc& sinc = state->sinc;
        const BulkBody body = [fn = std::move(fn), state](std::size_t i) {
            fn(i);
        };
        if (where.kind() == Placement::Kind::kDomain) {
            lib_.fork_bulk_domain(n, body, sinc, where.index());
        } else if (where.kind() == Placement::Kind::kWorker) {
            const std::size_t shepherd = shepherd_for(where);
            sinc.expect(static_cast<std::int64_t>(n));
            for (std::size_t i = 0; i < n; ++i) {
                lib_.fork_to([body, &sinc, i] { body(i); sinc.submit(); },
                             nullptr, shepherd);
            }
        } else {
            lib_.fork_bulk(n, body, sinc);
        }
        return BulkHandle(std::move(state), n);
    }

    void wait(BulkHandle& handle) override {
        if (auto* b = handle.state_as<Bulk>()) {
            b->sinc.wait();
            handle.reset();
        }
    }

    void yield() override { qth::Library::yield(); }

    core::SchedStats sched_stats() const override { return lib_.sched_stats(); }

    void join(UnitToken& token) override {
        if (auto* word = token.get_if<std::shared_ptr<qth::aligned_t>>()) {
            lib_.read_ff(word->get());  // the qthreads join primitive
            token.reset();
        }
    }

  private:
    /// worker(i) -> worker i's shepherd (workers are numbered shepherd by
    /// shepherd); any() -> round-robin over shepherds.
    std::size_t shepherd_for(Placement where) {
        if (where.kind() == Placement::Kind::kWorker) {
            const std::size_t i = where.index() < workers_
                                      ? where.index()
                                      : where.index() % workers_;
            return per_shepherd_ == 1 ? i : i / per_shepherd_;
        }
        return rr_++ % lib_.num_shepherds();
    }

    qth::Library lib_;
    /// Fixed at boot, like abt's stream count.
    const std::size_t workers_;
    const std::size_t per_shepherd_;
    std::atomic<std::size_t> rr_{0};
};

// --- MassiveThreads backend ----------------------------------------------------

class MthGlt final : public BatchJoin<MthGlt> {
    struct Bulk final : BulkHandle::State {
        core::EventCounter done;
    };

  public:
    explicit MthGlt(const mth::Config& config) : lib_(config) {}

    Backend backend() const override { return Backend::kMth; }
    std::size_t num_workers() const override { return lib_.num_workers(); }
    Capabilities capabilities() const override {
        return {.native_tasklets = false,
                .placement_hints = false,
                .native_bulk = true,
                .yieldable = true};
    }

    UnitToken ult_create(core::UniqueFunction fn,
                         Placement /*where*/) override {
        // MassiveThreads places work via its creation policy + stealing;
        // there is no explicit target (Table I: no cross-queue creation).
        return UnitToken(lib_.create(std::move(fn)));
    }

    UnitToken tasklet_create(core::UniqueFunction fn,
                             Placement where) override {
        return ult_create(std::move(fn), where);
    }

    BulkHandle spawn_bulk(std::size_t n, BulkBody fn, UnitKind /*kind*/,
                          Placement /*where*/) override {
        if (n == 0) {
            return {};
        }
        auto state = std::make_shared<Bulk>();
        lib_.create_bulk_detached(
            n, [fn = std::move(fn), state](std::size_t i) { fn(i); },
            state->done);
        return BulkHandle(std::move(state), n);
    }

    void wait(BulkHandle& handle) override {
        if (auto* b = handle.state_as<Bulk>()) {
            lib_.wait_counter(b->done);
            handle.reset();
        }
    }

    void yield() override { mth::Library::yield(); }

    core::SchedStats sched_stats() const override { return lib_.sched_stats(); }

    void join(UnitToken& token) override {
        if (auto* h = token.get_if<mth::ThreadHandle>()) {
            h->join();
            token.reset();
        }
    }

  private:
    mth::Library lib_;
};

// --- Converse backend -------------------------------------------------------------

class CvtGlt final : public BatchJoin<CvtGlt> {
    struct Bulk final : BulkHandle::State {
        core::EventCounter done;
    };

  public:
    explicit CvtGlt(const cvt::Config& config) : lib_(config) {}

    Backend backend() const override { return Backend::kCvt; }
    std::size_t num_workers() const override { return lib_.num_pes(); }
    Capabilities capabilities() const override {
        return {.native_tasklets = true,
                .placement_hints = true,
                .native_bulk = true,
                .yieldable = true,
                .locality_domains = lib_.num_domains()};
    }

    std::vector<std::size_t> domain_workers(std::size_t d) const override {
        if (d >= lib_.num_domains()) {
            return {};
        }
        return lib_.locality().streams_in_domain(d);
    }

    UnitToken ult_create(core::UniqueFunction fn, Placement where) override {
        // As in the paper's microbenchmarks, cross-PE work travels as
        // Messages; ULT semantics degrade to message execution for remote
        // targets (Converse restricts Cth threads to their home PE).
        return tasklet_create(std::move(fn), where);
    }

    UnitToken tasklet_create(core::UniqueFunction fn,
                             Placement where) override {
        auto done = std::make_shared<std::atomic<bool>>(false);
        lib_.send_message(pick_pe(where),
                          [body = std::move(fn), done]() mutable {
                              body();
                              done->store(true, std::memory_order_release);
                          });
        return UnitToken(std::move(done));
    }

    BulkHandle spawn_bulk(std::size_t n, BulkBody fn, UnitKind /*kind*/,
                          Placement where) override {
        // Every unit is a Message regardless of kind; send_bulk groups
        // them round-robin and pushes one batch per PE queue
        // (send_bulk_domain restricts the recipients to one package's
        // PEs). A worker() hint sends the whole batch to that PE.
        if (n == 0) {
            return {};
        }
        auto state = std::make_shared<Bulk>();
        state->done.add(static_cast<std::int64_t>(n));
        auto body = [fn = std::move(fn), state](std::size_t i) {
            fn(i);
            state->done.signal();
        };
        if (where.kind() == Placement::Kind::kDomain) {
            lib_.send_bulk_domain(n, body, where.index());
        } else if (where.kind() == Placement::Kind::kWorker) {
            const std::size_t pe = where.index() % lib_.num_pes();
            for (std::size_t i = 0; i < n; ++i) {
                lib_.send_message(pe, [body, i] { body(i); });
            }
        } else {
            lib_.send_bulk(n, body);
        }
        return BulkHandle(std::move(state), n);
    }

    void wait(BulkHandle& handle) override {
        if (auto* b = handle.state_as<Bulk>()) {
            // Direct handoff: the last message's signal() wakes us; from
            // PE 0's attached thread the wait keeps draining the scheduler
            // (EventCounter::wait), preserving Converse return-mode
            // semantics without the polled predicate.
            b->done.wait();
            handle.reset();
        }
    }

    void yield() override { cvt::Library::cth_yield(); }

    core::SchedStats sched_stats() const override { return lib_.sched_stats(); }

    void join(UnitToken& token) override {
        if (auto* done = token.get_if<std::shared_ptr<std::atomic<bool>>>()) {
            lib_.scheduler_run_until(
                [done] { return (*done)->load(std::memory_order_acquire); });
            token.reset();
        }
    }

  private:
    /// Resolve a placement to one PE: worker(i) -> PE i, domain(d) ->
    /// round-robin over the domain's PEs (Converse queues are strictly
    /// per-PE, so domain targeting is recipient choice), any() ->
    /// round-robin over all PEs. Empty/out-of-range domains degrade to
    /// the all-PE rotation.
    std::size_t pick_pe(Placement where) {
        if (where.kind() == Placement::Kind::kWorker) {
            return where.index() % lib_.num_pes();
        }
        if (where.kind() == Placement::Kind::kDomain &&
            where.index() < lib_.num_domains()) {
            const auto& pes = lib_.locality().streams_in_domain(where.index());
            if (!pes.empty()) {
                return pes[rr_++ % pes.size()];
            }
        }
        return rr_++ % lib_.num_pes();
    }

    cvt::Library lib_;
    std::atomic<std::size_t> rr_{0};
};

// --- Go backend --------------------------------------------------------------------

class GolGlt final : public BatchJoin<GolGlt> {
    struct Bulk final : BulkHandle::State {
        core::EventCounter done;  // sync.WaitGroup: one counter per batch
    };

  public:
    explicit GolGlt(const gol::Config& config) : lib_(config) {}

    Backend backend() const override { return Backend::kGol; }
    std::size_t num_workers() const override { return lib_.num_threads(); }
    Capabilities capabilities() const override {
        return {.native_tasklets = false,
                .placement_hints = false,
                .native_bulk = true,
                .yieldable = false};
    }

    UnitToken ult_create(core::UniqueFunction fn,
                         Placement /*where*/) override {
        // One global queue: placement hints are meaningless in Go. The
        // join is a channel receive (Table II row 5).
        auto done = std::make_shared<core::Channel<int>>(1);
        lib_.go([body = std::move(fn), done]() mutable {
            body();
            done->send(1);
        });
        return UnitToken(std::move(done));
    }

    UnitToken tasklet_create(core::UniqueFunction fn,
                             Placement where) override {
        return ult_create(std::move(fn), where);
    }

    BulkHandle spawn_bulk(std::size_t n, BulkBody fn, UnitKind /*kind*/,
                          Placement /*where*/) override {
        if (n == 0) {
            return {};
        }
        auto state = std::make_shared<Bulk>();
        state->done.add(static_cast<std::int64_t>(n));
        lib_.go_bulk(n, [body = std::move(fn), state](std::size_t i) {
            body(i);
            state->done.signal();
        });
        return BulkHandle(std::move(state), n);
    }

    void wait(BulkHandle& handle) override {
        if (auto* b = handle.state_as<Bulk>()) {
            b->done.wait();  // main thread OS-yields; workers drain
            handle.reset();
        }
    }

    void yield() override {
        // Go exposes no yield (Table I); cooperate only inside a unit.
        if (core::Ult::current() != nullptr) {
            core::Ult::current()->yield();
        }
    }

    core::SchedStats sched_stats() const override { return lib_.sched_stats(); }

    void join(UnitToken& token) override {
        if (auto* done = token.get_if<std::shared_ptr<core::Channel<int>>>()) {
            (*done)->recv();
            token.reset();
        }
    }

  private:
    gol::Library lib_;
};

}  // namespace

std::unique_ptr<Runtime> Runtime::create(Backend backend,
                                         std::size_t num_workers) {
    switch (backend) {
        case Backend::kAbt:
            return create(abt::Config{.num_xstreams = num_workers});
        case Backend::kQth:
            // One worker per shepherd: the paper's preferred layout.
            return create(qth::Config{.num_shepherds = num_workers,
                                      .workers_per_shepherd = 1});
        case Backend::kMth:
            // Help-first: GLT creation happens from the main thread, outside
            // any ULT, where work-first has no continuation to displace.
            return create(mth::Config{.num_workers = num_workers,
                                      .policy = mth::Policy::kHelpFirst});
        case Backend::kCvt:
            return std::make_unique<CvtGlt>(cvt::Config{.num_pes = num_workers});
        case Backend::kGol:
            return std::make_unique<GolGlt>(
                gol::Config{.num_threads = num_workers});
    }
    throw std::invalid_argument("unknown GLT backend enum value");
}

std::unique_ptr<Runtime> Runtime::create(const abt::Config& config) {
    return std::make_unique<AbtGlt>(config);
}

std::unique_ptr<Runtime> Runtime::create(const qth::Config& config) {
    return std::make_unique<QthGlt>(config);
}

std::unique_ptr<Runtime> Runtime::create(const mth::Config& config) {
    return std::make_unique<MthGlt>(config);
}

std::unique_ptr<Runtime> Runtime::create_from_env() {
    return init(RuntimeOptions::from_env());
}

RuntimeOptions RuntimeOptions::from_env() {
    RuntimeOptions opts;
    if (const char* name = std::getenv("GLT_BACKEND")) {
        if (auto parsed = backend_from_name(name)) {
            opts.backend = *parsed;
        }
    }
    // Only GLT_NUM_WORKERS is honoured; the legacy GLT_WORKERS alias was
    // dropped in v2.
    if (const char* count = std::getenv("GLT_NUM_WORKERS")) {
        char* end = nullptr;
        const unsigned long parsed = std::strtoul(count, &end, 10);
        if (end != count && *end == '\0') {
            opts.workers = static_cast<std::size_t>(parsed);
        }
    }
    return opts;
}

std::unique_ptr<Runtime> init(const RuntimeOptions& opts) {
    // Install the programmatic defaults BEFORE creating the backend: the
    // personalities read them during boot (topology discovery, stack pool
    // sizing, idle-ladder selection). Each subsystem defers to its env var
    // when set; empty/nullopt fields clear a default a previous init()
    // installed, so successive boots see exactly these options.
    arch::set_default_topology_spec(opts.topology);
    arch::set_default_bind_policy(opts.bind);
    arch::set_default_stack_cache(opts.stack_cache);
    arch::set_default_stack_huge(opts.stack_huge);
    core::set_default_idle_policy(opts.idle);
    core::observability_set_defaults(opts.trace_sink, opts.metrics_sink);
    obs::set_introspect_defaults(opts.introspect_addr, opts.watchdog_ms);
    if (opts.io_poller && std::getenv("LWT_IO_POLLER") == nullptr) {
        core::Reactor::global().set_poller_enabled(*opts.io_poller);
    }
    return Runtime::create(opts.backend, opts.workers);
}

std::string introspect_addr() { return obs::introspect_bound_addr(); }

Stats stats() {
    return {core::Tracer::instance().stats(),
            core::Metrics::instance().unit_metrics()};
}

void trace_begin() {
    auto& tracer = core::Tracer::instance();
    auto& metrics = core::Metrics::instance();
    tracer.clear();
    metrics.reset();
    tracer.enable();
    metrics.enable();
}

bool trace_end(const std::string& path) {
    auto& tracer = core::Tracer::instance();
    core::Metrics::instance().disable();
    tracer.disable();
    bool ok = true;
    if (!path.empty()) {
        ok = core::write_chrome_trace_file(path, tracer.snapshot());
    }
    tracer.clear();  // free the window's events; histograms are kept
    return ok;
}

}  // namespace lwt::glt
