#include "abt/abt.hpp"

#include <atomic>
#include <cassert>
#include <span>
#include <utility>

#include "arch/audit.hpp"
#include "core/join.hpp"
#include "core/ult.hpp"
#include "core/xstream.hpp"

namespace lwt::abt {

// --- UnitHandle --------------------------------------------------------------

UnitHandle::UnitHandle(UnitHandle&& other) noexcept
    : unit_(std::exchange(other.unit_, nullptr)) {}

UnitHandle& UnitHandle::operator=(UnitHandle&& other) noexcept {
    if (this != &other) {
        free();
        unit_ = std::exchange(other.unit_, nullptr);
    }
    return *this;
}

core::Ult* UnitHandle::ult() const noexcept {
    if (unit_ != nullptr && unit_->kind == core::Kind::kUlt) {
        return static_cast<core::Ult*>(unit_);
    }
    return nullptr;
}

void UnitHandle::join() {
    if (unit_ == nullptr) {
        return;
    }
    // Direct-handoff join (core/join.hpp): register in the unit's joiner
    // slot and get woken by the terminating stream — with join-stealing of
    // still-queued units handled inside.
    core::join_unit(unit_);
}

void UnitHandle::free() {
    if (unit_ == nullptr) {
        return;
    }
    join();
    // Join-and-free: reclaim the structure — the extra work the paper
    // notes Argobots does during joins without losing performance. The
    // descriptor returns to the slab magazines via the class-scoped
    // operator delete. A ULT's stack is already back in the default
    // source: the stream that finished it recycled it.
    delete unit_;
    unit_ = nullptr;
}

namespace {

// One shared copy of a bulk body, refcounted by hand: the count starts at
// `n`, so building each closure costs zero atomics on the (timed) creation
// path — the decrements happen when the closures die on the worker
// streams. A shared_ptr capture would pay an atomic increment per unit
// right at creation.
struct BulkBlock {
    std::function<void(std::size_t)> fn;
    std::atomic<std::size_t> refs;
};
struct BodyRef {
    BulkBlock* blk;
    explicit BodyRef(BulkBlock* b) noexcept : blk(b) {}
    BodyRef(BodyRef&& o) noexcept : blk(std::exchange(o.blk, nullptr)) {}
    BodyRef(const BodyRef& o) noexcept : blk(o.blk) {
        if (blk != nullptr) {
            blk->refs.fetch_add(1, std::memory_order_relaxed);
        }
    }
    BodyRef& operator=(const BodyRef&) = delete;
    BodyRef& operator=(BodyRef&&) = delete;
    ~BodyRef() {
        if (blk != nullptr &&
            blk->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            delete blk;
        }
    }
};

/// Monotonic generation source shared by every Library: a refreshed
/// PoolView can never collide with a stale one, even when a new Library
/// reuses a destroyed one's address (the cached `owner` pointer alone
/// would ABA).
std::atomic<std::uint64_t> g_pool_gen_source{1};

std::uint64_t next_pool_gen() noexcept {
    return g_pool_gen_source.fetch_add(1, std::memory_order_relaxed);
}

/// Round-robin tickets handed out this many at a time per thread. A chunk
/// of consecutive tickets still rotates the dispatch pools evenly — the
/// batching only changes how often the shared counter is touched.
constexpr std::size_t kTicketChunk = 16;

struct TicketBlock {
    const void* owner = nullptr;
    std::size_t next = 0;
    std::size_t end = 0;
};
thread_local TicketBlock tl_tickets;

using PeerSet = std::vector<core::DequePool*>;

/// kPrivate stream scheduler: the stream's own pools in order (its private
/// pool, then its domain's shared pool), then the oldest unpinned unit
/// queued in a peer's private pool. The probe starts at the next rank, so
/// thieves spread over the peers, and passes a peer whose unpinned count
/// reads 0 with one load, uncounted; a probe that finds the count nonzero
/// counts as a steal attempt, flat (package tier) like an untiered
/// core::StealingScheduler.
class PrivateScheduler final : public core::Scheduler {
  public:
    PrivateScheduler(std::vector<core::Pool*> pools, std::size_t rank,
                     const std::atomic<const PeerSet*>& peers)
        : Scheduler(std::move(pools)), rank_(rank), peers_(peers) {}

    core::WorkUnit* next() override {
        if (core::WorkUnit* unit = Scheduler::next()) {
            return unit;
        }
        return take_from_peer();
    }

    /// A peer's unpinned unit is work for this stream too, so the idle
    /// ladder never parks beside one: the push that queued it counted it
    /// before notifying the lot.
    [[nodiscard]] bool has_work() const override {
        if (Scheduler::has_work()) {
            return true;
        }
        for (const core::DequePool* peer :
             *peers_.load(std::memory_order_acquire)) {
            if (peer != main_pool() && peer->unpinned_hint() != 0) {
                return true;
            }
        }
        return false;
    }

  private:
    core::WorkUnit* take_from_peer() {
        // The set holds every stream's pool, ours at rank_, so k = 1 ..
        // n - 1 visits each peer once.
        const PeerSet& peers = *peers_.load(std::memory_order_acquire);
        const std::size_t n = peers.size();
        for (std::size_t k = 1; k < n; ++k) {
            core::DequePool* peer = peers[(rank_ + k) % n];
            if (peer->unpinned_hint() == 0) {
                continue;
            }
            core::WorkUnit* unit = peer->take_unpinned();
            if (stats_ != nullptr) {
                stats_->count_probe(
                    static_cast<std::size_t>(arch::StealTier::kPackage),
                    unit != nullptr);
            }
            if (unit != nullptr) {
                return unit;
            }
        }
        return nullptr;
    }

    const std::size_t rank_;
    const std::atomic<const PeerSet*>& peers_;
};

}  // namespace

namespace detail {

/// Per-thread snapshot of a Library's dispatch state, valid while the
/// library's pool_gen_ matches. Spawns resolve their target pool here
/// with zero shared RMWs.
struct PoolView {
    const void* owner = nullptr;
    std::uint64_t gen = 0;
    std::vector<core::Pool*> all;  // index-aligned with Library::pools_
};

namespace {
thread_local PoolView tl_pool_view;
}  // namespace

}  // namespace detail

// --- Library -----------------------------------------------------------------

Library::Library(Config config) : config_(config) {
    pool_gen_.store(next_pool_gen(), std::memory_order_relaxed);
    const std::size_t n = core::Runtime::resolve_stream_count(
        config_.num_xstreams, "LWT_NUM_STREAMS");
    config_.num_xstreams = n;
    arch::LocalityMap locality(arch::Topology::from_env_or_discover(),
                               arch::resolve_bind_policy(), n);
    for (std::size_t d = 0; d < locality.num_domains(); ++d) {
        if (!locality.streams_in_domain(d).empty()) {
            populated_domains_.push_back(d);
        }
    }
    switch (config_.pool_kind) {
        case PoolKind::kShared:
            pools_.push_back(std::make_unique<core::MpmcPool>());
            break;
        case PoolKind::kPrivate:
            for (std::size_t i = 0; i < n; ++i) {
                pools_.push_back(std::make_unique<core::DequePool>(
                    core::DequePool::PopOrder::kFifo));
            }
            publish_peers();
            // Per-domain overflow pools behind the private pools: where
            // domain-targeted (and glt Placement::domain) spawns land.
            for (std::size_t d = 0; d < locality.num_domains(); ++d) {
                domain_pools_.push_back(std::make_unique<core::MpmcPool>());
            }
            break;
    }
    // Snapshot each rank's domain before the map moves into the Runtime —
    // the factory runs during Runtime construction, before runtime_ is
    // assigned.
    std::vector<std::size_t> dom_of(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        dom_of[i] = locality.placement(i).domain;
    }
    runtime_ = std::make_unique<core::Runtime>(
        n,
        [this, &dom_of](unsigned rank) {
            return make_scheduler(rank, dom_of[rank]);
        },
        std::move(locality), core::Runtime::Primary::kAdoptCaller);
    introspect_.emplace();
}

std::unique_ptr<core::Scheduler> Library::make_scheduler(
    std::size_t rank, std::size_t domain) const {
    if (config_.pool_kind == PoolKind::kShared) {
        return std::make_unique<core::Scheduler>(
            std::vector<core::Pool*>{pools_.front().get()});
    }
    return std::make_unique<PrivateScheduler>(
        std::vector<core::Pool*>{pools_[rank].get(),
                                 domain_pools_[domain].get()},
        rank, peers_);
}

void Library::publish_peers() {
    PeerSet& peers = peer_sets_.emplace_back();
    peers.reserve(pools_.size());
    for (const auto& p : pools_) {
        peers.push_back(static_cast<core::DequePool*>(p.get()));
    }
    peers_.store(&peers, std::memory_order_release);
}

std::size_t Library::xstream_create() {
    std::lock_guard guard(pools_lock_);
    // Ranks are dense and pools_lock_ serialises creation: the new stream
    // takes the next one, and under kPrivate pools_[rank] is its pool.
    const std::size_t rank = runtime_->num_streams();
    if (config_.pool_kind == PoolKind::kPrivate) {
        pools_.push_back(
            std::make_unique<core::DequePool>(core::DequePool::PopOrder::kFifo));
        publish_peers();  // before the stream runs: it probes the new set
    }
    // Dynamic streams have no placement of their own: they join the first
    // populated domain, so they scan every pool that all the streams of a
    // one-domain map share (Runtime::add_stream needs that).
    const std::size_t added = runtime_->add_stream(
        make_scheduler(rank, populated_domains_.front()));
    assert(added == rank);
    // pools_ may have grown: invalidate every thread's cached PoolView.
    pool_gen_.store(next_pool_gen(), std::memory_order_release);
    return added;
}

const detail::PoolView& Library::pool_view() {
    detail::PoolView& v = detail::tl_pool_view;
    const std::uint64_t gen = pool_gen_.load(std::memory_order_acquire);
    if (v.owner == this && v.gen == gen) {
        return v;  // the common spawn: no lock, no shared RMW
    }
    if (arch::audit::enabled()) {
        arch::audit::count_rmw();  // refresh pays the lock once per change
    }
    std::lock_guard guard(pools_lock_);
    v.all.clear();
    v.all.reserve(pools_.size());
    for (const auto& p : pools_) {
        v.all.push_back(p.get());
    }
    v.owner = this;
    // Re-read under the lock: a concurrent xstream_create between the
    // first load and here republishes a newer gen, forcing a re-refresh.
    v.gen = pool_gen_.load(std::memory_order_relaxed);
    return v;
}

std::size_t Library::next_ticket() {
    TicketBlock& t = tl_tickets;
    if (t.owner != this || t.next == t.end) {
        if (arch::audit::enabled()) {
            arch::audit::count_rmw();  // one fetch_add per chunk of spawns
        }
        const std::size_t base =
            rr_next_.fetch_add(kTicketChunk, std::memory_order_relaxed);
        t.owner = this;
        t.next = base;
        t.end = base + kTicketChunk;
    }
    return t.next++;
}

core::Pool* Library::pick_target(int pool_idx) {
    const detail::PoolView& v = pool_view();
    if (pool_idx >= 0 && static_cast<std::size_t>(pool_idx) < v.all.size()) {
        return v.all[static_cast<std::size_t>(pool_idx)];
    }
    return v.all[next_ticket() % v.all.size()];
}

core::Pool* Library::domain_pool(std::size_t domain) {
    const arch::LocalityMap& map = runtime_->locality();
    std::size_t d = domain;
    if (d >= map.num_domains() || map.streams_in_domain(d).empty()) {
        d = populated_domains_.empty() ? 0 : populated_domains_.front();
    }
    if (config_.pool_kind == PoolKind::kShared) {
        return pools_.front().get();  // one pool: every domain is it
    }
    return domain_pools_[d].get();
}

core::WorkUnit* Library::build_unit(UnitKind kind, core::UniqueFunction fn) {
    if (kind == UnitKind::kTasklet) {
        return new core::Tasklet(std::move(fn));
    }
    // Stack from the process-wide pooled source, recycled by the stream
    // that finishes the ULT. Descriptor itself comes from the slab
    // magazines.
    return new core::Ult(std::move(fn));
}

core::WorkUnit* Library::make_unit(UnitKind kind, core::UniqueFunction fn,
                                   bool detached, int pool_idx) {
    core::WorkUnit* unit = build_unit(kind, std::move(fn));
    unit->detached = detached;
    pick_target(pool_idx)->push(unit);
    return unit;
}

core::WorkUnit* Library::make_unpinned(UnitKind kind,
                                       core::UniqueFunction fn) {
    core::WorkUnit* unit = build_unit(kind, std::move(fn));
    core::Pool* own = nullptr;
    if (config_.pool_kind == PoolKind::kPrivate) {
        if (core::XStream* stream = core::XStream::current()) {
            // One of our streams iff the pool at its rank is the one its
            // scheduler serves first: pools of another library, or a
            // pushed scheduler with pools of its own, never match.
            const detail::PoolView& v = pool_view();
            if (stream->rank() < v.all.size() &&
                v.all[stream->rank()] == stream->scheduler().main_pool()) {
                own = v.all[stream->rank()];
            }
        }
    }
    if (own == nullptr) {
        pick_target(-1)->push(unit);
        return unit;
    }
    unit->unpinned = true;
    own->push(unit);
    return unit;
}

UnitHandle Library::thread_create_unpinned(core::UniqueFunction fn) {
    return UnitHandle(make_unpinned(UnitKind::kUlt, std::move(fn)));
}

UnitHandle Library::task_create_unpinned(core::UniqueFunction fn) {
    return UnitHandle(make_unpinned(UnitKind::kTasklet, std::move(fn)));
}

UnitHandle Library::thread_create(core::UniqueFunction fn, int pool_idx) {
    return UnitHandle(
        make_unit(UnitKind::kUlt, std::move(fn), false, pool_idx));
}

UnitHandle Library::task_create(core::UniqueFunction fn, int pool_idx) {
    return UnitHandle(
        make_unit(UnitKind::kTasklet, std::move(fn), false, pool_idx));
}

UnitHandle Library::thread_create_domain(core::UniqueFunction fn,
                                         std::size_t domain) {
    core::WorkUnit* unit = build_unit(UnitKind::kUlt, std::move(fn));
    domain_pool(domain)->push(unit);
    return UnitHandle(unit);
}

UnitHandle Library::task_create_domain(core::UniqueFunction fn,
                                       std::size_t domain) {
    core::WorkUnit* unit = build_unit(UnitKind::kTasklet, std::move(fn));
    domain_pool(domain)->push(unit);
    return UnitHandle(unit);
}

void Library::thread_create_detached(core::UniqueFunction fn, int pool_idx) {
    make_unit(UnitKind::kUlt, std::move(fn), true, pool_idx);
}

void Library::task_create_detached(core::UniqueFunction fn, int pool_idx) {
    make_unit(UnitKind::kTasklet, std::move(fn), true, pool_idx);
}

std::vector<UnitHandle> Library::create_bulk(
    UnitKind kind, std::size_t n,
    const std::function<void(std::size_t)>& body, int pool_idx) {
    std::vector<UnitHandle> handles;
    handles.reserve(n);
    if (n == 0) {
        return handles;
    }
    // Resolve the target pools once for the whole batch from the cached
    // PoolView — no lock unless the topology changed since last refresh.
    const detail::PoolView& view = pool_view();
    std::vector<core::Pool*> targets;
    if (pool_idx >= 0 &&
        static_cast<std::size_t>(pool_idx) < view.all.size()) {
        targets.push_back(view.all[static_cast<std::size_t>(pool_idx)]);
    } else {
        targets = view.all;
    }
    const std::size_t npools = targets.size();
    auto* blk = new BulkBlock{body, {n}};
    std::vector<core::WorkUnit*> units;
    units.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        core::UniqueFunction fn(
            [ref = BodyRef(blk), i] { ref.blk->fn(i); });
        core::WorkUnit* unit = build_unit(kind, std::move(fn));
        units.push_back(unit);
        handles.push_back(UnitHandle(unit));
    }
    // One contiguous slice per pool (rotated across calls so successive
    // batches start on different streams), one enqueue burst + one notify
    // per pool for the whole batch.
    const std::size_t start = next_ticket() % npools;
    const std::span<core::WorkUnit* const> all(units);
    for (std::size_t p = 0; p < npools; ++p) {
        const std::size_t lo = p * n / npools;
        const std::size_t hi = (p + 1) * n / npools;
        if (lo < hi) {
            targets[(start + p) % npools]->push_bulk(all.subspan(lo, hi - lo));
        }
    }
    return handles;
}

std::vector<UnitHandle> Library::create_bulk_domain(
    UnitKind kind, std::size_t n,
    const std::function<void(std::size_t)>& body, std::size_t domain) {
    std::vector<UnitHandle> handles;
    handles.reserve(n);
    if (n == 0) {
        return handles;
    }
    auto* blk = new BulkBlock{body, {n}};
    std::vector<core::WorkUnit*> units;
    units.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        core::UniqueFunction fn(
            [ref = BodyRef(blk), i] { ref.blk->fn(i); });
        core::WorkUnit* unit = build_unit(kind, std::move(fn));
        units.push_back(unit);
        handles.push_back(UnitHandle(unit));
    }
    // The whole batch lands on one package: one enqueue burst, one notify,
    // and every consumer shares that socket's cache hierarchy.
    domain_pool(domain)->push_bulk(units);
    return handles;
}

void Library::join_all_free(std::span<UnitHandle> handles) {
    // Direct handoff over the batch: one countdown EventCounter. Each
    // pending unit registers the counter in its joiner slot; its
    // terminating stream signals on publish, and the LAST signal wakes us
    // directly (EventCounter::wait suspends a ULT caller or parks a native
    // one while still draining its pools). Zero polling of n flags.
    core::EventCounter done;
    for (UnitHandle& h : handles) {
        if (!h.valid()) {
            continue;
        }
        done.add(1);
        if (!core::register_counter_joiner(h.unit_, &done)) {
            done.signal();  // already terminated: balance the count
        }
    }
    done.wait();
    for (UnitHandle& h : handles) {
        h.free();  // all units published; free() hits the join fast path
    }
}

void Library::yield() { core::yield_anywhere(); }

int Library::self_xstream_rank() {
    core::XStream* stream = core::XStream::current();
    return stream != nullptr ? static_cast<int>(stream->rank()) : -1;
}

bool Library::self_is_ult() { return core::Ult::current() != nullptr; }

bool Library::yield_to(UnitHandle& target) {
    core::Ult* ult = target.ult();
    assert(core::Ult::current() != nullptr &&
           "ABT_thread_yield_to requires ULT context");
    return core::yield_to(ult);
}

void Library::push_scheduler(std::size_t rank,
                             std::unique_ptr<core::Scheduler> scheduler) {
    assert(rank < runtime_->num_streams());
    runtime_->stream(rank).push_scheduler(std::move(scheduler));
}

}  // namespace lwt::abt
