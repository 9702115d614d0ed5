#include "core/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "arch/cpu.hpp"
#include "core/unit_cache.hpp"

namespace lwt::core {

namespace {
std::atomic<int> g_default_idle_policy{-1};  // -1 = no programmatic default
}  // namespace

void set_default_idle_policy(std::optional<sync::IdlePolicy> policy) {
    g_default_idle_policy.store(
        policy ? static_cast<int>(*policy) : -1, std::memory_order_relaxed);
}

Runtime::Runtime(std::size_t num_streams, const SchedulerFactory& factory,
                 sync::IdleConfig idle)
    : Runtime(num_streams, factory,
              arch::LocalityMap::flat(num_streams == 0 ? 1 : num_streams),
              Primary::kAdoptCaller, idle) {}

Runtime::Runtime(std::size_t num_streams, const SchedulerFactory& factory,
                 arch::LocalityMap locality, Primary primary,
                 sync::IdleConfig idle)
    : locality_(std::move(locality)), idle_(idle) {
    if (num_streams == 0) {
        num_streams = 1;
    }
    // Size the descriptor allocator's depot tier to this topology's
    // domains before any stream runs: spawns and frees on one package
    // exchange magazines there.
    unit_cache_configure_domains(locality_.num_domains());
    if (const char* env = std::getenv("LWT_IDLE_POLICY")) {
        idle_.policy = sync::idle_policy_from_string(env, idle_.policy);
    } else if (const int def =
                   g_default_idle_policy.load(std::memory_order_relaxed);
               def >= 0) {
        idle_.policy = static_cast<sync::IdlePolicy>(def);
    }
    // Streams from `first` on get a dedicated OS thread.
    const std::size_t first = primary == Primary::kAdoptCaller ? 1 : 0;
    streams_.reserve(num_streams);
    for (std::size_t i = 0; i < num_streams; ++i) {
        const auto rank = static_cast<unsigned>(i);
        streams_.push_back(make_stream(rank, factory(rank)));
        if (i >= first && locality_.should_bind()) {
            // Dedicated threads pin themselves before their loop starts.
            streams_.back()->set_on_start(
                [this, i] { locality_.bind_stream(i); });
        }
    }
    // Wire the lot as waker of every pool the schedulers can see, so a
    // push into any of them wakes parked streams. Victim-only pools are
    // some other stream's home pool, so scanning pools() covers them.
    // Wake mode: a pool visible to EVERY stream is truly shared — any
    // woken stream can consume from it, so a single-unit push may wake
    // just one stream (WakeMode::kOne) instead of the whole herd. A pool
    // missing from any stream's view keeps the broadcast (the one woken
    // stream might be unable to reach the work).
    std::vector<std::size_t> seen_in;  // parallel to wired_pools_
    for (auto& stream : streams_) {
        for (Pool* pool : stream->scheduler().pools()) {
            auto it =
                std::find(wired_pools_.begin(), wired_pools_.end(), pool);
            if (it == wired_pools_.end()) {
                wired_pools_.push_back(pool);
                seen_in.push_back(1);
            } else {
                ++seen_in[static_cast<std::size_t>(
                    it - wired_pools_.begin())];
            }
        }
    }
    for (std::size_t i = 0; i < wired_pools_.size(); ++i) {
        const bool shared_by_all = seen_in[i] == streams_.size();
        wired_pools_[i]->set_waker(&lot_, shared_by_all
                                              ? Pool::WakeMode::kOne
                                              : Pool::WakeMode::kAll);
    }
    if (first == 1) {
        // The calling thread is stream 0: pin it here, mirroring what the
        // on_start hooks do for the dedicated threads.
        locality_.bind_stream(0);
        streams_.front()->attach_caller();
    }
    for (std::size_t i = first; i < num_streams; ++i) {
        streams_[i]->start();
    }
}

Runtime::~Runtime() {
    // Detach first: a unit still hinted on an adopted primary goes back to
    // its pool, where the draining streams below can run it. (A primary
    // with a thread of its own is not attached here: a no-op.)
    streams_.front()->detach_caller();
    for (auto& stream : streams_) {
        stream->stop_and_join();
    }
    // The herd-wakeup savings live in the lot, not in any stream's
    // counters; fold them into the registry alongside the streams' own
    // dtor-time folds so the post-run metrics dump sees them.
    SchedStats lot_stats;
    lot_stats.wakeups_avoided = lot_.wakeups_avoided();
    accumulate_sched_counters(lot_stats);
    // The pools belong to the caller and outlive this runtime (and with it
    // the lot): detach the wakers before the lot dies.
    for (Pool* pool : wired_pools_) {
        pool->set_waker(nullptr);
    }
}

std::unique_ptr<XStream> Runtime::make_stream(
    unsigned rank, std::unique_ptr<Scheduler> scheduler) {
    auto stream = std::make_unique<XStream>(rank, std::move(scheduler));
    stream->set_idle_config(idle_);
    stream->set_parking_lot(&lot_);
    if (rank < locality_.num_streams()) {
        stream->set_placement(locality_.placement(rank));
    }
    return stream;
}

std::size_t Runtime::add_stream(std::unique_ptr<Scheduler> scheduler) {
    std::lock_guard guard(streams_lock_);
    const auto rank = static_cast<unsigned>(streams_.size());
    streams_.push_back(make_stream(rank, std::move(scheduler)));
    XStream& stream = *streams_.back();
    for (Pool* pool : stream.scheduler().pools()) {
        if (std::find(wired_pools_.begin(), wired_pools_.end(), pool) ==
            wired_pools_.end()) {
            pool->set_waker(&lot_);
            wired_pools_.push_back(pool);
        }
    }
    stream.start();
    return rank;
}

std::size_t Runtime::resolve_stream_count(std::size_t requested,
                                          const char* env_var) {
    if (requested != 0) {
        return requested;
    }
    if (env_var != nullptr) {
        if (const char* env = std::getenv(env_var)) {
            const long v = std::atol(env);
            if (v > 0) {
                return static_cast<std::size_t>(v);
            }
        }
    }
    return arch::hardware_threads();
}

}  // namespace lwt::core
