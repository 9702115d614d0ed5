#include "mth/mth.hpp"

#include <cassert>
#include <cstdlib>
#include <thread>

#include "core/join.hpp"

namespace lwt::mth {

// --- ThreadHandle -------------------------------------------------------------

ThreadHandle& ThreadHandle::operator=(ThreadHandle&& other) noexcept {
    if (this != &other) {
        join();
        ult_ = std::exchange(other.ult_, nullptr);
    }
    return *this;
}

void ThreadHandle::join() {
    if (ult_ == nullptr) {
        return;
    }
    // Direct-handoff join (core/join.hpp). The join-steal inside covers
    // the myth_join work-first shape: a still-queued joinee is pulled from
    // its pool and run by the joiner (yield_to from a ULT, inline from the
    // attached main thread) — which also avoids the LIFO-deque starvation
    // a plain yield loop would hit.
    core::join_unit(ult_);
    delete ult_;
    ult_ = nullptr;
}

// --- Library -------------------------------------------------------------------

Library::Library(Config config) : config_(config) {
    const std::size_t n = core::Runtime::resolve_stream_count(
        config_.num_workers, "LWT_NUM_WORKERS");
    config_.num_workers = n;
    const arch::BindPolicy bind = arch::resolve_bind_policy(config_.bind);
    arch::LocalityMap locality(arch::Topology::from_env_or_discover(), bind,
                               n);
    pools_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        pools_.push_back(
            std::make_unique<core::DequePool>(core::DequePool::PopOrder::kLifo));
    }
    // Tier each worker's victims by steal distance (MassiveThreads steals
    // uniformly at random; we keep random probes *within* a tier but rob
    // the nearest non-empty tier first). Built before the map moves into
    // the runtime.
    auto to_pools = [&](const std::vector<std::size_t>& ranks) {
        std::vector<core::Pool*> out;
        out.reserve(ranks.size());
        for (std::size_t r : ranks) {
            out.push_back(pools_[r].get());
        }
        return out;
    };
    std::vector<std::unique_ptr<core::Scheduler>> scheds;
    scheds.reserve(n);
    for (unsigned rank = 0; rank < n; ++rank) {
        const arch::LocalityMap::Tiers t = locality.victim_tiers(rank);
        scheds.push_back(std::make_unique<core::StealingScheduler>(
            pools_[rank].get(),
            core::VictimTiers{to_pools(t.sibling), to_pools(t.package),
                              to_pools(t.remote)},
            /*seed=*/0x9e3779b9u + rank));
    }
    // Worker 0 is the calling thread (MassiveThreads runs main() there).
    runtime_ = std::make_unique<core::Runtime>(
        n, [&scheds](unsigned rank) { return std::move(scheds[rank]); },
        std::move(locality), core::Runtime::Primary::kAdoptCaller);
    introspect_.emplace();
}

void Library::run(core::UniqueFunction main_fn) {
    auto main_ult = std::make_unique<core::Ult>(std::move(main_fn));
    pools_[0]->push(main_ult.get());
    // Worker 0 (the calling thread) schedules until the main ULT finishes —
    // possibly on another worker if it gets stolen mid-flight.
    runtime_->primary().run_until([&] { return main_ult->terminated(); });
}

core::Ult* Library::spawn(core::UniqueFunction fn, bool detached) {
    auto* child = new core::Ult(std::move(fn));
    child->detached = detached;
    core::Ult* self = core::Ult::current();
    core::XStream* stream = core::XStream::current();
    if (config_.policy == Policy::kWorkFirst && self != nullptr &&
        stream != nullptr) {
        // Work-first: the child runs *now*; the creator parks in the ready
        // deque where idle workers can steal it (continuation stealing).
        stream->set_next_hint(child);
        self->suspend(core::YieldStatus::kYielded);
        return child;
    }
    // Help-first (or no ULT context): queue the child, keep running.
    core::Pool* target =
        stream != nullptr ? stream->scheduler().main_pool() : pools_[0].get();
    target->push(child);
    return child;
}

void Library::create_bulk_detached(
    std::size_t n, const std::function<void(std::size_t)>& body,
    core::EventCounter& done) {
    if (n == 0) {
        return;
    }
    done.add(static_cast<std::int64_t>(n));
    auto shared =
        std::make_shared<const std::function<void(std::size_t)>>(body);
    core::EventCounter* counter = &done;
    std::vector<core::WorkUnit*> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto* child = new core::Ult([shared, counter, i] {
            (*shared)(i);
            counter->signal();
        });
        child->detached = true;
        batch.push_back(child);
    }
    core::XStream* stream = core::XStream::current();
    core::Pool* target =
        stream != nullptr ? stream->scheduler().main_pool() : pools_[0].get();
    target->push_bulk(batch);
}

void Library::wait_counter(core::EventCounter& done) {
    // Suspend-based: the last signal() wakes us directly (ULT wake or
    // thread unpark); an attached thread keeps draining its pools while
    // it waits.
    done.wait();
}

ThreadHandle Library::create(core::UniqueFunction fn) {
    return ThreadHandle(spawn(std::move(fn), /*detached=*/false));
}

void Library::create_detached(core::UniqueFunction fn) {
    spawn(std::move(fn), /*detached=*/true);
}

void Library::yield() { core::yield_anywhere(); }

}  // namespace lwt::mth
