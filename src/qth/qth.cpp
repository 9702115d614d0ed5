#include "qth/qth.hpp"

#include <cstdlib>
#include <functional>
#include <thread>

#include "core/ult.hpp"
#include "core/work_unit.hpp"

namespace lwt::qth {

double Sinc::wait() {
    // Suspend-based: the zero-crossing submit() wakes us directly; the
    // attached-stream drain loop lives inside the counter.
    done_.wait();
    std::lock_guard g(lock_);
    return sum_;
}

Library::Library(Config config) : config_(config) {
    config_.num_shepherds = core::Runtime::resolve_stream_count(
        config_.num_shepherds, "LWT_NUM_SHEPHERDS");
    if (config_.workers_per_shepherd == 0) {
        config_.workers_per_shepherd = core::Runtime::resolve_stream_count(
            1, "LWT_NUM_WORKERS_PER_SHEPHERD");
    }
    pools_.reserve(config_.num_shepherds);
    for (std::size_t s = 0; s < config_.num_shepherds; ++s) {
        pools_.push_back(
            std::make_unique<core::DequePool>(core::DequePool::PopOrder::kFifo));
    }
    // Workers of shepherd s all drain pools_[s]; rank encodes (s, w). The
    // locality map (LWT_TOPOLOGY/LWT_BIND aware) pins workers when an
    // explicit policy asks for it and places every worker in a package
    // domain either way.
    const std::size_t nworkers =
        config_.num_shepherds * config_.workers_per_shepherd;
    const arch::BindPolicy bind = arch::resolve_bind_policy(config_.bind);
    arch::LocalityMap locality(arch::Topology::from_env_or_discover(), bind,
                               nworkers);
    std::vector<std::size_t> dom_of(nworkers, 0);  // read before the move
    for (std::size_t r = 0; r < nworkers; ++r) {
        dom_of[r] = locality.placement(r).domain;
    }
    for (std::size_t d = 0; d < locality.num_domains(); ++d) {
        domain_pools_.push_back(std::make_unique<core::MpmcPool>());
        if (!locality.streams_in_domain(d).empty()) {
            populated_domains_.push_back(d);
        }
    }
    // The main thread is not a worker: every worker gets its own thread.
    runtime_ = std::make_unique<core::Runtime>(
        nworkers,
        [this, &dom_of](unsigned rank) {
            return std::make_unique<core::Scheduler>(std::vector<core::Pool*>{
                pools_[rank / config_.workers_per_shepherd].get(),
                domain_pools_[dom_of[rank]].get()});
        },
        std::move(locality), core::Runtime::Primary::kDedicatedThread);
    introspect_.emplace();
}

core::Pool* Library::domain_queue(std::size_t domain) {
    const arch::LocalityMap& map = runtime_->locality();
    std::size_t d = domain;
    if (d >= map.num_domains() || map.streams_in_domain(d).empty()) {
        d = populated_domains_.empty() ? 0 : populated_domains_.front();
    }
    return domain_pools_[d].get();
}

std::size_t Library::current_shepherd() const {
    if (core::XStream* stream = core::XStream::current()) {
        return stream->rank() / config_.workers_per_shepherd;
    }
    return 0;  // the main thread forks into shepherd 0, as in Qthreads
}

void Library::fork(Fn fn, aligned_t* ret) {
    fork_to(std::move(fn), ret, current_shepherd());
}

core::Ult* Library::make_ult(Fn fn, aligned_t* ret) {
    core::Ult* ult = nullptr;
    if (ret == nullptr) {
        ult = new core::Ult(std::move(fn));
    } else {
        feb_.purge(ret);  // the return word is EMPTY until completion
        // A body plus the word outgrows the closure's inline buffer: only a
        // fork with a return word pays for the heap copy.
        ult = new core::Ult([this, body = std::move(fn), ret]() mutable {
            body();
            feb_.write_f(ret, 1);  // fills the word: readFF joiners proceed
        });
    }
    ult->detached = true;  // Qthreads reclaims its qthread_t internally
    return ult;
}

void Library::fork_to(Fn fn, aligned_t* ret, std::size_t shepherd) {
    pools_[shepherd % pools_.size()]->push(make_ult(std::move(fn), ret));
}

void Library::fork_to_domain(Fn fn, aligned_t* ret, std::size_t domain) {
    domain_queue(domain)->push(make_ult(std::move(fn), ret));
}

void Library::fork_bulk(std::size_t n,
                        const std::function<void(std::size_t)>& body,
                        Sinc& sinc) {
    if (n == 0) {
        return;
    }
    sinc.expect(static_cast<std::int64_t>(n));
    const std::size_t nshep = pools_.size();
    auto shared =
        std::make_shared<const std::function<void(std::size_t)>>(body);
    Sinc* psinc = &sinc;  // outlives the batch: wait() returns after the
                          // last submit's fetch_sub, the ULT's final touch
    std::vector<std::vector<core::WorkUnit*>> batches(nshep);
    for (auto& b : batches) {
        b.reserve(n / nshep + 1);
    }
    for (std::size_t i = 0; i < n; ++i) {
        auto* ult = new core::Ult([shared, psinc, i] {
            (*shared)(i);
            psinc->submit();
        });
        ult->detached = true;
        batches[i % nshep].push_back(ult);
    }
    for (std::size_t s = 0; s < nshep; ++s) {
        pools_[s]->push_bulk(batches[s]);
    }
}

void Library::fork_bulk_domain(std::size_t n,
                               const std::function<void(std::size_t)>& body,
                               Sinc& sinc, std::size_t domain) {
    if (n == 0) {
        return;
    }
    sinc.expect(static_cast<std::int64_t>(n));
    auto shared =
        std::make_shared<const std::function<void(std::size_t)>>(body);
    Sinc* psinc = &sinc;
    std::vector<core::WorkUnit*> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto* ult = new core::Ult([shared, psinc, i] {
            (*shared)(i);
            psinc->submit();
        });
        ult->detached = true;
        batch.push_back(ult);
    }
    // One enqueue burst into the domain's shared queue: the batch stays on
    // one package end to end.
    domain_queue(domain)->push_bulk(batch);
}

void Library::yield() { core::yield_anywhere(); }

// The FEB table parks blocked operations on the word's shard through
// core::SyncBlocker: a waiting ULT suspends (its worker keeps running other
// units), an attached stream drains its pools, a plain thread parks.
aligned_t Library::read_ff(const aligned_t* addr) {
    return feb_.read_ff(addr);
}

aligned_t Library::read_fe(aligned_t* addr) { return feb_.read_fe(addr); }

void Library::write_ef(aligned_t* addr, aligned_t value) {
    feb_.write_ef(addr, value);
}

void Library::write_f(aligned_t* addr, aligned_t value) {
    feb_.write_f(addr, value);
}

void Library::purge(aligned_t* addr) { feb_.purge(addr); }

bool Library::is_full(const aligned_t* addr) { return feb_.is_full(addr); }

void Library::loop(std::size_t start, std::size_t stop,
                   const std::function<void(std::size_t)>& fn) {
    const std::size_t n = stop > start ? stop - start : 0;
    if (n == 0) {
        return;
    }
    const std::size_t chunks = std::min(n, num_shepherds());
    std::vector<aligned_t> done(chunks, 0);
    const std::size_t per = (n + chunks - 1) / chunks;
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t lo = start + c * per;
        const std::size_t hi = std::min(stop, lo + per);
        fork_to(
            [&fn, lo, hi] {
                for (std::size_t i = lo; i < hi; ++i) {
                    fn(i);
                }
            },
            &done[c], c);
    }
    for (std::size_t c = 0; c < chunks; ++c) {
        read_ff(&done[c]);
        feb_.forget(&done[c]);  // the word dies with this frame
    }
}

double Library::loop_accum_sum(std::size_t start, std::size_t stop,
                               const std::function<double(std::size_t)>& fn) {
    const std::size_t n = stop > start ? stop - start : 0;
    if (n == 0) {
        return 0.0;
    }
    const std::size_t chunks = std::min(n, num_shepherds());
    std::vector<aligned_t> done(chunks, 0);
    std::vector<double> partial(chunks, 0.0);
    const std::size_t per = (n + chunks - 1) / chunks;
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t lo = start + c * per;
        const std::size_t hi = std::min(stop, lo + per);
        fork_to(
            [&fn, &partial, c, lo, hi] {
                double acc = 0.0;
                for (std::size_t i = lo; i < hi; ++i) {
                    acc += fn(i);
                }
                partial[c] = acc;
            },
            &done[c], c);
    }
    double total = 0.0;
    for (std::size_t c = 0; c < chunks; ++c) {
        read_ff(&done[c]);
        feb_.forget(&done[c]);
        total += partial[c];
    }
    return total;
}

}  // namespace lwt::qth
