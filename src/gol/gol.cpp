#include "gol/gol.hpp"

#include "core/ult.hpp"

namespace lwt::gol {

Library::Library(Config config) : config_(config) {
    const std::size_t n = core::Runtime::resolve_stream_count(
        config_.num_threads, "LWT_NUM_THREADS");
    config_.num_threads = n;
    // Every scheduler thread pops the same global queue: no locality
    // routing (a flat map, one depot domain), and the main thread is not a
    // scheduler thread.
    runtime_ = std::make_unique<core::Runtime>(
        n,
        [this](unsigned) {
            return std::make_unique<core::Scheduler>(
                std::vector<core::Pool*>{&global_});
        },
        arch::LocalityMap::flat(n), core::Runtime::Primary::kDedicatedThread);
    introspect_.emplace();
}

void Library::go(core::UniqueFunction fn) {
    auto* g = new core::Ult(std::move(fn));
    g->detached = true;  // goroutines have no join handle
    global_.push(g);
}

void Library::go_bulk(std::size_t n,
                      const std::function<void(std::size_t)>& body) {
    if (n == 0) {
        return;
    }
    auto shared =
        std::make_shared<const std::function<void(std::size_t)>>(body);
    std::vector<core::WorkUnit*> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto* g = new core::Ult([shared, i] { (*shared)(i); });
        g->detached = true;
        batch.push_back(g);
    }
    global_.push_bulk(batch);
}

}  // namespace lwt::gol
