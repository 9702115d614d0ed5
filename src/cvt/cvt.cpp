#include "cvt/cvt.hpp"

#include <cassert>
#include <cstdlib>

#include "core/join.hpp"
#include "core/work_unit.hpp"

namespace lwt::cvt {

// --- CthHandle -----------------------------------------------------------------

CthHandle& CthHandle::operator=(CthHandle&& other) noexcept {
    if (this != &other) {
        join();
        ult_ = std::exchange(other.ult_, nullptr);
    }
    return *this;
}

CthHandle::~CthHandle() { join(); }

void CthHandle::join() {
    if (ult_ == nullptr) {
        return;
    }
    // Direct-handoff join (core/join.hpp): from PE 0's main thread this
    // still drains the scheduler while waiting (Converse return mode
    // semantics), but the final wakeup is a direct unpark from the
    // terminating PE instead of a polled flag.
    core::join_unit(ult_);
    delete ult_;
    ult_ = nullptr;
}

// --- Library --------------------------------------------------------------------

Library::Library(Config config) : config_(config) {
    const std::size_t n =
        core::Runtime::resolve_stream_count(config_.num_pes, "LWT_NUM_PES");
    config_.num_pes = n;
    pools_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        pools_.push_back(
            std::make_unique<core::DequePool>(core::DequePool::PopOrder::kFifo));
    }
    // PE 0 is the calling thread, as in Converse.
    runtime_ = std::make_unique<core::Runtime>(
        n,
        [this](unsigned rank) {
            return std::make_unique<core::Scheduler>(
                std::vector<core::Pool*>{pools_[rank].get()});
        },
        arch::LocalityMap(arch::Topology::from_env_or_discover(),
                          arch::resolve_bind_policy(), n),
        core::Runtime::Primary::kAdoptCaller);
    introspect_.emplace();
}

void Library::send_message(std::size_t pe, core::UniqueFunction handler) {
    auto* msg = new core::Tasklet(std::move(handler));
    msg->detached = true;  // messages are one-shot; the PE reclaims them
    pools_[pe % pools_.size()]->push(msg);
}

void Library::send_round_robin(std::size_t count,
                               const std::function<void(std::size_t)>& handler) {
    for (std::size_t i = 0; i < count; ++i) {
        // Copy the handler into each message: messages may execute after
        // this call returns, so a reference could dangle.
        send_message(i % num_pes(), [handler, i] { handler(i); });
    }
}

void Library::send_bulk(std::size_t count,
                        const std::function<void(std::size_t)>& handler) {
    if (count == 0) {
        return;
    }
    const std::size_t npes = num_pes();
    auto shared =
        std::make_shared<const std::function<void(std::size_t)>>(handler);
    std::vector<std::vector<core::WorkUnit*>> batches(npes);
    for (auto& b : batches) {
        b.reserve(count / npes + 1);
    }
    for (std::size_t i = 0; i < count; ++i) {
        auto* msg = new core::Tasklet([shared, i] { (*shared)(i); });
        msg->detached = true;
        batches[i % npes].push_back(msg);
    }
    for (std::size_t pe = 0; pe < npes; ++pe) {
        pools_[pe]->push_bulk(batches[pe]);
    }
}

void Library::send_bulk_domain(
    std::size_t count, const std::function<void(std::size_t)>& handler,
    std::size_t domain) {
    if (count == 0) {
        return;
    }
    // Round-robin over the domain's PEs only. An out-of-range or empty
    // domain degrades to the all-PE broadcast path.
    const std::vector<std::size_t>* pes =
        domain < num_domains() ? &locality().streams_in_domain(domain)
                               : nullptr;
    if (pes == nullptr || pes->empty()) {
        send_bulk(count, handler);
        return;
    }
    auto shared =
        std::make_shared<const std::function<void(std::size_t)>>(handler);
    std::vector<std::vector<core::WorkUnit*>> batches(pes->size());
    for (auto& b : batches) {
        b.reserve(count / pes->size() + 1);
    }
    for (std::size_t i = 0; i < count; ++i) {
        auto* msg = new core::Tasklet([shared, i] { (*shared)(i); });
        msg->detached = true;
        batches[i % pes->size()].push_back(msg);
    }
    for (std::size_t b = 0; b < batches.size(); ++b) {
        pools_[(*pes)[b]]->push_bulk(batches[b]);
    }
}

CthHandle Library::cth_create(core::UniqueFunction fn) {
    // Cth threads live on the creating PE; from the main thread that is
    // PE 0. They are never migrated (Converse restriction).
    core::XStream* stream = core::XStream::current();
    core::Pool* target = stream != nullptr && stream->scheduler().main_pool()
                             ? stream->scheduler().main_pool()
                             : pools_[0].get();
    auto* ult = new core::Ult(std::move(fn));
    target->push(ult);
    return CthHandle(ult);
}

void Library::cth_yield() { core::yield_anywhere(); }

void Library::barrier() {
    // One control message per secondary PE; FIFO queues guarantee it runs
    // after all work sent earlier to that PE. PE 0 (this thread) drains its
    // own queue while waiting. Cost is inherently linear in the PE count —
    // the join behaviour Figure 3 shows for Converse Threads.
    core::EventCounter checked_in(0);
    checked_in.add(static_cast<std::int64_t>(num_pes()) - 1);
    for (std::size_t pe = 1; pe < num_pes(); ++pe) {
        send_message(pe, [&checked_in] { checked_in.signal(); });
    }
    runtime_->primary().run_until(
        [&] { return checked_in.value() == 0 && pools_[0]->empty(); });
}

double Library::reduce_sum(const std::function<double(std::size_t)>& contrib) {
    sync::Spinlock lock;
    double total = 0.0;
    core::EventCounter arrived(0);
    arrived.add(static_cast<std::int64_t>(num_pes()));
    for (std::size_t pe = 0; pe < num_pes(); ++pe) {
        send_message(pe, [&, pe] {
            const double v = contrib(pe);
            {
                std::lock_guard g(lock);
                total += v;
            }
            arrived.signal();
        });
    }
    runtime_->primary().run_until([&] { return arrived.value() == 0; });
    return total;
}

void Library::broadcast(const std::function<void(std::size_t)>& handler) {
    core::EventCounter arrived(0);
    arrived.add(static_cast<std::int64_t>(num_pes()));
    for (std::size_t pe = 0; pe < num_pes(); ++pe) {
        send_message(pe, [&, pe] {
            handler(pe);
            arrived.signal();
        });
    }
    runtime_->primary().run_until([&] { return arrived.value() == 0; });
}

void Library::msg_track_begin(std::size_t expected) {
    tracked_.add(static_cast<std::int64_t>(expected));
}

void Library::msg_signal() { tracked_.signal(); }

void Library::msg_wait() {
    runtime_->primary().run_until([&] { return tracked_.value() == 0; });
}

}  // namespace lwt::cvt
