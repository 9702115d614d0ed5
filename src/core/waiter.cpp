#include "core/waiter.hpp"

#include "arch/cpu.hpp"
#include "core/metrics.hpp"
#include "core/xstream.hpp"

namespace lwt::core {

namespace {

/// Counted at park ENTRY (not at wake) so a concurrent observer — e.g. a
/// lock holder deciding when every contender has actually suspended — can
/// see the parks while the waiters are still blocked.
void record_sync_suspend() noexcept {
    static Counter& suspends =
        MetricsRegistry::instance().counter("sync.suspends");
    suspends.inc();
}

void record_sync_wake(std::uint64_t ticks) noexcept {
    static LatencyHistogram& hist =
        MetricsRegistry::instance().histogram("sync.wake_latency_ticks");
    hist.record(ticks);
}

}  // namespace

void thread_wait_impl(sync::ThreadParker& parker, XStream* stream) noexcept {
    if (stream != nullptr) {
        stream->run_until_notified(parker);
    } else {
        parker.wait();
    }
}

void wake_sync_waiter(SyncWaiter* w) noexcept {
    if (w->kind == SyncWaiter::Kind::kUlt) {
        Ult::wake(static_cast<Ult*>(w->ptr));
    } else {
        static_cast<sync::ThreadParker*>(w->ptr)->notify();
    }
}

void wake_sync_chain(SyncWaiter* chain) noexcept {
    while (chain != nullptr) {
        SyncWaiter* const next = chain->next;
        wake_sync_waiter(chain);
        chain = next;
    }
}

SyncBlocker::SyncBlocker() noexcept
    : self_(Ult::current()),
      stream_(self_ == nullptr ? XStream::current() : nullptr) {}

void SyncBlocker::prepare(SyncWaiter& node) noexcept {
    node_ = &node;
    node.block_tsc = Metrics::instance().enabled() ? arch::rdtsc() : 0;
    if (self_ != nullptr) {
        node.kind = SyncWaiter::Kind::kUlt;
        node.ptr = self_;
        // Arm the kBlocking/kWakePending handshake BEFORE the node is
        // published: the waker may call Ult::wake the instant the
        // primitive's guard drops.
        self_->state.store(State::kBlocking, std::memory_order_release);
        return;
    }
    parker_.emplace(stream_ != nullptr ? stream_->parking_lot() : nullptr);
    node.kind = SyncWaiter::Kind::kParker;
    node.ptr = &*parker_;
}

void SyncBlocker::cancel(SyncWaiter& /*node*/) noexcept {
    if (self_ != nullptr) {
        self_->state.store(State::kRunning, std::memory_order_relaxed);
    }
    node_ = nullptr;
}

void SyncBlocker::wait() noexcept {
    if (node_ != nullptr && node_->block_tsc != 0) {
        record_sync_suspend();
    }
    if (self_ != nullptr) {
        self_->suspend(YieldStatus::kBlocked);
    } else {
        thread_wait_impl(*parker_, stream_);
    }
    if (node_ != nullptr && node_->block_tsc != 0) {
        record_sync_wake(arch::rdtsc() - node_->block_tsc);
    }
}

}  // namespace lwt::core
