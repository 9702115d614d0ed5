#include "core/metrics.hpp"

#include <algorithm>
#include <map>

#include "core/trace.hpp"

namespace lwt::core {

std::uint64_t HistogramSnapshot::percentile(double p) const noexcept {
    if (count == 0) {
        return 0;
    }
    p = std::clamp(p, 0.0, 1.0);
    const auto target = static_cast<std::uint64_t>(
        p * static_cast<double>(count - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        seen += buckets[i];
        if (seen > target) {
            return LatencyHistogram::bucket_limit(i);
        }
    }
    return LatencyHistogram::bucket_limit(kHistogramBuckets - 1);
}

MetricsRegistry& MetricsRegistry::instance() {
    // Leaked: stream teardown and thread_local destructor chains fold
    // counters here, and those can run during static destruction — after a
    // function-local static's destructor would already have fired.
    static MetricsRegistry* registry = new MetricsRegistry;
    return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
    std::lock_guard g(lock_);
    for (auto& cell : counters_) {
        if (cell.name == name) {
            return cell.counter;
        }
    }
    CounterCell& cell = counters_.emplace_back();
    cell.name = std::string(name);
    return cell.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
    std::lock_guard g(lock_);
    for (auto& cell : gauges_) {
        if (cell.name == name) {
            return cell.gauge;
        }
    }
    GaugeCell& cell = gauges_.emplace_back();
    cell.name = std::string(name);
    return cell.gauge;
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
    std::lock_guard g(lock_);
    for (auto& cell : hists_) {
        if (cell.name == name) {
            return cell.hist;
        }
    }
    HistCell& cell = hists_.emplace_back();
    cell.name = std::string(name);
    return cell.hist;
}

std::vector<MetricsRegistry::CounterEntry> MetricsRegistry::counters() const {
    std::lock_guard g(lock_);
    std::vector<CounterEntry> out;
    out.reserve(counters_.size());
    for (const auto& cell : counters_) {
        out.push_back({cell.name, cell.counter.value()});
    }
    return out;
}

std::vector<MetricsRegistry::GaugeEntry> MetricsRegistry::gauges() const {
    std::lock_guard g(lock_);
    std::vector<GaugeEntry> out;
    out.reserve(gauges_.size());
    for (const auto& cell : gauges_) {
        out.push_back({cell.name, cell.gauge.value(), cell.gauge.max(),
                       cell.gauge.samples()});
    }
    return out;
}

std::vector<MetricsRegistry::HistogramEntry> MetricsRegistry::histograms()
    const {
    std::lock_guard g(lock_);
    std::vector<HistogramEntry> out;
    out.reserve(hists_.size());
    for (const auto& cell : hists_) {
        out.push_back({cell.name, cell.hist.snapshot()});
    }
    return out;
}

void accumulate_sched_counters(const SchedStats& stats) {
    MetricsRegistry& reg = MetricsRegistry::instance();
    // Idle-ladder counters register whenever the stream was ever idle,
    // even on single-stream runs that never steal.
    if (stats.idle_spins != 0 || stats.idle_yields != 0 || stats.parks != 0) {
        reg.counter("sched.idle.spins").inc(stats.idle_spins);
        reg.counter("sched.idle.yields").inc(stats.idle_yields);
        reg.counter("sched.park.count").inc(stats.parks);
        reg.counter("sched.park.timeouts").inc(stats.park_timeouts);
    }
    if (stats.wakeups_avoided != 0) {
        reg.counter("sched.park.wakeups_avoided").inc(stats.wakeups_avoided);
    }
    // Skip streams that never stole: keeps pristine runs (and the flat
    // single-stream configs) from registering all-zero tier names.
    if (stats.steal_attempts == 0) {
        return;
    }
    reg.counter("sched.steal.attempts").inc(stats.steal_attempts);
    reg.counter("sched.steal.hits").inc(stats.steal_hits);
    for (std::size_t t = 0; t < kStealTiers; ++t) {
        std::string base = "sched.steal.tier.";
        base += steal_tier_name(t);
        reg.counter(base + ".attempts").inc(stats.tier_attempts[t]);
        reg.counter(base + ".hits").inc(stats.tier_hits[t]);
    }
}

void MetricsRegistry::reset_values() {
    std::lock_guard g(lock_);
    for (auto& cell : counters_) {
        cell.counter.reset();
    }
    for (auto& cell : gauges_) {
        cell.gauge.reset();
    }
    for (auto& cell : hists_) {
        cell.hist.reset();
    }
}

Metrics& Metrics::instance() {
    static Metrics metrics;
    return metrics;
}

Metrics::ThreadSlot& Metrics::slot_for_this_thread() {
    thread_local ThreadSlot* tl_slot = nullptr;
    if (tl_slot == nullptr) {
        auto slot = std::make_unique<ThreadSlot>();
        slot->stream.store(kNoStream, std::memory_order_relaxed);
        tl_slot = slot.get();
        std::lock_guard g(lock_);
        slots_.push_back(std::move(slot));
    }
    // The thread's stream attachment can change (attach_caller, stream
    // start); refresh so the slot reports under the current rank.
    tl_slot->stream.store(this_thread_stream(), std::memory_order_relaxed);
    return *tl_slot;
}

void Metrics::record_queue_dwell(std::uint64_t ticks) {
    slot_for_this_thread().queue_dwell.record(ticks);
}

void Metrics::record_exec(std::uint64_t ticks) {
    slot_for_this_thread().exec_time.record(ticks);
}

void Metrics::record_wake_latency(std::uint64_t ticks) {
    slot_for_this_thread().wake_latency.record(ticks);
}

std::vector<StreamUnitMetrics> Metrics::unit_metrics() const {
    std::map<std::uint32_t, StreamUnitMetrics> merged;
    {
        std::lock_guard g(lock_);
        for (const auto& slot : slots_) {
            const std::uint32_t rank =
                slot->stream.load(std::memory_order_relaxed);
            auto [it, inserted] = merged.try_emplace(rank);
            if (inserted) {
                it->second.stream = rank;
            }
            it->second.queue_dwell += slot->queue_dwell.snapshot();
            it->second.exec_time += slot->exec_time.snapshot();
            it->second.wake_latency += slot->wake_latency.snapshot();
        }
    }
    // std::map orders ascending; kNoStream is the max uint32 so the
    // unattached-thread aggregate naturally sorts last.
    std::vector<StreamUnitMetrics> out;
    out.reserve(merged.size());
    for (auto& [rank, m] : merged) {
        out.push_back(std::move(m));
    }
    return out;
}

void Metrics::reset() {
    std::lock_guard g(lock_);
    for (auto& slot : slots_) {
        slot->queue_dwell.reset();
        slot->exec_time.reset();
        slot->wake_latency.reset();
    }
}

}  // namespace lwt::core
