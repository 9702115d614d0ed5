// metrics.hpp — process-wide metrics: counters, gauges, and log2-bucketed
// latency histograms.
//
// Companion to the lifecycle tracer (trace.hpp) and the per-stream
// scheduler counters (sched_stats.hpp): where those record *events*, this
// layer aggregates *distributions* — per-unit queue dwell (create->start),
// execution time (dispatch->suspend/finish), and block->wake latency — plus
// arbitrary named counters and gauges. All hot-path writes are relaxed
// atomics; snapshots are plain structs that merge with operator+= exactly
// like SchedStats.
//
// Disabled (the default), every hook costs one relaxed atomic load: the
// call sites guard on Metrics::instance().enabled() before touching a
// timestamp or histogram (asserted by BM_MetricsHookDisabled in
// bench/micro_ops.cpp).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/sched_stats.hpp"
#include "sync/spinlock.hpp"

namespace lwt::core {

/// Monotonic event count. Writes are relaxed; reads may be slightly stale.
class Counter {
  public:
    void inc(std::uint64_t n = 1) noexcept {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level with a high-water mark (e.g. queue depth). set()
/// also folds the sample into the running max so a shutdown report can
/// show the peak even though sampling stopped long before.
class Gauge {
  public:
    void set(std::int64_t v) noexcept {
        value_.store(v, std::memory_order_relaxed);
        std::int64_t prev = max_.load(std::memory_order_relaxed);
        while (v > prev && !max_.compare_exchange_weak(
                               prev, v, std::memory_order_relaxed)) {
        }
        samples_.fetch_add(1, std::memory_order_relaxed);
    }
    [[nodiscard]] std::int64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::int64_t max() const noexcept {
        return max_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t samples() const noexcept {
        return samples_.load(std::memory_order_relaxed);
    }
    void reset() noexcept {
        value_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
        samples_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
    std::atomic<std::int64_t> max_{0};
    std::atomic<std::uint64_t> samples_{0};
};

/// Number of log2 buckets: bucket 0 holds exact zeros, bucket i (i >= 1)
/// holds values in [2^(i-1), 2^i). Covers the full uint64 range.
inline constexpr std::size_t kHistogramBuckets = 65;

/// Plain (non-atomic) histogram snapshot; the unit of reporting/merging.
struct HistogramSnapshot {
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    HistogramSnapshot& operator+=(const HistogramSnapshot& o) noexcept {
        for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
            buckets[i] += o.buckets[i];
        }
        count += o.count;
        sum += o.sum;
        return *this;
    }

    [[nodiscard]] double mean() const noexcept {
        return count == 0 ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(count);
    }

    /// Inclusive upper bound of the bucket containing the p-th percentile
    /// (p in [0, 1]); 0 when empty. Log2 buckets make this accurate to a
    /// factor of two — the resolution the paper's latency plots need.
    [[nodiscard]] std::uint64_t percentile(double p) const noexcept;
};

/// Lock-free histogram of uint64 values in log2 buckets. Any thread may
/// record(); snapshots may run concurrently (relaxed reads — counts of
/// in-flight records may be missed, never torn).
class LatencyHistogram {
  public:
    /// Bucket index for a value: 0 for 0, else bit_width(v) (v in
    /// [2^(i-1), 2^i) has bit width i).
    [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
        return static_cast<std::size_t>(std::bit_width(v));
    }
    /// Inclusive upper bound of bucket `b` (0 for bucket 0).
    [[nodiscard]] static std::uint64_t bucket_limit(std::size_t b) noexcept {
        if (b == 0) {
            return 0;
        }
        return b >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << b) - 1;
    }

    void record(std::uint64_t v) noexcept {
        buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }

    [[nodiscard]] HistogramSnapshot snapshot() const noexcept {
        HistogramSnapshot s;
        for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
            s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
        }
        s.count = count_.load(std::memory_order_relaxed);
        s.sum = sum_.load(std::memory_order_relaxed);
        return s;
    }

    /// Fold a snapshot taken elsewhere (another registry, another process
    /// — bench/net_echo ships its client-side histogram over a pipe) into
    /// this histogram. Concurrent record() calls stay safe.
    void merge(const HistogramSnapshot& s) noexcept {
        for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
            if (s.buckets[i] != 0) {
                buckets_[i].fetch_add(s.buckets[i], std::memory_order_relaxed);
            }
        }
        count_.fetch_add(s.count, std::memory_order_relaxed);
        sum_.fetch_add(s.sum, std::memory_order_relaxed);
    }

    void reset() noexcept {
        for (auto& b : buckets_) {
            b.store(0, std::memory_order_relaxed);
        }
        count_.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
    }

  private:
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/// Process-wide registry of *named* metrics. Registration (first lookup of
/// a name) takes a spinlock; after that callers hold a stable reference and
/// writes are lock-free. Values survive until reset_values(); names live
/// for the process (a registry is append-only, like Tracer's rings).
class MetricsRegistry {
  public:
    static MetricsRegistry& instance();

    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    LatencyHistogram& histogram(std::string_view name);

    struct CounterEntry {
        std::string name;
        std::uint64_t value;
    };
    struct GaugeEntry {
        std::string name;
        std::int64_t value;
        std::int64_t max;
        std::uint64_t samples;
    };
    struct HistogramEntry {
        std::string name;
        HistogramSnapshot hist;
    };

    [[nodiscard]] std::vector<CounterEntry> counters() const;
    [[nodiscard]] std::vector<GaugeEntry> gauges() const;
    [[nodiscard]] std::vector<HistogramEntry> histograms() const;

    /// Zero every registered value (names stay registered).
    void reset_values();

  private:
    struct CounterCell {
        std::string name;
        Counter counter;
    };
    struct GaugeCell {
        std::string name;
        Gauge gauge;
    };
    struct HistCell {
        std::string name;
        LatencyHistogram hist;
    };

    MetricsRegistry() = default;

    mutable sync::Spinlock lock_;
    // deques: emplace_back never moves existing cells, so references
    // handed out stay valid for the registry's lifetime.
    std::deque<CounterCell> counters_;
    std::deque<GaugeCell> gauges_;
    std::deque<HistCell> hists_;
};

/// Fold one stream's steal telemetry into the process-wide registry:
/// "sched.steal.attempts"/"sched.steal.hits" totals plus
/// "sched.steal.tier.<sibling|package|remote>.{attempts,hits}". XStream
/// calls this at teardown, so the registry (and the bench harness's
/// steal_tiers JSON block) sees every stream that ever ran, whichever
/// personality built it.
void accumulate_sched_counters(const SchedStats& stats);

/// Per-stream unit-latency snapshot (one per execution stream that ran
/// work; stream == core::kNoStream aggregates unattached threads).
struct StreamUnitMetrics {
    std::uint32_t stream;
    HistogramSnapshot queue_dwell;   ///< create -> first dispatch (ticks)
    HistogramSnapshot exec_time;     ///< dispatch -> suspend/finish (ticks)
    HistogramSnapshot wake_latency;  ///< block -> wake (ticks)
};

/// Process-wide per-unit latency recorder. Mirrors the Tracer's shape:
/// per-OS-thread slots registered lazily, one relaxed-load guard when
/// disabled, snapshot/merge from anywhere. Values are raw timestamp ticks
/// (arch::rdtsc deltas); convert with tsc_ticks_per_us() for reporting.
class Metrics {
  public:
    static Metrics& instance();

    void enable() { enabled_.store(true, std::memory_order_release); }
    void disable() { enabled_.store(false, std::memory_order_release); }
    [[nodiscard]] bool enabled() const {
        return enabled_.load(std::memory_order_relaxed);
    }

    // Hook entry points; call only when enabled() (the guard is the call
    // site's job so the disabled path stays one relaxed load).
    void record_queue_dwell(std::uint64_t ticks);
    void record_exec(std::uint64_t ticks);
    void record_wake_latency(std::uint64_t ticks);

    /// Merged per-stream snapshots, ascending by stream rank with the
    /// kNoStream aggregate (if any) last.
    [[nodiscard]] std::vector<StreamUnitMetrics> unit_metrics() const;

    /// Zero every slot's histograms (slots stay registered).
    void reset();

  private:
    struct ThreadSlot {
        std::atomic<std::uint32_t> stream;
        LatencyHistogram queue_dwell;
        LatencyHistogram exec_time;
        LatencyHistogram wake_latency;
    };

    Metrics() = default;
    ThreadSlot& slot_for_this_thread();

    std::atomic<bool> enabled_{false};
    mutable sync::Spinlock lock_;
    std::vector<std::unique_ptr<ThreadSlot>> slots_;
};

}  // namespace lwt::core
