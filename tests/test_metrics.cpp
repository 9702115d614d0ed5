// Tests for the metrics registry, latency histograms, Chrome-trace
// exporter, ring-overwrite accounting, and the env-driven observability
// session.
//
// NOTE: the recorders (Tracer, Metrics, MetricsRegistry) and the
// observability arming flag are process-global. The ObservabilitySession
// env test MUST run first in this binary: arming reads the environment
// exactly once per process, at the first-ever session attach. It is
// declared first and gtest runs tests in declaration order (no shuffle in
// CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/cpu.hpp"
#include "core/metrics.hpp"
#include "core/observability.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/scheduler.hpp"
#include "core/sync_ult.hpp"
#include "core/trace.hpp"
#include "core/trace_export.hpp"
#include "core/ult.hpp"
#include "core/xstream.hpp"

// TSan cannot follow fcontext stack switches, so the one ULT-based test
// below skips itself under TSan; everything else here is OS-thread /
// tasklet-only and is exactly what tools/tsan.sh wants to race.
#if defined(__SANITIZE_THREAD__)
#define LWT_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LWT_TSAN_BUILD 1
#endif
#endif

namespace {

using namespace lwt::core;

// --- observability session (must be the first test; see file comment) -------

TEST(ObservabilitySessionTest, EnvArmsRecordersAndFlushWritesTrace) {
    const std::string path =
        ::testing::TempDir() + "obs_session_trace_test.json";
    const std::string metrics_path =
        ::testing::TempDir() + "obs_session_metrics_test.json";
    std::remove(path.c_str());
    std::remove(metrics_path.c_str());
    ::setenv("LWT_TRACE", path.c_str(), 1);
    ::setenv("LWT_METRICS", metrics_path.c_str(), 1);
    {
        ObservabilitySession outer;
        EXPECT_TRUE(observability_armed());
        EXPECT_TRUE(Tracer::instance().enabled());
        EXPECT_TRUE(Metrics::instance().enabled());
        {
            // Nested session (a personality inside glt): no double flush.
            ObservabilitySession inner;
            Tasklet t([] {});  // records a kCreate event
        }
        // Refcount still held: no flush yet.
        EXPECT_GE(Tracer::instance().stats().of(TraceEvent::kCreate), 1u);
    }
    // Outermost detach flushed: trace file exists and the tracer was
    // cleared for the next boot/teardown cycle.
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    EXPECT_EQ(Tracer::instance().stats().of(TraceEvent::kCreate), 0u);
    std::FILE* mj = std::fopen(metrics_path.c_str(), "r");
    ASSERT_NE(mj, nullptr);
    std::fclose(mj);
    std::remove(path.c_str());
    std::remove(metrics_path.c_str());
    ::unsetenv("LWT_TRACE");
    ::unsetenv("LWT_METRICS");
    // The recorders stay enabled for the process (arming is once); quiesce
    // them so the remaining tests start from a clean slate.
    Tracer::instance().disable();
    Tracer::instance().clear();
    Metrics::instance().disable();
    Metrics::instance().reset();
}

// --- histogram buckets -------------------------------------------------------

TEST(LatencyHistogramTest, BucketBoundaries) {
    // Bucket 0 holds exact zeros; bucket i holds [2^(i-1), 2^i).
    EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucket_of(1), 1u);
    EXPECT_EQ(LatencyHistogram::bucket_of(2), 2u);
    EXPECT_EQ(LatencyHistogram::bucket_of(3), 2u);
    EXPECT_EQ(LatencyHistogram::bucket_of(4), 3u);
    EXPECT_EQ(LatencyHistogram::bucket_of(7), 3u);
    EXPECT_EQ(LatencyHistogram::bucket_of(8), 4u);
    EXPECT_EQ(LatencyHistogram::bucket_of(~std::uint64_t{0}), 64u);

    EXPECT_EQ(LatencyHistogram::bucket_limit(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucket_limit(1), 1u);
    EXPECT_EQ(LatencyHistogram::bucket_limit(2), 3u);
    EXPECT_EQ(LatencyHistogram::bucket_limit(3), 7u);
    EXPECT_EQ(LatencyHistogram::bucket_limit(64), ~std::uint64_t{0});

    LatencyHistogram h;
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(4);
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.buckets[0], 1u);
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[2], 2u);
    EXPECT_EQ(s.buckets[3], 1u);
    EXPECT_EQ(s.count, 5u);
    EXPECT_EQ(s.sum, 10u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(LatencyHistogramTest, PercentileWithinBucketResolution) {
    LatencyHistogram h;
    for (int i = 0; i < 90; ++i) {
        h.record(100);  // bucket 7: [64, 128)
    }
    for (int i = 0; i < 10; ++i) {
        h.record(10000);  // bucket 14: [8192, 16384)
    }
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.percentile(0.5), LatencyHistogram::bucket_limit(7));
    EXPECT_EQ(s.percentile(0.99), LatencyHistogram::bucket_limit(14));
    EXPECT_EQ(s.percentile(0.0), LatencyHistogram::bucket_limit(7));
    EXPECT_EQ(s.percentile(1.0), LatencyHistogram::bucket_limit(14));
    // Empty histogram: every percentile is 0.
    EXPECT_EQ(HistogramSnapshot{}.percentile(0.5), 0u);
}

TEST(LatencyHistogramTest, SnapshotsMergeLikeSchedStats) {
    LatencyHistogram a;
    LatencyHistogram b;
    a.record(1);
    a.record(5);
    b.record(5);
    b.record(300);
    HistogramSnapshot merged = a.snapshot();
    merged += b.snapshot();
    EXPECT_EQ(merged.count, 4u);
    EXPECT_EQ(merged.sum, 311u);
    EXPECT_EQ(merged.buckets[LatencyHistogram::bucket_of(5)], 2u);
    EXPECT_EQ(merged.buckets[LatencyHistogram::bucket_of(300)], 1u);
}

TEST(LatencyHistogramTest, ResetZeroesEverything) {
    LatencyHistogram h;
    h.record(42);
    h.reset();
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.sum, 0u);
    EXPECT_EQ(s.buckets[LatencyHistogram::bucket_of(42)], 0u);
}

// --- registry ----------------------------------------------------------------

TEST(MetricsRegistryTest, LookupIsStableAndResetKeepsNames) {
    auto& reg = MetricsRegistry::instance();
    Counter& c1 = reg.counter("test.registry.counter");
    Counter& c2 = reg.counter("test.registry.counter");
    EXPECT_EQ(&c1, &c2);  // same name -> same cell
    c1.inc(3);

    Gauge& g = reg.gauge("test.registry.gauge");
    g.set(7);
    g.set(2);
    EXPECT_EQ(g.value(), 2);
    EXPECT_EQ(g.max(), 7);  // high-water survives lower samples
    EXPECT_EQ(g.samples(), 2u);

    reg.histogram("test.registry.hist").record(9);

    bool saw_counter = false;
    for (const auto& e : reg.counters()) {
        if (e.name == "test.registry.counter") {
            saw_counter = true;
            EXPECT_EQ(e.value, 3u);
        }
    }
    EXPECT_TRUE(saw_counter);

    reg.reset_values();
    EXPECT_EQ(c1.value(), 0u);
    EXPECT_EQ(g.max(), 0);
    EXPECT_EQ(reg.histogram("test.registry.hist").snapshot().count, 0u);
    // Names stay registered after reset.
    EXPECT_EQ(&reg.counter("test.registry.counter"), &c1);
}

// --- Chrome trace exporter ---------------------------------------------------

TEST(TraceExportTest, GoldenFile) {
    // ticks_per_us = 1.0 makes timestamps deterministic: one unit created
    // on an external thread, run to completion on stream 0.
    const void* unit = reinterpret_cast<const void*>(0x10);
    const std::vector<TraceRecord> records = {
        {100, unit, TraceEvent::kCreate, kNoStream},
        {200, unit, TraceEvent::kStart, 0},
        {450, unit, TraceEvent::kFinish, 0},
    };
    std::ostringstream os;
    write_chrome_trace(os, records, ChromeTraceOptions{1.0, true});
    const std::string expected =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"stream 0\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"external\"}},\n"
        "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"s\":\"t\","
        "\"name\":\"create\",\"args\":{\"unit\":\"0x10\"}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":100.000,\"dur\":250.000,"
        "\"name\":\"run\",\"args\":{\"unit\":\"0x10\"}}\n"
        "]}\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(TraceExportTest, YieldClosesAndReopensSpans) {
    const void* unit = reinterpret_cast<const void*>(0x20);
    const std::vector<TraceRecord> records = {
        {0, unit, TraceEvent::kStart, 0},
        {10, unit, TraceEvent::kYield, 0},
        {20, unit, TraceEvent::kStart, 0},
        {30, unit, TraceEvent::kFinish, 0},
    };
    std::ostringstream os;
    write_chrome_trace(os, records, ChromeTraceOptions{1.0, false});
    const std::string text = os.str();
    // Two separate "run" spans, no instants (disabled).
    std::size_t spans = 0;
    for (std::size_t pos = 0; (pos = text.find("\"ph\":\"X\"", pos)) !=
                              std::string::npos;
         ++spans, ++pos) {
    }
    EXPECT_EQ(spans, 2u);
    EXPECT_EQ(text.find("\"ph\":\"i\""), std::string::npos);
}

TEST(TraceExportTest, OpenSpansAreClosedAtTraceEnd) {
    const void* unit = reinterpret_cast<const void*>(0x30);
    const std::vector<TraceRecord> records = {
        {0, unit, TraceEvent::kStart, 2},
    };
    std::ostringstream os;
    write_chrome_trace(os, records, ChromeTraceOptions{1.0, true});
    EXPECT_NE(os.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceExportTest, EmptyInputIsValidJson) {
    std::ostringstream os;
    write_chrome_trace(os, {}, ChromeTraceOptions{1.0, true});
    EXPECT_EQ(os.str(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
}

// --- ring overwrite accounting ----------------------------------------------

TEST(TracerDroppedTest, OverflowIsCountedAndClearResets) {
    auto& tracer = Tracer::instance();
    tracer.clear();
    tracer.enable();
    const std::size_t extra = 100;
    for (std::size_t i = 0; i < Tracer::kRingCapacity + extra; ++i) {
        tracer.record(TraceEvent::kYield, nullptr);
    }
    tracer.disable();
    const TraceStats s = tracer.stats();
    EXPECT_EQ(s.dropped, extra);
    EXPECT_EQ(tracer.snapshot().size(), Tracer::kRingCapacity);
    tracer.clear();
    EXPECT_EQ(tracer.stats().dropped, 0u);
    EXPECT_EQ(tracer.snapshot().size(), 0u);
}

// --- unit-latency recording through the scheduler ----------------------------

TEST(MetricsRecordingTest, QueueDwellAndExecAreRecordedPerStream) {
    auto& metrics = Metrics::instance();
    metrics.reset();
    metrics.enable();
    {
        DequePool pool;
        XStream stream(0,
                       std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
        stream.attach_caller();
        for (int i = 0; i < 8; ++i) {
            auto* t = new Tasklet([] {});
            t->detached = true;
            pool.push(t);
        }
        while (stream.progress()) {
        }
        stream.detach_caller();
    }
    metrics.disable();
    std::uint64_t dwell = 0;
    std::uint64_t exec = 0;
    for (const StreamUnitMetrics& m : metrics.unit_metrics()) {
        if (m.stream == 0) {
            dwell += m.queue_dwell.count;
            exec += m.exec_time.count;
        }
    }
    EXPECT_EQ(dwell, 8u);
    EXPECT_EQ(exec, 8u);
    metrics.reset();
}

TEST(MetricsRecordingTest, WakeLatencyIsRecordedOnBlockWakePairs) {
#ifdef LWT_TSAN_BUILD
    GTEST_SKIP() << "ULT context switches are invisible to TSan";
#endif
    auto& metrics = Metrics::instance();
    metrics.reset();
    metrics.enable();
    {
        DequePool pool;
        XStream stream(0,
                       std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
        stream.attach_caller();
        UltMutex mutex;
        auto* holder = new Ult([&] {
            mutex.lock();
            Ult::current()->yield();
            mutex.unlock();
        });
        holder->detached = true;
        auto* waiter = new Ult([&] {
            mutex.lock();
            mutex.unlock();
        });
        waiter->detached = true;
        pool.push(holder);
        pool.push(waiter);
        while (stream.progress()) {
        }
        stream.detach_caller();
    }
    metrics.disable();
    std::uint64_t wakes = 0;
    for (const StreamUnitMetrics& m : metrics.unit_metrics()) {
        wakes += m.wake_latency.count;
    }
    // rdtsc()==0 on non-x86: the blocked_at stamp is 0 there and no sample
    // is taken, so only assert on platforms with a cycle counter.
    if (lwt::arch::rdtsc() != 0) {
        EXPECT_GE(wakes, 1u);
    }
    metrics.reset();
}

// --- Runtime::reset_stats ----------------------------------------------------

TEST(RuntimeResetStatsTest, OneCallZeroesAllTelemetry) {
    Tracer::instance().clear();
    Tracer::instance().enable();
    Metrics::instance().enable();
    std::vector<std::unique_ptr<DequePool>> pools;
    for (int i = 0; i < 2; ++i) {
        pools.push_back(std::make_unique<DequePool>());
    }
    Runtime rt(2, [&](unsigned rank) {
        return std::make_unique<Scheduler>(
            std::vector<Pool*>{pools[rank].get()});
    });
    MetricsRegistry::instance().counter("test.reset.counter").inc();
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
        auto* t = new Tasklet([&] { ran.fetch_add(1); });
        t->detached = true;
        pools[i % 2]->push(t);
    }
    while (ran.load() < 16) {
        rt.primary().progress();
    }
    EXPECT_GE(Tracer::instance().stats().of(TraceEvent::kFinish), 16u);

    rt.reset_stats();

    EXPECT_EQ(Tracer::instance().stats().of(TraceEvent::kFinish), 0u);
    EXPECT_EQ(rt.sched_stats().steal_attempts, 0u);
    for (const StreamUnitMetrics& m : Metrics::instance().unit_metrics()) {
        EXPECT_EQ(m.queue_dwell.count, 0u);
        EXPECT_EQ(m.exec_time.count, 0u);
    }
    EXPECT_EQ(
        MetricsRegistry::instance().counter("test.reset.counter").value(), 0u);
    Tracer::instance().disable();
    Metrics::instance().disable();
    Tracer::instance().clear();
    Metrics::instance().reset();
}

TEST(RuntimeResetStatsTest, PostResetRegistrySnapshotIsEmpty) {
    // Regression guard for counters added after the original reset_stats
    // audit (PR 3+): bump every post-PR3 registry family — reactor, timer,
    // sync, and a request-latency histogram — then assert one reset_stats
    // call leaves a completely zeroed registry snapshot. A counter that a
    // future subsystem registers but reset_values misses fails here.
    auto& reg = MetricsRegistry::instance();
    reg.counter("io.reactor.wakes").inc(3);
    reg.counter("io.reactor.polls").inc(5);
    reg.counter("io.timer.fires").inc(2);
    reg.counter("sync.suspends").inc(7);
    reg.counter("sched.stalls").inc(1);
    reg.gauge("sched.longest_unit_ms").set(42);
    reg.histogram("io.req_latency_ticks").record(123);

    std::vector<std::unique_ptr<DequePool>> pools;
    pools.push_back(std::make_unique<DequePool>());
    Runtime rt(1, [&](unsigned) {
        return std::make_unique<Scheduler>(
            std::vector<Pool*>{pools[0].get()});
    });
    rt.reset_stats();

    for (const auto& e : reg.counters()) {
        EXPECT_EQ(e.value, 0u) << "counter not reset: " << e.name;
    }
    for (const auto& e : reg.gauges()) {
        EXPECT_EQ(e.value, 0) << "gauge not reset: " << e.name;
        EXPECT_EQ(e.max, 0) << "gauge max not reset: " << e.name;
    }
    for (const auto& e : reg.histograms()) {
        EXPECT_EQ(e.hist.count, 0u) << "histogram not reset: " << e.name;
        EXPECT_EQ(e.hist.sum, 0u) << "histogram sum not reset: " << e.name;
    }
}

// --- concurrency stress (run under TSan via tools/tsan.sh) -------------------

TEST(MetricsStressTest, ConcurrentWritersSnapshotsAndGauge) {
    auto& tracer = Tracer::instance();
    auto& metrics = Metrics::instance();
    tracer.clear();
    metrics.reset();
    tracer.enable();
    metrics.enable();

    std::atomic<std::size_t> depth{0};
    std::atomic<bool> stop{false};
    // A gauge written from its own thread while the writers bump what it
    // reads: the pattern of a pool-depth gauge.
    Gauge& gauge = MetricsRegistry::instance().gauge("test.stress.depth");
    std::thread gauge_writer([&] {
        do {
            gauge.set(static_cast<std::int64_t>(
                depth.load(std::memory_order_relaxed)));
        } while (!stop.load(std::memory_order_relaxed));
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
        writers.emplace_back([&, w] {
            std::uint64_t v = static_cast<std::uint64_t>(w);
            while (!stop.load(std::memory_order_relaxed)) {
                tracer.record(TraceEvent::kYield, &v);
                metrics.record_exec(++v);
                metrics.record_queue_dwell(v);
                depth.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const TraceStats s = tracer.stats();
            EXPECT_LE(s.of(TraceEvent::kCreate), s.of(TraceEvent::kYield) + 1);
            for (const TraceRecord& r : tracer.snapshot()) {
                // Torn reads would surface as garbage event values here.
                EXPECT_LE(static_cast<std::size_t>(r.event), kTraceEventKinds);
            }
            (void)metrics.unit_metrics();
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
    for (auto& t : writers) {
        t.join();
    }
    reader.join();
    gauge_writer.join();
    EXPECT_GE(gauge.samples(), 1u);
    tracer.disable();
    metrics.disable();
    tracer.clear();
    metrics.reset();
    MetricsRegistry::instance().reset_values();
}

}  // namespace
