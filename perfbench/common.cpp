#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <thread>

#include "core/metrics.hpp"
#include "core/observability.hpp"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Origin {
    std::uint64_t tsc0 = tsc();
    Clock::time_point t0 = Clock::now();
};
const Origin g_origin;

std::mutex g_print_mu;

}  // namespace

double ns_per_tick() {
    // Recomputed at most every ~2^26 ticks (tens of ms): callers convert
    // millions of traced samples.
    thread_local double cached = 0.0;
    thread_local std::uint64_t cached_at = 0;
    const std::uint64_t t = tsc();
    if (cached > 0.0 && t - cached_at < (std::uint64_t{1} << 26)) {
        return cached;
    }
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - g_origin.t0)
            .count();
    const auto elapsed = static_cast<double>(t - g_origin.tsc0);
    cached = elapsed > 0 && ns > 0 ? ns / elapsed : 1.0;
    cached_at = t;
    return cached;
}

double since_start_ns(std::uint64_t t) {
    return static_cast<double>(static_cast<std::int64_t>(t - g_origin.tsc0)) *
           ns_per_tick();
}

std::uint64_t process_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double host_calib_us() {
    double best = 1e300;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        sink += spin_work(0x2545f4914f6cdd1dull + rep, kCalibIters);
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        best = std::min(best, us);
    }
    asm volatile("" : : "r"(sink));
    return best;
}

double median(std::vector<double> v) {
    if (v.empty()) {
        return 0.0;
    }
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>((v.size() - 1) / 2);
    std::nth_element(v.begin(), mid, v.end());
    return *mid;
}

double mean(const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

void Samples::reserve(std::size_t n) {
    buf_.assign(n, 0);  // touches every page now, in set-up
    clear();
}

void Samples::clear() {
    n_ = 0;
    dropped_ = 0;
    p50_.clear();
    p90_.clear();
    p99_.clear();
}

namespace {

/// Nearest-rank quantile of the `n` tick samples at `first`, in
/// microseconds (reorders them).
double quantile_us(std::uint32_t* first, std::size_t n, double q) {
    std::size_t k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    k = std::clamp<std::size_t>(k, 1, n) - 1;
    std::nth_element(first, first + k, first + n);
    return ticks_to_us(static_cast<double>(first[k]));
}

}  // namespace

void Samples::close_window() {
    if (n_ == 0) {
        return;
    }
    p50_.push_back(quantile_us(buf_.data(), n_, 0.50));
    p90_.push_back(quantile_us(buf_.data(), n_, 0.90));
    p99_.push_back(quantile_us(buf_.data(), n_, 0.99));
    n_ = 0;
}

std::size_t window_samples(const Options& o, double max_per_second) {
    return static_cast<std::size_t>(window_seconds(o) * max_per_second) + 1024;
}

void set_latency(Phase& ph, std::span<Samples* const> parts) {
    std::vector<double> p50, p90, p99;
    std::uint64_t dropped = 0;
    for (const Samples* p : parts) {
        p50.insert(p50.end(), p->p50_.begin(), p->p50_.end());
        p90.insert(p90.end(), p->p90_.begin(), p->p90_.end());
        p99.insert(p99.end(), p->p99_.begin(), p->p99_.end());
        dropped += p->dropped_;
    }
    ph.p50_us = median(p50);
    ph.p90_us = median(p90);
    ph.p99_us = median(p99);
    if (dropped > 0) {
        std::fprintf(stdout, "# %llu latency samples past the buffer dropped\n",
                     static_cast<unsigned long long>(dropped));
    }
}

Windows::Windows(double window_s, std::function<std::uint64_t()> cpu_ns)
    : cpu_ns_(std::move(cpu_ns)),
      window_ticks_(static_cast<std::uint64_t>(window_s * 1e9 / ns_per_tick())) {}

void Windows::start(std::uint64_t work, std::uint64_t ops) {
    if (latency != nullptr) {
        latency->clear();
    }
    t0_ = tsc();
    next_tsc_ = t0_ + window_ticks_;
    work0_ = work;
    ops0_ = ops;
    busy0_ = busy_ticks;
    cpu0_ = cpu_ns_();
}

void Windows::close(std::uint64_t work, std::uint64_t ops) {
    const std::uint64_t t = tsc();
    const std::uint64_t cpu = cpu_ns_();
    const double span = rate_over_busy ? ticks(busy0_, busy_ticks) : ticks(t0_, t);
    if (ops > ops0_ && span > 0) {
        rate.push_back(static_cast<double>(work - work0_) /
                       (ticks_to_ns(span) / 1e9));
        cpu_us_per_op.push_back(static_cast<double>(cpu - cpu0_) / 1e3 /
                                static_cast<double>(ops - ops0_));
    }
    if (latency != nullptr) {
        latency->close_window();
    }
    t0_ = t;
    next_tsc_ = t + window_ticks_;
    work0_ = work;
    ops0_ = ops;
    busy0_ = busy_ticks;
    cpu0_ = cpu;
}

std::vector<double> attribute(
    std::uint64_t b, std::uint64_t e,
    std::span<const std::pair<std::uint64_t, std::uint64_t>> parts,
    double* rest) {
    std::vector<std::uint64_t> cuts{b, e};
    for (const auto& [pb, pe] : parts) {
        cuts.push_back(std::clamp(pb, b, e));
        cuts.push_back(std::clamp(pe, b, e));
    }
    std::sort(cuts.begin(), cuts.end());
    std::vector<double> out(parts.size(), 0.0);
    *rest = 0.0;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        const std::uint64_t lo = cuts[i];
        const std::uint64_t hi = cuts[i + 1];
        if (hi == lo) {
            continue;
        }
        const auto len = static_cast<double>(hi - lo);
        bool charged = false;
        for (std::size_t p = 0; p < parts.size(); ++p) {
            if (parts[p].first <= lo && hi <= parts[p].second) {
                out[p] += len;
                charged = true;
                break;
            }
        }
        if (!charged) {
            *rest += len;
        }
    }
    return out;
}

lwt::glt::RuntimeOptions runtime_options(lwt::glt::Backend backend,
                                         std::size_t workers) {
    lwt::glt::RuntimeOptions o;
    o.backend = backend;
    o.workers = workers;
    o.topology = "";  // discover the real machine
    o.bind = lwt::arch::BindPolicy::kNone;
    o.join = lwt::core::JoinMode::kHandoff;
    // Idle streams park: their CPU then does not depend on how much spare
    // parallel capacity the host happens to have, and the parking-lot layer
    // is on the measured path.
    o.idle = lwt::sync::IdlePolicy::kPark;
    // A depth-10 tree keeps about 1,000 ULTs alive; with the default cap of
    // 64 free stacks it mapped and unmapped ~440 stacks per tree, ran 5x
    // slower and its tail followed the host's TLB-shootdown cost.
    o.stack_cache = 1024;
    o.stack_huge = false;
    o.trace_sink = "";
    o.metrics_sink = "";
    o.io_poller = true;
    o.introspect_addr = "";
    o.watchdog_ms = 0;
    return o;
}

void pin_environment() {
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("LWT", 0) == 0 || kv.rfind("GLT_", 0) == 0) {
            names.push_back(kv.substr(0, kv.find('=')));
        }
    }
    for (const std::string& n : names) {
        unsetenv(n.c_str());
    }
}

double window_seconds(const Options& o) { return o.smoke ? 0.02 : 0.5; }

Counters read_counters(const lwt::glt::Runtime& rt) {
    auto& reg = lwt::core::MetricsRegistry::instance();
    lwt::core::publish_alloc_metrics();
    Counters c;
    c.sched = rt.sched_stats();
    c.cache_allocs = reg.counter("alloc.unit_cache.allocs").value();
    c.cache_hits = reg.counter("alloc.unit_cache.hits").value();
    c.stack_maps =
        static_cast<std::uint64_t>(reg.gauge("alloc.stack.maps").value());
    c.reactor_polls = reg.counter("io.reactor.polls").value();
    c.reactor_wakes = reg.counter("io.reactor.wakes").value();
    return c;
}

void add_sched_layers(std::map<std::string, double>& layers,
                      const Counters& c0, const Counters& c1,
                      std::uint64_t ops) {
    const lwt::core::SchedStats& before = c0.sched;
    const lwt::core::SchedStats& after = c1.sched;
    const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
    const auto parks = static_cast<double>(after.parks - before.parks);
    layers["sched.idle_yields_per_op"] =
        static_cast<double>(after.idle_yields - before.idle_yields) / n;
    layers["sched.parks_per_op"] = parks / n;
    layers["sched.park_timeout_ratio"] =
        parks > 0 ? static_cast<double>(after.park_timeouts -
                                        before.park_timeouts) /
                        parks
                  : 0.0;
}

Progress& progress() {
    static Progress p;
    return p;
}

void print_result(
    bool correct, std::uint64_t attempted, std::uint64_t failed,
    const std::map<std::string, std::pair<double, std::string>>& metrics) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    char num[64];
    for (const auto& [name, vu] : metrics) {
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(vu.first) ? vu.first : 0.0);
        out += first ? "" : ", ";
        out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
               vu.second + "\"}";
        first = false;
    }
    out += "}}\n";
    const std::lock_guard<std::mutex> lock(g_print_mu);
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
}

Watchdog::Watchdog(double stall_seconds)
    : stall_seconds_(stall_seconds), thread_([this] { loop(); }) {}

Watchdog::~Watchdog() {
    stop_.store(true);
    thread_.join();
}

void Watchdog::loop() {
    Progress& p = progress();
    std::uint64_t last_done = p.done.load(std::memory_order_acquire);
    auto last_change = Clock::now();
    while (!stop_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const std::uint64_t done = p.done.load(std::memory_order_acquire);
        const auto now = Clock::now();
        if (done != last_done) {
            last_done = done;
            last_change = now;
            continue;
        }
        if (std::chrono::duration<double>(now - last_change).count() <
            stall_seconds_) {
            continue;
        }
        const std::uint64_t started = p.started.load();
        const std::uint64_t unfinished = started - done;
        std::fprintf(stderr,
                     "perfbench: no op completed for %.1f s; ending the run "
                     "with %llu unfinished op(s) counted as failed\n",
                     stall_seconds_,
                     static_cast<unsigned long long>(unfinished));
        print_result(false, std::max<std::uint64_t>(started, 1),
                     p.failed.load() + std::max<std::uint64_t>(unfinished, 1),
                     {});
        std::_Exit(3);
    }
}

}  // namespace perfbench
