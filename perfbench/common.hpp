// common.hpp — shared pieces of the end-to-end benchmark: options, clocks,
// fixed compute, exact-sample statistics, measurement windows, spans and
// the run deadline. README.md in this directory describes the workloads and
// every metric.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "arch/cpu.hpp"
#include "core/sched_stats.hpp"
#include "glt/glt.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Tiny sizes, short windows, fewer boots and a short run deadline for
    /// the self-test.
    bool smoke = false;
    /// Test hook: one op of the measured phase never returns.
    bool inject_hang = false;
};

/// Boots (runtime boot + the warm-up that fills the caches) per untraced
/// run; setup_s is their median.
inline int setups(const Options& o) { return o.smoke ? 2 : 21; }
/// The run ends, counting unfinished ops as failed, when no op completes
/// for this long.
inline double stall_seconds(const Options& o) { return o.smoke ? 2.0 : 20.0; }

// --- clocks -------------------------------------------------------------------

inline std::uint64_t tsc() noexcept { return lwt::arch::rdtsc(); }

/// Nanoseconds per TSC tick, from the tick and steady-clock distance since
/// process start: accurate to well under 0.1% once the run is a second old.
double ns_per_tick();

/// Ticks from stamp `b` to stamp `e`, never negative. Stamps taken on
/// different CPUs (a thread migrated, or a span crosses streams) can be a
/// few hundred ticks out of order on a VM.
inline double ticks(std::uint64_t b, std::uint64_t e) noexcept {
    return e > b ? static_cast<double>(e - b) : 0.0;
}

/// Nanoseconds from process start to TSC stamp `t` (span file times).
double since_start_ns(std::uint64_t t);

inline double ticks_to_us(double ticks) { return ticks * ns_per_tick() / 1e3; }
inline double ticks_to_ns(double ticks) { return ticks * ns_per_tick(); }

/// Process CPU (user + system, every thread) in nanoseconds.
std::uint64_t process_cpu_ns();

// --- fixed compute --------------------------------------------------------------

/// `iters` xorshift64 steps kept in a register. The empty asm stops the
/// compiler from folding or vectorising the loop, so the cost is a fixed
/// dependency chain independent of memory layout. Never calibrated at run
/// time: the iteration counts below are constants.
inline std::uint64_t spin_work(std::uint64_t x, std::uint32_t iters) noexcept {
    for (std::uint32_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        asm volatile("" : "+r"(x));
    }
    return x;
}

/// Leaf / tasklet body: about 0.5 us on a 2-3 GHz x86 core.
inline constexpr std::uint32_t kLeafIters = 200;
/// Host control loop: about 1 ms.
inline constexpr std::uint32_t kCalibIters = 1u << 18;

/// splitmix64: seeds and per-op inputs derived from --seed. Never 0 for the
/// xorshift state callers feed it to (they OR in 1).
inline std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Best of five timings of the host control loop, in microseconds.
double host_calib_us();

// --- statistics -----------------------------------------------------------------

/// Nearest-rank median of `v`; 0 when empty.
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Latency samples of the current measurement window, in TSC ticks, and the
/// quantiles of every closed window. The buffer holds one window: it is
/// sized and touched during set-up and reused by every window, so neither
/// page faults nor reallocation land in the measured phase and its size
/// does not grow with the run. Samples past capacity are counted and
/// dropped.
class Samples {
  public:
    /// Room for `n` samples per window.
    void reserve(std::size_t n);
    /// Records the latency from stamp `b` to stamp `e`.
    void add(std::uint64_t b, std::uint64_t e) {
        if (n_ == buf_.size()) {
            ++dropped_;
            return;
        }
        buf_[n_++] = static_cast<std::uint32_t>(
            std::min<double>(ticks(b, e), UINT32_MAX));
    }
    /// Ends the current window: keeps its p50, p90 and p99 and empties the
    /// buffer. An empty window leaves no quantiles.
    void close_window();
    /// Forgets every sample and every closed window.
    void clear();
    [[nodiscard]] std::size_t windows() const { return p50_.size(); }

  private:
    friend void set_latency(struct Phase& ph, std::span<Samples* const> parts);
    std::vector<std::uint32_t> buf_;
    std::size_t n_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<double> p50_, p90_, p99_;  // us, one per closed window
};

/// Sample capacity of one window for ops completing at up to
/// `max_per_second`.
std::size_t window_samples(const Options& o, double max_per_second);

// --- measurement windows --------------------------------------------------------

/// Splits a measured phase into fixed windows and keeps, per window, the work
/// rate and the CPU spent per op. Reported figures are medians over windows,
/// so a host hiccup in one window does not move them.
class Windows {
  public:
    /// `cpu_ns` returns the CPU to charge to the system under test.
    Windows(double window_s, std::function<std::uint64_t()> cpu_ns);

    void start(std::uint64_t work, std::uint64_t ops);
    /// Close the current window if its time is up. Cheap; call after each op.
    void poll(std::uint64_t work, std::uint64_t ops) {
        if (tsc() >= next_tsc_) {
            close(work, ops);
        }
    }
    /// Close the current window unconditionally.
    void close(std::uint64_t work, std::uint64_t ops);

    /// Work units per second (of wall time, or of `busy` time when given).
    std::vector<double> rate;
    std::vector<double> cpu_us_per_op;
    /// Optional busy-time accumulator (ticks) that replaces wall time in the
    /// rate, for loops whose idle gap is not the system's doing.
    std::uint64_t busy_ticks = 0;
    bool rate_over_busy = false;
    /// Latency samples cleared by start() and window-closed with every
    /// window, if any.
    Samples* latency = nullptr;

  private:
    std::function<std::uint64_t()> cpu_ns_;
    std::uint64_t window_ticks_ = 0;
    std::uint64_t next_tsc_ = 0;
    std::uint64_t t0_ = 0, work0_ = 0, ops0_ = 0, cpu0_ = 0, busy0_ = 0;
};

// --- spans ----------------------------------------------------------------------

/// One timed interval of a traced op. Spans of one op share `op`; `parent`
/// is the id of the enclosing span within the op (-1 for the op itself).
struct Span {
    const char* name;
    std::uint64_t op;
    std::int32_t id;
    std::int32_t parent;
    std::uint64_t begin;  // TSC
    std::uint64_t end;    // TSC
    std::int32_t stream;  // execution-stream rank, -1 off-runtime
};

/// Each instant of [b, e) charged to the first part (in order) covering it;
/// returns per-part exclusive ticks, and the uncovered rest in `*rest`.
std::vector<double> attribute(std::uint64_t b, std::uint64_t e,
                              std::span<const std::pair<std::uint64_t,
                                                        std::uint64_t>> parts,
                              double* rest);

// --- phases ---------------------------------------------------------------------

/// What one measured phase of a workload produced.
struct Phase {
    double p50_us = 0, p90_us = 0, p99_us = 0;
    std::vector<double> rate;
    std::vector<double> cpu_us_per_op;
    std::uint64_t ops = 0;
    /// Traced phases only: per-layer metrics, bounded spans, and the op
    /// breakdown line.
    std::map<std::string, double> layers;
    std::vector<Span> spans;
    std::string breakdown;
};

/// A workload owns its runtime. Constructing it boots the runtime and runs
/// the few ops that fill the unit cache, the stack pool and the connections
/// (what setup_s times); warm() then runs the longer, untimed warm-up that
/// settles the measured phase. Destroying it joins every unit and thread it
/// started.
class Workload {
  public:
    virtual ~Workload() = default;
    virtual void warm() = 0;
    virtual Phase measure(double seconds, bool traced) = 0;
};

std::unique_ptr<Workload> make_tree(const Options& o);
std::unique_ptr<Workload> make_region(const Options& o);
std::unique_ptr<Workload> make_echo(const Options& o);

/// The pinned runtime configuration every workload boots with: each field
/// set explicitly, after pin_environment() cleared the LWT_* / GLT_*
/// variables that would override it.
lwt::glt::RuntimeOptions runtime_options(lwt::glt::Backend backend,
                                         std::size_t workers);
void pin_environment();

/// Windowing/trace bounds shared by the workloads.
double window_seconds(const Options& o);
inline constexpr std::size_t kMaxTracedOpsWithSpans = 64;
inline constexpr std::size_t kMaxSpans = 40000;

/// Public runtime counters (Runtime::sched_stats(), and the registry after
/// core::publish_alloc_metrics()); per-layer counts are their deltas over a
/// measured phase.
struct Counters {
    lwt::core::SchedStats sched;
    std::uint64_t cache_allocs = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t stack_maps = 0;
    std::uint64_t reactor_polls = 0;
    std::uint64_t reactor_wakes = 0;
};
Counters read_counters(const lwt::glt::Runtime& rt);

/// Latency of a phase into `ph`: p50, p90 and p99 are medians over the
/// closed windows of every part of each window's quantile.
void set_latency(Phase& ph, std::span<Samples* const> parts);

/// Idle-ladder and parking-lot deltas per op (the sched.* counts every
/// workload reports).
void add_sched_layers(std::map<std::string, double>& layers,
                      const Counters& before, const Counters& after,
                      std::uint64_t ops);

// --- progress and the run deadline ----------------------------------------------

/// Ops started / completed / failed, process-wide: the watchdog's view.
struct Progress {
    std::atomic<std::uint64_t> started{0};
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::uint64_t> failed{0};

    void begin() { started.fetch_add(1, std::memory_order_relaxed); }
    void end(bool ok) {
        if (!ok) {
            failed.fetch_add(1, std::memory_order_relaxed);
        }
        done.fetch_add(1, std::memory_order_release);
    }
};
Progress& progress();

/// Ends the process when ops stop completing: prints the result line with
/// every unfinished op counted as failed and exits with status 3. Units that
/// never return cannot be joined, so this is the one exit that skips
/// teardown.
class Watchdog {
  public:
    explicit Watchdog(double stall_seconds);
    ~Watchdog();
    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;

  private:
    void loop();
    double stall_seconds_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/// Serialises the final result line; also used by the watchdog.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, std::pair<double, std::string>>&
                      metrics);

}  // namespace perfbench
