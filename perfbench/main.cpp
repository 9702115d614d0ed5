// lwt_perfbench — end-to-end and per-layer benchmark of the runtime's
// public glt / abt / gol / io calls. Usage:
//
//   lwt_perfbench --workload tree|region|echo --seed N --seconds S
//                 --trace 0|1 [--smoke] [--inject-hang]
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones (README.md).
#include <signal.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, std::pair<double, std::string>>;

const char* const kWorkloads[] = {"tree", "region", "echo"};
/// Span files go here, relative to the working directory (the checkout).
constexpr const char* kSpanDir = ".bench_out";

std::unique_ptr<Workload> make(const std::string& name, const Options& o) {
    if (name == "tree") return make_tree(o);
    if (name == "region") return make_region(o);
    if (name == "echo") return make_echo(o);
    throw std::invalid_argument("unknown workload " + name);
}

/// Every per-layer metric and its unit; a traced run prints all of them.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"abt.create_ns", "ns"},
    {"core.dispatch_us", "us"},
    {"core.join.ready_ns", "ns"},
    {"core.join.handoff_us", "us"},
    {"alloc.unit_cache.hit_ratio", "ratio"},
    {"alloc.stack.maps_per_op", "count"},
    {"app.leaf_ns", "ns"},
    {"tree.abt.self_ns_per_task", "ns"},
    {"tree.core.self_ns_per_task", "ns"},
    {"tree.app.self_ns_per_task", "ns"},
    {"tree.op.self_ns_per_task", "ns"},
    {"abt.spawn_bulk_ns_per_unit", "ns"},
    {"sched.wake_us", "us"},
    {"sched.drain_us", "us"},
    {"core.wait.resume_us", "us"},
    {"sched.main_share", "ratio"},
    {"region.abt.self_us_per_op", "us"},
    {"region.sched.self_us_per_op", "us"},
    {"region.core.self_us_per_op", "us"},
    {"region.op.self_us_per_op", "us"},
    {"reactor.wake_us", "us"},
    {"io.write_all_ns", "ns"},
    {"client.reply_us", "us"},
    {"reactor.polls_per_wake", "ratio"},
    {"reactor.wakes_per_req", "ratio"},
    {"echo.reactor.self_us_per_op", "us"},
    {"echo.io.self_us_per_op", "us"},
    {"echo.client.self_us_per_op", "us"},
    {"echo.op.self_us_per_op", "us"},
    {"sched.idle_yields_per_op", "count"},
    {"sched.parks_per_op", "count"},
    {"sched.park_timeout_ratio", "ratio"},
    {"latency_p99_us", "us"},
    {"trace.overhead_pct", "%"},
    {"host.calib_us", "us"},
    {"host.calib_after_us", "us"},
};

/// Peak resident set size in MB: the kernel's high-water mark for this
/// process image (VmHWM). ru_maxrss reports the same mark but, on Linux, also
/// carries over the launcher's RSS across exec, which hid this process's own
/// peak under the driving Python process's.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double secs_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Prints the result line; `complete` is false when a metric is missing.
bool finish(const Metrics& metrics, bool complete = true) {
    const Progress& p = progress();
    const std::uint64_t started = p.started.load();
    const std::uint64_t failed = p.failed.load() + (started - p.done.load());
    const bool correct = complete && failed == 0 && started > 0;
    print_result(correct, started, failed, metrics);
    return correct;
}

/// --trace 0: one boot, its untimed warm-up and its measured phase, then
/// setups(o) - 1 more boots; setup_s is the median boot. The extra boots
/// come after the peak-RSS reading because every boot leaves per-thread
/// caches of its retired streams behind.
bool untraced_run(const Options& o) {
    std::vector<double> boots;
    const auto boot = [&] {
        const auto t0 = Clock::now();
        std::unique_ptr<Workload> w = make(o.workload, o);
        boots.push_back(secs_since(t0));
        return w;
    };
    std::unique_ptr<Workload> w = boot();
    w->warm();
    Phase ph = w->measure(o.seconds, false);
    w.reset();
    const double rss_mb = peak_rss_mb();
    while (static_cast<int>(boots.size()) < setups(o)) {
        boot();  // torn down outside the timed part
    }
    Metrics m;
    m["throughput"] = {median(ph.rate), "1/s"};
    m["latency_p50_us"] = {ph.p50_us, "us"};
    m["latency_p90_us"] = {ph.p90_us, "us"};
    m["cpu_us_per_op"] = {median(ph.cpu_us_per_op), "us"};
    m["setup_s"] = {median(boots), "s"};
    m["peak_rss_mb"] = {rss_mb, "MB"};
    std::fprintf(stdout, "# %s: %llu ops measured, %zu windows\n",
                 o.workload.c_str(), static_cast<unsigned long long>(ph.ops),
                 ph.rate.size());
    return finish(m);
}

void write_spans(const std::string& path,
                 const std::vector<std::pair<std::string, Phase>>& phases) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    char line[512];
    for (const auto& [workload, ph] : phases) {
        for (const Span& s : ph.spans) {
            const double start = since_start_ns(s.begin);
            std::snprintf(line, sizeof line,
                          "{\"workload\": \"%s\", \"op\": %llu, \"id\": %d, "
                          "\"parent\": %d, \"name\": \"%s\", \"start_ns\": "
                          "%.1f, \"end_ns\": %.1f, \"stream\": %d}\n",
                          workload.c_str(),
                          static_cast<unsigned long long>(s.op), s.id, s.parent,
                          s.name, start,
                          start + ticks_to_ns(ticks(s.begin, s.end)), s.stream);
            out << line;
        }
    }
}

/// --trace 1: a short traced pass of each other workload, so that every
/// layer's metrics are printed on every traced run, then the named workload
/// untraced and traced (their p50s give trace.overhead_pct).
bool traced_run(const Options& o) {
    const double calib_before = host_calib_us();
    std::map<std::string, double> layers;
    std::vector<std::pair<std::string, Phase>> traced;
    for (int pass = 0; pass < 2; ++pass) {
        for (const char* name : kWorkloads) {
            const bool own = name == o.workload;
            if (own != (pass == 1)) {
                continue;  // others first, so the named workload's
                           // shared sched.* figures are the ones kept
            }
            std::unique_ptr<Workload> w = make(name, o);
            w->warm();
            Phase u;
            if (own) {
                u = w->measure(o.seconds * 0.35, false);
            }
            Phase t = w->measure(o.seconds * (own ? 0.35 : 0.15), true);
            w.reset();
            for (const auto& [k, v] : t.layers) {
                layers[k] = v;
            }
            if (own) {
                // The sched.* counts come from the untraced phase: in the
                // traced one the main thread's per-op analysis leaves the
                // other streams idle.
                for (const auto& [k, v] : u.layers) {
                    layers[k] = v;
                }
                layers["latency_p99_us"] = u.p99_us;
                layers["trace.overhead_pct"] =
                    u.p50_us > 0 ? 100.0 * (t.p50_us - u.p50_us) / u.p50_us
                                 : 0.0;
            }
            std::fprintf(stdout, "# %s\n", t.breakdown.c_str());
            traced.emplace_back(name, std::move(t));
        }
    }
    layers["host.calib_us"] = calib_before;
    layers["host.calib_after_us"] = host_calib_us();

    std::error_code ec;
    std::filesystem::create_directories(kSpanDir, ec);
    const std::string path = std::string(kSpanDir) + "/spans-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".jsonl";
    write_spans(path, traced);
    std::fprintf(stdout, "# spans: %s\n", path.c_str());

    Metrics m;
    bool complete = true;
    for (const auto& [name, unit] : kLayerMetrics) {
        const auto it = layers.find(name);
        if (it == layers.end() || !std::isfinite(it->second)) {
            std::fprintf(stderr, "perfbench: per-layer metric %s missing\n",
                         name);
            complete = false;
            continue;
        }
        m[name] = {it->second, unit};
    }
    return finish(m, complete);
}

double number(const char* flag, const char* v) {
    char* end = nullptr;
    const double d = std::strtod(v, &end);
    if (end == v || *end != '\0' || !std::isfinite(d) || d < 0) {
        throw std::invalid_argument(std::string("bad value for ") + flag);
    }
    return d;
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                throw std::invalid_argument("missing value for " + a);
            }
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = static_cast<std::uint64_t>(number("--seed", value()));
        } else if (a == "--seconds") {
            o.seconds = number("--seconds", value());
        } else if (a == "--trace") {
            o.trace = number("--trace", value()) != 0;
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--inject-hang") {
            o.inject_hang = true;
        } else {
            throw std::invalid_argument("unknown argument " + a);
        }
    }
    bool known = false;
    for (const char* w : kWorkloads) {
        known = known || o.workload == w;
    }
    if (!known || o.seconds <= 0) {
        throw std::invalid_argument("need --workload tree|region|echo and "
                                    "--seconds > 0");
    }
    return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options o;
    try {
        o = parse(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lwt_perfbench: %s\n", e.what());
        return 2;
    }
    // Nothing in the environment may re-route the runtime: the options in
    // runtime_options() are the whole configuration.
    pin_environment();
    signal(SIGPIPE, SIG_IGN);
    Watchdog watchdog(stall_seconds(o));
    try {
        return (o.trace ? traced_run(o) : untraced_run(o)) ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lwt_perfbench: %s\n", e.what());
        progress().failed.fetch_add(1);
        finish({}, false);
        return 1;
    }
}
