// net_echo — the reactor acceptance workload: a ULT-per-connection echo
// server sustaining thousands of concurrent loopback connections.
//
// Split across two processes because the container's RLIMIT_NOFILE hard
// cap (20000 fds) cannot hold both ends of 10k connections in one process:
//
//   * the PARENT runs the server — a gol runtime where one acceptor
//     goroutine spawns an echo goroutine per connection, every read/write
//     suspending through core::Reactor — and samples the reactor counters
//     (io.reactor.wakes / polls / timer fires);
//   * for each sweep point it fork+execs ITSELF (`--client ...` via
//     /proc/self/exe, exec immediately after fork: the parent is
//     multi-threaded) as the CLIENT, which opens `conns` concurrent
//     connections, drives `reqs` request/reply round trips on each, and
//     ships its "io.req_latency_ticks" HistogramSnapshot + throughput back
//     over a pipe. Client sockets close by RST (SO_LINGER 0) so sweeps
//     don't exhaust ephemeral ports in TIME_WAIT.
//
// Sweep (connections x payload x streams) and report, per point:
// throughput (requests/s), per-request latency mean/p50/p99 (us, from the
// client's log2 histogram), and the server's reactor wake/poll counts.
// Always writes BENCH_net.json (the io-smoke CI leg parses it; --json is
// accepted for symmetry with the figure benches).
//
// Env: LWTBENCH_NET_CONNS / _PAYLOAD / _STREAMS / _REQS override the sweep
// with single values (the CI smoke uses tiny ones).
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "core/reactor.hpp"
#include "core/trace_export.hpp"
#include "gol/gol.hpp"
#include "io/io.hpp"
#include "obs/introspect.hpp"

namespace {

namespace io = lwt::io;
using lwt::core::Deadline;
using lwt::core::HistogramSnapshot;
using lwt::core::kHistogramBuckets;
using std::chrono::steady_clock;

constexpr auto kOpDeadline = std::chrono::seconds(60);

/// Fixed-layout result blob the client ships to the parent over the pipe.
struct ClientReport {
    std::uint64_t ok_conns = 0;
    std::uint64_t ok_reqs = 0;
    std::uint64_t elapsed_ns = 0;
    double ticks_per_us = 0.0;
    std::uint64_t buckets[kHistogramBuckets] = {};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
};

void raise_fd_limit() {
    struct rlimit rl{};
    if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
        rl.rlim_cur = rl.rlim_max;
        ::setrlimit(RLIMIT_NOFILE, &rl);
    }
}

/// A positive decimal integer from the environment, or `fallback` when the
/// variable is unset. A value that is not one, is not positive or does not
/// fit a long is rejected with a note on stderr.
long env_long(const char* name, long fallback) {
    const char* v = std::getenv(name);
    if (v == nullptr) {
        return fallback;
    }
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || errno == ERANGE || parsed <= 0) {
        std::fprintf(stderr, "net_echo: ignoring %s=%s (want 1..%ld)\n", name,
                     v, LONG_MAX);
        return fallback;
    }
    return parsed;
}

// --- client process ----------------------------------------------------------

int run_client(std::uint16_t port, std::size_t conns, std::size_t payload,
               std::size_t reqs, int pipe_fd) {
    raise_fd_limit();
    lwt::core::Metrics::instance().enable();  // arm io.req_latency_ticks
    auto& hist = lwt::core::MetricsRegistry::instance().histogram(
        "io.req_latency_ticks");
    hist.reset();

    lwt::gol::Config c;
    c.num_threads = 2;
    lwt::gol::Library lib(c);
    lwt::gol::WaitGroup wg;
    std::atomic<std::uint64_t> ok_conns{0};
    std::atomic<std::uint64_t> ok_reqs{0};

    const auto t0 = steady_clock::now();
    wg.add(static_cast<std::int64_t>(conns));
    for (std::size_t i = 0; i < conns; ++i) {
        lib.go([&, payload, reqs, port] {
            std::vector<char> out(payload, 'x');
            std::vector<char> in(payload);
            // The 10k-conn SYN burst can briefly overflow the accept
            // queue; a couple of retries absorbs it.
            io::Socket conn;
            for (int attempt = 0; attempt < 3 && !conn.valid(); ++attempt) {
                auto res = io::connect_tcp(port, Deadline::in(kOpDeadline));
                if (res.ok()) {
                    conn = std::move(res.value());
                }
            }
            if (conn.valid()) {
                ok_conns.fetch_add(1);
                std::uint64_t mine = 0;
                for (std::size_t r = 0; r < reqs; ++r) {
                    if (!io::request_reply(conn, out.data(), in.data(),
                                           payload,
                                           Deadline::in(kOpDeadline))
                             .ok()) {
                        break;
                    }
                    ++mine;
                }
                ok_reqs.fetch_add(mine);
                // RST on close: no client-side TIME_WAIT, so repeated
                // sweep points don't eat the ephemeral port range.
                struct linger lg{1, 0};
                ::setsockopt(conn.fd(), SOL_SOCKET, SO_LINGER, &lg,
                             sizeof lg);
            }
            wg.done();
        });
    }
    wg.wait();

    ClientReport rep;
    rep.ok_conns = ok_conns.load();
    rep.ok_reqs = ok_reqs.load();
    rep.elapsed_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            steady_clock::now() - t0)
            .count());
    rep.ticks_per_us = lwt::core::tsc_ticks_per_us();
    const HistogramSnapshot snap = hist.snapshot();
    std::memcpy(rep.buckets, snap.buckets.data(), sizeof rep.buckets);
    rep.count = snap.count;
    rep.sum = snap.sum;

    const char* p = reinterpret_cast<const char*>(&rep);
    std::size_t left = sizeof rep;
    while (left > 0) {
        const ssize_t n = ::write(pipe_fd, p, left);
        if (n <= 0) {
            return 1;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    ::close(pipe_fd);
    return 0;
}

// --- server / sweep driver ---------------------------------------------------

struct Point {
    std::size_t conns;
    std::size_t payload;
    std::size_t streams;
};

struct PointResult {
    Point p;
    ClientReport rep;
    std::uint64_t reactor_wakes = 0;
    std::uint64_t reactor_polls = 0;
    std::uint64_t timer_fires = 0;
    double throughput_rps = 0.0;
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
};

bool run_point(const char* self, const Point& pt, PointResult& out) {
    auto& wakes =
        lwt::core::MetricsRegistry::instance().counter("io.reactor.wakes");
    auto& polls =
        lwt::core::MetricsRegistry::instance().counter("io.reactor.polls");
    auto& fires =
        lwt::core::MetricsRegistry::instance().counter("io.timer.fires");
    const std::uint64_t wakes0 = wakes.value();
    const std::uint64_t polls0 = polls.value();
    const std::uint64_t fires0 = fires.value();

    auto lr = io::Listener::listen();
    if (!lr.ok()) {
        std::fprintf(stderr, "net_echo: listen failed: %s\n",
                     lr.error().message().c_str());
        return false;
    }
    io::Listener& listener = lr.value();

    lwt::gol::Config c;
    c.num_threads = pt.streams;
    lwt::gol::Library lib(c);
    if (const std::string addr = lwt::obs::introspect_bound_addr();
        !addr.empty()) {
        std::fprintf(stderr, "net_echo: introspection at http://%s/\n",
                     addr.c_str());
    }
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> served{0};
    lwt::gol::WaitGroup acceptor_done;
    acceptor_done.add(1);
    lib.go([&, payload = pt.payload] {
        while (!stop.load()) {
            auto conn = listener.accept(
                Deadline::in(std::chrono::milliseconds(100)));
            if (!conn.ok()) {
                continue;  // deadline tick; re-check stop
            }
            auto* sp = new io::Socket(std::move(conn.value()));
            lib.go([sp, payload, &served] {
                io::Socket s = std::move(*sp);
                delete sp;
                std::vector<char> buf(payload);
                while (true) {
                    auto res = s.read_exact(buf.data(), payload,
                                            Deadline::in(kOpDeadline));
                    if (!res.ok()) {
                        break;  // EOF/RST: client is done with us
                    }
                    if (!s.write_all(buf.data(), payload,
                                     Deadline::in(kOpDeadline))
                             .ok()) {
                        break;
                    }
                }
                served.fetch_add(1);
            });
        }
        acceptor_done.done();
    });

    int pipefd[2];
    if (::pipe(pipefd) != 0) {
        std::perror("net_echo: pipe");
        return false;
    }
    // Only the write end crosses the exec; the read end stays ours.
    ::fcntl(pipefd[0], F_SETFD, FD_CLOEXEC);

    // Room for any size_t in decimal, and the terminator.
    constexpr std::size_t kArgChars =
        std::numeric_limits<std::size_t>::digits10 + 2;
    char port_s[kArgChars], conns_s[kArgChars], payload_s[kArgChars],
        reqs_s[kArgChars], fd_s[kArgChars];
    std::snprintf(port_s, sizeof port_s, "%u", listener.port());
    std::snprintf(conns_s, sizeof conns_s, "%zu", pt.conns);
    std::snprintf(payload_s, sizeof payload_s, "%zu", pt.payload);
    std::snprintf(reqs_s, sizeof reqs_s, "%zu",
                  static_cast<std::size_t>(env_long("LWTBENCH_NET_REQS", 4)));
    std::snprintf(fd_s, sizeof fd_s, "%d", pipefd[1]);

    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("net_echo: fork");
        return false;
    }
    if (pid == 0) {
        // Multi-threaded parent: nothing but exec between fork and it.
        ::execl(self, self, "--client", port_s, conns_s, payload_s, reqs_s,
                fd_s, static_cast<char*>(nullptr));
        ::_exit(127);
    }
    ::close(pipefd[1]);

    // Drain the report; EOF short of a full blob means the child died.
    ClientReport rep;
    char* dst = reinterpret_cast<char*>(&rep);
    std::size_t got = 0;
    while (got < sizeof rep) {
        const ssize_t n = ::read(pipefd[0], dst + got, sizeof rep - got);
        if (n <= 0) {
            break;
        }
        got += static_cast<std::size_t>(n);
    }
    ::close(pipefd[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    stop.store(true);
    acceptor_done.wait();
    // Handlers for still-open conns exit on their read (client closed);
    // give them a beat so the runtime tears down quiet.
    const auto drain_deadline = steady_clock::now() + std::chrono::seconds(10);
    while (served.load() < rep.ok_conns &&
           steady_clock::now() < drain_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    if (got != sizeof rep || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "net_echo: client failed (status %d, %zu/%zu "
                             "report bytes)\n",
                     status, got, sizeof rep);
        return false;
    }

    out.p = pt;
    out.rep = rep;
    out.reactor_wakes = wakes.value() - wakes0;
    out.reactor_polls = polls.value() - polls0;
    out.timer_fires = fires.value() - fires0;
    const double elapsed_s = static_cast<double>(rep.elapsed_ns) / 1e9;
    out.throughput_rps =
        elapsed_s > 0.0 ? static_cast<double>(rep.ok_reqs) / elapsed_s : 0.0;
    HistogramSnapshot snap;
    std::memcpy(snap.buckets.data(), rep.buckets, sizeof rep.buckets);
    snap.count = rep.count;
    snap.sum = rep.sum;
    const double tpu = rep.ticks_per_us > 0.0 ? rep.ticks_per_us : 1.0;
    out.mean_us = snap.mean() / tpu;
    out.p50_us = static_cast<double>(snap.percentile(0.50)) / tpu;
    out.p99_us = static_cast<double>(snap.percentile(0.99)) / tpu;
    return true;
}

bool write_json(const std::string& path,
                const std::vector<PointResult>& results) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"figure\": \"net_echo\",\n");
    std::fprintf(f, "  \"title\": \"Reactor echo server: concurrent "
                    "loopback connections\",\n");
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PointResult& r = results[i];
        std::fprintf(f, "    {\n");
        std::fprintf(f, "      \"connections\": %zu,\n", r.p.conns);
        std::fprintf(f, "      \"payload_b\": %zu,\n", r.p.payload);
        std::fprintf(f, "      \"streams\": %zu,\n", r.p.streams);
        std::fprintf(f, "      \"ok_connections\": %llu,\n",
                     static_cast<unsigned long long>(r.rep.ok_conns));
        std::fprintf(f, "      \"requests\": %llu,\n",
                     static_cast<unsigned long long>(r.rep.ok_reqs));
        std::fprintf(f, "      \"elapsed_ms\": %.3f,\n",
                     static_cast<double>(r.rep.elapsed_ns) / 1e6);
        std::fprintf(f, "      \"throughput_rps\": %.1f,\n",
                     r.throughput_rps);
        std::fprintf(f, "      \"latency_us\": {\"count\": %llu, "
                        "\"mean\": %.2f, \"p50\": %.2f, \"p99\": %.2f},\n",
                     static_cast<unsigned long long>(r.rep.count), r.mean_us,
                     r.p50_us, r.p99_us);
        std::fprintf(f, "      \"reactor_wakes\": %llu,\n",
                     static_cast<unsigned long long>(r.reactor_wakes));
        std::fprintf(f, "      \"reactor_polls\": %llu,\n",
                     static_cast<unsigned long long>(r.reactor_polls));
        std::fprintf(f, "      \"timer_fires\": %llu\n",
                     static_cast<unsigned long long>(r.timer_fires));
        std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc >= 7 && std::strcmp(argv[1], "--client") == 0) {
        return run_client(
            static_cast<std::uint16_t>(std::atoi(argv[2])),
            static_cast<std::size_t>(std::atol(argv[3])),
            static_cast<std::size_t>(std::atol(argv[4])),
            static_cast<std::size_t>(std::atol(argv[5])),
            std::atoi(argv[6]));
    }
    raise_fd_limit();

    // Default sweep: scale the connection count at 64 B, vary payload and
    // stream count at the 1k midpoint, and top out at the 10k-connection
    // acceptance load. Env overrides pin a single point (the CI smoke).
    std::vector<Point> sweep;
    const long env_conns = env_long("LWTBENCH_NET_CONNS", 0);
    const long env_payload = env_long("LWTBENCH_NET_PAYLOAD", 0);
    const long env_streams = env_long("LWTBENCH_NET_STREAMS", 0);
    if (env_conns > 0 || env_payload > 0 || env_streams > 0) {
        sweep.push_back({static_cast<std::size_t>(
                             env_conns > 0 ? env_conns : 1000),
                         static_cast<std::size_t>(
                             env_payload > 0 ? env_payload : 64),
                         static_cast<std::size_t>(
                             env_streams > 0 ? env_streams : 2)});
    } else {
        sweep = {{100, 64, 2},
                 {1000, 64, 1},
                 {1000, 64, 2},
                 {1000, 512, 2},
                 {10000, 64, 2}};
    }

    std::printf("# net_echo: ULT-per-connection echo over core::Reactor\n");
    std::printf("conns,payload_b,streams,requests,elapsed_ms,"
                "throughput_rps,p50_us,p99_us,reactor_wakes\n");
    std::vector<PointResult> results;
    for (const Point& pt : sweep) {
        PointResult r;
        if (!run_point(argv[0], pt, r)) {
            return 1;
        }
        if (r.rep.ok_conns < pt.conns) {
            std::fprintf(stderr,
                         "net_echo: only %llu/%zu connections succeeded\n",
                         static_cast<unsigned long long>(r.rep.ok_conns),
                         pt.conns);
            return 1;
        }
        std::printf("%zu,%zu,%zu,%llu,%.1f,%.1f,%.1f,%.1f,%llu\n", pt.conns,
                    pt.payload, pt.streams,
                    static_cast<unsigned long long>(r.rep.ok_reqs),
                    static_cast<double>(r.rep.elapsed_ns) / 1e6,
                    r.throughput_rps, r.p50_us, r.p99_us,
                    static_cast<unsigned long long>(r.reactor_wakes));
        results.push_back(r);
    }
    if (!write_json("BENCH_net.json", results)) {
        std::fprintf(stderr, "net_echo: failed to write BENCH_net.json\n");
        return 1;
    }
    std::printf("# wrote BENCH_net.json (%zu points)\n", results.size());
    return 0;
}
