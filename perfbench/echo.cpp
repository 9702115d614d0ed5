// echo — the reactor path. gol through glt with 2 worker threads serves
// 64 B echo requests: one acceptor goroutine, then one goroutine per
// connection doing read_exact then write_all. The load is 2 client OS
// threads in this process, each on one loopback TCP connection
// (TCP_NODELAY, plain blocking sockets) with one request in flight. No
// units are created after warm-up; the path is readiness -> reactor wake ->
// goroutine resume -> write, plus gol's single mutex-guarded run queue.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {
namespace {

namespace glt = lwt::glt;
namespace io = lwt::glt::io;

constexpr int kConns = 2;
/// Per-connection request rate the sample buffers are sized for; a 4-vCPU
/// Xeon VM ran about 50k/s.
constexpr double kMaxReqPerSecond = 80000;
constexpr std::uint32_t kTraced = 1;

/// One request; the reply must be byte-identical.
struct Msg {
    std::uint32_t conn;
    std::uint32_t flags;
    std::uint64_t seq;
    std::uint64_t send_tsc;  // client's send stamp, carried to the handler
    std::uint64_t data[4];
    std::uint64_t check;
};
static_assert(sizeof(Msg) == 64);

std::uint64_t checksum(const Msg& m) {
    std::uint64_t h = mix((std::uint64_t{m.flags} << 32) | m.conn);
    h = mix(h ^ m.seq);
    h = mix(h ^ m.send_tsc);
    for (std::uint64_t d : m.data) {
        h = mix(h ^ d);
    }
    return h;
}

/// Handler-side stamps of traced requests, written by one goroutine and
/// published through `n`.
struct HandlerLog {
    struct Rec {
        std::uint64_t seq, read_e, write_b, write_e;
        std::int32_t stream;
    };
    std::vector<Rec> recs;
    std::atomic<std::size_t> n{0};
};

struct Client {
    int fd = -1;
    std::uint32_t id = 0;
    std::uint64_t seq = 0;
    Samples lat;
    struct Rec {
        std::uint64_t seq, send_b, done;
    };
    std::vector<Rec> recs;  // traced requests
    std::atomic<std::uint64_t> ops{0};
    bool broken = false;
    std::thread thread;
    clockid_t cpu_clock{};
};

bool send_all(int fd, const void* buf, std::size_t len) {
    const auto* p = static_cast<const char*>(buf);
    while (len > 0) {
        const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool recv_all(int fd, void* buf, std::size_t len) {
    auto* p = static_cast<char*>(buf);
    while (len > 0) {
        const ssize_t n = ::recv(fd, p, len, 0);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return false;  // error, receive timeout or peer closed
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

int connect_client(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        throw std::runtime_error("echo: socket() failed");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // A reply that never comes fails the op instead of blocking forever.
    const timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        throw std::runtime_error("echo: connect() failed");
    }
    return fd;
}

class Echo final : public Workload {
  public:
    explicit Echo(const Options& o)
        : opt_(o), rt_(glt::init(runtime_options(glt::Backend::kGol, 2))) {
        auto listener = io::Listener::listen(0);
        if (!listener) {
            throw std::runtime_error("echo: listen failed: " +
                                     listener.error().message());
        }
        listener_ = std::move(*listener);
        glt::UnitToken acceptor =
            rt_->ult_create([this] { accept_conns(); });
        for (int c = 0; c < kConns; ++c) {
            clients_[c].id = static_cast<std::uint32_t>(c);
            clients_[c].fd = connect_client(listener_.port());
            clients_[c].lat.reserve(window_samples(o, kMaxReqPerSecond));
        }
        rt_->join(acceptor);
        run_clients(UINT64_MAX, 16, false);
    }

    void warm() override {
        run_clients(UINT64_MAX, opt_.smoke ? 20 : 2000, false);
    }

    ~Echo() override {
        for (Client& c : clients_) {
            ::shutdown(c.fd, SHUT_RDWR);  // handlers see EOF and return
            ::close(c.fd);
        }
        for (glt::UnitToken& h : handlers_) {
            rt_->join(h);
        }
        listener_.close();
    }

    Phase measure(double seconds, bool traced) override {
        Phase ph;
        const Counters c0 = read_counters(*rt_);
        for (int c = 0; c < kConns; ++c) {
            clients_[c].recs.clear();
            clients_[c].recs.reserve(
                traced ? static_cast<std::size_t>(seconds * kMaxReqPerSecond) : 0);
            logs_[c].recs.resize(traced ? clients_[c].recs.capacity() : 0);
            logs_[c].n.store(0);
        }
        const std::uint64_t end =
            tsc() + static_cast<std::uint64_t>(seconds * 1e9 / ns_per_tick());
        const Windows stats = run_clients(end, UINT64_MAX, traced);
        const Counters c1 = read_counters(*rt_);
        std::uint64_t ops = 0;
        for (Client& c : clients_) {
            ops += c.ops.load();
        }
        Samples* parts[kConns];
        for (int c = 0; c < kConns; ++c) {
            parts[c] = &clients_[c].lat;
        }
        set_latency(ph, parts);
        ph.ops = ops;
        ph.rate = stats.rate;
        ph.cpu_us_per_op = stats.cpu_us_per_op;
        add_sched_layers(ph.layers, c0, c1, ops);
        if (traced) {
            add_traced(ph, c0, c1);
        }
        return ph;
    }

  private:
    void accept_conns() {
        for (int c = 0; c < kConns; ++c) {
            auto sock = listener_.accept();
            if (!sock) {
                std::fprintf(stderr, "echo: accept failed: %s\n",
                             sock.error().message().c_str());
                return;
            }
            handlers_.push_back(rt_->ult_create(
                [this, s = std::move(*sock)]() mutable { serve(s); }));
        }
    }

    /// One connection's handler. Traced requests are stamped into the log
    /// of the connection id they carry; only this handler writes it.
    void serve(io::Socket& s) {
        Msg m{};
        for (;;) {
            if (!s.read_exact(&m, sizeof m)) {
                return;  // client closed
            }
            if ((m.flags & kTraced) == 0) {
                if (!s.write_all(&m, sizeof m)) {
                    return;
                }
                continue;
            }
            HandlerLog::Rec r{};
            r.read_e = tsc();
            HandlerLog& log = logs_[m.conn % kConns];
            r.seq = m.seq;
            r.stream = lwt::abt::Library::self_xstream_rank();
            r.write_b = tsc();
            if (!s.write_all(&m, sizeof m)) {
                return;
            }
            r.write_e = tsc();
            const std::size_t i = log.n.load(std::memory_order_relaxed);
            if (i < log.recs.size()) {
                log.recs[i] = r;
                log.n.store(i + 1, std::memory_order_release);
            }
        }
    }

    /// Closed loop on one connection until `end` or `max_reqs` requests.
    /// Closes its latency window at the edges `start + k * window`, or once
    /// at the end if no edge passed.
    void client_loop(Client& c, std::uint64_t end, std::uint64_t max_reqs,
                     bool traced, std::uint64_t start, std::uint64_t window) {
        Msg req{};
        Msg rep{};
        c.lat.clear();
        std::uint64_t edge = start + window;
        for (std::uint64_t i = 0; i < max_reqs && tsc() < end && !c.broken;
             ++i) {
            progress().begin();
            req.conn = c.id;
            req.flags = traced ? kTraced : 0;
            req.seq = c.seq++;
            for (std::size_t d = 0; d < 4; ++d) {
                req.data[d] = mix(opt_.seed ^ (std::uint64_t{c.id} << 40) ^
                                  (req.seq << 2) ^ d);
            }
            const std::uint64_t t0 = tsc();
            req.send_tsc = t0;
            req.check = checksum(req);
            const bool io_ok = send_all(c.fd, &req, sizeof req) &&
                               recv_all(c.fd, &rep, sizeof rep);
            const std::uint64_t t1 = tsc();
            const bool ok = io_ok && std::memcmp(&req, &rep, sizeof req) == 0 &&
                            checksum(rep) == rep.check;
            if (ok) {
                c.lat.add(t0, t1);
                if (traced && c.recs.size() < c.recs.capacity()) {
                    c.recs.push_back({req.seq, t0, t1});
                }
            }
            if (t1 >= edge) {
                c.lat.close_window();
                while (edge <= t1) {
                    edge += window;
                }
            }
            c.broken = !io_ok;
            progress().end(ok);
            c.ops.fetch_add(1, std::memory_order_relaxed);
        }
        if (c.lat.windows() == 0) {
            c.lat.close_window();
        }
    }

    /// Runs both clients and samples measurement windows while they run.
    Windows run_clients(std::uint64_t end, std::uint64_t max_reqs,
                        bool traced) {
        const std::uint64_t start = tsc();
        const auto window = static_cast<std::uint64_t>(
            window_seconds(opt_) * 1e9 / ns_per_tick());
        for (Client& c : clients_) {
            c.ops.store(0);
            c.thread = std::thread(
                [this, &c, end, max_reqs, traced, start, window] {
                    client_loop(c, end, max_reqs, traced, start, window);
                });
            pthread_getcpuclockid(c.thread.native_handle(), &c.cpu_clock);
        }
        // The clients' own CPU is load generation, not the system under
        // test: charge only the rest of the process.
        Windows win(window_seconds(opt_), [this] {
            std::uint64_t own = 0;
            for (const Client& c : clients_) {
                timespec ts{};
                if (clock_gettime(c.cpu_clock, &ts) == 0) {
                    own += static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
                           static_cast<std::uint64_t>(ts.tv_nsec);
                }
            }
            return process_cpu_ns() - own;
        });
        const auto total = [this] {
            std::uint64_t n = 0;
            for (const Client& c : clients_) {
                n += c.ops.load(std::memory_order_relaxed);
            }
            return n;
        };
        if (end != UINT64_MAX) {
            const auto period = std::chrono::duration<double>(window_seconds(opt_));
            win.start(0, 0);
            for (;;) {
                std::this_thread::sleep_for(period);
                if (tsc() >= end) {
                    break;
                }
                win.close(total(), total());
            }
            if (win.rate.empty()) {
                win.close(total(), total());
            }
        }
        for (Client& c : clients_) {
            c.thread.join();
        }
        return win;
    }

    void add_traced(Phase& ph, const Counters& c0, const Counters& c1) {
        std::vector<double> wake_us, write_ns, reply_us;
        double self_reactor = 0, self_io = 0, self_client = 0, rest_sum = 0,
               op_sum = 0;
        std::uint64_t n = 0;
        for (int c = 0; c < kConns; ++c) {
            const Client& cl = clients_[c];
            HandlerLog& log = logs_[c];
            // The handler stamps write_e after the client may already hold
            // the reply: wait (bounded) for the last record to be published.
            for (int spin = 0; spin < 1000 && log.n.load(std::memory_order_acquire) <
                                                  cl.recs.size();
                 ++spin) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            const std::size_t m =
                std::min(cl.recs.size(), log.n.load(std::memory_order_acquire));
            for (std::size_t i = 0; i < m; ++i) {
                const Client::Rec& q = cl.recs[i];
                const HandlerLog::Rec& h = log.recs[i];
                if (q.seq != h.seq) {
                    continue;
                }
                wake_us.push_back(ticks_to_us(ticks(q.send_b, h.read_e)));
                write_ns.push_back(
                    ticks_to_ns(ticks(h.write_b, h.write_e)));
                reply_us.push_back(ticks_to_us(ticks(h.write_b, q.done)));
                const std::pair<std::uint64_t, std::uint64_t> parts[] = {
                    {q.send_b, h.read_e}, {h.write_b, h.write_e}, {h.write_b, q.done}};
                double rest = 0;
                const std::vector<double> ex = attribute(q.send_b, q.done, parts, &rest);
                self_reactor += ex[0];
                self_io += ex[1];
                self_client += ex[2];
                rest_sum += rest;
                op_sum += ticks(q.send_b, q.done);
                ++n;
                if (ph.spans.size() < kMaxTracedOpsWithSpans * 4) {
                    const std::uint64_t id = (std::uint64_t{cl.id} << 32) | q.seq;
                    ph.spans.push_back({"echo.request", id, 0, -1, q.send_b, q.done, -1});
                    ph.spans.push_back({"reactor.wake", id, 1, 0, q.send_b, h.read_e, h.stream});
                    ph.spans.push_back({"io.write_all", id, 2, 0, h.write_b, h.write_e, h.stream});
                    ph.spans.push_back({"client.reply", id, 3, 0, h.write_b, q.done, -1});
                }
            }
        }
        const double reqs = static_cast<double>(std::max<std::uint64_t>(n, 1));
        const auto wakes = static_cast<double>(c1.reactor_wakes - c0.reactor_wakes);
        auto& L = ph.layers;
        L["reactor.wake_us"] = median(wake_us);
        L["io.write_all_ns"] = median(write_ns);
        L["client.reply_us"] = median(reply_us);
        L["reactor.polls_per_wake"] =
            wakes > 0 ? static_cast<double>(c1.reactor_polls - c0.reactor_polls) / wakes
                      : 0.0;
        L["reactor.wakes_per_req"] =
            wakes / static_cast<double>(std::max<std::uint64_t>(ph.ops, 1));
        L["echo.reactor.self_us_per_op"] = ticks_to_us(self_reactor) / reqs;
        L["echo.io.self_us_per_op"] = ticks_to_us(self_io) / reqs;
        L["echo.client.self_us_per_op"] = ticks_to_us(self_client) / reqs;
        L["echo.op.self_us_per_op"] = ticks_to_us(rest_sum) / reqs;
        char line[512];
        std::snprintf(line, sizeof line,
                      "echo, mean per request (us): latency %.2f = reactor.wake "
                      "%.2f + io.write_all %.2f + client.reply %.2f + "
                      "unexplained %.2f",
                      ticks_to_us(op_sum) / reqs, L["echo.reactor.self_us_per_op"],
                      L["echo.io.self_us_per_op"], L["echo.client.self_us_per_op"],
                      L["echo.op.self_us_per_op"]);
        ph.breakdown = line;
    }

    Options opt_;
    Client clients_[kConns];
    HandlerLog logs_[kConns];
    io::Listener listener_;
    std::vector<glt::UnitToken> handlers_;  // filled by the acceptor
    // Declared last: destroyed first, after the destructor joined every
    // goroutine that uses the members above.
    std::unique_ptr<glt::Runtime> rt_;
};

}  // namespace

std::unique_ptr<Workload> make_echo(const Options& o) {
    return std::make_unique<Echo>(o);
}

}  // namespace perfbench
