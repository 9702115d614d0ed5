#include "obs/introspect.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "core/metrics_text.hpp"
#include "core/scheduler.hpp"
#include "core/stream_dir.hpp"
#include "core/trace.hpp"
#include "core/trace_export.hpp"
#include "core/ult.hpp"
#include "core/xstream.hpp"
#include "io/io.hpp"
#include "sync/spinlock.hpp"

namespace lwt::obs {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kMaxRequestBytes = 4096;
constexpr auto kIoDeadline = 5s;

// --- address parsing --------------------------------------------------------

/// "127.0.0.1:9109" | "localhost:9109" | ":9109" | "9109" -> port.
/// Any other host is rejected: the endpoints expose runtime internals and
/// io::Listener only binds loopback anyway.
std::optional<std::uint16_t> parse_introspect_addr(const std::string& addr) {
    std::string host;
    std::string port_str = addr;
    if (const auto colon = addr.rfind(':'); colon != std::string::npos) {
        host = addr.substr(0, colon);
        port_str = addr.substr(colon + 1);
    }
    if (!host.empty() && host != "127.0.0.1" && host != "localhost") {
        std::fprintf(stderr,
                     "lwt: LWT_INTROSPECT host '%s' refused (loopback "
                     "only); introspection disabled\n",
                     host.c_str());
        return std::nullopt;
    }
    if (port_str.empty()) {
        return std::nullopt;
    }
    char* end = nullptr;
    const long port = std::strtol(port_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
        std::fprintf(stderr,
                     "lwt: LWT_INTROSPECT port '%s' invalid; introspection "
                     "disabled\n",
                     port_str.c_str());
        return std::nullopt;
    }
    return static_cast<std::uint16_t>(port);
}

// --- JSON helpers -----------------------------------------------------------

void json_kv(std::ostream& os, const char* key, std::uint64_t v,
             bool comma = true) {
    os << '"' << key << "\":" << v << (comma ? "," : "");
}

std::string stats_json() {
    std::ostringstream os;
    os << "{\"streams\":[";
    const auto streams = core::sample_streams();
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const auto& s = streams[i];
        if (i != 0) {
            os << ',';
        }
        os << '{';
        json_kv(os, "stream", i);
        json_kv(os, "rank", s.rank);
        os << "\"dedicated\":" << (s.dedicated ? "true" : "false") << ',';
        json_kv(os, "executed", s.executed);
        json_kv(os, "progress_epoch", s.progress_epoch);
        json_kv(os, "pool_depth", s.pool_depth);
        os << "\"steal\":{";
        json_kv(os, "attempts", s.sched.steal_attempts);
        json_kv(os, "hits", s.sched.steal_hits);
        json_kv(os, "empty", s.sched.steal_empty);
        json_kv(os, "lost", s.sched.steal_lost, false);
        os << ",\"tiers\":{";
        for (std::size_t t = 0; t < core::kStealTiers; ++t) {
            if (t != 0) {
                os << ',';
            }
            os << '"' << core::steal_tier_name(t) << "\":{";
            json_kv(os, "attempts", s.sched.tier_attempts[t]);
            json_kv(os, "hits", s.sched.tier_hits[t], false);
            os << '}';
        }
        os << "}},\"idle\":{";
        json_kv(os, "spins", s.sched.idle_spins);
        json_kv(os, "yields", s.sched.idle_yields);
        json_kv(os, "parks", s.sched.parks);
        json_kv(os, "unparks", s.sched.unparks);
        json_kv(os, "park_timeouts", s.sched.park_timeouts, false);
        os << "}}";
    }
    auto& reg = core::MetricsRegistry::instance();
    os << "],\"reactor\":{";
    json_kv(os, "wakes", reg.counter("io.reactor.wakes").value());
    json_kv(os, "polls", reg.counter("io.reactor.polls").value());
    json_kv(os, "timer_fires", reg.counter("io.timer.fires").value(), false);
    os << "},\"watchdog\":";
    if (Watchdog* wd = active_watchdog()) {
        const auto report = wd->report();
        os << "{\"enabled\":true,";
        json_kv(os, "interval_ms", report.interval_ms);
        os << "\"healthy\":" << (report.any_stalled ? "false" : "true")
           << ",\"longest_running_ms\":" << report.longest_running_ms
           << ",\"streams\":[";
        for (std::size_t i = 0; i < report.streams.size(); ++i) {
            const auto& v = report.streams[i];
            if (i != 0) {
                os << ',';
            }
            os << '{';
            json_kv(os, "stream", i);
            json_kv(os, "rank", v.rank);
            json_kv(os, "pool_depth", v.pool_depth);
            os << "\"stalled\":" << (v.stalled ? "true" : "false")
               << ",\"no_progress_ms\":" << v.no_progress_ms
               << ",\"running_ms\":" << v.running_ms << '}';
        }
        os << "]}";
    } else {
        os << "{\"enabled\":false}";
    }
    os << '}';
    return os.str();
}

std::string health_json(bool* healthy_out) {
    bool healthy = true;
    std::ostringstream os;
    if (Watchdog* wd = active_watchdog()) {
        const auto report = wd->report();
        healthy = !report.any_stalled;
        os << "{\"status\":\"" << (healthy ? "ok" : "stalled")
           << "\",\"watchdog\":\"on\",\"interval_ms\":" << report.interval_ms
           << ",\"stalled_streams\":[";
        bool first = true;
        for (const auto& v : report.streams) {
            if (!v.stalled) {
                continue;
            }
            if (!first) {
                os << ',';
            }
            first = false;
            os << "{\"rank\":" << v.rank
               << ",\"no_progress_ms\":" << v.no_progress_ms
               << ",\"pool_depth\":" << v.pool_depth << '}';
        }
        os << "]}";
    } else {
        os << "{\"status\":\"ok\",\"watchdog\":\"off\"}";
    }
    *healthy_out = healthy;
    return os.str();
}

// --- trace window -----------------------------------------------------------

std::string trace_window_json(std::uint32_t ms) {
    // One bounded window: clear the rings, record for `ms`, export. An
    // env-armed (LWT_TRACE) recording keeps recording afterwards, but its
    // pre-window history is discarded by the clear — the bounded-window
    // semantics the endpoint promises.
    auto& tracer = core::Tracer::instance();
    const bool was_enabled = tracer.enabled();
    tracer.clear();
    tracer.enable();
    io::sleep_for(std::chrono::milliseconds(ms));
    if (!was_enabled) {
        tracer.disable();
    }
    const auto records = tracer.snapshot();
    std::ostringstream os;
    core::write_chrome_trace(os, records);
    return os.str();
}

}  // namespace

// --- IntrospectServer -------------------------------------------------------

struct IntrospectServer::State {
    io::Listener listener;
    std::atomic<bool> stop{false};
    std::atomic<int> active{0};  ///< acceptor + live handlers
    sync::Spinlock conns_lock;
    std::vector<io::Socket*> conns;
    std::atomic<bool> trace_busy{false};

    void register_conn(io::Socket* s) {
        std::lock_guard guard(conns_lock);
        conns.push_back(s);
    }
    void unregister_conn(io::Socket* s) {
        std::lock_guard guard(conns_lock);
        conns.erase(std::remove(conns.begin(), conns.end(), s), conns.end());
    }

    struct Response {
        int status = 200;
        const char* content_type = "text/plain; charset=utf-8";
        std::string body;
    };

    Response dispatch(std::string_view path, std::string_view query);
    void handle(io::Socket sock);
    void acceptor();
    static void spawn_detached(core::Pool* pool, core::UniqueFunction fn);
};

void IntrospectServer::State::spawn_detached(core::Pool* pool,
                                             core::UniqueFunction fn) {
    auto* ult = new core::Ult(std::move(fn));
    ult->detached = true;  // the finishing stream reclaims it
    pool->push(ult);
}

IntrospectServer::State::Response IntrospectServer::State::dispatch(
    std::string_view path, std::string_view query) {
    Response r;
    if (path == "/metrics") {
        std::ostringstream os;
        core::write_prometheus_text(os);
        r.content_type = "text/plain; version=0.0.4; charset=utf-8";
        r.body = os.str();
    } else if (path == "/stats") {
        r.content_type = "application/json";
        r.body = stats_json();
    } else if (path == "/health") {
        bool healthy = true;
        r.content_type = "application/json";
        r.body = health_json(&healthy);
        r.status = healthy ? 200 : 503;
    } else if (path == "/trace") {
        std::uint32_t ms = 100;
        if (const auto pos = query.find("ms="); pos != std::string_view::npos) {
            ms = static_cast<std::uint32_t>(std::strtoul(
                std::string(query.substr(pos + 3)).c_str(), nullptr, 10));
        }
        ms = std::clamp<std::uint32_t>(ms, 1, 10000);
        // One window at a time: concurrent windows would clear each
        // other's rings mid-recording.
        bool expected = false;
        if (!trace_busy.compare_exchange_strong(expected, true)) {
            r.status = 503;
            r.body = "trace window already in progress\n";
            return r;
        }
        r.content_type = "application/json";
        r.body = trace_window_json(ms);
        trace_busy.store(false, std::memory_order_release);
    } else if (path == "/" || path.empty()) {
        r.body =
            "lwt runtime introspection\n"
            "  /metrics     Prometheus exposition\n"
            "  /stats       per-stream scheduler JSON\n"
            "  /trace?ms=N  bounded Chrome trace window\n"
            "  /health      watchdog verdict\n";
    } else {
        r.status = 404;
        r.body = "not found\n";
    }
    return r;
}

void IntrospectServer::State::handle(io::Socket sock) {
    register_conn(&sock);
    std::string req;
    const auto deadline = io::Deadline::in(kIoDeadline);
    while (req.find("\r\n\r\n") == std::string::npos &&
           req.size() < kMaxRequestBytes) {
        char buf[1024];
        auto n = sock.read(buf, sizeof buf, deadline);
        if (!n.ok() || *n == 0) {
            unregister_conn(&sock);
            return;  // torn/slow/oversized request: just drop it
        }
        req.append(buf, *n);
    }
    // Request line: METHOD SP TARGET SP VERSION.
    std::string_view line(req);
    line = line.substr(0, line.find("\r\n"));
    const auto sp1 = line.find(' ');
    const auto sp2 = line.rfind(' ');
    Response resp;
    if (sp1 == std::string_view::npos || sp2 <= sp1) {
        resp = Response{400, "text/plain; charset=utf-8", "bad request\n"};
    } else if (line.substr(0, sp1) != "GET") {
        resp = Response{405, "text/plain; charset=utf-8",
                        "method not allowed\n"};
    } else {
        std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
        std::string_view query;
        if (const auto q = target.find('?'); q != std::string_view::npos) {
            query = target.substr(q + 1);
            target = target.substr(0, q);
        }
        resp = dispatch(target, query);
    }
    const char* reason = resp.status == 200   ? "OK"
                         : resp.status == 404 ? "Not Found"
                         : resp.status == 405 ? "Method Not Allowed"
                         : resp.status == 400 ? "Bad Request"
                                              : "Service Unavailable";
    std::ostringstream os;
    os << "HTTP/1.0 " << resp.status << ' ' << reason << "\r\n"
       << "Content-Type: " << resp.content_type << "\r\n"
       << "Content-Length: " << resp.body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << resp.body;
    const std::string out = os.str();
    (void)sock.write_all(out.data(), out.size(),
                         io::Deadline::in(kIoDeadline));
    unregister_conn(&sock);
}

void IntrospectServer::State::acceptor() {
    while (!stop.load(std::memory_order_acquire)) {
        auto conn = listener.accept(io::Deadline::in(250ms));
        if (!conn.ok()) {
            if (conn.timed_out()) {
                continue;  // periodic stop re-check
            }
            break;  // canceled (stop() closed the listener) or fatal
        }
        // One detached handler ULT per connection, seeded into the main
        // pool of the stream we are running on — an owner-context push,
        // so even owner-only pools are safe.
        core::XStream* cur = core::XStream::current();
        core::Pool* pool =
            cur != nullptr ? cur->scheduler().main_pool() : nullptr;
        if (pool == nullptr) {
            handle(std::move(*conn));  // degraded: serve serially
            continue;
        }
        active.fetch_add(1, std::memory_order_relaxed);
        auto* state = this;
        spawn_detached(pool, [state, sock = std::move(*conn)]() mutable {
            state->handle(std::move(sock));
            state->active.fetch_sub(1, std::memory_order_release);
        });
    }
    active.fetch_sub(1, std::memory_order_release);
}

bool IntrospectServer::start() {
    if (running()) {
        return true;
    }
    // The acceptor must live in a pool some live stream drains; prefer
    // streams with a dedicated thread (a manually-driven stream may never
    // be driven again).
    core::Pool* host = nullptr;
    bool host_dedicated = false;
    core::StreamDirectory::instance().for_each([&](core::XStream& s) {
        core::Pool* main = s.scheduler().main_pool();
        if (main == nullptr) {
            return;
        }
        if (host == nullptr || (s.has_dedicated_thread() && !host_dedicated)) {
            host = main;
            host_dedicated = s.has_dedicated_thread();
        }
    });
    if (host == nullptr) {
        std::fprintf(stderr,
                     "lwt: introspection endpoint needs a live execution "
                     "stream; not started\n");
        return false;
    }
    auto listener = io::Listener::listen(port_);
    if (!listener.ok()) {
        std::fprintf(stderr,
                     "lwt: introspection listen on 127.0.0.1:%u failed: %s\n",
                     static_cast<unsigned>(port_),
                     listener.error().message().c_str());
        return false;
    }
    auto state = std::make_shared<State>();
    state->listener = std::move(*listener);
    state->active.store(1, std::memory_order_relaxed);  // the acceptor
    // Re-validate the host pool under the directory lock (a stream could
    // have died since the scan) and push while it cannot die.
    bool pushed = false;
    core::StreamDirectory::instance().for_each([&](core::XStream& s) {
        if (pushed || s.scheduler().main_pool() != host) {
            return;
        }
        State::spawn_detached(host, [state] { state->acceptor(); });
        pushed = true;
    });
    if (!pushed) {
        return false;  // the chosen stream died; state tears itself down
    }
    state_ = std::move(state);
    return true;
}

bool IntrospectServer::stop() {
    auto state = std::move(state_);
    if (state == nullptr) {
        return true;
    }
    state->stop.store(true, std::memory_order_release);
    state->listener.close();  // cancels the parked acceptor
    {
        std::lock_guard guard(state->conns_lock);
        for (io::Socket* s : state->conns) {
            s->close();  // parked handlers fail with Error::canceled
        }
    }
    // Bounded drain. If the caller is itself an attached stream, drive it
    // (the server ULTs may sit in *our* pool); otherwise just wait.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (state->active.load(std::memory_order_acquire) > 0) {
        if (std::chrono::steady_clock::now() > deadline) {
            std::fprintf(stderr,
                         "lwt: introspection server ULTs did not drain; "
                         "they will finish during stream teardown\n");
            return false;
        }
        if (core::XStream* cur = core::XStream::current()) {
            if (!cur->progress()) {
                std::this_thread::sleep_for(1ms);
            }
        } else {
            std::this_thread::sleep_for(1ms);
        }
    }
    return true;
}

bool IntrospectServer::running() const noexcept {
    return state_ != nullptr &&
           state_->active.load(std::memory_order_acquire) > 0 &&
           !state_->stop.load(std::memory_order_acquire);
}

std::uint16_t IntrospectServer::port() const noexcept {
    return state_ != nullptr ? state_->listener.port() : port_;
}

std::string IntrospectServer::bound_addr() const {
    return running() ? "127.0.0.1:" + std::to_string(port()) : std::string();
}

// --- session management -----------------------------------------------------

namespace {

struct IntroState {
    std::mutex mutex;
    int refcount = 0;
    std::string default_addr;
    std::optional<std::uint32_t> default_watchdog_ms;
    // Resolved at each first attach:
    std::optional<std::uint16_t> port;
    std::uint32_t watchdog_ms = 0;
    std::unique_ptr<Watchdog> watchdog;
    std::unique_ptr<IntrospectServer> server;
};

IntroState& intro_state() {
    static IntroState state;
    return state;
}

std::atomic<Watchdog*> g_watchdog{nullptr};

void resolve_config(IntroState& st) {
    const char* env = std::getenv("LWT_INTROSPECT");
    const std::string addr = env != nullptr ? env : st.default_addr;
    st.port = addr.empty() ? std::nullopt : parse_introspect_addr(addr);

    st.watchdog_ms = st.default_watchdog_ms.value_or(0);
    if (const char* wd = std::getenv("LWT_WATCHDOG_MS")) {
        const long ms = std::atol(wd);
        st.watchdog_ms = ms > 0 ? static_cast<std::uint32_t>(ms) : 0;
    }
}

}  // namespace

IntrospectSession::IntrospectSession() {
    IntroState& st = intro_state();
    std::lock_guard guard(st.mutex);
    if (st.refcount++ == 0) {
        resolve_config(st);
        if (st.watchdog_ms > 0 && st.watchdog == nullptr) {
            st.watchdog = std::make_unique<Watchdog>(st.watchdog_ms);
            g_watchdog.store(st.watchdog.get(), std::memory_order_release);
        }
    }
    // (Re)start the server at any attach while it is wanted but down —
    // covers the first runtime as well as a later one booting after an
    // earlier runtime's streams (which hosted the acceptor) went away.
    if (st.port.has_value() &&
        (st.server == nullptr || !st.server->running())) {
        st.server = std::make_unique<IntrospectServer>(*st.port);
        if (!st.server->start()) {
            st.server.reset();
        }
    }
}

IntrospectSession::~IntrospectSession() {
    IntroState& st = intro_state();
    std::lock_guard guard(st.mutex);
    --st.refcount;
    if (st.server != nullptr) {
        // Our runtime's streams may be hosting the server ULTs and are
        // about to die: always stop while they still run. With sessions
        // remaining, restart on the survivors' streams.
        st.server->stop();
        st.server.reset();
        if (st.refcount > 0 && st.port.has_value()) {
            st.server = std::make_unique<IntrospectServer>(*st.port);
            if (!st.server->start()) {
                st.server.reset();
            }
        }
    }
    if (st.refcount == 0 && st.watchdog != nullptr) {
        g_watchdog.store(nullptr, std::memory_order_release);
        st.watchdog.reset();
    }
}

void set_introspect_defaults(std::string addr,
                             std::optional<std::uint32_t> watchdog_ms) {
    IntroState& st = intro_state();
    std::lock_guard guard(st.mutex);
    st.default_addr = std::move(addr);
    st.default_watchdog_ms = watchdog_ms;
}

std::string introspect_bound_addr() {
    IntroState& st = intro_state();
    std::lock_guard guard(st.mutex);
    return st.server != nullptr ? st.server->bound_addr() : std::string();
}

Watchdog* active_watchdog() {
    return g_watchdog.load(std::memory_order_acquire);
}

}  // namespace lwt::obs
