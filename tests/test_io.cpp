// Tests for the async I/O reactor (core/reactor.hpp, src/io/io.hpp;
// docs/io_reactor.md): fd-readiness waits with deadline/cancel arbitration,
// the timer wheel, the suspending sleep, the reactor-backed timed waits on
// Channel/Future, idle streams as the poller (the epoll seat, readiness run
// where it is noticed, the backstop poller), and loopback echo smoke across
// personalities.
//
// TSan builds (tools/tsan.sh) run this file too: TSan cannot follow
// fcontext switches, so tests that suspend ULTs are gated out. The
// OS-thread protocol tests — parker wakes through the reactor, the timer
// fire/cancel race, deadline claims racing readiness — all stay enabled;
// they are the racy core the reactor has to get right.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "abt/abt.hpp"
#include "arch/cpu.hpp"
#include "arch/locality.hpp"
#include "core/channel.hpp"
#include "core/future.hpp"
#include "core/metrics.hpp"
#include "core/pool.hpp"
#include "core/reactor.hpp"
#include "core/runtime.hpp"
#include "core/scheduler.hpp"
#include "core/ult.hpp"
#include "core/xstream.hpp"
#include "gol/gol.hpp"
#include "idle_policy_pin.hpp"
#include "io/io.hpp"
#include "sync/spinlock.hpp"

#if defined(__SANITIZE_THREAD__)
#define LWT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LWT_TSAN 1
#endif
#endif

namespace {

namespace io = lwt::io;
using lwt::core::Deadline;
using lwt::core::IoStatus;
using lwt::core::Reactor;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

// --- timer wheel: OS-thread protocol -----------------------------------------

TEST(IoTimer, FiresOnceNearDeadline) {
    Reactor& r = Reactor::global();
    std::atomic<int> fired{0};
    Reactor::Timer t;
    const auto start = steady_clock::now();
    r.add_timer(t, Deadline::in(milliseconds(20)),
                [](void* arg) {
                    static_cast<std::atomic<int>*>(arg)->fetch_add(1);
                },
                &fired);
    while (fired.load() == 0) {
        std::this_thread::sleep_for(milliseconds(1));
    }
    EXPECT_GE(steady_clock::now() - start, milliseconds(19));
    EXPECT_FALSE(r.cancel_timer(t));  // already fired
    std::this_thread::sleep_for(milliseconds(30));
    EXPECT_EQ(fired.load(), 1);  // one-shot: never refires
}

TEST(IoTimer, CancelPendingSuppressesCallback) {
    Reactor& r = Reactor::global();
    std::atomic<int> fired{0};
    Reactor::Timer t;
    r.add_timer(t, Deadline::in(milliseconds(50)),
                [](void* arg) {
                    static_cast<std::atomic<int>*>(arg)->fetch_add(1);
                },
                &fired);
    EXPECT_TRUE(r.cancel_timer(t));
    std::this_thread::sleep_for(milliseconds(80));
    EXPECT_EQ(fired.load(), 0);
}

TEST(IoTimer, FireCancelRaceNeverLosesOrDoublesACallback) {
    // Hammer the kPending/kFiring transition: near-due timers cancelled at
    // a random moment. The contract under test: cancel_timer returns true
    // IFF the callback will never run, and after it returns (either way)
    // the callback is not in flight — so fired + cancelled == rounds, with
    // the stack-owned Timer safely recycled every round.
    Reactor& r = Reactor::global();
    constexpr int kThreads = 3;
    constexpr int kRounds = 400;
    std::atomic<long> fired{0};
    long cancelled = 0;
    std::atomic<long> cancelled_total{0};
    std::vector<std::thread> threads;
    for (int tid = 0; tid < kThreads; ++tid) {
        threads.emplace_back([&, tid] {
            long my_cancelled = 0;
            Reactor::Timer t;
            for (int i = 0; i < kRounds; ++i) {
                std::atomic<bool> ran{false};
                r.add_timer(t, Deadline::in(milliseconds(i % 3)),
                            [](void* arg) {
                                static_cast<std::atomic<bool>*>(arg)->store(
                                    true);
                            },
                            &ran);
                if ((i + tid) % 2 == 0) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(i % 1500));
                }
                if (r.cancel_timer(t)) {
                    ++my_cancelled;
                    EXPECT_FALSE(ran.load());
                } else {
                    // Callback has fully completed: `ran` must be visible
                    // before this round's locals die.
                    EXPECT_TRUE(ran.load());
                    fired.fetch_add(1);
                }
            }
            cancelled_total.fetch_add(my_cancelled);
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    cancelled = cancelled_total.load();
    EXPECT_EQ(fired.load() + cancelled, long{kThreads} * kRounds);
}

TEST(IoSleep, PlainThreadSleepsOnTheWheel) {
    const auto start = steady_clock::now();
    io::sleep_for(milliseconds(25));
    EXPECT_GE(steady_clock::now() - start, milliseconds(24));
}

// --- fd readiness: OS-thread protocol ----------------------------------------

TEST(IoSocket, ReadWakesOnDataFromAnotherThread) {
    auto pair = io::Socket::pair();
    ASSERT_TRUE(pair.ok()) << pair.error().message();
    io::Socket a = std::move(pair.value().first);
    io::Socket b = std::move(pair.value().second);

    std::string got(5, '\0');
    std::atomic<bool> read_done{false};
    std::thread reader([&] {
        auto res = a.read_exact(got.data(), got.size());
        EXPECT_TRUE(res.ok()) << res.error().message();
        read_done.store(true);
    });
    // Let the reader park on the reactor before any data exists.
    std::this_thread::sleep_for(milliseconds(20));
    EXPECT_FALSE(read_done.load());
    auto w = b.write_all("hello", 5);
    ASSERT_TRUE(w.ok()) << w.error().message();
    reader.join();
    EXPECT_EQ(got, "hello");
}

TEST(IoSocket, DeadlineExpiresOnSilentPeer) {
    auto pair = io::Socket::pair();
    ASSERT_TRUE(pair.ok());
    io::Socket a = std::move(pair.value().first);
    char buf[8];
    const auto start = steady_clock::now();
    auto res = a.read(buf, sizeof buf, Deadline::in(milliseconds(30)));
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(res.timed_out());
    EXPECT_GE(steady_clock::now() - start, milliseconds(29));
    // The fd stays usable after a timed-out wait: data now arrives fine.
    io::Socket& b = pair.value().second;
    ASSERT_TRUE(b.write_all("x", 1).ok());
    auto again = a.read(buf, sizeof buf, Deadline::in(milliseconds(500)));
    ASSERT_TRUE(again.ok()) << again.error().message();
    EXPECT_EQ(again.value(), 1u);
}

TEST(IoSocket, CloseCancelsParkedReader) {
    auto pair = io::Socket::pair();
    ASSERT_TRUE(pair.ok());
    io::Socket a = std::move(pair.value().first);
    std::atomic<bool> woke{false};
    std::thread reader([&] {
        char buf[4];
        auto res = a.read(buf, sizeof buf, Deadline::in(milliseconds(2000)));
        // forget(fd) claims the waiter with kCanceled before ::close.
        EXPECT_FALSE(res.ok());
        EXPECT_EQ(res.error().kind, io::ErrorKind::kCanceled);
        woke.store(true);
    });
    std::this_thread::sleep_for(milliseconds(20));
    EXPECT_FALSE(woke.load());
    a.close();
    reader.join();
    EXPECT_TRUE(woke.load());
}

TEST(IoSocket, AcceptConnectRoundTripOnLoopback) {
    auto lr = io::Listener::listen();
    ASSERT_TRUE(lr.ok()) << lr.error().message();
    io::Listener& listener = lr.value();
    ASSERT_NE(listener.port(), 0);

    std::thread server([&] {
        auto conn = listener.accept(Deadline::in(milliseconds(2000)));
        ASSERT_TRUE(conn.ok()) << conn.error().message();
        char buf[16];
        auto n = conn.value().read(buf, sizeof buf,
                                   Deadline::in(milliseconds(2000)));
        ASSERT_TRUE(n.ok());
        ASSERT_TRUE(conn.value().write_all(buf, n.value()).ok());
    });
    auto c = io::connect_tcp(listener.port(), Deadline::in(milliseconds(2000)));
    ASSERT_TRUE(c.ok()) << c.error().message();
    char reply[4] = {};
    auto rr = io::request_reply(c.value(), "ping", reply, 4,
                                Deadline::in(milliseconds(2000)));
    ASSERT_TRUE(rr.ok()) << rr.error().message();
    EXPECT_EQ(std::memcmp(reply, "ping", 4), 0);
    server.join();
}

TEST(IoSocket, AcceptDeadlineTimesOutWithoutClient) {
    auto lr = io::Listener::listen();
    ASSERT_TRUE(lr.ok());
    auto conn = lr.value().accept(Deadline::in(milliseconds(30)));
    EXPECT_FALSE(conn.ok());
    EXPECT_TRUE(conn.timed_out());
}

// --- reactor-backed timed waits on Channel / Future --------------------------

TEST(IoTimedSync, ChannelTryRecvForTimesOutThenDelivers) {
    lwt::core::Channel<int> ch(1);
    const auto start = steady_clock::now();
    EXPECT_FALSE(ch.try_recv_for(milliseconds(30)).has_value());
    EXPECT_GE(steady_clock::now() - start, milliseconds(29));
    ASSERT_TRUE(ch.try_send(42));
    auto got = ch.try_recv_for(milliseconds(1000));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 42);
}

TEST(IoTimedSync, ChannelTryRecvForWakesOnConcurrentSend) {
    lwt::core::Channel<int> ch;  // rendezvous
    std::thread sender([&] {
        std::this_thread::sleep_for(milliseconds(20));
        EXPECT_TRUE(ch.send(7));
    });
    auto got = ch.try_recv_for(std::chrono::seconds(5));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 7);
    sender.join();
}

TEST(IoTimedSync, ChannelTryRecvForSeesClose) {
    lwt::core::Channel<int> ch(1);
    std::thread closer([&] {
        std::this_thread::sleep_for(milliseconds(20));
        ch.close();
    });
    const auto start = steady_clock::now();
    EXPECT_FALSE(ch.try_recv_for(std::chrono::seconds(5)).has_value());
    // Woken by the close, not the 5 s deadline.
    EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(2));
    closer.join();
}

TEST(IoTimedSync, FutureWaitForTimesOutThenSeesValue) {
    lwt::core::Future<int> f;
    EXPECT_FALSE(f.wait_for(milliseconds(20)).has_value());
    std::thread setter([&] {
        std::this_thread::sleep_for(milliseconds(20));
        f.set(9);
    });
    auto got = f.wait_for(std::chrono::seconds(5));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 9);
    setter.join();
    // Ready future: immediate hit, no reactor round trip.
    EXPECT_EQ(f.wait_for(milliseconds(0)).value_or(-1), 9);
}

// --- idle streams are the poller (docs/io_reactor.md §2) --------------------

std::uint64_t counter(const char* name) {
    return lwt::core::MetricsRegistry::instance().counter(name).value();
}

/// FIFO pool that counts the units pushed into it.
class CountingPool final : public lwt::core::Pool {
  public:
    lwt::core::WorkUnit* pop() override {
        std::lock_guard guard(lock_);
        if (items_.empty()) {
            return nullptr;
        }
        lwt::core::WorkUnit* unit = items_.front();
        items_.pop_front();
        return unit;
    }
    [[nodiscard]] std::size_t size_hint() const override {
        std::lock_guard guard(lock_);
        return items_.size();
    }
    [[nodiscard]] int pushes() const noexcept { return pushes_.load(); }

  protected:
    void do_push(lwt::core::WorkUnit* unit) override {
        pushes_.fetch_add(1);
        on_push(unit);
        std::lock_guard guard(lock_);
        items_.push_back(unit);
    }

  private:
    mutable lwt::sync::Spinlock lock_;
    std::deque<lwt::core::WorkUnit*> items_;
    std::atomic<int> pushes_{0};
};

/// `n` dedicated streams under `policy` with a short ladder; stream r
/// serves `pools[r % pools.size()]`. The tests below assert on what the
/// policy does, so LWT_IDLE_POLICY is held off the boot.
std::unique_ptr<lwt::core::Runtime> boot_streams(
    std::size_t n, std::vector<lwt::core::Pool*> pools,
    lwt::sync::IdlePolicy policy,
    std::chrono::microseconds park_timeout = std::chrono::microseconds(1000)) {
    lwt::sync::IdleConfig idle;
    idle.policy = policy;
    idle.spin_limit = 4;
    idle.yield_limit = 2;
    idle.park_timeout = park_timeout;
    lwt::test::IdlePolicyEnvPin pin;
    return std::make_unique<lwt::core::Runtime>(
        n,
        [pools](unsigned rank) {
            return std::make_unique<lwt::core::Scheduler>(
                std::vector<lwt::core::Pool*>{pools[rank % pools.size()]});
        },
        lwt::arch::LocalityMap::flat(n),
        lwt::core::Runtime::Primary::kDedicatedThread, idle);
}

/// `n` dedicated streams over the one `pool`, parking after a short ladder.
std::unique_ptr<lwt::core::Runtime> boot_parking_streams(
    std::size_t n, lwt::core::Pool& pool,
    std::chrono::microseconds park_timeout = std::chrono::microseconds(1000)) {
    return boot_streams(n, {&pool}, lwt::sync::IdlePolicy::kPark,
                        park_timeout);
}

/// Spin until `pred()` holds; false after `limit`.
template <typename Pred>
bool wait_for(Pred&& pred, std::chrono::milliseconds limit) {
    const auto deadline = steady_clock::now() + limit;
    while (!pred()) {
        if (steady_clock::now() > deadline) {
            return false;
        }
        std::this_thread::yield();
    }
    return true;
}

/// A plain thread parked on a socket nobody writes to until it is
/// destroyed: while it waits, the reactor has a waiter and idle streams
/// poll it.
class SilentWaiter {
  public:
    SilentWaiter() {
        auto pair = io::Socket::pair();
        EXPECT_TRUE(pair.ok());
        rd_ = std::move(pair.value().first);
        wr_ = std::move(pair.value().second);
        const std::size_t before = Reactor::global().fd_waiters();
        thread_ = std::thread([this] {
            char c;
            EXPECT_TRUE(rd_.read_exact(&c, 1).ok());
            done_.store(true);
        });
        EXPECT_TRUE(wait_for(
            [&] { return Reactor::global().fd_waiters() > before; },
            milliseconds(10'000)));
    }
    ~SilentWaiter() {
        EXPECT_TRUE(wr_.write_all("x", 1).ok());
        EXPECT_TRUE(wait_for([&] { return done_.load(); }, milliseconds(10'000)))
            << "no poller served the silent waiter";
        while (!done_.load()) {
            Reactor::global().try_poll();  // free it anyway
        }
        thread_.join();
    }

  private:
    io::Socket rd_;
    io::Socket wr_;
    std::atomic<bool> done_{false};
    std::thread thread_;
};

TEST(IdleStreamsPoll, PushWakesAStreamParkedInTheSeat) {
    // The reactor has a waiter, so the runtime's one idle stream parks in
    // its epoll seat instead of on the lot. A pool push must end that park
    // at once through the lot's kick; a lost kick would stall the unit for
    // the whole 5 s park timeout. Half the pushes land while the stream is
    // blocked in epoll_wait, half as it enters the seat.
    SilentWaiter silent;
    Reactor& reactor = Reactor::global();
    const std::uint64_t seat_waits = counter("io.reactor.seat_waits");
    lwt::core::DequePool pool;
    std::atomic<int> ran{0};
    auto rt = boot_parking_streams(1, pool, std::chrono::seconds(5));
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(wait_for(
            [&] {
                return reactor.stream_seated() &&
                       rt->parking_lot().waiters() == 1;
            },
            milliseconds(10'000)))
            << "the idle stream never sat in round " << i;
        if (i % 2 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        auto* unit = new lwt::core::Tasklet([&ran] { ran.fetch_add(1); });
        unit->detached = true;
        pool.push(unit);
        ASSERT_TRUE(
            wait_for([&] { return ran.load() == i + 1; }, milliseconds(2000)))
            << "push " << i << " did not wake the seated stream";
    }
    rt.reset();
    EXPECT_GT(counter("io.reactor.seat_waits"), seat_waits);
}

TEST(IdleStreamsPoll, PollerStaysOutWhileAStreamIsIdle) {
    // Two idle streams hold the reactor's spinner token or its seat the
    // whole time, so readiness and timers for a plain-thread waiter are
    // dispatched by them and the backstop poller dispatches nothing. Each
    // write lands while a stream is blocked in the seat, where a poller
    // also blocked in epoll_wait would win about half the events.
    SilentWaiter silent;
    Reactor& reactor = Reactor::global();
    lwt::core::DequePool pool;
    auto rt = boot_parking_streams(2, pool);
    ASSERT_TRUE(wait_for([&] { return reactor.stream_seated(); },
                         milliseconds(10'000)));
    auto pair = io::Socket::pair();
    ASSERT_TRUE(pair.ok());
    io::Socket rd = std::move(pair.value().first);
    io::Socket wr = std::move(pair.value().second);
    const std::uint64_t poller = counter("io.reactor.poller_dispatches");
    const std::uint64_t wakes = counter("io.reactor.wakes");
    constexpr int kRounds = 100;
    std::atomic<int> got{0};
    std::thread reader([&] {
        char c;
        for (int i = 0; i < kRounds; ++i) {
            if (i % 10 == 0) {
                io::sleep_for(milliseconds(1));  // a timer too
            }
            EXPECT_TRUE(rd.read_exact(&c, 1).ok());
            got.fetch_add(1);
        }
    });
    for (int i = 0; i < kRounds; ++i) {
        // Write once the reader is parked, so every read is a wake.
        const bool parked = wait_for(
            [&] {
                return got.load() == i && reactor.fd_waiters() >= 2 &&
                       reactor.stream_seated();
            },
            milliseconds(10'000));
        EXPECT_TRUE(parked) << "round " << i;
        if (!parked) {
            break;
        }
        EXPECT_TRUE(wr.write_all("y", 1).ok());
    }
    wr.close();  // a reader left behind by a failed round reads EOF
    reader.join();
    // The poller counts a pass after its wakes: give one in flight time.
    std::this_thread::sleep_for(milliseconds(5));
    EXPECT_EQ(counter("io.reactor.poller_dispatches"), poller);
    EXPECT_GE(counter("io.reactor.wakes") - wakes,
              std::uint64_t{kRounds + kRounds / 10});
}

TEST(IdleStreamsPoll, SeatSleepsPastACancelledDeadline) {
    // A read completes before its deadline, so its timer is cancelled and
    // no timer is left. The seated stream must then size its epoll_wait
    // to its park timeout, not to the cancelled deadline: once that
    // passed, a stale bound would make every wait return at once.
    SilentWaiter silent;
    Reactor& reactor = Reactor::global();
    lwt::core::DequePool pool;
    auto rt = boot_parking_streams(1, pool, milliseconds(50));
    ASSERT_TRUE(wait_for([&] { return reactor.stream_seated(); },
                         milliseconds(10'000)));
    auto pair = io::Socket::pair();
    ASSERT_TRUE(pair.ok());
    io::Socket rd = std::move(pair.value().first);
    io::Socket wr = std::move(pair.value().second);
    const std::size_t parked = reactor.fd_waiters();
    std::thread reader([&] {
        char c;
        EXPECT_TRUE(
            rd.read_exact(&c, 1, Deadline::in(milliseconds(200))).ok());
    });
    EXPECT_TRUE(wait_for([&] { return reactor.fd_waiters() > parked; },
                         milliseconds(10'000)));
    EXPECT_TRUE(wr.write_all("d", 1).ok());
    reader.join();
    std::this_thread::sleep_for(milliseconds(250));  // the deadline passes
    const std::uint64_t waits = counter("io.reactor.seat_waits");
    std::this_thread::sleep_for(milliseconds(20));
    EXPECT_LT(counter("io.reactor.seat_waits") - waits, 50u);
}

/// Both streams of a runtime under `policy` run a CPU-bound unit until a
/// plain-thread waiter's read and sleep complete: only the backstop poller
/// can deliver them.
void backstop_serves_while_every_stream_is_busy(lwt::sync::IdlePolicy policy) {
    auto pair = io::Socket::pair();
    ASSERT_TRUE(pair.ok());
    io::Socket rd = std::move(pair.value().first);
    io::Socket wr = std::move(pair.value().second);
    lwt::core::DequePool pool;
    std::atomic<bool> release{false};
    std::atomic<int> busy{0};
    const std::uint64_t polls = counter("io.reactor.polls");
    auto rt = boot_streams(2, {&pool}, policy);
    if (Reactor::global().has_waiters()) {
        // Land the units once an idle stream polls as the spinner.
        EXPECT_TRUE(wait_for(
            [&] { return counter("io.reactor.polls") - polls > 10; },
            milliseconds(10'000)));
    }
    for (int i = 0; i < 2; ++i) {
        auto* unit = new lwt::core::Tasklet([&] {
            busy.fetch_add(1);
            while (!release.load()) {
                lwt::arch::cpu_relax();
            }
        });
        unit->detached = true;
        pool.push(unit);
    }
    EXPECT_TRUE(wait_for([&] { return busy.load() == 2; },
                         milliseconds(10'000)));
    const std::uint64_t poller = counter("io.reactor.poller_dispatches");
    const std::size_t parked = Reactor::global().fd_waiters();
    std::thread waiter([&] {
        char c;
        EXPECT_TRUE(rd.read_exact(&c, 1).ok());
        io::sleep_for(milliseconds(5));
        release.store(true);
    });
    // Write once the waiter is parked, so its read is a wake.
    EXPECT_TRUE(wait_for(
        [&] { return Reactor::global().fd_waiters() > parked; },
        milliseconds(10'000)));
    EXPECT_TRUE(wr.write_all("z", 1).ok());
    const bool done =
        wait_for([&] { return release.load(); }, milliseconds(10'000));
    release.store(true);  // never leave the streams spinning
    wr.close();           // nor the waiter parked
    waiter.join();
    EXPECT_TRUE(done) << "I/O stalled while every stream was busy";
    // The poller counts a pass after its wakes: let the count catch up.
    EXPECT_TRUE(wait_for(
        [&] { return counter("io.reactor.poller_dispatches") - poller >= 2; },
        milliseconds(10'000)));
}

TEST(IdleStreamsPoll, BackstopCompletesIoWhileEveryStreamIsBusy) {
    backstop_serves_while_every_stream_is_busy(lwt::sync::IdlePolicy::kPark);
}

TEST(IdleStreamsPoll, BackstopCompletesIoWhenTheSpinnerTurnsBusy) {
    // The reactor has a waiter before the units land, so one backoff
    // stream holds the spinner token when it picks a unit up (backoff
    // never parks, so it holds the token for as long as it is idle). It
    // must hand the token on before the unit runs: a token held by a
    // running unit reads as a stream polling and keeps the backstop out.
    SilentWaiter silent;
    backstop_serves_while_every_stream_is_busy(
        lwt::sync::IdlePolicy::kBackoff);
}

TEST(IdleStreamsPoll, IdleStreamPollsWhileTheSpinnerRunsAUnit) {
    // Two backoff streams with private pools; while idle, one of them
    // holds the spinner token. Each round runs a CPU-bound unit on one
    // stream until a plain thread's read completes. The rounds alternate
    // pools, and the spinner stays put while idle, so some round lands on
    // the spinner. It hands the token on before its unit runs, so the
    // other stream, idle, polls the reactor while the unit runs. (A
    // stream the OS keeps off its CPU for longer than the backstop's grace
    // lets the backstop serve the read instead, so this does not count
    // poller dispatches.)
    lwt::core::DequePool pools[2];
    auto pair = io::Socket::pair();
    ASSERT_TRUE(pair.ok());
    io::Socket rd = std::move(pair.value().first);
    io::Socket wr = std::move(pair.value().second);
    Reactor& reactor = Reactor::global();
    auto rt = boot_streams(2, {&pools[0], &pools[1]},
                           lwt::sync::IdlePolicy::kBackoff);
    constexpr int kRounds = 4;
    std::atomic<int> got{0};
    const std::size_t parked = reactor.fd_waiters();
    std::thread reader([&] {
        char c;
        for (int i = 0; i < kRounds; ++i) {
            EXPECT_TRUE(rd.read_exact(&c, 1).ok());
            got.fetch_add(1);
        }
    });
    ASSERT_TRUE(wait_for([&] { return reactor.fd_waiters() > parked; },
                         milliseconds(10'000)));
    std::atomic<int> running{0};
    std::atomic<int> finished{0};
    for (int i = 0; i < kRounds; ++i) {
        auto* unit = new lwt::core::Tasklet([&, i] {
            running.store(i + 1);
            // Bounded, so a stalled read fails the round, not the suite.
            const auto deadline = steady_clock::now() + milliseconds(10'000);
            while (got.load() <= i && steady_clock::now() < deadline) {
                lwt::arch::cpu_relax();
            }
            finished.store(i + 1);
        });
        unit->detached = true;
        pools[i % 2].push(unit);
        // Write once the unit runs, the reader is parked again and an
        // idle stream polls.
        EXPECT_TRUE(wait_for(
            [&] {
                return running.load() == i + 1 &&
                       reactor.fd_waiters() > parked;
            },
            milliseconds(10'000)));
        const std::uint64_t polls = counter("io.reactor.polls");
        EXPECT_TRUE(wait_for(
            [&] { return counter("io.reactor.polls") - polls > 10; },
            milliseconds(5000)))
            << "round " << i << ": no idle stream polled";
        EXPECT_TRUE(wr.write_all("s", 1).ok());
        EXPECT_TRUE(
            wait_for([&] { return got.load() == i + 1; }, milliseconds(5000)))
            << "round " << i << ": the read stalled";
        EXPECT_TRUE(wait_for([&] { return finished.load() == i + 1; },
                             milliseconds(15'000)));
    }
    wr.close();  // a reader left behind by a failed round reads EOF
    reader.join();
}

TEST(IdleStreamsPoll, BackstopPollsWhenNoRuntimeExists) {
    // No stream exists to poll: the backstop poller delivers readiness and
    // timers to plain threads.
    auto pair = io::Socket::pair();
    ASSERT_TRUE(pair.ok());
    io::Socket rd = std::move(pair.value().first);
    io::Socket wr = std::move(pair.value().second);
    const std::uint64_t poller = counter("io.reactor.poller_dispatches");
    const std::size_t parked = Reactor::global().fd_waiters();
    std::atomic<bool> done{false};
    std::thread waiter([&] {
        char c;
        EXPECT_TRUE(rd.read_exact(&c, 1).ok());
        io::sleep_for(milliseconds(2));
        done.store(true);
    });
    // Write once the waiter is parked, so its read is a wake.
    EXPECT_TRUE(wait_for(
        [&] { return Reactor::global().fd_waiters() > parked; },
        milliseconds(10'000)));
    EXPECT_TRUE(wr.write_all("w", 1).ok());
    const bool served =
        wait_for([&] { return done.load(); }, milliseconds(10'000));
    wr.close();
    while (!done.load()) {
        Reactor::global().try_poll();  // nobody else will: free the waiter
    }
    waiter.join();
    EXPECT_TRUE(served) << "no poller served a plain-thread waiter";
    // The poller counts a pass after its wakes: let the count catch up.
    EXPECT_TRUE(wait_for(
        [&] { return counter("io.reactor.poller_dispatches") - poller >= 2; },
        milliseconds(10'000)));
}

#if !defined(LWT_TSAN)

// --- ULT-context tests (suspend/resume through the scheduler) ----------------

TEST(IdleStreamsPoll, ReadinessRunsOnTheStreamThatNoticesIt) {
    // A ULT reads one byte at a time from a socket written only while the
    // stream sits in the epoll seat. The stream that notices the readiness
    // runs the reader next from its hint: the pool sees only the first
    // push, each wake is a claim, and every read resumes on that stream.
    // Declared before the sockets: a reader left parked by a failed round
    // is woken into the pool when they close.
    CountingPool pool;
    auto pair = io::Socket::pair();
    ASSERT_TRUE(pair.ok());
    io::Socket rd = std::move(pair.value().first);
    io::Socket wr = std::move(pair.value().second);
    Reactor& reactor = Reactor::global();
    constexpr int kReads = 50;
    std::atomic<int> reads{0};
    std::atomic<int> elsewhere{0};
    auto rt = boot_parking_streams(1, pool);
    lwt::core::XStream* const stream = &rt->stream(0);
    auto* reader = new lwt::core::Ult([&] {
        char c;
        for (int i = 0; i < kReads; ++i) {
            EXPECT_TRUE(rd.read_exact(&c, 1).ok());
            if (lwt::core::XStream::current() != stream) {
                elsewhere.fetch_add(1);
            }
            reads.fetch_add(1);
        }
    });
    reader->detached = true;
    const std::uint64_t claims = counter("io.reactor.claims");
    pool.push(reader);
    int written = 0;
    for (; written < kReads; ++written) {
        const bool parked = wait_for(
            [&] {
                return reads.load() == written && reactor.fd_waiters() > 0 &&
                       reactor.stream_seated();
            },
            milliseconds(10'000));
        EXPECT_TRUE(parked) << "read " << written;
        if (!parked) {
            break;
        }
        EXPECT_TRUE(wr.write_all("r", 1).ok());
    }
    // After a failed round, let the reader finish anyway.
    const std::string rest(static_cast<std::size_t>(kReads - written), 'r');
    EXPECT_TRUE(wr.write_all(rest.data(), rest.size()).ok());
    EXPECT_TRUE(
        wait_for([&] { return reads.load() == kReads; }, milliseconds(10'000)));
    rt.reset();
    EXPECT_EQ(pool.pushes(), 1);
    EXPECT_EQ(elsewhere.load(), 0);
    EXPECT_GE(counter("io.reactor.claims") - claims, std::uint64_t{kReads});
}

TEST(IoUlt, SleepSuspendsGoroutineNotThread) {
    lwt::gol::Config c;
    c.num_threads = 1;
    lwt::gol::Library lib(c);
    lwt::gol::WaitGroup wg;
    std::atomic<int> progressed{0};
    wg.add(2);
    lib.go([&] {
        io::sleep_for(milliseconds(60));
        // The OTHER goroutine must have run on this same single thread
        // while we slept — i.e. the sleep suspended, not blocked.
        EXPECT_EQ(progressed.load(), 1);
        wg.done();
    });
    lib.go([&] {
        progressed.fetch_add(1);
        wg.done();
    });
    wg.wait();
}

TEST(IoUlt, BlockedReaderDoesNotStallItsStream) {
    // THE acceptance property: a ULT parked in read() releases its
    // execution stream. One worker stream (abt pool 1), a reader ULT with
    // no data, and background ULTs behind it in the same pool: every
    // background unit completes while the reader is still parked, then
    // data arrives and the reader finishes. Also pins the wake account:
    // io.reactor.wakes moves when the reader is woken.
    auto& wakes =
        lwt::core::MetricsRegistry::instance().counter("io.reactor.wakes");
    const std::uint64_t wakes_before = wakes.value();

    auto pair = io::Socket::pair();
    ASSERT_TRUE(pair.ok());
    io::Socket rd = std::move(pair.value().first);
    io::Socket wr = std::move(pair.value().second);

    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    std::atomic<int> background{0};
    std::atomic<bool> reader_done{false};
    constexpr int kBackground = 16;

    std::vector<lwt::abt::UnitHandle> handles;
    handles.push_back(lib.thread_create(
        [&] {
            char buf[4];
            auto res = rd.read_exact(buf, 4);
            EXPECT_TRUE(res.ok()) << res.error().message();
            // Everything queued behind us ran while we were parked.
            EXPECT_EQ(background.load(), kBackground);
            reader_done.store(true);
        },
        /*pool_idx=*/1));
    for (int i = 0; i < kBackground; ++i) {
        handles.push_back(lib.thread_create(
            [&] { background.fetch_add(1); }, /*pool_idx=*/1));
    }
    // From the main thread: wait until the stream drained the background
    // units (proof it kept scheduling around the parked reader), THEN
    // supply the bytes.
    while (background.load() < kBackground) {
        std::this_thread::sleep_for(milliseconds(1));
    }
    EXPECT_FALSE(reader_done.load());
    ASSERT_TRUE(wr.write_all("data", 4).ok());
    lib.join_all_free(handles);
    EXPECT_TRUE(reader_done.load());
    EXPECT_GT(wakes.value(), wakes_before);
}

/// 1k-connection loopback echo smoke, shared by the personality variants.
/// `spawn_server` launches a detached task (called from the acceptor
/// thread; completion is tracked by the `served` counter), `spawn_client`
/// launches a joinable client task from the main thread, and `drain_batch`
/// joins the outstanding clients. Batched so at most ~kBatch connections
/// are live at once (fd budget), totalling kConns.
template <typename ServerSpawn, typename ClientSpawn, typename DrainFn>
void run_echo_smoke(ServerSpawn&& spawn_server, ClientSpawn&& spawn_client,
                    DrainFn&& drain_batch) {
    constexpr int kConns = 1000;
    constexpr int kBatch = 100;
    constexpr std::size_t kPayload = 64;

    auto lr = io::Listener::listen();
    ASSERT_TRUE(lr.ok()) << lr.error().message();
    io::Listener& listener = lr.value();
    std::atomic<int> served{0};
    std::atomic<bool> stop{false};

    // Acceptor: accept until told to stop; one echo task per connection.
    std::thread acceptor([&] {
        while (!stop.load()) {
            auto conn = listener.accept(Deadline::in(milliseconds(200)));
            if (!conn.ok()) {
                continue;  // deadline tick; re-check stop
            }
            auto* sp = new io::Socket(std::move(conn.value()));
            spawn_server([sp, &served] {
                io::Socket s = std::move(*sp);
                delete sp;
                char buf[kPayload];
                if (s.read_exact(buf, kPayload,
                                 Deadline::in(std::chrono::seconds(30)))
                        .ok() &&
                    s.write_all(buf, kPayload,
                                Deadline::in(std::chrono::seconds(30)))
                        .ok()) {
                    served.fetch_add(1);
                }
            });
        }
    });

    std::atomic<int> ok_echoes{0};
    for (int batch = 0; batch < kConns / kBatch; ++batch) {
        for (int i = 0; i < kBatch; ++i) {
            spawn_client([&ok_echoes, port = listener.port()] {
                auto c = io::connect_tcp(
                    port, Deadline::in(std::chrono::seconds(30)));
                if (!c.ok()) {
                    return;
                }
                char out[kPayload];
                char in[kPayload];
                std::memset(out, 'e', kPayload);
                if (io::request_reply(c.value(), out, in, kPayload,
                                      Deadline::in(std::chrono::seconds(30)))
                        .ok() &&
                    std::memcmp(out, in, kPayload) == 0) {
                    ok_echoes.fetch_add(1);
                }
            });
        }
        drain_batch();  // bound live fds before the next wave
    }
    while (served.load() < kConns) {
        std::this_thread::sleep_for(milliseconds(1));
    }
    stop.store(true);
    acceptor.join();
    EXPECT_EQ(ok_echoes.load(), kConns);
    EXPECT_EQ(served.load(), kConns);
}

TEST(IoUlt, EchoSmoke1kConnectionsGol) {
    lwt::gol::Config c;
    c.num_threads = 2;
    lwt::gol::Library lib(c);
    auto wg = std::make_shared<lwt::gol::WaitGroup>();
    run_echo_smoke(
        [&](auto fn) { lib.go(std::move(fn)); },
        [&](auto fn) {
            wg->add(1);
            lib.go([fn = std::move(fn), wg] {
                fn();
                wg->done();
            });
        },
        [&] { wg->wait(); });
}

TEST(IoUlt, EchoSmoke1kConnectionsAbt) {
    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    std::vector<lwt::abt::UnitHandle> handles;
    run_echo_smoke(
        [&](auto fn) {
            lib.thread_create_detached(std::move(fn), /*pool_idx=*/1);
        },
        [&](auto fn) {
            handles.push_back(lib.thread_create(std::move(fn), /*pool_idx=*/1));
        },
        [&] {
            lib.join_all_free(handles);
            handles.clear();
        });
}

#endif  // !LWT_TSAN

}  // namespace
