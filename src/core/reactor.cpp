#include "core/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <thread>

#include "arch/cpu.hpp"
#include "core/scheduler.hpp"
#include "core/xstream.hpp"

namespace lwt::core {

namespace {

using SteadyNs = std::uint64_t;

/// Events one epoll_wait collects.
constexpr int kBatch = 128;
/// Longest epoll_wait of the backstop poller.
constexpr int kMaxPollMs = 100;
/// How long the backstop poller naps between looks while a stream watches
/// the reactor: the longest a readiness event or timer waits once every
/// stream turns busy. One wake costs 10-12 us of CPU on a 4-vCPU VM, so
/// these naps take 1-2% of a vCPU (EXPERIMENTS.md).
constexpr auto kBackstopNap = std::chrono::microseconds(500);
/// How long no stream must have watched before the backstop polls. Longer
/// than the gaps between one watcher turning busy and the next taking over
/// (an echo request's handler runs for about 10 us).
constexpr SteadyNs kBackstopGraceNs = 100'000;

SteadyNs now_ns() noexcept {
    return static_cast<SteadyNs>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Deadline::Clock::now().time_since_epoch())
            .count());
}

SteadyNs deadline_ns_of(const Deadline& d) noexcept {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        d.when().time_since_epoch())
                        .count();
    return ns <= 0 ? 0 : static_cast<SteadyNs>(ns);
}

void record_reactor_suspend() noexcept {
    static Counter& suspends =
        MetricsRegistry::instance().counter("io.reactor.suspends");
    suspends.inc();
}

}  // namespace

const char* io_status_name(IoStatus s) noexcept {
    switch (s) {
        case IoStatus::kReady:
            return "ready";
        case IoStatus::kTimedOut:
            return "timed_out";
        case IoStatus::kCanceled:
            return "canceled";
        case IoStatus::kError:
            return "error";
    }
    return "?";
}

std::atomic<bool> Reactor::s_global_armed{false};

// ---------------------------------------------------------------------------
// Internal structures

/// One parked fd wait. Stack-owned by the waiting context; `claim` is the
/// outcome word the three possible wakers (readiness dispatch, deadline
/// timer, forget) CAS from kUnclaimed — the winner dequeues the node from
/// its slot and issues the single wake, losers never touch it again.
struct Reactor::IoWait {
    static constexpr std::uint8_t kUnclaimed = 0;

    SyncWaiter w;
    std::atomic<std::uint8_t> claim{kUnclaimed};  ///< kUnclaimed or IoStatus+1
    Timer timer;
    Reactor* owner = nullptr;
    FdEntry* entry = nullptr;
    int fd = -1;
    std::uint32_t interest = 0;  ///< EPOLLIN or EPOLLOUT

    [[nodiscard]] bool try_claim(IoStatus s) noexcept {
        std::uint8_t expected = kUnclaimed;
        return claim.compare_exchange_strong(
            expected, static_cast<std::uint8_t>(s) + 1,
            std::memory_order_acq_rel, std::memory_order_acquire);
    }
    [[nodiscard]] IoStatus outcome() const noexcept {
        return static_cast<IoStatus>(claim.load(std::memory_order_acquire) -
                                     1);
    }
};

/// Per-fd registration state. The lock serialises slot publication,
/// epoll_ctl (re)arming, and dispatch-side dequeue; it is never held
/// across a wake or a user callback.
struct Reactor::FdEntry {
    sync::Spinlock lock;
    IoWait* reader = nullptr;
    IoWait* writer = nullptr;
    bool registered = false;  ///< fd currently has an epoll registration
};

struct Reactor::FdPage {
    FdEntry entries[kFdPageSize];
};

/// Hashed timer wheel: slots are unsorted doubly-linked lists keyed by
/// deadline/kTickNs mod kSlots, so a slot holds ~1/kSlots of the live
/// timers. `earliest` is a lower bound on the soonest deadline (CAS-min
/// on add, recomputed exactly after each firing sweep); fire_due is two
/// relaxed loads until something is actually due, so idle-stream polls
/// stay cheap.
struct Reactor::Wheel {
    static constexpr SteadyNs kTickNs = 1'000'000;  // 1ms granularity
    static constexpr std::uint32_t kSlots = 512;

    sync::Spinlock lock;
    Timer* slots[kSlots] = {};
    std::atomic<SteadyNs> earliest{~SteadyNs{0}};
    std::atomic<std::size_t> pending{0};

    static std::uint32_t slot_of(SteadyNs deadline) noexcept {
        return static_cast<std::uint32_t>((deadline / kTickNs) % kSlots);
    }

    void link(Timer& t) noexcept {  // caller holds lock
        const std::uint32_t s = slot_of(t.deadline_ns);
        t.slot = s;
        t.prev = nullptr;
        t.next = slots[s];
        if (slots[s] != nullptr) {
            slots[s]->prev = &t;
        }
        slots[s] = &t;
    }

    void unlink(Timer& t) noexcept {  // caller holds lock
        if (t.prev != nullptr) {
            t.prev->next = t.next;
        } else {
            slots[t.slot] = t.next;
        }
        if (t.next != nullptr) {
            t.next->prev = t.prev;
        }
        t.prev = nullptr;
        t.next = nullptr;
    }
};

// ---------------------------------------------------------------------------
// Construction / poller lifecycle

struct Reactor::PollerThread {
    std::thread thread;
};

/// What the seat holder's epoll_wait collected, dispatched once the
/// holder is off its lot (leave_seat).
struct Reactor::Seat {
    ::epoll_event events[kBatch];
    int n = 0;
};

Reactor::Reactor()
    : wheel_(new Wheel),
      seat_events_(new Seat),
      wakes_(MetricsRegistry::instance().counter("io.reactor.wakes")),
      polls_(MetricsRegistry::instance().counter("io.reactor.polls")),
      timer_fires_(MetricsRegistry::instance().counter("io.timer.fires")),
      claims_(MetricsRegistry::instance().counter("io.reactor.claims")),
      seat_waits_(MetricsRegistry::instance().counter("io.reactor.seat_waits")),
      poller_dispatches_(MetricsRegistry::instance().counter(
          "io.reactor.poller_dispatches")) {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    eventfd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (epfd_ >= 0 && eventfd_ >= 0) {
        ::epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = eventfd_;
        ::epoll_ctl(epfd_, EPOLL_CTL_ADD, eventfd_, &ev);
    }
    if (const char* env = std::getenv("LWT_IO_POLLER")) {
        poller_enabled_.store(env[0] != '0', std::memory_order_relaxed);
    }
}

Reactor::~Reactor() {
    stop_.store(true, std::memory_order_release);
    if (poller_ != nullptr) {
        kick();
        poller_->thread.join();
        delete poller_;
    }
    if (eventfd_ >= 0) {
        ::close(eventfd_);
    }
    if (epfd_ >= 0) {
        ::close(epfd_);
    }
    for (auto& page : pages_) {
        delete page.load(std::memory_order_acquire);
    }
    delete seat_events_;
    delete wheel_;
}

Reactor& Reactor::global() {
    static Reactor instance;
    return instance;
}

void Reactor::ensure_running() {
    if (running_.load(std::memory_order_acquire)) {
        return;
    }
    std::lock_guard<sync::Spinlock> g(start_lock_);
    if (!running_.load(std::memory_order_relaxed)) {
        if (this == &global()) {
            s_global_armed.store(true, std::memory_order_release);
        }
        if (poller_enabled_.load(std::memory_order_relaxed) &&
            !poller_started_.load(std::memory_order_relaxed)) {
            poller_ = new PollerThread;
            poller_->thread = std::thread([this] { poller_main(); });
            poller_started_.store(true, std::memory_order_relaxed);
        }
        running_.store(true, std::memory_order_release);
    }
}

void Reactor::kick() noexcept {
    if (eventfd_ >= 0) {
        const std::uint64_t one = 1;
        [[maybe_unused]] ssize_t n = ::write(eventfd_, &one, sizeof(one));
    }
}

void Reactor::poller_main() {
    while (!stop_.load(std::memory_order_acquire)) {
        // Backstop: stay out of epoll_wait while a stream watches the
        // reactor, so readiness runs on the streams that notice it. Poll
        // once none has watched for the grace: every stream is busy, or
        // no runtime exists.
        if (streams_watch()) {
            std::this_thread::sleep_for(kBackstopNap);
            continue;
        }
        // The stamp is read before the clock, so it is not in the future.
        const SteadyNs grace_end =
            unwatched_since_.load(std::memory_order_relaxed) +
            kBackstopGraceNs;
        if (const SteadyNs now = now_ns(); now < grace_end) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(grace_end - now));
            continue;
        }
        std::uint8_t free = kSeatFree;
        if (!seat_.compare_exchange_strong(free, kSeatPoller,
                                           std::memory_order_seq_cst)) {
            continue;  // a stream just sat
        }
        if (streams_watch()) {
            // A stream turned idle as we took the seat: give it back.
            seat_.store(kSeatFree, std::memory_order_seq_cst);
            continue;
        }
        Seat& seat = *seat_events_;
        const int n = ::epoll_wait(epfd_, seat.events, kBatch,
                                   next_timeout_ms(kMaxPollMs));
        std::size_t done = dispatch(seat.events, n, nullptr, /*seated=*/true);
        done += fire_due_timers();
        poller_dispatches_.inc(done);
        seat_.store(kSeatFree, std::memory_order_seq_cst);
    }
}

int Reactor::next_timeout_ms(int cap_ms) {
    // seq_cst: Dekker with add_timer, which lowers `earliest` then loads
    // the seat — a seat holder that read the old bound gets kicked.
    const SteadyNs earliest =
        wheel_->earliest.load(std::memory_order_seq_cst);
    if (earliest == ~SteadyNs{0}) {
        return cap_ms;
    }
    const SteadyNs now = now_ns();
    if (earliest <= now) {
        return 0;
    }
    const SteadyNs delta_ms = (earliest - now + 999'999) / 1'000'000;
    return delta_ms > static_cast<SteadyNs>(cap_ms)
               ? cap_ms
               : static_cast<int>(delta_ms);
}

// ---------------------------------------------------------------------------
// fd table

Reactor::FdEntry* Reactor::entry_for(int fd) {
    if (fd < 0) {
        return nullptr;
    }
    const auto idx = static_cast<std::size_t>(fd);
    const std::size_t page_idx = idx >> kFdPageBits;
    if (page_idx >= kFdPages) {
        return nullptr;
    }
    FdPage* page = pages_[page_idx].load(std::memory_order_acquire);
    if (page == nullptr) {
        std::lock_guard<sync::Spinlock> g(page_alloc_lock_);
        page = pages_[page_idx].load(std::memory_order_relaxed);
        if (page == nullptr) {
            page = new FdPage;
            pages_[page_idx].store(page, std::memory_order_release);
        }
    }
    return &page->entries[idx & (kFdPageSize - 1)];
}

int Reactor::arm_locked(int fd, FdEntry& e) {
    std::uint32_t events = EPOLLONESHOT;
    if (e.reader != nullptr) {
        events |= EPOLLIN | EPOLLRDHUP;
    }
    if (e.writer != nullptr) {
        events |= EPOLLOUT;
    }
    ::epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    const int op = e.registered ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
    if (::epoll_ctl(epfd_, op, fd, &ev) != 0) {
        // A race with close()+reopen can leave `registered` stale in
        // either direction; retry once with the other op.
        const int other = e.registered ? EPOLL_CTL_ADD : EPOLL_CTL_MOD;
        if (errno != (e.registered ? ENOENT : EEXIST) ||
            ::epoll_ctl(epfd_, other, fd, &ev) != 0) {
            return errno;
        }
    }
    e.registered = true;
    return 0;
}

// ---------------------------------------------------------------------------
// fd waits

void Reactor::io_deadline_cb(void* arg) {
    auto* wait = static_cast<IoWait*>(arg);
    if (!wait->try_claim(IoStatus::kTimedOut)) {
        return;  // readiness or cancel got there first
    }
    Reactor* r = wait->owner;
    FdEntry& e = *wait->entry;
    {
        std::lock_guard<sync::Spinlock> g(e.lock);
        if (e.reader == wait) {
            e.reader = nullptr;
        } else if (e.writer == wait) {
            e.writer = nullptr;
        }
        // Leave the (one-shot) epoll registration disarmed; the next
        // waiter on this fd rearms it.
    }
    r->wakes_.inc();
    wake_sync_waiter(&wait->w);
}

IoStatus Reactor::wait_io(int fd, std::uint32_t interest, Deadline d) {
    FdEntry* entry = entry_for(fd);
    if (entry == nullptr) {
        return IoStatus::kError;
    }
    if (d.has_value() && deadline_ns_of(d) <= now_ns()) {
        return IoStatus::kTimedOut;
    }
    ensure_running();

    IoWait wait;
    wait.owner = this;
    wait.entry = entry;
    wait.fd = fd;
    wait.interest = interest;

    SyncBlocker blocker;
    blocker.prepare(wait.w);
    {
        std::lock_guard<sync::Spinlock> g(entry->lock);
        IoWait*& slot =
            (interest == EPOLLIN) ? entry->reader : entry->writer;
        if (slot != nullptr) {
            blocker.cancel(wait.w);
            return IoStatus::kError;  // one waiter per direction
        }
        slot = &wait;
        if (arm_locked(fd, *entry) != 0) {
            slot = nullptr;
            blocker.cancel(wait.w);
            return IoStatus::kError;
        }
    }
    fd_waiters_.fetch_add(1, std::memory_order_acq_rel);
    if (Metrics::instance().enabled()) {
        record_reactor_suspend();
    }
    if (d.has_value()) {
        add_timer(wait.timer, d, &Reactor::io_deadline_cb, &wait);
    }

    blocker.wait();

    if (d.has_value()) {
        // Quiesce the timer before `wait` leaves scope, whoever won.
        cancel_timer(wait.timer);
    }
    fd_waiters_.fetch_sub(1, std::memory_order_acq_rel);
    return wait.outcome();
}

IoStatus Reactor::wait_readable(int fd, Deadline d) {
    return wait_io(fd, EPOLLIN, d);
}

IoStatus Reactor::wait_writable(int fd, Deadline d) {
    return wait_io(fd, EPOLLOUT, d);
}

void Reactor::forget(int fd) {
    FdEntry* entry = entry_for(fd);
    if (entry == nullptr) {
        return;
    }
    SyncWaiter* to_wake[2];
    std::size_t n = 0;
    {
        std::lock_guard<sync::Spinlock> g(entry->lock);
        for (IoWait** slot : {&entry->reader, &entry->writer}) {
            IoWait* wait = *slot;
            if (wait != nullptr && wait->try_claim(IoStatus::kCanceled)) {
                *slot = nullptr;
                to_wake[n++] = &wait->w;
            }
        }
        if (entry->registered) {
            ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
            entry->registered = false;
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        wakes_.inc();
        wake_sync_waiter(to_wake[i]);
    }
}

// ---------------------------------------------------------------------------
// timers

void Reactor::add_timer(Timer& t, Deadline d, void (*fn)(void*), void* arg) {
    t.fn = fn;
    t.arg = arg;
    t.deadline_ns = d.has_value() ? deadline_ns_of(d) : now_ns();
    ensure_running();
    {
        std::lock_guard<sync::Spinlock> g(wheel_->lock);
        t.state.store(Timer::St::kPending, std::memory_order_relaxed);
        wheel_->link(t);
        wheel_->pending.fetch_add(1, std::memory_order_relaxed);
    }
    // Publish the (possibly sooner) earliest deadline and kick the seat
    // holder out of a longer epoll sleep so it re-sizes its timeout.
    SteadyNs prev = wheel_->earliest.load(std::memory_order_relaxed);
    while (t.deadline_ns < prev &&
           !wheel_->earliest.compare_exchange_weak(
               prev, t.deadline_ns, std::memory_order_seq_cst)) {
    }
    if (t.deadline_ns < prev &&
        seat_.load(std::memory_order_seq_cst) != kSeatFree) {
        kick();  // the seat holder re-sizes its epoll_wait
    }
}

bool Reactor::cancel_timer(Timer& t) {
    {
        std::lock_guard<sync::Spinlock> g(wheel_->lock);
        if (t.state.load(std::memory_order_acquire) == Timer::St::kPending) {
            wheel_->unlink(t);
            t.state.store(Timer::St::kCancelled, std::memory_order_release);
            if (wheel_->pending.fetch_sub(1, std::memory_order_relaxed) == 1) {
                // No timer left: drop the bound, or every poll would size
                // its epoll_wait to this deadline, 0 ms once it passed.
                // An add_timer that links after us lowers it again.
                wheel_->earliest.store(~SteadyNs{0},
                                       std::memory_order_release);
            }
            return true;
        }
    }
    // Fired, firing, or never armed: spin out an in-flight callback so the
    // caller can safely destroy the timer (and whatever arg points at).
    arch::Backoff backoff;
    while (t.state.load(std::memory_order_acquire) == Timer::St::kFiring) {
        backoff.pause();
    }
    return false;
}

std::size_t Reactor::fire_due_timers() {
    if (wheel_->pending.load(std::memory_order_acquire) == 0) {
        return 0;
    }
    const SteadyNs now = now_ns();
    if (wheel_->earliest.load(std::memory_order_acquire) > now) {
        return 0;  // nothing due yet — the common idle-poll exit
    }
    Timer* due = nullptr;  // chain through `next`
    {
        std::lock_guard<sync::Spinlock> g(wheel_->lock);
        SteadyNs min_left = ~SteadyNs{0};
        for (auto& slot : wheel_->slots) {
            Timer** link = &slot;
            while (*link != nullptr) {
                Timer* t = *link;
                if (t->deadline_ns <= now) {
                    wheel_->unlink(*t);  // advances *link to t's successor
                    t->state.store(Timer::St::kFiring,
                                   std::memory_order_release);
                    wheel_->pending.fetch_sub(1, std::memory_order_relaxed);
                    t->next = due;  // safe: t is off the wheel
                    due = t;
                } else {
                    if (t->deadline_ns < min_left) {
                        min_left = t->deadline_ns;
                    }
                    link = &t->next;
                }
            }
        }
        // Exact while we hold the lock; add_timer's CAS-min can only
        // lower it afterwards, so `earliest` stays a valid lower bound.
        wheel_->earliest.store(min_left, std::memory_order_release);
    }
    std::size_t fired = 0;
    while (due != nullptr) {
        Timer* t = due;
        due = t->next;
        t->next = nullptr;
        t->fn(t->arg);
        // The callback may hand the timer's owner back to its waiter, but
        // cancel_timer() spins until kFired, so `t` itself is still ours.
        t->state.store(Timer::St::kFired, std::memory_order_release);
        ++fired;
        timer_fires_.inc();
    }
    return fired;
}

namespace {
/// sleep_until parks on a bare waiter; the timer callback is the only
/// waker, so no claim arbitration is needed.
struct SleepWait {
    SyncWaiter w;
    Counter* wakes;
};
void sleep_cb(void* arg) {
    auto* s = static_cast<SleepWait*>(arg);
    s->wakes->inc();
    wake_sync_waiter(&s->w);
}
}  // namespace

IoStatus Reactor::sleep_until(Deadline d) {
    if (!d.has_value()) {
        return IoStatus::kError;
    }
    SleepWait sleep;
    sleep.wakes = &wakes_;
    SyncBlocker blocker;
    blocker.prepare(sleep.w);
    Timer timer;
    if (Metrics::instance().enabled()) {
        record_reactor_suspend();
    }
    add_timer(timer, d, &sleep_cb, &sleep);
    blocker.wait();
    cancel_timer(timer);  // quiesce kFiring before `sleep` dies
    return IoStatus::kTimedOut;
}

// ---------------------------------------------------------------------------
// polling

std::size_t Reactor::dispatch(const ::epoll_event* events, int n,
                              XStream* runner, bool seated) {
    std::size_t woken = 0;
    for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == eventfd_) {
            // Only the seat holder drains the kick: a try_poll that ate it
            // would leave the blocked holder asleep.
            std::uint64_t drain;
            while (seated && ::read(eventfd_, &drain, sizeof(drain)) > 0) {
            }
            continue;
        }
        FdEntry* entry = entry_for(fd);
        if (entry == nullptr) {
            continue;
        }
        const std::uint32_t ev = events[i].events;
        const bool readable =
            (ev & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP)) != 0;
        const bool writable = (ev & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0;
        SyncWaiter* to_wake[2];
        std::size_t nw = 0;
        {
            std::lock_guard<sync::Spinlock> g(entry->lock);
            if (readable && entry->reader != nullptr &&
                entry->reader->try_claim(IoStatus::kReady)) {
                to_wake[nw++] = &entry->reader->w;
                entry->reader = nullptr;
            }
            if (writable && entry->writer != nullptr &&
                entry->writer->try_claim(IoStatus::kReady)) {
                to_wake[nw++] = &entry->writer->w;
                entry->writer = nullptr;
            }
            // EPOLLONESHOT disarmed the fd; rearm for any direction that
            // still has a (unclaimed) waiter parked.
            if (entry->reader != nullptr || entry->writer != nullptr) {
                arm_locked(fd, *entry);
            }
        }
        for (std::size_t k = 0; k < nw; ++k) {
            wakes_.inc();
            wake_noticed(to_wake[k], runner);
            ++woken;
        }
    }
    return woken;
}

void Reactor::wake_noticed(SyncWaiter* w, XStream* runner) noexcept {
    // Run where noticed (the wake_joiner shape, core/join.cpp): the
    // noticing stream would pop the ULT from a pool it can run from anyway,
    // after a push, a lot notify and maybe another stream's wake. Another
    // stream's private pool, a kBlocking handshake still in flight or a
    // taken hint slot keep the ordinary wake.
    if (runner != nullptr && w->kind == SyncWaiter::Kind::kUlt &&
        runner->next_hint() == nullptr) {
        auto* ult = static_cast<Ult*>(w->ptr);
        const Pool* home = ult->home_pool.load(std::memory_order_relaxed);
        if (home != nullptr && runner->scheduler().can_run_from(home) &&
            Ult::claim_blocked(ult)) {
            runner->set_next_hint(ult);
            claims_.inc();
            return;
        }
    }
    wake_sync_waiter(w);
}

std::size_t Reactor::try_poll(XStream* runner) {
    if (!running_.load(std::memory_order_acquire)) {
        return 0;
    }
    polls_.inc();
    ::epoll_event events[kBatch];
    const int n = ::epoll_wait(epfd_, events, kBatch, 0);
    std::size_t woken = dispatch(events, n, runner, /*seated=*/false);
    woken += fire_due_timers();
    return woken;
}

// ---------------------------------------------------------------------------
// idle-stream duties

bool Reactor::has_waiters() const noexcept {
    return fd_waiters_.load(std::memory_order_relaxed) != 0 ||
           wheel_->pending.load(std::memory_order_relaxed) != 0;
}

bool Reactor::take_spinner() noexcept {
    if (spinner_.load(std::memory_order_relaxed) ||
        spinner_.exchange(true, std::memory_order_seq_cst)) {
        return false;
    }
    // Dekker with poller_main, which takes the seat, then checks for a
    // spinner: either it sees us and keeps out, or we end its wait here.
    if (seat_.load(std::memory_order_seq_cst) == kSeatPoller) {
        kick();
    }
    return true;
}

void Reactor::release_spinner() noexcept {
    // Stamped before the release, so a backstop that sees the token free
    // reads the stamp of this release or a later one.
    unwatched_since_.store(now_ns(), std::memory_order_relaxed);
    spinner_.store(false, std::memory_order_seq_cst);
}

bool Reactor::take_seat() noexcept {
    if (!running_.load(std::memory_order_acquire) || !has_waiters()) {
        return false;
    }
    std::uint8_t holder = kSeatFree;
    if (seat_.compare_exchange_strong(holder, kSeatStream,
                                      std::memory_order_seq_cst)) {
        return true;
    }
    if (holder != kSeatPoller) {
        return false;
    }
    // Ask the backstop for the seat back and wait for it: declining would
    // park this stream on its lot for a whole park timeout. The kick ends
    // its epoll_wait, and seat_wanted_ keeps it from sitting again.
    seat_wanted_.store(true, std::memory_order_seq_cst);
    kick();
    while (seat_.load(std::memory_order_acquire) == kSeatPoller) {
        std::this_thread::yield();
    }
    holder = kSeatFree;
    const bool taken = seat_.compare_exchange_strong(
        holder, kSeatStream, std::memory_order_seq_cst);
    seat_wanted_.store(false, std::memory_order_release);
    return taken;
}

bool Reactor::streams_watch() const noexcept {
    return spinner_.load(std::memory_order_seq_cst) ||
           seat_wanted_.load(std::memory_order_seq_cst) ||
           seat_.load(std::memory_order_seq_cst) == kSeatStream;
}

bool Reactor::stream_seated() const noexcept {
    return seat_.load(std::memory_order_acquire) == kSeatStream;
}

bool Reactor::sit(std::chrono::microseconds timeout) noexcept {
    seat_waits_.inc();
    const auto cap_ms = static_cast<int>(std::min<std::int64_t>(
        (timeout.count() + 999) / 1000, std::numeric_limits<int>::max()));
    Seat& seat = *seat_events_;
    seat.n = ::epoll_wait(epfd_, seat.events, kBatch, next_timeout_ms(cap_ms));
    return seat.n > 0;
}

std::size_t Reactor::leave_seat(XStream* runner) noexcept {
    Seat& seat = *seat_events_;
    const int n = std::exchange(seat.n, 0);
    std::size_t woken = dispatch(seat.events, n, runner, /*seated=*/true);
    woken += fire_due_timers();
    unwatched_since_.store(now_ns(), std::memory_order_relaxed);
    seat_.store(kSeatFree, std::memory_order_seq_cst);
    return woken;
}

}  // namespace lwt::core
