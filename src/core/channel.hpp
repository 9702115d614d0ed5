// channel.hpp — Go-style typed channel.
//
// The paper singles out Go's join mechanism — "an out-of-order communication
// channel" — as the most efficient join it measured (Fig. 3). This template
// reproduces those semantics: multiple senders, multiple receivers, FIFO per
// channel but no ordering guarantee across concurrent senders, optional
// buffering, close() with drain semantics.
//
// Blocking is suspend-based (core/waiter.hpp): a blocked sender or receiver
// queues its stack-owned SyncWaiter on the channel's list and is woken
// directly by its peer — a ULT suspends through the scheduler, a plain
// thread sleeps on a parker.
// The unbuffered path is a true rendezvous: the sender's value moves
// straight into the receiver's result slot (or the sender blocks until a
// receiver takes it), never through the buffer. The previous implementation
// counted "waiting receivers" and pushed into the buffer when one was
// present — but the counted receiver could already be departing with an
// earlier item, stranding the value in a capacity-0 channel while send()
// reported success. close() wakes every blocked sender (send returns false
// with the value NOT consumed) and receiver (recv returns nullopt).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "core/reactor.hpp"
#include "core/waiter.hpp"
#include "sync/spinlock.hpp"

namespace lwt::core {

template <typename T>
class Channel {
  public:
    /// `capacity == 0` models Go's unbuffered channel: a send completes only
    /// once a receiver has taken the value.
    explicit Channel(std::size_t capacity = 0) : capacity_(capacity) {}
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    /// Blocking send. Returns false if the channel is (or becomes) closed —
    /// in that case the value was NOT delivered (it dies with the argument).
    bool send(T value) {
        SyncBlocker blocker;
        SendWaiter node;
        node.value = &value;
        RecvWaiter* rcv = nullptr;
        blocker.prepare(node);
        {
            std::lock_guard g(lock_);
            if (closed_) {
                blocker.cancel(node);
                return false;
            }
            if ((rcv = pop_recv_locked()) != nullptr) {
                // Rendezvous: move straight into the receiver's slot.
                rcv->out->emplace(std::move(value));
                rcv->outcome.store(kDone, std::memory_order_release);
            } else if (capacity_ > 0 && items_.size() < capacity_) {
                items_.push_back(std::move(value));
                blocker.cancel(node);
                return true;
            } else {
                send_waiters_.push_back(&node);
            }
        }
        if (rcv != nullptr) {
            blocker.cancel(node);
            wake_sync_waiter(rcv);
            return true;
        }
        blocker.wait();
        // Woken with a verdict: a receiver took the value (kDone) or the
        // channel closed under us (value still ours; report failure).
        return node.outcome.load(std::memory_order_acquire) == kDone;
    }

    /// Non-blocking send attempt. Unbuffered channels require a blocked
    /// receiver to hand off to. Returns false when full/closed/no receiver.
    bool try_send(T value) {
        RecvWaiter* rcv = nullptr;
        {
            std::lock_guard g(lock_);
            if (closed_) {
                return false;
            }
            if ((rcv = pop_recv_locked()) != nullptr) {
                rcv->out->emplace(std::move(value));
                rcv->outcome.store(kDone, std::memory_order_release);
            } else if (capacity_ > 0 && items_.size() < capacity_) {
                items_.push_back(std::move(value));
                return true;
            } else {
                return false;
            }
        }
        wake_sync_waiter(rcv);
        return true;
    }

    /// Blocking receive. Empty optional means closed-and-drained (Go's
    /// `v, ok := <-ch` with ok == false).
    std::optional<T> recv() {
        std::optional<T> out;
        SyncBlocker blocker;
        RecvWaiter node;
        node.out = &out;
        SendWaiter* snd = nullptr;
        bool registered = false;
        blocker.prepare(node);
        {
            std::lock_guard g(lock_);
            if (!items_.empty()) {
                out.emplace(std::move(items_.front()));
                items_.pop_front();
                // Buffer slot freed: promote the head blocked sender.
                if ((snd = pop_send_locked()) != nullptr) {
                    items_.push_back(std::move(*snd->value));
                    snd->outcome.store(kDone, std::memory_order_release);
                }
            } else if ((snd = pop_send_locked()) != nullptr) {
                // Unbuffered rendezvous: take the blocked sender's value.
                out.emplace(std::move(*snd->value));
                snd->outcome.store(kDone, std::memory_order_release);
            } else if (closed_) {
                blocker.cancel(node);
                return std::nullopt;
            } else {
                recv_waiters_.push_back(&node);
                registered = true;
            }
        }
        if (!registered) {
            blocker.cancel(node);
            if (snd != nullptr) {
                wake_sync_waiter(snd);
            }
            return out;
        }
        blocker.wait();
        if (node.outcome.load(std::memory_order_acquire) == kDone) {
            return out;  // a sender filled our slot before waking us
        }
        return std::nullopt;  // closed while blocked
    }

    /// recv() with a deadline: block at most `timeout`, then give up with
    /// nullopt. Runs on the reactor timer wheel, so the wait suspends like
    /// every other blocking path — no spin loop, the stream keeps running
    /// other units. The pthread_cond_timedwait shape: the timer callback
    /// dequeues our waiter under the channel lock, and whoever dequeues
    /// (sender handing off, close, or the timer) owns the single wake.
    /// NOTE: nullopt means "timed out OR closed"; use closed() to tell, as
    /// with Go's select+time.After idiom.
    std::optional<T> try_recv_for(std::chrono::nanoseconds timeout) {
        std::optional<T> out;
        SyncBlocker blocker;
        RecvWaiter node;
        node.out = &out;
        node.chan = this;
        SendWaiter* snd = nullptr;
        bool registered = false;
        blocker.prepare(node);
        {
            std::lock_guard g(lock_);
            if (!items_.empty()) {
                out.emplace(std::move(items_.front()));
                items_.pop_front();
                if ((snd = pop_send_locked()) != nullptr) {
                    items_.push_back(std::move(*snd->value));
                    snd->outcome.store(kDone, std::memory_order_release);
                }
            } else if ((snd = pop_send_locked()) != nullptr) {
                out.emplace(std::move(*snd->value));
                snd->outcome.store(kDone, std::memory_order_release);
            } else if (closed_ || timeout.count() <= 0) {
                blocker.cancel(node);
                return std::nullopt;
            } else {
                recv_waiters_.push_back(&node);
                registered = true;
            }
        }
        if (!registered) {
            blocker.cancel(node);
            if (snd != nullptr) {
                wake_sync_waiter(snd);
            }
            return out;
        }
        Reactor::Timer timer;
        Reactor::global().add_timer(timer, Deadline::in(timeout),
                                    &Channel::recv_deadline_cb, &node);
        blocker.wait();
        // Quiesce the timer before `node` leaves scope, whichever side won.
        Reactor::global().cancel_timer(timer);
        if (node.outcome.load(std::memory_order_acquire) == kDone) {
            return out;
        }
        return std::nullopt;  // closed or timed out while blocked
    }

    /// Non-blocking receive attempt. On an unbuffered (or drained) channel
    /// this can complete a blocked sender's rendezvous directly.
    std::optional<T> try_recv() {
        std::optional<T> out;
        SendWaiter* snd = nullptr;
        {
            std::lock_guard g(lock_);
            if (!items_.empty()) {
                out.emplace(std::move(items_.front()));
                items_.pop_front();
                if ((snd = pop_send_locked()) != nullptr) {
                    items_.push_back(std::move(*snd->value));
                    snd->outcome.store(kDone, std::memory_order_release);
                }
            } else if ((snd = pop_send_locked()) != nullptr) {
                out.emplace(std::move(*snd->value));
                snd->outcome.store(kDone, std::memory_order_release);
            } else {
                return std::nullopt;
            }
        }
        if (snd != nullptr) {
            wake_sync_waiter(snd);
        }
        return out;
    }

    /// Close the channel: every blocked sender wakes and reports failure
    /// (its value untouched), every blocked receiver wakes with nullopt,
    /// future sends fail, receivers drain the buffer then see nullopt.
    void close() {
        SyncWaiter* senders;
        SyncWaiter* receivers;
        {
            std::lock_guard g(lock_);
            if (closed_) {
                return;
            }
            closed_ = true;
            senders = send_waiters_.detach_all();
            receivers = recv_waiters_.detach_all();
        }
        wake_closed<SendWaiter>(senders);
        wake_closed<RecvWaiter>(receivers);
    }

    [[nodiscard]] bool closed() const {
        std::lock_guard g(lock_);
        return closed_;
    }

    [[nodiscard]] std::size_t size() const {
        std::lock_guard g(lock_);
        return items_.size();
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  private:
    // Outcome values published by the peer BEFORE the wake; the blocked
    // side reads them after. kPending only exists while queued.
    static constexpr std::uint8_t kPending = 0;
    static constexpr std::uint8_t kDone = 1;      // value handed over
    static constexpr std::uint8_t kClosed = 2;    // channel closed under us
    static constexpr std::uint8_t kTimedOut = 3;  // deadline dequeued us

    /// Stack-owned by a blocked sender; `value` points at its send() arg.
    struct SendWaiter : SyncWaiter {
        T* value = nullptr;
        std::atomic<std::uint8_t> outcome{kPending};
    };

    /// Stack-owned by a blocked receiver; `out` points at its result slot.
    /// `chan` is set only by timed receives (the deadline callback needs a
    /// way back to the channel lock).
    struct RecvWaiter : SyncWaiter {
        std::optional<T>* out = nullptr;
        Channel* chan = nullptr;
        std::atomic<std::uint8_t> outcome{kPending};
    };

    /// close(): publish kClosed to every node of a detached chain and wake
    /// it, reading `next` first (a woken peer unwinds immediately).
    template <typename Node>
    static void wake_closed(SyncWaiter* chain) noexcept {
        while (chain != nullptr) {
            SyncWaiter* const next = chain->next;
            static_cast<Node*>(chain)->outcome.store(
                kClosed, std::memory_order_release);
            wake_sync_waiter(chain);
            chain = next;
        }
    }

    /// Reactor timer callback for try_recv_for. Dequeueing under the lock
    /// is the linearization point: if the node is already gone, a sender
    /// or close() owns it (and its wake) — do nothing.
    static void recv_deadline_cb(void* arg) {
        auto* node = static_cast<RecvWaiter*>(arg);
        Channel* ch = node->chan;
        bool removed;
        {
            std::lock_guard g(ch->lock_);
            removed = ch->recv_waiters_.remove(node);
        }
        if (removed) {
            node->outcome.store(kTimedOut, std::memory_order_release);
            wake_sync_waiter(node);
        }
    }

    SendWaiter* pop_send_locked() {
        return static_cast<SendWaiter*>(send_waiters_.pop_front());
    }
    RecvWaiter* pop_recv_locked() {
        return static_cast<RecvWaiter*>(recv_waiters_.pop_front());
    }

    const std::size_t capacity_;
    mutable sync::Spinlock lock_;
    std::deque<T> items_;
    SyncWaiterList send_waiters_;  ///< SendWaiter nodes, guarded by lock_
    SyncWaiterList recv_waiters_;  ///< RecvWaiter nodes, guarded by lock_
    bool closed_ = false;
};

}  // namespace lwt::core
