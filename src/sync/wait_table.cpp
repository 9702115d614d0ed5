#include "sync/wait_table.hpp"

#include "arch/cpu.hpp"

namespace lwt::sync {

namespace {
std::atomic<const UltWaitOps*> g_ult_ops{nullptr};
}  // namespace

void install_ult_wait_ops(const UltWaitOps* ops) noexcept {
    const UltWaitOps* expected = nullptr;
    g_ult_ops.compare_exchange_strong(expected, ops,
                                      std::memory_order_release,
                                      std::memory_order_relaxed);
}

const UltWaitOps* ult_wait_ops() noexcept {
    return g_ult_ops.load(std::memory_order_acquire);
}

bool in_ult_context() noexcept {
    const UltWaitOps* ops = ult_wait_ops();
    return ops != nullptr && ops->current() != nullptr;
}

WaitTable& WaitTable::instance() {
    static WaitTable table;
    return table;
}

bool WaitTable::park_if(const void* key, bool (*still_blocked)(void*),
                        void* ctx) {
    Shard& sh = shard_for(key);
    const UltWaitOps* ops = ult_wait_ops();
    void* ult = ops != nullptr ? ops->current() : nullptr;

    const bool stamp =
        ops != nullptr && ops->metrics_enabled != nullptr &&
        ops->metrics_enabled();
    const std::uint64_t block_tsc = stamp ? arch::rdtsc() : 0;

    if (ult != nullptr) {
        // Arm the kBlocking/kWakePending handshake BEFORE the node becomes
        // visible: a waker may dequeue and wake us the instant the shard
        // lock drops.
        ops->arm(ult);
        WaitNode node{key, WaitNode::Kind::kUlt, ult};
        {
            std::lock_guard g(sh.lock);
            if (!still_blocked(ctx)) {
                ops->cancel(ult);
                return false;
            }
            node.next = nullptr;
            if (sh.tail != nullptr) {
                sh.tail->next = &node;
            } else {
                sh.head = &node;
            }
            sh.tail = &node;
        }
        if (block_tsc != 0 && ops->record_suspend != nullptr) {
            ops->record_suspend();
        }
        ops->suspend(ult);
    } else {
        ThreadParker parker(ops != nullptr ? ops->thread_lot() : nullptr);
        WaitNode node{key, WaitNode::Kind::kParker, &parker};
        {
            std::lock_guard g(sh.lock);
            if (!still_blocked(ctx)) {
                return false;
            }
            node.next = nullptr;
            if (sh.tail != nullptr) {
                sh.tail->next = &node;
            } else {
                sh.head = &node;
            }
            sh.tail = &node;
        }
        // Registered: parker and node must stay alive until notified() —
        // the unparker holds pointers to both.
        if (block_tsc != 0 && ops->record_suspend != nullptr) {
            ops->record_suspend();
        }
        if (ops != nullptr && ops->thread_wait != nullptr) {
            ops->thread_wait(parker);
        } else {
            parker.wait();
        }
    }
    if (block_tsc != 0) {
        ops->record_wake_latency(arch::rdtsc() - block_tsc);
    }
    return true;
}

std::size_t WaitTable::unpark(const void* key, std::size_t max_wake) {
    Shard& sh = shard_for(key);
    WaitNode* chain = nullptr;
    WaitNode** chain_tail = &chain;
    std::size_t woken = 0;
    {
        std::lock_guard g(sh.lock);
        WaitNode** link = &sh.head;
        WaitNode* prev_kept = nullptr;
        while (*link != nullptr && woken < max_wake) {
            WaitNode* node = *link;
            if (node->key == key) {
                *link = node->next;  // splice out
                node->next = nullptr;
                *chain_tail = node;
                chain_tail = &node->next;
                ++woken;
            } else {
                prev_kept = node;
                link = &node->next;
            }
        }
        // Recompute the tail: it may have been spliced out.
        if (sh.head == nullptr) {
            sh.tail = nullptr;
        } else {
            WaitNode* t = prev_kept != nullptr ? prev_kept : sh.head;
            while (t->next != nullptr) {
                t = t->next;
            }
            sh.tail = t;
        }
    }
    // Past the shard lock only waiter-owned stack memory is touched. Read
    // `next` BEFORE waking: a woken waiter returns from park_if() and
    // destroys its node immediately.
    const UltWaitOps* ops = ult_wait_ops();
    while (chain != nullptr) {
        WaitNode* const next = chain->next;
        if (chain->kind == WaitNode::Kind::kUlt) {
            ops->wake(chain->ptr);  // a ULT parked => ops are installed
        } else {
            static_cast<ThreadParker*>(chain->ptr)->notify();
        }
        chain = next;
    }
    return woken;
}

std::size_t WaitTable::waiters(const void* key) const {
    const Shard& sh = shard_for(key);
    std::lock_guard g(sh.lock);
    std::size_t n = 0;
    for (const WaitNode* node = sh.head; node != nullptr; node = node->next) {
        if (node->key == key) {
            ++n;
        }
    }
    return n;
}

}  // namespace lwt::sync
