// spinlock.hpp — a busy-wait lock for short critical sections.
//
// It satisfies the Lockable requirements and works with std::lock_guard.
#pragma once

#include <atomic>

#include "arch/cpu.hpp"

namespace lwt::sync {

/// Test-and-test-and-set spinlock: spins on a read so the cache line stays
/// shared until the lock is actually free. The workhorse lock for queue and
/// pool protection throughout the kernel.
class Spinlock {
  public:
    Spinlock() noexcept = default;
    Spinlock(const Spinlock&) = delete;
    Spinlock& operator=(const Spinlock&) = delete;

    void lock() noexcept {
        arch::Backoff backoff;
        for (;;) {
            if (!flag_.exchange(true, std::memory_order_acquire)) {
                return;
            }
            while (flag_.load(std::memory_order_relaxed)) {
                backoff.pause();
            }
        }
    }

    bool try_lock() noexcept {
        return !flag_.load(std::memory_order_relaxed) &&
               !flag_.exchange(true, std::memory_order_acquire);
    }

    void unlock() noexcept { flag_.store(false, std::memory_order_release); }

  private:
    std::atomic<bool> flag_{false};
};

}  // namespace lwt::sync
