// barrier.hpp — the OS-thread team barrier of the OpenMP-like baseline (the
// paper attributes its linear join cost to exactly this mechanism).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>

#include "arch/cpu.hpp"
#include "core/ult.hpp"

namespace lwt::momp {

/// Sense-reversing centralized barrier. All arrivals decrement one counter;
/// the last flips the shared sense. Simple and compact, but every waiter
/// spins on the same line — cost grows with participant count, which is the
/// linear join growth the paper reports for gcc OpenMP.
///
/// CONTRACT: OS threads only. arrive_and_wait() spins with nothing but a
/// CPU hint — it never yields to a scheduler — so two participating ULTs
/// mapped to the same execution stream livelock forever (the second can
/// never run while the first spins). ULT code must use core::UltBarrier,
/// which suspends waiters through the scheduler instead. Debug builds
/// assert the caller is not a ULT.
class CentralBarrier {
  public:
    explicit CentralBarrier(std::size_t participants) noexcept
        : participants_(participants), remaining_(participants) {}
    CentralBarrier(const CentralBarrier&) = delete;
    CentralBarrier& operator=(const CentralBarrier&) = delete;

    /// Block (spin) until all participants have arrived. OS threads only —
    /// see the class contract; ULT callers belong on core::UltBarrier.
    void arrive_and_wait() noexcept {
        assert(core::Ult::current() == nullptr &&
               "CentralBarrier is an OS-thread spin barrier; ULT callers "
               "must use core::UltBarrier (co-scheduled ULTs would livelock)");
        const bool my_sense = !sense_.load(std::memory_order_relaxed);
        if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            remaining_.store(participants_, std::memory_order_relaxed);
            sense_.store(my_sense, std::memory_order_release);
            return;
        }
        arch::Backoff backoff;
        while (sense_.load(std::memory_order_acquire) != my_sense) {
            backoff.pause();
        }
    }

    [[nodiscard]] std::size_t participants() const noexcept {
        return participants_;
    }

  private:
    const std::size_t participants_;
    alignas(arch::kCacheLine) std::atomic<std::size_t> remaining_;
    alignas(arch::kCacheLine) std::atomic<bool> sense_{false};
};

}  // namespace lwt::momp
