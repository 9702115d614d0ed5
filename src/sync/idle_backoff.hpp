// idle_backoff.hpp — the idle-wait state machine shared by every consumer
// loop in the tree (XStream's scheduling loop, momp's task-wait loop).
//
// Escalation ladder: bounded spin with cpu_relax() -> OS yields with an
// exponentially growing pause train between them -> park on a ParkingLot.
// Finding work resets the ladder to the bottom. The three rungs are also
// the three selectable policies, so benchmarks can ablate them (spin vs
// backoff vs park — see bench/ablation_sched.cpp and docs/idle_loop.md).
// A caller may offer the park rung a seat to block in instead of the
// lot's epoch (XStream offers the I/O reactor's epoll seat).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "arch/cpu.hpp"
#include "sync/parking_lot.hpp"

namespace lwt::sync {

/// How an idle consumer waits for work.
enum class IdlePolicy : std::uint8_t {
    kSpin,     ///< relax+yield every iteration (the pre-backoff behaviour)
    kBackoff,  ///< bounded spin, then yields with exponential pause trains
    kPark,     ///< backoff first, then block on a ParkingLot
};

struct IdleConfig {
    IdlePolicy policy = IdlePolicy::kBackoff;
    /// cpu_relax() iterations before the first OS yield.
    unsigned spin_limit = 64;
    /// Yields (each preceded by a doubling pause train) before parking.
    unsigned yield_limit = 16;
    /// Park safety net: bounds the sleep even if a producer bypasses the
    /// lot (e.g. pushes into a pool with no waker attached).
    std::chrono::microseconds park_timeout{1000};
};

/// Parse "spin" / "backoff" / "park" (e.g. from LWT_IDLE_POLICY); falls
/// back to `fallback` on anything else.
inline IdlePolicy idle_policy_from_string(const char* s,
                                          IdlePolicy fallback) noexcept {
    if (s == nullptr) {
        return fallback;
    }
    if (std::strcmp(s, "spin") == 0) {
        return IdlePolicy::kSpin;
    }
    if (std::strcmp(s, "backoff") == 0) {
        return IdlePolicy::kBackoff;
    }
    if (std::strcmp(s, "park") == 0) {
        return IdlePolicy::kPark;
    }
    return fallback;
}

inline const char* idle_policy_name(IdlePolicy p) noexcept {
    switch (p) {
        case IdlePolicy::kSpin: return "spin";
        case IdlePolicy::kBackoff: return "backoff";
        case IdlePolicy::kPark: return "park";
    }
    return "?";
}

/// Per-consumer escalation state. Not thread-safe; one instance per loop.
class IdleBackoff {
  public:
    /// What one wait step did (callers feed this into their telemetry).
    enum class Step : std::uint8_t {
        kSpun,          ///< cpu_relax() burst
        kYielded,       ///< gave up the OS quantum
        kParkAborted,   ///< re-check found work while registering to park
        kParkNotified,  ///< parked, woken by a producer
        kParkTimeout,   ///< parked, woke on the safety-net timeout
    };

    /// `lot` may be nullptr; kPark then degrades to kBackoff.
    explicit IdleBackoff(IdleConfig config, ParkingLot* lot = nullptr) noexcept
        : config_(config), lot_(lot) {}

    /// Found work: drop back to the cheap end of the ladder.
    void reset() noexcept {
        spins_ = 0;
        yields_ = 0;
    }

    /// True when the next step() parks: the ladder has walked to its park
    /// rung.
    [[nodiscard]] bool parks_next() const noexcept {
        return can_park() && spins_ >= config_.spin_limit &&
               yields_ >= config_.yield_limit;
    }

    /// Jump to the park rung, skipping spin and backoff; a no-op for a
    /// ladder that cannot park.
    void skip_to_park() noexcept {
        if (can_park()) {
            spins_ = config_.spin_limit;
            yields_ = config_.yield_limit;
        }
    }

    /// Wait a little, escalating. `recheck()` is consulted with park
    /// interest already registered, immediately before blocking; it must
    /// return true if work (or a stop request) makes blocking pointless.
    template <typename Recheck>
    Step step(Recheck&& recheck) {
        return step(std::forward<Recheck>(recheck),
                    [](ParkingLot&, std::uint32_t, std::chrono::microseconds) {
                        return std::optional<bool>{};
                    });
    }

    /// As step(recheck), but a park first offers `seat(lot, ticket,
    /// timeout)` to block elsewhere than on the lot's epoch, with interest
    /// registered and the re-check empty (ParkingLot::park_in). It returns
    /// nullopt to decline, else whether the wait was woken rather than
    /// timed out.
    template <typename Recheck, typename Seat>
    Step step(Recheck&& recheck, Seat&& seat) {
        if (config_.policy == IdlePolicy::kSpin) {
            // Pre-backoff behaviour: relax for the pipeline, yield for
            // oversubscribed hosts. Never escalates.
            arch::cpu_relax();
            std::this_thread::yield();
            return Step::kSpun;
        }
        if (spins_ < config_.spin_limit) {
            ++spins_;
            arch::cpu_relax();
            return Step::kSpun;
        }
        if (!can_park() || yields_ < config_.yield_limit) {
            if (yields_ < config_.yield_limit) {
                // Exponential backoff: double the pause train before each
                // yield so contended steals thin out quickly.
                const unsigned train = 1u << (yields_ < 10 ? yields_ : 10);
                for (unsigned i = 0; i < train; ++i) {
                    arch::cpu_relax();
                }
                ++yields_;
            }
            std::this_thread::yield();
            return Step::kYielded;
        }
        const std::uint32_t ticket = lot_->prepare_park();
        if (recheck()) {
            lot_->cancel_park();
            return Step::kParkAborted;
        }
        if (const std::optional<bool> woken =
                seat(*lot_, ticket, config_.park_timeout)) {
            return *woken ? Step::kParkNotified : Step::kParkTimeout;
        }
        return lot_->park(ticket, config_.park_timeout)
                   ? Step::kParkNotified
                   : Step::kParkTimeout;
    }

    [[nodiscard]] const IdleConfig& config() const noexcept { return config_; }

  private:
    /// True when the ladder can reach its park rung (kPark with a lot).
    [[nodiscard]] bool can_park() const noexcept {
        return config_.policy == IdlePolicy::kPark && lot_ != nullptr;
    }

    IdleConfig config_;
    ParkingLot* lot_;
    unsigned spins_ = 0;
    unsigned yields_ = 0;
};

}  // namespace lwt::sync
