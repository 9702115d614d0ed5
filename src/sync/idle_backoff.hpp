// idle_backoff.hpp — the idle-wait state machine shared by every consumer
// loop in the tree (XStream's scheduling loop, momp's task-wait loop).
//
// Escalation ladder: bounded spin with cpu_relax() -> OS yields with an
// exponentially growing pause train between them -> park on a ParkingLot.
// Finding work resets the ladder to the bottom. The three rungs are also
// the three selectable policies, so benchmarks can ablate them (spin vs
// backoff vs park — see bench/ablation_sched.cpp and docs/idle_loop.md).
// A caller may offer the park rung a seat to block in instead of the
// lot's epoch (XStream offers the I/O reactor's epoll seat), and a
// SpinWindow that cuts the spin and yield rungs short: a ladder that can
// park parks once its idle episode has lasted the window, or its steps
// run out, whichever comes first.
#pragma once

#include <algorithm>
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

/// How long an idle episode spins before it parks, learned from how long
/// the episodes last (after the halt-polling rule of KVM;
/// docs/idle_loop.md). An episode that ends within the window keeps it;
/// one that ends after it but within kMax doubles it, up to kMax; the
/// second episode in a row that outlasts kMax halves it, down to kMin.
/// Not thread-safe: one per driving thread, shared by the ladders that
/// thread builds one after another.
class SpinWindow {
  public:
    using Clock = std::chrono::steady_clock;
    /// About the spin rung (64 sweeps of the pools): the least a window
    /// lets a stream sweep before it parks.
    static constexpr Clock::duration kMin = std::chrono::microseconds(4);
    /// About the whole spin and yield ladder (7,231 pauses plus 16 yields:
    /// 158-186 us of CPU per idle gap on the 4-vCPU reference host), so no
    /// window spins longer than the ladder did without one. Also the
    /// start value.
    static constexpr Clock::duration kMax = std::chrono::microseconds(150);

    [[nodiscard]] Clock::duration width() const noexcept { return width_; }

    /// An idle episode that could have parked ended after `t`.
    void update(Clock::duration t) noexcept {
        if (t > kMax) {
            // A lone long spell among short ones (a worker waiting out the
            // end of a fork-join round) is not the stream's pattern:
            // halving on it would park the short spells that follow.
            if (std::exchange(long_before_, true)) {
                width_ = std::max(width_ / 2, kMin);
            }
            return;
        }
        long_before_ = false;
        if (t > width_) {
            width_ = std::min(2 * width_, kMax);
        }
    }

  private:
    Clock::duration width_ = kMax;
    bool long_before_ = false;  ///< the last episode outlasted kMax
};

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

    /// `lot` may be nullptr; kPark then degrades to kBackoff. `window`, if
    /// given, bounds the spin and yield rungs of a ladder that can park and
    /// learns from the episodes it times; other ladders ignore it.
    explicit IdleBackoff(IdleConfig config, ParkingLot* lot = nullptr,
                         SpinWindow* window = nullptr) noexcept
        : config_(config), lot_(lot), window_(can_park() ? window : nullptr) {}

    /// Found work, or the wait is over: close the idle episode (the one
    /// clock read outside the idle steps, and only after an idle step) and
    /// drop back to the cheap end of the ladder.
    void reset() noexcept {
        if (episode_start_ != SpinWindow::Clock::time_point{}) {
            window_->update(SpinWindow::Clock::now() - episode_start_);
            episode_start_ = {};
        }
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
    /// ladder that cannot park. The episode then says nothing about how
    /// long to spin, so it leaves the window alone.
    void skip_to_park() noexcept {
        if (can_park()) {
            spins_ = config_.spin_limit;
            yields_ = config_.yield_limit;
            episode_start_ = {};
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
            time_episode();
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
            time_episode();
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

    /// After a spin or yield step of a ladder with a window: stamp the
    /// episode's start on its first step, and once it has lasted the window
    /// walk to the park rung, so parks_next() turns true one step before
    /// the park (XStream hands the reactor's spinner token on there).
    void time_episode() noexcept {
        if (window_ == nullptr) {
            return;
        }
        const SpinWindow::Clock::time_point now = SpinWindow::Clock::now();
        if (episode_start_ == SpinWindow::Clock::time_point{}) {
            episode_start_ = now;
        } else if (now - episode_start_ >= window_->width()) {
            spins_ = config_.spin_limit;
            yields_ = config_.yield_limit;
        }
    }

    IdleConfig config_;
    ParkingLot* lot_;
    SpinWindow* window_;  ///< nullptr unless the ladder can park
    SpinWindow::Clock::time_point episode_start_{};  ///< {} = not timing
    unsigned spins_ = 0;
    unsigned yields_ = 0;
};

}  // namespace lwt::sync
