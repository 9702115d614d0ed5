// scheduler.hpp — pluggable, stackable work-unit schedulers.
//
// A scheduler owns an ordered view over one or more pools and decides which
// ready unit an execution stream runs next. Personalities subclass it (or
// configure the provided policies) to reproduce each paper library's
// behaviour; Argobots-style *stackable* schedulers are supported by
// XStream's scheduler stack (a pushed scheduler preempts its parent until
// `finished()`).
#pragma once

#include <cstddef>
#include <random>
#include <vector>

#include "core/pool.hpp"
#include "core/sched_stats.hpp"

namespace lwt::core {

/// Base scheduler: round-robin-free, strictly ordered pool scan. Pool 0 is
/// the stream's "main" pool (where its yielded/woken units return).
class Scheduler {
  public:
    explicit Scheduler(std::vector<Pool*> pools) : pools_(std::move(pools)) {}
    virtual ~Scheduler() = default;
    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// Pick the next ready unit, or nullptr if none is available right now.
    virtual WorkUnit* next() {
        for (Pool* p : pools_) {
            if (WorkUnit* unit = p->pop()) {
                return unit;
            }
        }
        return nullptr;
    }

    /// For stacked schedulers: return true once this scheduler's job is done
    /// and it should be popped. The base scheduler runs forever.
    [[nodiscard]] virtual bool finished() const { return false; }

    /// True if any pool still holds ready work (used for drain-on-stop).
    [[nodiscard]] virtual bool has_work() const {
        for (const Pool* p : pools_) {
            if (!p->empty()) {
                return true;
            }
        }
        return false;
    }

    [[nodiscard]] Pool* main_pool() const {
        return pools_.empty() ? nullptr : pools_.front();
    }
    [[nodiscard]] const std::vector<Pool*>& pools() const { return pools_; }

    /// Could this scheduler legally dispatch a unit sitting in `pool`?
    /// Gates join-stealing (core/join.hpp): pulling a unit out of a pool
    /// this stream could never see would break placement semantics (a unit
    /// spawned onto another stream's private pool must run THERE).
    /// StealingScheduler widens this to its victim set.
    [[nodiscard]] virtual bool can_run_from(const Pool* pool) const {
        for (const Pool* p : pools_) {
            if (p == pool) {
                return true;
            }
        }
        return false;
    }

    /// Attach the owning stream's telemetry counters (steal outcomes land
    /// there). XStream binds this when the scheduler is installed; a
    /// standalone scheduler (unit tests) may bind its own or leave null.
    void bind_stats(SchedCounters* counters) noexcept { stats_ = counters; }
    [[nodiscard]] SchedCounters* stats() const noexcept { return stats_; }

  protected:
    std::vector<Pool*> pools_;
    SchedCounters* stats_ = nullptr;
};

/// Victim pools bucketed by steal distance (nearest first). Indexed by
/// arch::StealTier; built from arch::LocalityMap::victim_tiers.
struct VictimTiers {
    std::vector<Pool*> sibling;  ///< same physical core (SMT)
    std::vector<Pool*> package;  ///< same package, different core
    std::vector<Pool*> remote;   ///< different package
};

/// Work-stealing scheduler: drain the home pool, then steal (MassiveThreads'
/// random work stealing over per-worker deques).
///
/// The steal sweep makes kProbes random probes and then one linear scan over
/// every victim from a random start, so a single next() call finds work
/// whenever any victim holds some — the stream's idle loop only has to
/// provide backoff, not retry-for-coverage. The home pool is filtered out
/// of the victim list at construction, so callers may pass all pools
/// uniformly and no probe is wasted on the home pool.
///
/// Victims can be *tiered* by locality (arch::LocalityMap::victim_tiers):
/// a sweep exhausts SMT siblings (linear — the tier is tiny), then
/// same-package victims (probes + linear), then remote packages (probes +
/// linear), so a thief only crosses the socket when its own package is
/// provably dry. Per-tier attempts/hits land in SchedCounters next to the
/// flat totals. The untiered constructor puts every victim in the package
/// tier, which reproduces the flat sweep exactly.
class StealingScheduler : public Scheduler {
  public:
    /// Random probes per tier before the linear scan.
    static constexpr unsigned kProbes = 4;

    /// Flat form: `home` is this stream's own pool; `victims` are the other
    /// streams' pools (may include `home`; it is removed). All victims land
    /// in the package tier — one locality class, exactly the old sweep.
    StealingScheduler(Pool* home, std::vector<Pool*> victims,
                      unsigned seed = 0x9e3779b9u)
        : StealingScheduler(home, VictimTiers{{}, std::move(victims), {}},
                            seed) {}

    /// Tiered form: victims bucketed by steal distance. Null pools and the
    /// home pool are filtered from every tier.
    StealingScheduler(Pool* home, VictimTiers tiers,
                      unsigned seed = 0x9e3779b9u)
        : Scheduler({home}), rng_(seed) {
        auto filter = [home](std::vector<Pool*>& v) {
            std::size_t out = 0;
            for (Pool* p : v) {
                if (p != nullptr && p != home) {
                    v[out++] = p;
                }
            }
            v.resize(out);
        };
        filter(tiers.sibling);
        filter(tiers.package);
        filter(tiers.remote);
        tiers_[0] = std::move(tiers.sibling);
        tiers_[1] = std::move(tiers.package);
        tiers_[2] = std::move(tiers.remote);
        for (const auto& tier : tiers_) {
            victims_.insert(victims_.end(), tier.begin(), tier.end());
        }
    }

    WorkUnit* next() override {
        if (WorkUnit* unit = pools_.front()->pop()) {
            return unit;
        }
        return steal();
    }

    /// One full steal sweep, nearest tier first; nullptr when every probed
    /// victim came up empty.
    WorkUnit* steal() {
        // Siblings share our L1/L2: the tier is at most (SMT-1) pools, so
        // scan it outright rather than rolling dice.
        if (WorkUnit* unit = sweep_linear(tiers_[0], 0, 0)) {
            return unit;
        }
        for (std::size_t t = 1; t < kStealTiers; ++t) {
            const std::vector<Pool*>& tier = tiers_[t];
            const std::size_t n = tier.size();
            if (n == 0) {
                continue;
            }
            for (unsigned p = 0; p < kProbes; ++p) {
                if (WorkUnit* unit = probe(tier[rng_() % n], t)) {
                    return unit;
                }
            }
            if (WorkUnit* unit = sweep_linear(tier, rng_() % n, t)) {
                return unit;
            }
        }
        return nullptr;
    }

    [[nodiscard]] bool has_work() const override {
        // victims_ excludes the home pool, so this checks each pool once.
        if (Scheduler::has_work()) {
            return true;
        }
        for (const Pool* v : victims_) {
            if (!v->empty()) {
                return true;
            }
        }
        return false;
    }

    /// A steal victim's unit may run here too — that's what stealing is.
    [[nodiscard]] bool can_run_from(const Pool* pool) const override {
        if (Scheduler::can_run_from(pool)) {
            return true;
        }
        for (const Pool* v : victims_) {
            if (v == pool) {
                return true;
            }
        }
        return false;
    }

    /// All victims, flattened nearest-tier first.
    [[nodiscard]] const std::vector<Pool*>& victims() const noexcept {
        return victims_;
    }
    /// Victims in steal-distance tier `t` (indexed by arch::StealTier).
    [[nodiscard]] const std::vector<Pool*>& tier_victims(
        std::size_t t) const noexcept {
        return tiers_[t];
    }

  private:
    WorkUnit* sweep_linear(const std::vector<Pool*>& tier, std::size_t start,
                           std::size_t t) {
        const std::size_t n = tier.size();
        for (std::size_t k = 0; k < n; ++k) {
            if (WorkUnit* unit = probe(tier[(start + k) % n], t)) {
                return unit;
            }
        }
        return nullptr;
    }

    WorkUnit* probe(Pool* victim, std::size_t tier) {
        WorkUnit* unit = victim->steal();
        if (stats_ != nullptr) {
            stats_->count_probe(tier, unit != nullptr);
        }
        return unit;
    }

    std::array<std::vector<Pool*>, kStealTiers> tiers_;
    std::vector<Pool*> victims_;  // flattened tiers, nearest first
    std::minstd_rand rng_;
};

}  // namespace lwt::core
