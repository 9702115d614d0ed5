// pool.hpp — work-unit containers with pluggable access topology.
//
// The paper's Table I separates runtimes by exactly this choice, and each
// topology is one pool here: one shared queue (Go, gcc tasks:
// SharedFifoPool; Argobots' shared pools: MpmcPool), one private queue per
// stream (Argobots, Qthreads, Converse: DequePool FIFO), or per-worker
// deques under mutex-protected random stealing (MassiveThreads: DequePool
// LIFO under StealingScheduler). Pools store raw WorkUnit pointers;
// ownership follows the unit's `detached` flag (see WorkUnit).
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <span>

#include "core/work_unit.hpp"
#include "queue/global_queue.hpp"
#include "queue/mpmc_queue.hpp"
#include "sync/parking_lot.hpp"
#include "sync/spinlock.hpp"

namespace lwt::core {

/// Abstract work-unit container as seen by schedulers.
class Pool {
  public:
    virtual ~Pool() = default;

    /// Enqueue a ready unit, then wake parked streams if a waker is
    /// attached (see set_waker). Thread-safety of the enqueue depends on
    /// the implementation; see each subclass.
    void push(WorkUnit* unit) {
        do_push(unit);
        notify_waker(/*single_unit=*/true);
    }

    /// Enqueue a whole batch, then wake parked streams ONCE. This is the
    /// bulk-submission fast path: one enqueue burst per backing queue and a
    /// single parking-lot notify per batch instead of one per unit (the
    /// notify-per-push cost Figs. 2-3 measure). Same thread-safety rules as
    /// push() for the respective subclass.
    void push_bulk(std::span<WorkUnit* const> units) {
        if (units.empty()) {
            return;
        }
        do_push_bulk(units);
        notify_waker();
    }

    /// Dequeue the next unit for the owning consumer; nullptr when empty.
    virtual WorkUnit* pop() = 0;

    /// Dequeue from the steal end (for other streams). Default: pools that
    /// do not support stealing return nullptr.
    virtual WorkUnit* steal() { return nullptr; }

    /// Remove a specific ready unit (needed by yield_to). Returns false if
    /// the unit is not present or the pool cannot remove by identity.
    virtual bool remove(WorkUnit* unit) {
        (void)unit;
        return false;
    }

    /// Approximate number of queued units — a HINT, not a count. Lock-free
    /// pools may report stale values. Use empty() for gating decisions and
    /// treat nonzero values as "roughly this much" (depth sampling,
    /// diagnostics) — never as an exact occupancy.
    [[nodiscard]] virtual std::size_t size_hint() const = 0;

    /// Emptiness check, derived from size_hint().
    [[nodiscard]] bool empty() const { return size_hint() == 0; }

    /// How push() wakes parked consumers. kAll broadcasts (safe default);
    /// kOne wakes a single stream — correct only when EVERY stream that
    /// parks on the lot can consume from this pool (a truly shared pool),
    /// otherwise the one woken stream may not be able to run the work.
    /// Runtime computes this from the schedulers' pool views; push_bulk
    /// always broadcasts (a batch has work for everyone).
    enum class WakeMode : std::uint8_t { kAll, kOne };

    /// Attach the parking lot whose streams consume this pool: every push
    /// then wakes parked streams (after the unit is visible in the queue).
    /// Runtime wires this; detach with nullptr before the lot dies.
    void set_waker(sync::ParkingLot* lot,
                   WakeMode mode = WakeMode::kAll) noexcept {
        waker_ = lot;
        wake_mode_ = mode;
    }
    [[nodiscard]] sync::ParkingLot* waker() const noexcept { return waker_; }
    [[nodiscard]] WakeMode wake_mode() const noexcept { return wake_mode_; }

  protected:
    /// Implementation of the enqueue itself. Called by push(); must leave
    /// the unit visible to pop()/steal() before returning.
    virtual void do_push(WorkUnit* unit) = 0;

    /// Batch enqueue. Subclasses with a bulk-capable backing queue override
    /// this to turn N queue operations into one burst; the default keeps
    /// per-unit enqueues (the single notify still comes from push_bulk).
    virtual void do_push_bulk(std::span<WorkUnit* const> units) {
        for (WorkUnit* unit : units) {
            do_push(unit);
        }
    }

    /// Bookkeeping every do_push must perform first: the unit becomes
    /// ready and this pool becomes its home (where yields/wakes return it,
    /// and where yield_to looks for it).
    void on_push(WorkUnit* unit) noexcept {
        unit->home_pool.store(this, std::memory_order_relaxed);
        unit->state.store(State::kReady, std::memory_order_release);
    }

  private:
    /// Wake parked consumers; push() and push_bulk() call this after the
    /// enqueue. A single-unit publish into a kOne pool wakes one stream — one unit
    /// can occupy one consumer; the rest would wake, find nothing, and
    /// walk the idle ladder back to the park (the thundering herd the
    /// lot's wakeups_avoided counter measures). Batches and kAll pools
    /// broadcast.
    void notify_waker(bool single_unit = false) noexcept {
        if (waker_ == nullptr) {
            return;
        }
        if (single_unit && wake_mode_ == WakeMode::kOne) {
            waker_->notify_one();
        } else {
            waker_->notify_all();
        }
    }

    sync::ParkingLot* waker_ = nullptr;
    WakeMode wake_mode_ = WakeMode::kAll;
};

/// Shared FIFO guarded by one lock — the Go / gcc-OpenMP topology. Any
/// thread may push or pop; contention grows with the consumer count.
class SharedFifoPool final : public Pool {
  public:
    WorkUnit* pop() override { return queue_.try_pop().value_or(nullptr); }
    WorkUnit* steal() override { return pop(); }  // same end: it's one queue
    bool remove(WorkUnit* unit) override;
    [[nodiscard]] std::size_t size_hint() const override {
        return queue_.size();
    }

  protected:
    void do_push(WorkUnit* unit) override {
        on_push(unit);
        queue_.push(unit);
    }
    void do_push_bulk(std::span<WorkUnit* const> units) override {
        for (WorkUnit* unit : units) {
            on_push(unit);
        }
        queue_.push_bulk(units);
    }

  private:
    queue::GlobalQueue<WorkUnit*> queue_;
};

/// Lock-free bounded MPMC pool — a scalable shared pool (Argobots' shared
/// pool configuration). Falls back to spinning in push when full.
class MpmcPool final : public Pool {
  public:
    explicit MpmcPool(std::size_t capacity = 1 << 16) : queue_(capacity) {}

    WorkUnit* pop() override { return queue_.try_pop().value_or(nullptr); }
    WorkUnit* steal() override { return pop(); }
    [[nodiscard]] std::size_t size_hint() const override {
        return queue_.size_approx();
    }

  protected:
    void do_push(WorkUnit* unit) override;
    void do_push_bulk(std::span<WorkUnit* const> units) override;

  private:
    queue::MpmcQueue<WorkUnit*> queue_;
};

/// Spinlock-protected deque with a configurable consumer end: the private
/// queue per stream (kFifo) and, under StealingScheduler, MassiveThreads'
/// mutex-protected per-worker deque (kLifo). Any thread may push
/// (round-robin dispatch, wakes), the owner pops, thieves use steal().
///
/// A unit pushed with its `unpinned` flag set is also counted: an idle
/// peer stream may take the oldest such unit (take_unpinned), and reads
/// the count without the lock first (unpinned_hint), so probing a pool
/// that holds none costs one load. Every unit leaves unpinned: pop,
/// steal, remove and take_unpinned clear the flag under the lock.
class DequePool final : public Pool {
  public:
    /// kFifo: owner pops oldest (Converse/Qthreads order).
    /// kLifo: owner pops newest (MassiveThreads depth-first order).
    enum class PopOrder { kFifo, kLifo };

    explicit DequePool(PopOrder order = PopOrder::kFifo) : order_(order) {}

    WorkUnit* pop() override { return take_end(order_ == PopOrder::kLifo); }
    /// Thieves take the end opposite the owner's.
    WorkUnit* steal() override {
        return take_end(order_ != PopOrder::kLifo);
    }
    /// The scan starts at the back, where the unit yield_to and
    /// join-stealing want (usually the one pushed last) sits.
    bool remove(WorkUnit* unit) override;
    /// The oldest unpinned unit, taken out of the pool; nullptr if none.
    WorkUnit* take_unpinned();
    /// Unpinned units queued here. A hint read without the lock, ordered
    /// against parking like size_hint(): a push counts before it notifies.
    [[nodiscard]] std::size_t unpinned_hint() const noexcept {
        return unpinned_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t size_hint() const override {
        std::lock_guard guard(lock_);
        return items_.size();
    }

  protected:
    void do_push(WorkUnit* unit) override;
    void do_push_bulk(std::span<WorkUnit* const> units) override;

  private:
    /// Pop the back or front unit; nullptr when empty.
    WorkUnit* take_end(bool back);
    /// Under lock_, for a unit just taken out of items_: clear its flag.
    void unpin(WorkUnit* unit) noexcept;
    /// Under lock_, the count's only writer: plain stores, no RMW.
    void count_unpinned(std::size_t added) noexcept {
        unpinned_.store(unpinned_.load(std::memory_order_relaxed) + added,
                        std::memory_order_relaxed);
    }
    void uncount_unpinned() noexcept {
        unpinned_.store(unpinned_.load(std::memory_order_relaxed) - 1,
                        std::memory_order_relaxed);
    }

    PopOrder order_;
    mutable sync::Spinlock lock_;
    std::deque<WorkUnit*> items_;
    /// Units in items_ with `unpinned` set; written under lock_. On a line
    /// of its own: idle peers read it on every probe, and beside lock_ and
    /// items_ each read would take the owner's hot line away from it.
    alignas(arch::kCacheLine) std::atomic<std::size_t> unpinned_{0};
};

}  // namespace lwt::core
