#include "core/pool.hpp"

#include <iterator>
#include <mutex>

#include "arch/cpu.hpp"

namespace lwt::core {

bool SharedFifoPool::remove(WorkUnit* unit) { return queue_.remove(unit); }

void MpmcPool::do_push(WorkUnit* unit) {
    on_push(unit);
    while (!queue_.try_push(unit)) {
        arch::cpu_relax();  // bounded queue full: wait for consumers
    }
}

void MpmcPool::do_push_bulk(std::span<WorkUnit* const> units) {
    for (WorkUnit* unit : units) {
        on_push(unit);
    }
    // Block-claims slots (one head CAS per run); spins like do_push when
    // the bounded queue fills mid-batch.
    queue_.push_bulk(units.data(), units.size());
}

void DequePool::do_push(WorkUnit* unit) {
    on_push(unit);
    const bool unpinned = unit->unpinned;
    std::lock_guard guard(lock_);
    items_.push_back(unit);
    if (unpinned) {
        count_unpinned(1);
    }
}

void DequePool::do_push_bulk(std::span<WorkUnit* const> units) {
    std::size_t unpinned = 0;
    for (WorkUnit* unit : units) {
        on_push(unit);
        unpinned += unit->unpinned ? 1 : 0;
    }
    std::lock_guard guard(lock_);
    items_.insert(items_.end(), units.begin(), units.end());
    count_unpinned(unpinned);
}

void DequePool::unpin(WorkUnit* unit) noexcept {
    // A zero count means no queued unit is unpinned: the unit's own line,
    // often another core's, stays untouched inside the lock.
    if (unpinned_.load(std::memory_order_relaxed) != 0 && unit->unpinned) {
        unit->unpinned = false;
        uncount_unpinned();
    }
}

WorkUnit* DequePool::take_end(bool back) {
    std::lock_guard guard(lock_);
    if (items_.empty()) {
        return nullptr;
    }
    WorkUnit* unit = back ? items_.back() : items_.front();
    if (back) {
        items_.pop_back();
    } else {
        items_.pop_front();
    }
    unpin(unit);
    return unit;
}

bool DequePool::remove(WorkUnit* unit) {
    std::lock_guard guard(lock_);
    for (auto it = items_.rbegin(); it != items_.rend(); ++it) {
        if (*it == unit) {
            items_.erase(std::next(it).base());
            unpin(unit);
            return true;
        }
    }
    return false;
}

WorkUnit* DequePool::take_unpinned() {
    std::lock_guard guard(lock_);
    if (unpinned_.load(std::memory_order_relaxed) == 0) {
        return nullptr;
    }
    for (auto it = items_.begin(); it != items_.end(); ++it) {
        WorkUnit* unit = *it;
        if (unit->unpinned) {
            items_.erase(it);
            unpin(unit);
            return unit;
        }
    }
    return nullptr;
}

}  // namespace lwt::core
