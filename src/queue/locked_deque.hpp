// locked_deque.hpp — spinlock-protected double-ended queue.
//
// MassiveThreads protects each worker's ready queue with a mutex so that
// random work stealing can pop from the opposite end; the paper calls out
// this mutex as the steal-path cost. This container reproduces that design:
// owner pushes/pops at the back, thieves pop at the front, all under one
// short-held spinlock.
#pragma once

#include <deque>
#include <iterator>
#include <mutex>
#include <optional>
#include <span>

#include "sync/spinlock.hpp"

namespace lwt::queue {

template <typename T>
class LockedDeque {
  public:
    LockedDeque() = default;
    LockedDeque(const LockedDeque&) = delete;
    LockedDeque& operator=(const LockedDeque&) = delete;

    /// Owner: enqueue newest work at the back (LIFO for the owner).
    void push_back(T value) {
        std::lock_guard guard(lock_);
        items_.push_back(std::move(value));
    }

    /// Enqueue a whole batch at the back under one lock acquisition.
    void push_back_bulk(std::span<const T> values) {
        if (values.empty()) {
            return;
        }
        std::lock_guard guard(lock_);
        items_.insert(items_.end(), values.begin(), values.end());
    }

    /// Owner: enqueue at the front (used by help-first dispatch variants).
    void push_front(T value) {
        std::lock_guard guard(lock_);
        items_.push_front(std::move(value));
    }

    /// Owner: newest-first pop.
    std::optional<T> pop_back() {
        std::lock_guard guard(lock_);
        if (items_.empty()) {
            return std::nullopt;
        }
        std::optional<T> out(std::move(items_.back()));
        items_.pop_back();
        return out;
    }

    /// Thief: oldest-first pop (the steal end).
    std::optional<T> pop_front() {
        std::lock_guard guard(lock_);
        if (items_.empty()) {
            return std::nullopt;
        }
        std::optional<T> out(std::move(items_.front()));
        items_.pop_front();
        return out;
    }

    /// Remove the last element equal to `value` (O(n); supports yield_to's
    /// and join-stealing's pop-specific-unit operation). The scan starts at
    /// the back, where the unit those callers want — usually the one pushed
    /// last — sits. Returns false when absent.
    bool remove(const T& value) {
        std::lock_guard guard(lock_);
        for (auto it = items_.rbegin(); it != items_.rend(); ++it) {
            if (*it == value) {
                items_.erase(std::next(it).base());
                return true;
            }
        }
        return false;
    }

    [[nodiscard]] std::size_t size() const {
        std::lock_guard guard(lock_);
        return items_.size();
    }

    [[nodiscard]] bool empty() const { return size() == 0; }

  private:
    mutable sync::Spinlock lock_;
    std::deque<T> items_;
};

}  // namespace lwt::queue
