// chase_lev_deque.hpp — lock-free work-stealing deque (Chase & Lev), with
// the C11-memory-model fences from Lê et al., "Correct and Efficient
// Work-Stealing for Weak Memory Models" (PPoPP'13).
//
// The owner pushes and pops at the bottom (LIFO — good locality for
// recursive task graphs); thieves steal from the top (FIFO — steals the
// oldest, typically largest, piece of work). momp's icc flavour runs one
// per team thread (momp/task_pool.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "arch/cpu.hpp"

namespace lwt::queue {

/// Outcome of a single steal probe. Distinguishing an empty victim from a
/// lost CAS race matters to the scheduler's telemetry and backoff: a lost
/// race means work exists but the deque is contended (keep probing), while
/// an empty victim argues for moving on or backing off.
enum class StealOutcome : std::uint8_t {
    kSuccess,  ///< a unit was taken
    kEmpty,    ///< the victim had nothing to take
    kLost,     ///< another thief (or the owner) won the race for the unit
};

/// T must be trivially copyable and cheap to copy (pointers or small
/// handles): slots are relaxed atomics per Lê et al. — a losing thief may
/// read a slot the owner is concurrently overwriting, and only the CAS on
/// `top` decides whose copy is real. Plain slots would make that read a
/// data race (undefined behaviour, and a ThreadSanitizer report).
template <typename T>
class ChaseLevDeque {
  public:
    explicit ChaseLevDeque(std::size_t initial_capacity = 1024)
        : array_(new Array(round_up_pow2(initial_capacity))) {}

    ChaseLevDeque(const ChaseLevDeque&) = delete;
    ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

    ~ChaseLevDeque() {
        delete array_.load(std::memory_order_relaxed);
        for (Array* a : retired_) {
            delete a;
        }
    }

    /// Owner only. Grows the backing array on demand (old arrays are retired
    /// until destruction because thieves may still be reading them).
    void push_bottom(T value) {
        const std::int64_t b = bottom_.load(std::memory_order_relaxed);
        const std::int64_t t = top_.load(std::memory_order_acquire);
        Array* a = array_.load(std::memory_order_relaxed);
        if (b - t > static_cast<std::int64_t>(a->capacity) - 1) {
            a = grow(a, b, t);
        }
        a->put(b, std::move(value));
        // Lê et al. use a release fence + relaxed store here; a release store
        // is equivalent (everything sequenced before it — including the slot
        // write — is published to an acquire load of bottom) and, unlike a
        // fence, is modelled by ThreadSanitizer.
        bottom_.store(b + 1, std::memory_order_release);
    }

    /// Owner only. Enqueue `n` values with a single release publish: grow
    /// until the block fits, write every slot, then advance `bottom_` once.
    /// Thieves see either none or all of the batch — exactly the
    /// one-burst-per-queue shape bulk submission wants.
    void push_bottom_bulk(const T* values, std::size_t n) {
        if (n == 0) {
            return;
        }
        const std::int64_t b = bottom_.load(std::memory_order_relaxed);
        Array* a = array_.load(std::memory_order_relaxed);
        for (;;) {
            const std::int64_t t = top_.load(std::memory_order_acquire);
            if (b + static_cast<std::int64_t>(n) - t <=
                static_cast<std::int64_t>(a->capacity)) {
                break;
            }
            a = grow(a, b, t);
        }
        for (std::size_t i = 0; i < n; ++i) {
            a->put(b + static_cast<std::int64_t>(i), values[i]);
        }
        bottom_.store(b + static_cast<std::int64_t>(n),
                      std::memory_order_release);
    }

    /// Owner only. LIFO pop; empty optional when the deque is empty.
    std::optional<T> pop_bottom() {
        const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
        Array* a = array_.load(std::memory_order_relaxed);
        bottom_.store(b, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        std::int64_t t = top_.load(std::memory_order_relaxed);
        if (t <= b) {
            T value = a->get(b);
            if (t == b) {
                // Last element: race with thieves via CAS on top.
                if (!top_.compare_exchange_strong(t, t + 1,
                                                  std::memory_order_seq_cst,
                                                  std::memory_order_relaxed)) {
                    bottom_.store(b + 1, std::memory_order_relaxed);
                    return std::nullopt;  // thief got it
                }
                bottom_.store(b + 1, std::memory_order_relaxed);
            }
            return value;
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
        return std::nullopt;
    }

    /// Any thread. FIFO steal; writes the taken value into `out` only on
    /// kSuccess. On kLost the caller should retry or pick another victim.
    StealOutcome steal_top(T& out) {
        std::int64_t t = top_.load(std::memory_order_acquire);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        const std::int64_t b = bottom_.load(std::memory_order_acquire);
        if (t >= b) {
            return StealOutcome::kEmpty;
        }
        Array* a = array_.load(std::memory_order_consume);
        T value = a->get(t);
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
            return StealOutcome::kLost;
        }
        out = std::move(value);
        return StealOutcome::kSuccess;
    }

    /// Any thread. FIFO steal; empty optional when empty or when losing a
    /// race (outcome-blind convenience wrapper over the overload above).
    std::optional<T> steal_top() {
        T value{};
        return steal_top(value) == StealOutcome::kSuccess
                   ? std::optional<T>(std::move(value))
                   : std::nullopt;
    }

    [[nodiscard]] std::size_t size_approx() const noexcept {
        const std::int64_t b = bottom_.load(std::memory_order_acquire);
        const std::int64_t t = top_.load(std::memory_order_acquire);
        return b > t ? static_cast<std::size_t>(b - t) : 0;
    }

    [[nodiscard]] bool empty() const noexcept { return size_approx() == 0; }

  private:
    struct Array {
        static_assert(std::is_trivially_copyable_v<T>,
                      "slots are atomics; T must be trivially copyable");

        explicit Array(std::size_t cap) : capacity(cap), mask(cap - 1),
                                          slots(new std::atomic<T>[cap]) {}
        ~Array() { delete[] slots; }

        // Relaxed is sufficient: ordering against top/bottom comes from the
        // fences and CAS in push/pop/steal, never from the slot access.
        void put(std::int64_t index, T value) noexcept {
            slots[static_cast<std::size_t>(index) & mask].store(
                value, std::memory_order_relaxed);
        }
        T get(std::int64_t index) const noexcept {
            return slots[static_cast<std::size_t>(index) & mask].load(
                std::memory_order_relaxed);
        }

        const std::size_t capacity;
        const std::size_t mask;
        std::atomic<T>* slots;
    };

    Array* grow(Array* old, std::int64_t b, std::int64_t t) {
        auto* bigger = new Array(old->capacity * 2);
        for (std::int64_t i = t; i < b; ++i) {
            bigger->put(i, old->get(i));
        }
        array_.store(bigger, std::memory_order_release);
        retired_.push_back(old);
        return bigger;
    }

    static std::size_t round_up_pow2(std::size_t v) noexcept {
        std::size_t p = 1;
        while (p < v) {
            p <<= 1;
        }
        return p;
    }

    alignas(arch::kCacheLine) std::atomic<std::int64_t> top_{0};
    alignas(arch::kCacheLine) std::atomic<std::int64_t> bottom_{0};
    alignas(arch::kCacheLine) std::atomic<Array*> array_;
    std::vector<Array*> retired_;  // owner-only
};

}  // namespace lwt::queue
