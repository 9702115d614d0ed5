// mpmc_queue.hpp — bounded multi-producer/multi-consumer queue.
//
// Vyukov-style: per-slot sequence numbers let producers and consumers claim
// slots with a single CAS each, with no shared lock. Backs shared pools that
// many execution streams push to and pop from concurrently.
//
// The slots live in an anonymous zero-filled mapping and each one stores its
// sequence relative to its own index, so all-zero memory already is the
// empty ring: construction writes nothing, and a page of slots becomes
// resident only once the ring's head first reaches it.
#pragma once

#include <sys/mman.h>

#include <atomic>
#include <cstddef>
#include <new>
#include <optional>
#include <type_traits>

#include "arch/cpu.hpp"

namespace lwt::queue {

template <typename T>
class MpmcQueue {
    // Values sit in memory no constructor ever touches.
    static_assert(std::is_trivially_copyable_v<T>,
                  "MpmcQueue holds trivially copyable values only");

  public:
    explicit MpmcQueue(std::size_t capacity = 4096)
        : mask_(round_up_pow2(capacity) - 1), slots_(map_slots(mask_ + 1)) {}

    ~MpmcQueue() { ::munmap(slots_, (mask_ + 1) * sizeof(Slot)); }

    MpmcQueue(const MpmcQueue&) = delete;
    MpmcQueue& operator=(const MpmcQueue&) = delete;

    /// Returns false when the queue is full.
    bool try_push(T value) {
        std::size_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            const std::size_t seq = sequence(pos);
            const std::ptrdiff_t diff =
                static_cast<std::ptrdiff_t>(seq) - static_cast<std::ptrdiff_t>(pos);
            if (diff == 0) {
                if (head_.compare_exchange_weak(pos, pos + 1,
                                                std::memory_order_relaxed)) {
                    slots_[pos & mask_].value = value;
                    publish(pos, pos + 1);
                    return true;
                }
            } else if (diff < 0) {
                return false;  // full
            } else {
                pos = head_.load(std::memory_order_relaxed);
            }
        }
    }

    /// Enqueue `n` values, blocking (spinning) while the queue is full —
    /// the same full-queue behaviour callers of try_push-in-a-loop rely on,
    /// but claiming slots in blocks: one head CAS covers a whole run of
    /// values instead of one CAS per value.
    void push_bulk(const T* values, std::size_t n) {
        std::size_t done = 0;
        while (done < n) {
            std::size_t pos = head_.load(std::memory_order_relaxed);
            // Claim up to the estimated free space (at least one slot so a
            // full queue degrades to claim-and-wait, like the spinning
            // single push).
            const std::size_t cap = mask_ + 1;
            const std::size_t used = size_approx();
            std::size_t want = n - done;
            if (const std::size_t free = cap > used ? cap - used : 0;
                want > free) {
                want = free > 0 ? free : 1;
            }
            if (want > cap) {
                want = cap;
            }
            if (!head_.compare_exchange_weak(pos, pos + want,
                                             std::memory_order_relaxed)) {
                continue;
            }
            for (std::size_t i = 0; i < want; ++i) {
                // The claimed slot may still hold the previous lap's value
                // until its consumer bumps the sequence; wait it out, as the
                // spinning single push does for a full queue.
                while (sequence(pos + i) != pos + i) {
                    arch::cpu_relax();
                }
                slots_[(pos + i) & mask_].value = values[done + i];
                publish(pos + i, pos + i + 1);
            }
            done += want;
        }
    }

    /// Empty optional when the queue is empty.
    std::optional<T> try_pop() {
        std::size_t pos = tail_.load(std::memory_order_relaxed);
        for (;;) {
            const std::size_t seq = sequence(pos);
            const std::ptrdiff_t diff = static_cast<std::ptrdiff_t>(seq) -
                                        static_cast<std::ptrdiff_t>(pos + 1);
            if (diff == 0) {
                if (tail_.compare_exchange_weak(pos, pos + 1,
                                                std::memory_order_relaxed)) {
                    std::optional<T> out(slots_[pos & mask_].value);
                    publish(pos, pos + mask_ + 1);
                    return out;
                }
            } else if (diff < 0) {
                return std::nullopt;  // empty
            } else {
                pos = tail_.load(std::memory_order_relaxed);
            }
        }
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

    /// Approximate size; exact only when quiescent.
    [[nodiscard]] std::size_t size_approx() const noexcept {
        const std::size_t h = head_.load(std::memory_order_acquire);
        const std::size_t t = tail_.load(std::memory_order_acquire);
        return h >= t ? h - t : 0;
    }

    [[nodiscard]] bool empty() const noexcept { return size_approx() == 0; }

  private:
    // Plain fields: the mapping's zero bytes are a valid Slot, and the
    // sequence is only ever accessed through std::atomic_ref.
    struct Slot {
        std::size_t relative_sequence;  // Vyukov sequence minus the index
        T value;
    };
    static_assert(std::atomic_ref<std::size_t>::required_alignment <=
                  alignof(std::size_t));

    /// Vyukov sequence of the slot `pos` maps to (acquire).
    std::size_t sequence(std::size_t pos) const noexcept {
        const std::size_t index = pos & mask_;
        return std::atomic_ref<std::size_t>(slots_[index].relative_sequence)
                   .load(std::memory_order_acquire) +
               index;
    }

    /// Release-store `seq` as the sequence of the slot `pos` maps to.
    void publish(std::size_t pos, std::size_t seq) noexcept {
        const std::size_t index = pos & mask_;
        std::atomic_ref<std::size_t>(slots_[index].relative_sequence)
            .store(seq - index, std::memory_order_release);
    }

    static Slot* map_slots(std::size_t count) {
        void* base = ::mmap(nullptr, count * sizeof(Slot),
                            PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base == MAP_FAILED) {
            throw std::bad_alloc{};
        }
        return static_cast<Slot*>(base);
    }

    static std::size_t round_up_pow2(std::size_t v) noexcept {
        std::size_t p = 1;
        while (p < v) {
            p <<= 1;
        }
        return p;
    }

    const std::size_t mask_;
    Slot* const slots_;
    alignas(arch::kCacheLine) std::atomic<std::size_t> head_{0};
    alignas(arch::kCacheLine) std::atomic<std::size_t> tail_{0};
};

}  // namespace lwt::queue
