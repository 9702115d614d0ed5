// stack.hpp — guarded, pooled execution stacks for user-level threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "arch/audit.hpp"

namespace lwt::arch {

/// One mmap'd stack with an inaccessible guard page at the low end so that
/// overflow faults deterministically instead of corrupting a neighbour.
/// Move-only RAII owner; unmapped on destruction.
class Stack {
  public:
    Stack() noexcept = default;
    Stack(Stack&& other) noexcept
        : base_(std::exchange(other.base_, nullptr)),
          mapped_(std::exchange(other.mapped_, 0)),
          usable_(std::exchange(other.usable_, 0)) {}
    Stack& operator=(Stack&& other) noexcept;
    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;
    ~Stack();

    /// Map a stack with at least `usable_bytes` of usable space (rounded up
    /// to whole pages) plus one guard page. Throws std::bad_alloc on failure.
    /// The mapping is lazily committed (MAP_NORESERVE): pages cost RSS only
    /// once the ULT actually touches them. The one-arg form resolves the
    /// hugepage preference via stack_huge_enabled().
    static Stack allocate(std::size_t usable_bytes);
    static Stack allocate(std::size_t usable_bytes, bool huge);

    /// Highest usable address (stacks grow downward); pass to make_fcontext.
    [[nodiscard]] void* top() const noexcept {
        return static_cast<char*>(base_) + mapped_;
    }
    /// Usable byte count (excludes the guard page).
    [[nodiscard]] std::size_t usable() const noexcept { return usable_; }
    [[nodiscard]] bool valid() const noexcept { return base_ != nullptr; }

  private:
    void release() noexcept;

    void* base_ = nullptr;      // mmap base; guard page lives here
    std::size_t mapped_ = 0;    // total mapped bytes including guard
    std::size_t usable_ = 0;
};

/// Reuses stacks of a fixed size: mapping and unmapping on every ULT spawn
/// dominates creation cost, and LWT runtimes amortise it exactly this way.
/// Not thread-safe by design — keep one pool per execution stream.
class StackPool {
  public:
    /// `stack_bytes` is the usable size of every pooled stack; `max_cached`
    /// caps how many free stacks are retained before unmapping extras. The
    /// LWT_STACK_CACHE env var (a stack count) overrides `max_cached` when
    /// set. A cached stack keeps the pages its last user touched: acquire()
    /// hands back the most recently recycled stack, still warm.
    explicit StackPool(std::size_t stack_bytes, std::size_t max_cached = 64);

    /// Pop a cached stack or map a fresh one.
    Stack acquire();
    /// Return a stack; frees it immediately once the cache is full.
    void recycle(Stack s);

    /// Pop up to `n` cached stacks into `out` (appended), or map one fresh
    /// stack when none is cached. One call per refill batch. Mapping only
    /// on a true miss keeps untouched stacks out of the caches: a cache
    /// would hand them out cold, paying first-touch faults on the create
    /// path while warm stacks wait in another stream's cache.
    void acquire_bulk(std::vector<Stack>& out, std::size_t n);
    /// Return every stack in `stacks` (drained; the vector is cleared).
    void recycle_bulk(std::vector<Stack>& stacks);

    [[nodiscard]] std::size_t stack_bytes() const noexcept { return stack_bytes_; }
    [[nodiscard]] std::size_t cached() const noexcept { return free_.size(); }
    [[nodiscard]] std::size_t max_cached() const noexcept { return max_cached_; }

  private:
    std::size_t stack_bytes_;
    std::size_t max_cached_;
    std::vector<Stack> free_;
};

/// Thread-safe StackPool: one mutex around a StackPool, acquired once per
/// batch by the per-stream caches below (instead of once per spawn by every
/// stream, the central-lock cost the bulk path removes).
class SharedStackPool {
  public:
    explicit SharedStackPool(std::size_t stack_bytes,
                             std::size_t max_cached = 64)
        : pool_(stack_bytes, max_cached) {}

    Stack acquire() {
        count_lock();
        std::lock_guard guard(lock_);
        return pool_.acquire();
    }
    void recycle(Stack s) {
        count_lock();
        std::lock_guard guard(lock_);
        pool_.recycle(std::move(s));
    }
    void acquire_bulk(std::vector<Stack>& out, std::size_t n) {
        count_lock();
        std::lock_guard guard(lock_);
        pool_.acquire_bulk(out, n);
    }
    void recycle_bulk(std::vector<Stack>& stacks) {
        count_lock();
        std::lock_guard guard(lock_);
        pool_.recycle_bulk(stacks);
    }

    [[nodiscard]] std::size_t stack_bytes() const noexcept {
        return pool_.stack_bytes();
    }
    [[nodiscard]] std::size_t cached() const {
        std::lock_guard guard(lock_);
        return pool_.cached();
    }

  private:
    // The shared lock is exactly the kind of per-spawn cost the audit mode
    // exists to expose: each acquire here is one contended RMW the batch
    // caches in front of this pool amortise away.
    static void count_lock() noexcept {
        if (audit::enabled()) {
            audit::count_rmw();
        }
    }

    mutable std::mutex lock_;
    StackPool pool_;
};

/// Unsynchronized per-stream front for a SharedStackPool: spawns hit a
/// plain vector; the shared lock is only taken to refill or drain a whole
/// batch. Keep one cache per execution stream (owner-thread access only).
class StackCache {
  public:
    static constexpr std::size_t kBatch = 16;

    explicit StackCache(SharedStackPool* shared) noexcept : shared_(shared) {}
    StackCache(const StackCache&) = delete;
    StackCache& operator=(const StackCache&) = delete;
    ~StackCache() {
        if (shared_ != nullptr) {
            shared_->recycle_bulk(local_);
        }
    }

    Stack acquire() {
        if (local_.empty()) {
            shared_->acquire_bulk(local_, kBatch);
        }
        Stack s = std::move(local_.back());
        local_.pop_back();
        return s;
    }

    void recycle(Stack s) {
        local_.push_back(std::move(s));
        if (local_.size() > 2 * kBatch) {
            // Drain a batch from the tail: O(kBatch) with no memmove of the
            // survivors (erasing the front would shift every element).
            // acquire() also pops the tail, so after a drain the next spawns
            // reuse the still-cache-warm stacks recycled just before it.
            drain_.assign(std::make_move_iterator(local_.end() - kBatch),
                          std::make_move_iterator(local_.end()));
            local_.erase(local_.end() - kBatch, local_.end());
            shared_->recycle_bulk(drain_);
        }
    }

    /// Return every cached stack to the shared pool.
    void flush() {
        if (!local_.empty()) {
            shared_->recycle_bulk(local_);
        }
    }

    [[nodiscard]] std::size_t cached() const noexcept { return local_.size(); }

  private:
    SharedStackPool* shared_;
    std::vector<Stack> local_;
    std::vector<Stack> drain_;  // scratch, avoids reallocating per drain
};

/// The stack a ULT on a default stack is promised below its entry frame:
/// LWT_STACKSIZE env var (bytes) or 64 KiB, read once at first use. The
/// default source maps twice this per stack (see below).
std::size_t default_stack_size() noexcept;

/// Programmatic default for the per-pool free-stack cap, consulted by
/// StackPool construction when LWT_STACK_CACHE is unset (the env var
/// always wins — glt::RuntimeOptions plumbing, see topology.hpp).
/// Applies to pools created after the call; nullopt clears.
void set_default_stack_cache(std::optional<std::size_t> max_cached);

// --- Hugepage-backed stacks -------------------------------------------------

/// Whether new stacks should ask the kernel for transparent hugepages
/// (MADV_HUGEPAGE on the usable range). Resolution: LWT_STACK_HUGE env var
/// ("1"/"0") wins, else the programmatic default, else off. THP only pays
/// off for stacks of 2 MiB and up (the kernel collapses whole 2 MiB
/// extents); smaller stacks accept the advice harmlessly.
[[nodiscard]] bool stack_huge_enabled() noexcept;

/// Programmatic default for stack_huge_enabled() when LWT_STACK_HUGE is
/// unset (glt::RuntimeOptions::stack_huge); nullopt clears.
void set_default_stack_huge(std::optional<bool> huge);

/// Test hook: force every MADV_HUGEPAGE request to report failure, as on a
/// kernel with THP disabled. The allocation itself must still succeed —
/// hugepages are an optimisation, never a requirement.
void stack_thp_force_failure(bool fail) noexcept;

/// Stacks mapped / unmapped since process start (all pools and the default
/// source). Relaxed monotonic counters: the delta across a spawn burst is
/// the number of mmap syscalls the pool layer failed to amortise.
[[nodiscard]] std::uint64_t stack_map_count() noexcept;
[[nodiscard]] std::uint64_t stack_unmap_count() noexcept;
/// MADV_HUGEPAGE requests the kernel rejected (THP unavailable/denied).
[[nodiscard]] std::uint64_t stack_thp_denied_count() noexcept;

// --- Process-wide default stack source --------------------------------------
//
// Every personality's plain `new core::Ult(fn)` draws its stack here: a
// thread-local StackCache in front of one leaked SharedStackPool of stacks
// that map twice default_stack_size(), capped at 1024 free stacks
// (LWT_STACK_CACHE overrides). The ULT is promised default_stack_size();
// the other half is room in which its joins run queued children as plain
// calls (core/join.cpp), each child again promised default_stack_size().
// Mappings are lazily committed, so only touched pages cost RSS. Creation
// pops a plain vector; the shared lock is paid once per kBatch
// refill/drain.

/// Pop a pooled default-size stack (mapping fresh ones in batches on miss).
Stack acquire_default_stack();
/// Return a stack from acquire_default_stack(); other sizes unmap.
void recycle_default_stack(Stack s) noexcept;
/// Return the calling thread's cached default stacks to the shared tier.
/// Streams call it when they run out of work: a stream that finishes ULTs
/// other threads created would otherwise keep their stacks until its
/// cache overflows, and the creators would map fresh ones meanwhile.
void flush_default_stack_cache();
/// Stacks currently cached in the shared tier of the default source
/// (excludes per-thread caches; diagnostics/tests).
[[nodiscard]] std::size_t default_stack_source_cached();

}  // namespace lwt::arch
