// feb.hpp — full/empty-bit word synchronisation, Qthreads style.
//
// Qthreads associates a one-bit full/empty state with any aligned machine
// word; `readFF`-family operations block until the word reaches the required
// state. The paper identifies this "free access to memory [that] requires
// hidden synchronisation" as a defining Qthreads trait and measures its join
// built on readFF. We reproduce it as a sharded hash table keyed by address:
// words are implicitly FULL until touched, exactly as in Qthreads.
//
// Blocking goes through the shared waiter machinery (core/waiter.hpp): a
// blocked operation parks a SyncWaiter keyed by the word's address on its
// shard's waiter list, under the same lock that guards the word's
// full/empty state, so a transition can never slip between the check and
// the park. Every transition unlinks that word's waiters under the lock and
// wakes them once it drops; they re-check. A waiting ULT suspends (its
// worker keeps running other units), an attached stream drains its pools,
// a plain thread parks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "core/waiter.hpp"
#include "sync/spinlock.hpp"

namespace lwt::qth {

/// Synchronised word type. Qthreads uses `aligned_t`; we mirror that.
using aligned_t = std::uint64_t;

/// Sharded full/empty-bit table. All operations are linearisable per word.
class FebTable {
  public:
    static constexpr std::size_t kShards = 64;

    FebTable() = default;
    FebTable(const FebTable&) = delete;
    FebTable& operator=(const FebTable&) = delete;

    /// True if the word is FULL. Untracked words are FULL by definition.
    bool is_full(const aligned_t* addr);

    /// Mark FULL without touching the stored value (qthread_fill).
    void fill(aligned_t* addr);

    /// Mark EMPTY without touching the stored value (qthread_empty/purge).
    void purge(aligned_t* addr);

    /// Write the value and mark FULL regardless of prior state (writeF).
    void write_f(aligned_t* addr, aligned_t value);

    /// Wait until EMPTY, then write and mark FULL (writeEF). Blocking is
    /// suspend-based: a ULT yields its worker, an OS thread parks.
    void write_ef(aligned_t* addr, aligned_t value);

    /// Wait until FULL, read, leave FULL (readFF) — Qthreads' join primitive.
    aligned_t read_ff(const aligned_t* addr);

    /// Wait until FULL, read, mark EMPTY (readFE).
    aligned_t read_fe(aligned_t* addr);

    /// Drop tracking for a word, restoring the implicit-FULL default.
    void forget(const aligned_t* addr);

    /// Number of explicitly tracked words (test/diagnostic aid).
    std::size_t tracked() const;

    /// Waiters currently parked on `addr` (tests/diagnostics only).
    [[nodiscard]] std::size_t waiters(const aligned_t* addr) const;

  private:
    /// A blocked operation's node: parked on its word's shard, matched by
    /// address.
    struct Waiter : core::SyncWaiter {
        std::uintptr_t key = 0;
    };

    /// Word address -> full flag. Absent means FULL.
    using StateMap = std::unordered_map<std::uintptr_t, bool>;

    struct Shard {
        mutable sync::Spinlock lock;
        StateMap state;                ///< guarded by lock
        core::SyncWaiterList waiters;  ///< guarded by lock, any word
    };

    Shard& shard_for(const aligned_t* addr) {
        const auto key = reinterpret_cast<std::uintptr_t>(addr);
        return shards_[(key >> 3) % kShards];
    }
    const Shard& shard_for(const aligned_t* addr) const {
        const auto key = reinterpret_cast<std::uintptr_t>(addr);
        return shards_[(key >> 3) % kShards];
    }

    /// Under the shard lock: unlink every waiter parked on `key`. The
    /// caller wakes the chain after the lock drops.
    static core::SyncWaiter* detach_waiters(Shard& sh, std::uintptr_t key);

    /// Run `update(state, key)` under the word's shard lock, then wake the
    /// word's waiters: every state change is a transition they re-check.
    template <typename Update>
    void transition(const aligned_t* addr, Update update);

    /// Block until `attempt(state, key)`, run under the word's shard lock,
    /// succeeds: a bounded spin, then park on the shard. With `wakes` the
    /// successful attempt is a transition, and the word's waiters are
    /// unlinked under the same lock and woken after it drops.
    template <typename Attempt>
    void await(const aligned_t* addr, bool wakes, Attempt attempt);

    Shard shards_[kShards];
};

}  // namespace lwt::qth
