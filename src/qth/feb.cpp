#include "qth/feb.hpp"

#include <mutex>

#include "arch/cpu.hpp"

namespace lwt::qth {

namespace {
/// Bounded pre-park spin: most FEB handoffs (producer/consumer alternation)
/// resolve within a few hundred cycles; spin that long before paying for a
/// suspend.
constexpr int kFebSpin = 64;
}  // namespace

core::SyncWaiter* FebTable::detach_waiters(Shard& sh, std::uintptr_t key) {
    return sh.waiters.detach_if([key](const core::SyncWaiter* w) {
        return static_cast<const Waiter*>(w)->key == key;
    });
}

template <typename Update>
void FebTable::transition(const aligned_t* addr, Update update) {
    Shard& sh = shard_for(addr);
    const auto key = reinterpret_cast<std::uintptr_t>(addr);
    core::SyncWaiter* woken;
    {
        std::lock_guard guard(sh.lock);
        update(sh.state, key);
        woken = detach_waiters(sh, key);
    }
    // Past the lock only the waiters' own stack nodes are touched, never
    // the word: a woken reader may free it at once.
    core::wake_sync_chain(woken);
}

template <typename Attempt>
void FebTable::await(const aligned_t* addr, bool wakes, Attempt attempt) {
    Shard& sh = shard_for(addr);
    const auto key = reinterpret_cast<std::uintptr_t>(addr);
    core::SyncWaiter* woken = nullptr;
    // Under the lock: on success, unlink the waiters the transition freed.
    auto try_locked = [&] {
        if (!attempt(sh.state, key)) {
            return false;
        }
        if (wakes) {
            woken = detach_waiters(sh, key);
        }
        return true;
    };
    bool done = false;
    for (int spins = 0; !done && spins < kFebSpin; ++spins) {
        {
            std::lock_guard guard(sh.lock);
            done = try_locked();
        }
        if (!done) {
            arch::cpu_relax();
        }
    }
    while (!done) {
        // Parked under the lock that guards the state the attempt saw, so
        // the transition that makes it succeed must unlink this node.
        core::SyncBlocker blocker;
        Waiter node;
        node.key = key;
        blocker.prepare(node);
        {
            std::lock_guard guard(sh.lock);
            done = try_locked();
            if (!done) {
                sh.waiters.push_back(&node);
            }
        }
        if (done) {
            blocker.cancel(node);
        } else {
            blocker.wait();
        }
    }
    core::wake_sync_chain(woken);
}

bool FebTable::is_full(const aligned_t* addr) {
    Shard& sh = shard_for(addr);
    std::lock_guard guard(sh.lock);
    const auto it = sh.state.find(reinterpret_cast<std::uintptr_t>(addr));
    return it == sh.state.end() || it->second;
}

void FebTable::fill(aligned_t* addr) {
    transition(addr, [](StateMap& state, std::uintptr_t key) {
        state[key] = true;
    });
}

void FebTable::purge(aligned_t* addr) {
    transition(addr, [](StateMap& state, std::uintptr_t key) {
        state[key] = false;
    });
}

void FebTable::write_f(aligned_t* addr, aligned_t value) {
    transition(addr, [addr, value](StateMap& state, std::uintptr_t key) {
        *addr = value;
        state[key] = true;
    });
}

void FebTable::forget(const aligned_t* addr) {
    // Erasure restores implicit-FULL: blocked readers proceed.
    transition(addr, [](StateMap& state, std::uintptr_t key) {
        state.erase(key);
    });
}

void FebTable::write_ef(aligned_t* addr, aligned_t value) {
    await(addr, /*wakes=*/true,
          [addr, value](StateMap& state, std::uintptr_t key) {
              bool& full = state.try_emplace(key, true).first->second;
              if (full) {
                  return false;
              }
              *addr = value;
              full = true;
              return true;
          });
}

aligned_t FebTable::read_ff(const aligned_t* addr) {
    aligned_t value = 0;
    await(addr, /*wakes=*/false,
          [addr, &value](StateMap& state, std::uintptr_t key) {
              const auto it = state.find(key);
              if (it != state.end() && !it->second) {
                  return false;
              }
              value = *addr;
              return true;
          });
    return value;
}

aligned_t FebTable::read_fe(aligned_t* addr) {
    aligned_t value = 0;
    await(addr, /*wakes=*/true,
          [addr, &value](StateMap& state, std::uintptr_t key) {
              bool& full = state.try_emplace(key, true).first->second;
              if (!full) {
                  return false;
              }
              value = *addr;
              full = false;
              return true;
          });
    return value;
}

std::size_t FebTable::tracked() const {
    std::size_t total = 0;
    for (const Shard& sh : shards_) {
        std::lock_guard guard(sh.lock);
        total += sh.state.size();
    }
    return total;
}

std::size_t FebTable::waiters(const aligned_t* addr) const {
    const Shard& sh = shard_for(addr);
    const auto key = reinterpret_cast<std::uintptr_t>(addr);
    std::lock_guard guard(sh.lock);
    std::size_t n = 0;
    for (const core::SyncWaiter* w = sh.waiters.front(); w != nullptr;
         w = w->next) {
        n += static_cast<const Waiter*>(w)->key == key ? 1 : 0;
    }
    return n;
}

}  // namespace lwt::qth
