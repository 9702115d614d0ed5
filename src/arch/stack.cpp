#include "arch/stack.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace lwt::arch {
namespace {

std::size_t page_size() noexcept {
    static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return ps;
}

std::size_t round_up_pages(std::size_t bytes) noexcept {
    const std::size_t ps = page_size();
    return (bytes + ps - 1) / ps * ps;
}

std::atomic<std::uint64_t> g_stack_maps{0};
std::atomic<std::uint64_t> g_stack_unmaps{0};
std::atomic<std::uint64_t> g_thp_denied{0};
std::atomic<bool> g_thp_force_fail{false};
std::atomic<int> g_default_stack_huge{-1};  // -1 = no programmatic default

}  // namespace

Stack& Stack::operator=(Stack&& other) noexcept {
    if (this != &other) {
        release();
        base_ = std::exchange(other.base_, nullptr);
        mapped_ = std::exchange(other.mapped_, 0);
        usable_ = std::exchange(other.usable_, 0);
    }
    return *this;
}

Stack::~Stack() { release(); }

void Stack::release() noexcept {
    if (base_ != nullptr) {
        ::munmap(base_, mapped_);
        g_stack_unmaps.fetch_add(1, std::memory_order_relaxed);
        base_ = nullptr;
        mapped_ = 0;
        usable_ = 0;
    }
}

Stack Stack::allocate(std::size_t usable_bytes) {
    return allocate(usable_bytes, stack_huge_enabled());
}

Stack Stack::allocate(std::size_t usable_bytes, bool huge) {
    const std::size_t ps = page_size();
    const std::size_t usable = round_up_pages(usable_bytes);
    const std::size_t total = usable + ps;  // + guard page
    // MAP_NORESERVE: commit lazily — a pool can hold hundreds of mostly
    // untouched stacks without charging swap/overcommit for all of them.
    void* base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) {
        throw std::bad_alloc{};
    }
    // Guard page at the low end: stacks grow downward into it on overflow.
    ::mprotect(base, ps, PROT_NONE);
    if (huge) {
        // Advisory only: a denial (THP compiled out, madvise disabled, or
        // the forced-failure test hook) leaves a perfectly usable 4 KiB-
        // paged stack — count it and move on.
        bool denied = g_thp_force_fail.load(std::memory_order_relaxed);
#ifdef MADV_HUGEPAGE
        if (!denied) {
            denied = ::madvise(static_cast<char*>(base) + ps, usable,
                               MADV_HUGEPAGE) != 0;
        }
#else
        denied = true;
#endif
        if (denied) {
            g_thp_denied.fetch_add(1, std::memory_order_relaxed);
        }
    }
    g_stack_maps.fetch_add(1, std::memory_order_relaxed);
    Stack s;
    s.base_ = base;
    s.mapped_ = total;
    s.usable_ = usable;
    return s;
}

namespace {

std::atomic<long> g_default_stack_cache{-1};  // -1 = no programmatic default

}  // namespace

void set_default_stack_cache(std::optional<std::size_t> max_cached) {
    g_default_stack_cache.store(
        max_cached ? static_cast<long>(*max_cached) : -1,
        std::memory_order_relaxed);
}

StackPool::StackPool(std::size_t stack_bytes, std::size_t max_cached)
    // Stored rounded so stack_bytes() compares equal to what allocated
    // stacks report via usable() (allocate() rounds the same way).
    : stack_bytes_(round_up_pages(stack_bytes)), max_cached_(max_cached) {
    if (const char* env = std::getenv("LWT_STACK_CACHE")) {
        const long v = std::atol(env);
        if (v >= 0) {
            max_cached_ = static_cast<std::size_t>(v);
        }
    } else if (const long def =
                   g_default_stack_cache.load(std::memory_order_relaxed);
               def >= 0) {
        max_cached_ = static_cast<std::size_t>(def);
    }
}

Stack StackPool::acquire() {
    if (!free_.empty()) {
        Stack s = std::move(free_.back());
        free_.pop_back();
        return s;
    }
    return Stack::allocate(stack_bytes_);
}

void StackPool::recycle(Stack s) {
    if (free_.size() < max_cached_) {
        free_.push_back(std::move(s));
    }
    // else: `s` unmaps on scope exit
}

void StackPool::acquire_bulk(std::vector<Stack>& out, std::size_t n) {
    out.reserve(out.size() + n);
    while (n > 0 && !free_.empty()) {
        out.push_back(std::move(free_.back()));
        free_.pop_back();
        --n;
    }
    while (n-- > 0) {
        out.push_back(Stack::allocate(stack_bytes_));
    }
}

void StackPool::recycle_bulk(std::vector<Stack>& stacks) {
    for (Stack& s : stacks) {
        recycle(std::move(s));
    }
    stacks.clear();
}

std::size_t default_stack_size() noexcept {
    // Read once: getenv walks the whole environment, and the per-create
    // mmap path (Ult(fn, default_stack_size())) asks on every spawn.
    static const std::size_t size = [] {
        if (const char* env = std::getenv("LWT_STACKSIZE")) {
            const long v = std::atol(env);
            if (v >= 4096) {
                return static_cast<std::size_t>(v);
            }
        }
        return std::size_t{64 * 1024};
    }();
    return size;
}

bool stack_huge_enabled() noexcept {
    if (const char* env = std::getenv("LWT_STACK_HUGE")) {
        return *env != '\0' && *env != '0';
    }
    return g_default_stack_huge.load(std::memory_order_relaxed) == 1;
}

void set_default_stack_huge(std::optional<bool> huge) {
    g_default_stack_huge.store(huge ? (*huge ? 1 : 0) : -1,
                               std::memory_order_relaxed);
}

void stack_thp_force_failure(bool fail) noexcept {
    g_thp_force_fail.store(fail, std::memory_order_relaxed);
}

std::uint64_t stack_map_count() noexcept {
    return g_stack_maps.load(std::memory_order_relaxed);
}

std::uint64_t stack_unmap_count() noexcept {
    return g_stack_unmaps.load(std::memory_order_relaxed);
}

std::uint64_t stack_thp_denied_count() noexcept {
    return g_thp_denied.load(std::memory_order_relaxed);
}

namespace {

// The default stack source's shared tier. Leaked: Ult destructors recycle
// stacks from thread_local destructor chains during static destruction.
// Cap 1024 (LWT_STACK_CACHE still overrides inside StackPool): the create
// benchmarks keep thousands of units live per burst, and a cap that
// swallows a whole burst is what turns per-spawn mmaps into pops.
SharedStackPool& default_source() {
    static SharedStackPool* pool =
        new SharedStackPool(default_stack_size(), /*max_cached=*/1024);
    return *pool;
}

StackCache& default_source_cache() {
    thread_local StackCache cache(&default_source());
    return cache;
}

}  // namespace

Stack acquire_default_stack() { return default_source_cache().acquire(); }

void recycle_default_stack(Stack s) noexcept {
    if (!s.valid()) {
        return;
    }
    if (s.usable() != default_source().stack_bytes()) {
        return;  // size mismatch: let RAII unmap it
    }
    default_source_cache().recycle(std::move(s));
}

std::size_t default_stack_source_cached() {
    return default_source().cached();
}

}  // namespace lwt::arch
