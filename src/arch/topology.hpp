// topology.hpp — hardware topology discovery and stream-binding policies.
//
// Qthreads binds shepherds/workers "to several types of hardware resources
// (nodes, sockets, cores, or processing units)" (§III-D); the paper's
// machine description (2 sockets × 18 cores × 2 threads) is exactly this
// hierarchy. This module reads the Linux sysfs topology and computes CPU
// assignments for the common binding policies so personalities can pin
// their streams.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lwt::arch {

/// One logical CPU as the kernel reports it.
struct CpuInfo {
    unsigned cpu_id = 0;      ///< logical CPU index
    unsigned core_id = 0;     ///< physical core within the package
    unsigned package_id = 0;  ///< socket
};

/// How to lay consecutive streams onto CPUs.
enum class BindPolicy {
    kNone,     ///< do not bind
    kCompact,  ///< fill a core/socket before moving on (cache sharing)
    kScatter,  ///< round-robin across sockets first (bandwidth spreading)
};

/// Parse a policy name ("none" | "compact" | "scatter", case-insensitive);
/// `fallback` on null or anything else. Personalities pass
/// getenv("LWT_BIND") here so a run can be re-pinned without a rebuild.
[[nodiscard]] BindPolicy bind_policy_from_string(const char* name,
                                                 BindPolicy fallback) noexcept;

// --- Programmatic defaults (glt::RuntimeOptions plumbing) -------------------
//
// Each knob resolves in the same order everywhere: environment variable if
// set (a run can always be re-tuned without a rebuild), else the
// programmatic default installed here (glt::init(RuntimeOptions)), else
// the built-in default. Setters take effect for runtimes booted
// *after* the call; empty / nullopt clears the default.

/// Default topology fixture spec consulted by Topology::from_env_or_discover
/// when LWT_TOPOLOGY is unset (same "PxCxT" grammar as from_spec).
void set_default_topology_spec(std::string spec);

/// Default stream-binding policy consulted by resolve_bind_policy when
/// LWT_BIND is unset.
void set_default_bind_policy(std::optional<BindPolicy> policy);

/// LWT_BIND if set, else the programmatic default, else kNone. What every
/// personality boot calls in place of reading LWT_BIND itself.
[[nodiscard]] BindPolicy resolve_bind_policy();

/// One locality domain: a package (socket) and the CPUs it owns. The
/// granularity Qthreads' shepherd binding and our per-package overflow
/// pools work at; SMT-sibling and core grouping live in LocalityMap
/// (locality.hpp), which maps *streams* rather than CPUs.
struct LocalityDomain {
    unsigned package_id = 0;     ///< raw package id as the kernel names it
    std::vector<unsigned> cpus;  ///< logical CPU ids, (core, cpu) order
};

/// Snapshot of the visible topology.
class Topology {
  public:
    /// Discover from /sys (falls back to a flat topology of
    /// hardware_threads() CPUs when sysfs is unavailable).
    static Topology discover();

    /// Parse a synthetic fixture spec "PxCxT" (packages x cores-per-package
    /// x threads-per-core, e.g. the paper machine "2x18x2"); "PxC" implies
    /// one thread per core. CPU ids are assigned sequentially in
    /// (package, core, thread) order. Empty optional on malformed specs or
    /// zero extents. The result is synthetic(): plans describe *placement*
    /// only and are never applied to real CPUs.
    static std::optional<Topology> from_spec(std::string_view spec);

    /// LWT_TOPOLOGY override (a from_spec() string) when set and valid,
    /// else discover(). The override is how tests/CI reproduce the paper's
    /// 2-socket hierarchy on any host.
    static Topology from_env_or_discover();

    /// Build from an explicit CPU list (tests, synthetic topologies).
    /// Explicitly-built topologies are synthetic().
    explicit Topology(std::vector<CpuInfo> cpus);

    [[nodiscard]] std::size_t num_cpus() const { return cpus_.size(); }
    [[nodiscard]] std::size_t num_packages() const;
    [[nodiscard]] std::size_t num_cores() const;  // distinct (package, core)
    [[nodiscard]] const std::vector<CpuInfo>& cpus() const { return cpus_; }

    /// True for fixture topologies (from_spec / explicit CPU lists): the
    /// layout describes a *pretend* machine, so placement planning applies
    /// but thread binding must not.
    [[nodiscard]] bool synthetic() const noexcept { return synthetic_; }

    /// The package-level locality domains, ascending by package id.
    [[nodiscard]] std::vector<LocalityDomain> domains() const;

    /// CPU assignment for `count` streams under `policy` (entries are
    /// logical CPU ids; streams beyond the CPU count wrap around).
    [[nodiscard]] std::vector<unsigned> plan(BindPolicy policy,
                                             std::size_t count) const;

    /// Human-readable one-liner ("2 packages x 18 cores x 2 threads").
    [[nodiscard]] std::string describe() const;

  private:
    std::vector<CpuInfo> cpus_;  // sorted by (package, core, cpu)
    bool synthetic_ = true;      // discover() clears it
};

/// Bind the calling thread according to a plan entry (wraps
/// bind_this_thread; no-op for BindPolicy::kNone plans, which are empty).
bool apply_binding(const std::vector<unsigned>& plan, std::size_t index);

}  // namespace lwt::arch
