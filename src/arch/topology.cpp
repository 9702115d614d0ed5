#include "arch/topology.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>

#include "arch/cpu.hpp"

namespace lwt::arch {
namespace {

/// Read a small integer file like
/// /sys/devices/system/cpu/cpu3/topology/core_id; -1 on failure.
long read_sysfs_long(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "re");
    if (f == nullptr) {
        return -1;
    }
    long value = -1;
    if (std::fscanf(f, "%ld", &value) != 1) {
        value = -1;
    }
    std::fclose(f);
    return value;
}

bool ieq(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i]))) {
            return false;
        }
    }
    return true;
}

}  // namespace

namespace {

/// Programmatic defaults behind the env vars; see topology.hpp. Guarded by
/// a mutex: setters run from init paths, getters from library boots.
struct ArchDefaults {
    std::mutex mutex;
    std::string topology_spec;
    std::optional<BindPolicy> bind;
};

ArchDefaults& arch_defaults() {
    static ArchDefaults d;
    return d;
}

}  // namespace

void set_default_topology_spec(std::string spec) {
    ArchDefaults& d = arch_defaults();
    std::lock_guard g(d.mutex);
    d.topology_spec = std::move(spec);
}

void set_default_bind_policy(std::optional<BindPolicy> policy) {
    ArchDefaults& d = arch_defaults();
    std::lock_guard g(d.mutex);
    d.bind = policy;
}

BindPolicy resolve_bind_policy() {
    if (const char* env = std::getenv("LWT_BIND")) {
        return bind_policy_from_string(env, BindPolicy::kNone);
    }
    ArchDefaults& d = arch_defaults();
    std::lock_guard g(d.mutex);
    return d.bind.value_or(BindPolicy::kNone);
}

BindPolicy bind_policy_from_string(const char* name,
                                   BindPolicy fallback) noexcept {
    if (name == nullptr) {
        return fallback;
    }
    const std::string_view s(name);
    if (ieq(s, "none")) {
        return BindPolicy::kNone;
    }
    if (ieq(s, "compact")) {
        return BindPolicy::kCompact;
    }
    if (ieq(s, "scatter")) {
        return BindPolicy::kScatter;
    }
    return fallback;
}

Topology::Topology(std::vector<CpuInfo> cpus) : cpus_(std::move(cpus)) {
    std::sort(cpus_.begin(), cpus_.end(),
              [](const CpuInfo& a, const CpuInfo& b) {
                  if (a.package_id != b.package_id) {
                      return a.package_id < b.package_id;
                  }
                  if (a.core_id != b.core_id) {
                      return a.core_id < b.core_id;
                  }
                  return a.cpu_id < b.cpu_id;
              });
}

Topology Topology::discover() {
    std::vector<CpuInfo> cpus;
    const unsigned n = hardware_threads();
    for (unsigned cpu = 0; cpu < n; ++cpu) {
        const std::string base =
            "/sys/devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
        const long core = read_sysfs_long(base + "core_id");
        const long pkg = read_sysfs_long(base + "physical_package_id");
        CpuInfo info;
        info.cpu_id = cpu;
        info.core_id = core >= 0 ? static_cast<unsigned>(core) : cpu;
        info.package_id = pkg >= 0 ? static_cast<unsigned>(pkg) : 0;
        cpus.push_back(info);
    }
    Topology topo(std::move(cpus));
    topo.synthetic_ = false;
    return topo;
}

std::optional<Topology> Topology::from_spec(std::string_view spec) {
    // "PxCxT" or "PxC": up to three positive decimal extents split on
    // 'x'/'X'. Anything else (including trailing junk) is malformed.
    unsigned extents[3] = {0, 0, 1};
    std::size_t n_extents = 0;
    const char* p = spec.data();
    const char* end = spec.data() + spec.size();
    while (true) {
        if (n_extents >= 3) {
            return std::nullopt;
        }
        unsigned value = 0;
        const auto [next, ec] = std::from_chars(p, end, value);
        if (ec != std::errc{} || value == 0) {
            return std::nullopt;
        }
        extents[n_extents++] = value;
        p = next;
        if (p == end) {
            break;
        }
        if (*p != 'x' && *p != 'X') {
            return std::nullopt;
        }
        ++p;
    }
    if (n_extents < 2) {
        return std::nullopt;
    }
    const unsigned packages = extents[0];
    const unsigned cores = extents[1];
    const unsigned threads = extents[2];
    std::vector<CpuInfo> cpus;
    cpus.reserve(static_cast<std::size_t>(packages) * cores * threads);
    unsigned cpu_id = 0;
    for (unsigned pkg = 0; pkg < packages; ++pkg) {
        for (unsigned core = 0; core < cores; ++core) {
            for (unsigned t = 0; t < threads; ++t) {
                cpus.push_back(CpuInfo{cpu_id++, core, pkg});
            }
        }
    }
    return Topology(std::move(cpus));
}

Topology Topology::from_env_or_discover() {
    if (const char* spec = std::getenv("LWT_TOPOLOGY")) {
        if (auto topo = from_spec(spec)) {
            return *std::move(topo);
        }
        std::fprintf(stderr,
                     "[lwt] ignoring malformed LWT_TOPOLOGY=\"%s\" "
                     "(expected PxCxT, e.g. 2x18x2)\n",
                     spec);
    }
    std::string def;
    {
        ArchDefaults& d = arch_defaults();
        std::lock_guard g(d.mutex);
        def = d.topology_spec;
    }
    if (!def.empty()) {
        if (auto topo = from_spec(def)) {
            return *std::move(topo);
        }
        std::fprintf(stderr,
                     "[lwt] ignoring malformed RuntimeOptions topology "
                     "\"%s\" (expected PxCxT, e.g. 2x18x2)\n",
                     def.c_str());
    }
    return discover();
}

std::vector<LocalityDomain> Topology::domains() const {
    std::vector<LocalityDomain> out;
    // cpus_ is sorted by (package, core, cpu): one scan builds the list.
    for (const CpuInfo& c : cpus_) {
        if (out.empty() || out.back().package_id != c.package_id) {
            out.push_back(LocalityDomain{c.package_id, {}});
        }
        out.back().cpus.push_back(c.cpu_id);
    }
    return out;
}

std::size_t Topology::num_packages() const {
    std::set<unsigned> pkgs;
    for (const CpuInfo& c : cpus_) {
        pkgs.insert(c.package_id);
    }
    return pkgs.size();
}

std::size_t Topology::num_cores() const {
    std::set<std::pair<unsigned, unsigned>> cores;
    for (const CpuInfo& c : cpus_) {
        cores.insert({c.package_id, c.core_id});
    }
    return cores.size();
}

std::vector<unsigned> Topology::plan(BindPolicy policy,
                                     std::size_t count) const {
    std::vector<unsigned> out;
    if (policy == BindPolicy::kNone || cpus_.empty()) {
        return out;  // empty plan = no binding
    }
    out.reserve(count);
    if (policy == BindPolicy::kCompact) {
        // cpus_ is already sorted (package, core, cpu): fill in order.
        for (std::size_t i = 0; i < count; ++i) {
            out.push_back(cpus_[i % cpus_.size()].cpu_id);
        }
        return out;
    }
    // kScatter: interleave across packages. Bucket CPUs per package, then
    // take one from each bucket round-robin.
    std::vector<std::vector<unsigned>> buckets;
    {
        std::vector<unsigned> pkg_ids;
        for (const CpuInfo& c : cpus_) {
            auto it = std::find(pkg_ids.begin(), pkg_ids.end(), c.package_id);
            std::size_t idx;
            if (it == pkg_ids.end()) {
                pkg_ids.push_back(c.package_id);
                buckets.emplace_back();
                idx = buckets.size() - 1;
            } else {
                idx = static_cast<std::size_t>(it - pkg_ids.begin());
            }
            buckets[idx].push_back(c.cpu_id);
        }
    }
    std::vector<std::size_t> cursor(buckets.size(), 0);
    std::size_t bucket = 0;
    for (std::size_t i = 0; i < count; ++i) {
        // Find the next bucket with unconsumed CPUs (wrapping; all buckets
        // recycle once exhausted).
        for (std::size_t probe = 0; probe < buckets.size(); ++probe) {
            const std::size_t b = (bucket + probe) % buckets.size();
            if (!buckets[b].empty()) {
                out.push_back(buckets[b][cursor[b] % buckets[b].size()]);
                ++cursor[b];
                bucket = b + 1;
                break;
            }
        }
    }
    return out;
}

std::string Topology::describe() const {
    std::ostringstream out;
    const std::size_t pkgs = num_packages();
    const std::size_t cores = num_cores();
    out << pkgs << (pkgs == 1 ? " package x " : " packages x ")
        << (pkgs != 0 ? cores / pkgs : cores) << " cores x "
        << (cores != 0 ? cpus_.size() / cores : cpus_.size()) << " threads";
    return out.str();
}

bool apply_binding(const std::vector<unsigned>& plan, std::size_t index) {
    if (plan.empty()) {
        return true;  // kNone
    }
    return bind_this_thread(plan[index % plan.size()]);
}

}  // namespace lwt::arch
