// observability.hpp — env-driven arm/flush of the tracer and metrics.
//
// Every runtime object (core::Runtime, which the five personality
// Libraries boot through, and momp::Runtime) holds one
// ObservabilitySession. The FIRST session of the process reads the
// environment and arms the process-wide recorders; when the LAST session
// detaches (outermost runtime teardown), the recorded data is flushed. That gives every bench, test, and personality the same
// switches with zero per-runtime wiring:
//
//   LWT_TRACE=out.json      record unit lifecycles, write a Chrome-trace
//                           JSON (Perfetto / chrome://tracing) at shutdown
//   LWT_METRICS=1           record unit-latency histograms; print the
//                           per-stream table to stderr at shutdown
//   LWT_METRICS=out.json    same, plus a machine-readable JSON dump
//
// Runtimes nest (glt -> personality -> core::Runtime); the refcount makes
// the flush fire exactly once per quiescent period, after the outermost
// teardown. Repeated boot/teardown cycles (bench sweeps) re-record and
// re-flush; the trace file reflects the last cycle.
#pragma once

#include <iosfwd>
#include <string>

namespace lwt::core {

class ObservabilitySession {
  public:
    ObservabilitySession();
    ~ObservabilitySession();
    ObservabilitySession(const ObservabilitySession&) = delete;
    ObservabilitySession& operator=(const ObservabilitySession&) = delete;
};

/// True when LWT_TRACE / LWT_METRICS armed the recorders (set at first
/// attach; tests use it to verify env parsing).
bool observability_armed() noexcept;

/// Programmatic sink defaults (glt::RuntimeOptions plumbing): `trace_path`
/// stands in for LWT_TRACE and `metrics` for LWT_METRICS ("1"/"true" =
/// stderr table, "*.json" = table + JSON dump), but only where the
/// corresponding env var is unset — env always wins. When no session is
/// currently attached, the recorders re-arm at the next attach, so calling
/// this between runtime boots (bench sweeps) re-routes the sinks; empty
/// strings clear.
void observability_set_defaults(std::string trace_path, std::string metrics);

/// Render the human-readable metrics report (per-stream latency
/// histograms, registry counters/gauges, trace event counts) to `os`.
/// What LWT_METRICS=1 prints to stderr at shutdown.
void print_metrics_report(std::ostream& os);

/// Write the machine-readable metrics dump (same content as the report)
/// as JSON. Returns false on IO failure.
bool write_metrics_json(const std::string& path);

/// Snapshot the allocator-layer totals into the MetricsRegistry:
/// alloc.unit_cache.{allocs,hits,misses} counters, alloc.slab.bytes and
/// alloc.stack.{maps,unmaps,thp_denied} gauges, plus — when
/// LWT_CREATE_AUDIT armed the accounting mode — create.count,
/// create.atomics and create.alloc_ticks/samples. The sources are
/// process-lifetime shard sums, so publishing is idempotent (set, not
/// add); the shutdown flush and every /metrics scrape call this.
void publish_alloc_metrics();

}  // namespace lwt::core
