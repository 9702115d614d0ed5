// stream_dir.hpp — process-wide directory of live execution streams.
//
// Observability consumers (the obs introspection server, the stall
// watchdog, the /metrics live-stream exposition) need to find every
// XStream in the process no matter who built it — core::Runtime (behind
// every personality) or a test driving a bare XStream — so every stream
// registers here. XStream adds itself at the end of construction and
// removes itself at the top of destruction, so a pointer observed inside
// for_each() is always a fully-constructed, not-yet-destroyed stream.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "sync/spinlock.hpp"

namespace lwt::core {

class XStream;

/// Registry of live XStreams. Registration order is preserved (ranks are
/// per-runtime, not unique process-wide, so consumers report position +
/// rank).
class StreamDirectory {
  public:
    static StreamDirectory& instance();

    void add(XStream* stream);
    void remove(XStream* stream);

    /// Number of live streams right now (approximate the instant it
    /// returns).
    [[nodiscard]] std::size_t size() const;

    /// Visit every live stream under the directory lock: pointers are
    /// valid for the duration of the visit. `fn` must not register or
    /// unregister streams (deadlock) and should stay short — stream
    /// construction/destruction blocks while it runs.
    void for_each(const std::function<void(XStream&)>& fn) const;

  private:
    StreamDirectory() = default;

    mutable sync::Spinlock lock_;
    std::vector<XStream*> streams_;
};

/// Watchdog armament: when true, XStream::run_unit stamps the dispatch
/// TSC of the unit it is about to run (exec_start_tsc) so the watchdog
/// can spot runaway units. One relaxed load on the dispatch path; off by
/// default so the fig2 per-unit cost is untouched.
[[nodiscard]] bool watchdog_armed() noexcept;
void set_watchdog_armed(bool armed) noexcept;

}  // namespace lwt::core
