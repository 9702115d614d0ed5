// join.hpp — the direct-handoff join protocol (docs/join_path.md).
//
// Replaces the poll-the-state joins the paper criticizes: a joiner
// registers itself in the unit's atomic joiner slot and suspends (ULT) or
// parks (OS thread); the terminating stream exchanges the slot and issues
// exactly ONE wakeup. Before suspending, the joiner first tries to *steal*
// the join target: if the unit is still kReady in a removable pool it runs
// the child itself (work-first, the Cilk/MassiveThreads discipline),
// saving the full queue round-trip Figures 3/8 measure. A ULT joiner whose
// child terminates on the joiner's own stream resumes right behind it, as
// that stream's next unit, instead of at the tail of its pool.
//
// LWT_JOIN=poll restores the old polling joins for A/B ablation.
#pragma once

#include <cstdint>

#include "core/work_unit.hpp"

namespace lwt::core {

class EventCounter;
class XStream;

/// Which join implementation the process uses (LWT_JOIN=handoff|poll,
/// default handoff). Cached after the first read; tests may override with
/// set_join_mode().
enum class JoinMode : std::uint8_t {
    kHandoff,  ///< joiner-slot registration + direct wake (default)
    kPoll,     ///< pre-handoff behaviour: poll terminated() in a yield loop
};

[[nodiscard]] JoinMode join_mode() noexcept;

/// Override the cached mode (tests A/B both paths in one process; also
/// applied when the LWT_JOIN env changes can't reach the cache).
void set_join_mode(JoinMode mode) noexcept;

/// Block until `unit` terminated AND its joiner slot is published, using
/// the handoff protocol (or the poll fallback under LWT_JOIN=poll). On
/// return the caller may reclaim the unit. At most one joiner per unit;
/// a second concurrent joiner degrades to polling, and with two joiners
/// the unit may only be reclaimed once BOTH have returned (the waiting
/// side must keep reading the unit's state).
void join_unit(WorkUnit* unit);

/// Register a countdown EventCounter as `unit`'s joiner: the terminator
/// will signal() it. Returns false when the unit already terminated (or
/// the slot is occupied) — the caller must balance the count itself.
bool register_counter_joiner(WorkUnit* unit, EventCounter* counter) noexcept;

/// Terminator side: stamp the signal->resume clock (unit-side before the
/// exchange, and into WAITER-owned memory — the joiner's obs_handoff_tsc
/// or the thread waiter record — for a registered, suspended joiner),
/// publish the joiner slot, and wake whoever was registered. A blocked ULT
/// joiner whose home pool is `stream`'s main pool becomes `stream`'s next
/// unit instead of joining that pool's tail. Called by the terminating
/// stream's XStream::finish_unit for every non-detached unit; the exchange
/// is the terminator's LAST access to the unit.
void publish_termination(WorkUnit* unit, XStream* stream) noexcept;

}  // namespace lwt::core
