// patterns.hpp — the paper's microbenchmark patterns (§VII/§VIII) as
// backend-parameterized runners.
//
// One PatternRunner per evaluated library configuration (§IX's selections:
// Argobots ULT/Tasklet × private/shared pools, Qthreads per-CPU shepherds
// with fork_to vs one node shepherd, MassiveThreads work-first/help-first,
// Converse Messages, Go, gcc/icc mini-OpenMP). The Argobots, Qthreads and
// MassiveThreads configurations share one runner over glt::Runtime; each
// runner implements the five patterns; the fig*_ benches time them and the
// integration tests validate their results.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace lwt::patterns {

/// Library configurations evaluated in the paper's figures.
enum class Variant {
    kPthreads,  ///< raw OS threads (Table I's baseline column)
    kAbtUltPrivate,
    kAbtUltShared,
    kAbtTaskletPrivate,
    kAbtTaskletShared,
    kQthPerCpu,          // one shepherd per CPU + fork_to round-robin
    kQthSingleShepherd,  // one shepherd for the node, N workers
    kMthWorkFirst,
    kMthHelpFirst,
    kCvtMessages,
    kGolShared,
    kOmpGcc,
    kOmpIcc,
};

std::string_view variant_name(Variant variant);

/// All variants, in the order the paper's figure legends list them.
const std::vector<Variant>& all_variants();

/// Per-element work callback (i) and nested callback (i, j).
using ElemFn = std::function<void(std::size_t)>;
using Elem2Fn = std::function<void(std::size_t, std::size_t)>;

/// A booted library configuration able to run every pattern. Construction
/// boots the runtime (outside the measured region, as in the paper);
/// destruction finalises it.
class PatternRunner {
  public:
    virtual ~PatternRunner() = default;

    [[nodiscard]] virtual Variant variant() const = 0;
    [[nodiscard]] virtual std::size_t threads() const = 0;

    /// Units created per thread by the create/join pattern. Default 1 is
    /// the paper's figure ("one work unit per thread"); benches raise it
    /// (LWTBENCH_UNITS) to study batching effects, since a batch of
    /// `threads` units is too small to amortize anything.
    void set_units_per_thread(std::size_t units) {
        units_per_thread_ = units == 0 ? 1 : units;
    }
    [[nodiscard]] std::size_t units_per_thread() const {
        return units_per_thread_;
    }

    /// Figures 2+3: create one work unit per thread running `body`, then
    /// join them; returns (create_ms, join_ms) measured around exactly
    /// those two phases (runtime boot excluded, as in the paper).
    virtual std::pair<double, double> create_join_times(
        const std::function<void()>& body) = 0;

    /// Figures 2+3 through the bulk fast path: the same unit count, but
    /// created with ONE batched submission (backend-native bulk creation)
    /// and joined with ONE aggregate join. Backends without a bulk
    /// primitive (Pthreads) fall back to the per-unit path, which is the
    /// honest baseline cost.
    virtual std::pair<double, double> create_join_times_bulk(
        const std::function<void()>& body) {
        return create_join_times(body);
    }

    /// Figure 4: an n-iteration for loop split into one chunk per thread.
    virtual void for_loop(std::size_t n, const ElemFn& body) = 0;

    /// Figure 4 through the bulk fast path: the same chunking, submitted
    /// as one batch. Defaults to the per-unit path.
    virtual void for_loop_bulk(std::size_t n, const ElemFn& body) {
        for_loop(n, body);
    }

    /// Figure 5: n tasks created by a single thread, one per element.
    virtual void task_single(std::size_t n, const ElemFn& body) = 0;

    /// Figure 6: two-step — work is first spread across threads, then each
    /// thread creates its own n/threads tasks.
    virtual void task_parallel(std::size_t n, const ElemFn& body) = 0;

    /// Figure 7: nested for loops (outer iterations each spawn `threads`
    /// units dividing the inner loop).
    virtual void nested_for(std::size_t outer, std::size_t inner,
                            const Elem2Fn& body) = 0;

    /// Figure 8: `parents` tasks from a single creator; each spawns
    /// `children` child tasks.
    virtual void nested_task(std::size_t parents, std::size_t children,
                             const Elem2Fn& body) = 0;

  protected:
    /// Total units one create/join repetition submits.
    [[nodiscard]] std::size_t unit_count() const {
        return threads() * units_per_thread_;
    }

  private:
    std::size_t units_per_thread_ = 1;
};

/// Boot a runner for `variant` with `threads` workers.
std::unique_ptr<PatternRunner> make_runner(Variant variant,
                                           std::size_t threads);

/// The paper's kernel (Listing 5): v[i] *= a, one BLAS-1 Sscal element per
/// work unit. Helper used by tests and benches.
struct Sscal {
    explicit Sscal(std::size_t n, float init = 2.0f, float alpha = 0.5f)
        : v(n, init), alpha(alpha), init(init) {}

    void apply(std::size_t i) { v[i] *= alpha; }
    [[nodiscard]] bool verify_once() const {
        for (float x : v) {
            if (x != init * alpha) {
                return false;
            }
        }
        return true;
    }
    void reset() { std::fill(v.begin(), v.end(), init); }

    std::vector<float> v;
    float alpha;
    float init;
};

}  // namespace lwt::patterns
