// region — a timestep loop of parallel-for regions (Fig. 4) on abt through
// glt, 2 streams. One op is one region: a spawn_bulk of 256 tasklets, then
// one wait. The main thread then sleeps 200 us (a blocking phase, so the
// other streams go idle and must be woken by the next region). No stacks,
// no per-unit joins: bulk submission, idle-stream wake-up and the aggregate
// join are what it measures.
//
// The gap is a sleep on purpose: with a serial compute phase as the gap,
// region latency was bimodal from run to run. The batch goes to the
// locality domain's shared pool, so every awake stream (the main thread
// too, while it waits) drains it: with the default round-robin over private
// pools, one stream slow to wake held its 64 tasklets hostage and p90
// swung 3x between runs.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "common.hpp"

namespace perfbench {
namespace {

namespace glt = lwt::glt;

constexpr std::size_t kUnits = 256;
/// Streams, the main thread's included. At 4 streams (every CPU of a 4-vCPU
/// VM) region's p90 followed the host's spare parallel capacity, swinging
/// 142-484 us across one set of five runs.
constexpr std::size_t kStreams = 2;
constexpr auto kGap = std::chrono::microseconds(200);

/// One tasklet's result slot, on its own cache line.
struct alignas(64) Slot {
    std::uint64_t value = 0;
    std::uint64_t begin = 0, end = 0;  // traced ops only
    std::int32_t stream = -1;
};

class Region final : public Workload {
  public:
    explicit Region(const Options& o)
        : opt_(o),
          slots_(kUnits),
          body_([this](std::size_t i) { run_unit(i); }),
          rt_(glt::init(runtime_options(glt::Backend::kAbt, kStreams))) {
        lat_.reserve(window_samples(o, 20000));
        for (int i = 0; i < 4; ++i) {
            op();  // the first regions allocate what later ones reuse
        }
    }

    void warm() override {
        for (int i = 0; i < (opt_.smoke ? 10 : 200); ++i) {
            op();
            std::this_thread::sleep_for(kGap);
        }
    }

    Phase measure(double seconds, bool traced) override {
        Phase ph;
        Windows win(window_seconds(opt_), process_cpu_ns);
        win.latency = &lat_;
        win.rate_over_busy = true;  // the gap, not the runtime, sets loop rate
        const Counters c0 = read_counters(*rt_);
        std::vector<double> bulk_ns, wake_us, drain_us, resume_us, main_share;
        double self_abt = 0, self_sched = 0, self_core = 0, rest_sum = 0,
               op_sum = 0;
        std::uint64_t ops = 0;
        tracing_ = traced;
        const std::uint64_t end =
            tsc() + static_cast<std::uint64_t>(seconds * 1e9 / ns_per_tick());
        win.start(0, 0);
        while (tsc() < end) {
            const Stamps s = op();
            ++ops;
            win.busy_ticks += static_cast<std::uint64_t>(ticks(s.bulk_b, s.wait_e));
            win.poll(ops * kUnits, ops);
            if (traced) {
                std::uint64_t first = UINT64_MAX, first_remote = UINT64_MAX,
                              last = 0;
                std::size_t on_main = 0;
                for (const Slot& u : slots_) {
                    first = std::min(first, u.begin);
                    last = std::max(last, u.end);
                    if (u.stream == 0) {
                        ++on_main;
                    } else {
                        first_remote = std::min(first_remote, u.begin);
                    }
                }
                bulk_ns.push_back(
                    ticks_to_ns(ticks(s.bulk_b, s.bulk_e)) /
                    kUnits);
                const std::uint64_t wake_end =
                    first_remote == UINT64_MAX ? s.bulk_b : first_remote;
                if (first_remote != UINT64_MAX) {
                    wake_us.push_back(
                        ticks_to_us(ticks(s.bulk_b, first_remote)));
                }
                drain_us.push_back(ticks_to_us(ticks(first, last)));
                resume_us.push_back(
                    ticks_to_us(ticks(last, s.wait_e)));
                main_share.push_back(static_cast<double>(on_main) / kUnits);
                const std::pair<std::uint64_t, std::uint64_t> parts[] = {
                    {s.bulk_b, s.bulk_e},
                    {s.bulk_b, wake_end},
                    {first, last},
                    {last, s.wait_e}};
                double rest = 0;
                const std::vector<double> ex =
                    attribute(s.op_b, s.op_e, parts, &rest);
                self_abt += ex[0];
                self_sched += ex[1] + ex[2];
                self_core += ex[3];
                rest_sum += rest;
                op_sum += ticks(s.op_b, s.op_e);
                if (ph.spans.size() < kMaxTracedOpsWithSpans * 5) {
                    const std::uint64_t id = ops - 1;
                    ph.spans.push_back({"region", id, 0, -1, s.op_b, s.op_e, 0});
                    ph.spans.push_back(
                        {"abt.spawn_bulk", id, 1, 0, s.bulk_b, s.bulk_e, 0});
                    ph.spans.push_back(
                        {"sched.wake", id, 2, 0, s.bulk_b, wake_end, -1});
                    ph.spans.push_back({"sched.drain", id, 3, 0, first, last, -1});
                    ph.spans.push_back(
                        {"core.wait.resume", id, 4, 0, last, s.wait_e, 0});
                }
            }
            std::this_thread::sleep_for(kGap);
        }
        tracing_ = false;
        if (win.rate.empty()) {
            win.close(ops * kUnits, ops);
        }
        const Counters c1 = read_counters(*rt_);
        ph.ops = ops;
        Samples* const parts[] = {&lat_};
        set_latency(ph, parts);
        ph.rate = std::move(win.rate);
        ph.cpu_us_per_op = std::move(win.cpu_us_per_op);
        add_sched_layers(ph.layers, c0, c1, ops);
        if (!traced) {
            return ph;
        }
        const double n = static_cast<double>(ops);
        auto& L = ph.layers;
        L["abt.spawn_bulk_ns_per_unit"] = median(bulk_ns);
        L["sched.wake_us"] = median(wake_us);
        L["sched.drain_us"] = median(drain_us);
        L["core.wait.resume_us"] = median(resume_us);
        L["sched.main_share"] = mean(main_share);
        L["region.abt.self_us_per_op"] = ticks_to_us(self_abt) / n;
        L["region.sched.self_us_per_op"] = ticks_to_us(self_sched) / n;
        L["region.core.self_us_per_op"] = ticks_to_us(self_core) / n;
        L["region.op.self_us_per_op"] = ticks_to_us(rest_sum) / n;
        char line[512];
        std::snprintf(line, sizeof line,
                      "region, mean per op (us): op %.2f = abt.spawn_bulk "
                      "%.2f + sched (wake, drain) %.2f + core.wait.resume %.2f "
                      "+ unexplained (incl. the slot check) %.2f",
                      ticks_to_us(op_sum) / n, L["region.abt.self_us_per_op"],
                      L["region.sched.self_us_per_op"],
                      L["region.core.self_us_per_op"],
                      L["region.op.self_us_per_op"]);
        ph.breakdown = line;
        return ph;
    }

  private:
    struct Stamps {
        std::uint64_t op_b, bulk_b, bulk_e, wait_e, op_e;
    };

    /// One op: a region, checked slot by slot after the wait.
    Stamps op() {
        Stamps s{};
        s.op_b = tsc();
        progress().begin();
        ++seq_;
        s.bulk_b = tsc();
        glt::BulkHandle h = rt_->spawn_bulk(kUnits, body_, glt::UnitKind::kTasklet,
                                            glt::Placement::domain(0));
        s.bulk_e = tsc();
        rt_->wait(h);
        s.wait_e = tsc();
        lat_.add(s.bulk_b, s.wait_e);
        bool ok = true;
        for (const Slot& u : slots_) {
            ok = ok && u.value == seq_;
        }
        s.op_e = tsc();
        progress().end(ok);
        return s;
    }

    void run_unit(std::size_t i) {
        Slot& u = slots_[i];
        if (tracing_) {
            u.begin = tsc();
            u.stream = lwt::abt::Library::self_xstream_rank();
        }
        const std::uint64_t x =
            spin_work(mix(opt_.seed ^ (seq_ << 9) ^ i) | 1, kLeafIters);
        u.value = seq_ + (x == 0 ? 1 : 0);
        if (tracing_) {
            u.end = tsc();
        }
    }

    Options opt_;
    std::vector<Slot> slots_;
    glt::BulkBody body_;
    Samples lat_;
    std::uint64_t seq_ = 0;
    bool tracing_ = false;
    // Declared last: destroyed first, joining every stream before the slots
    // above go away.
    std::unique_ptr<glt::Runtime> rt_;
};

}  // namespace

std::unique_ptr<Workload> make_region(const Options& o) {
    return std::make_unique<Region>(o);
}

}  // namespace perfbench
