// tree — the paper's recursive nested-task pattern (Fig. 8, fib) on abt
// through glt, 2 streams, the main thread as stream 0. One op is one binary
// fork-join tree: each internal node ult_creates its left child, recurses
// into its right child in place, then joins the left child. Per-unit
// create, stack and join-handoff costs are most of its time.
#include <algorithm>
#include <cstdio>

#include "common.hpp"

namespace perfbench {
namespace {

namespace glt = lwt::glt;

/// Streams, the main thread's included. At 4 streams (every CPU of a 4-vCPU
/// VM) tree's p50 followed the host's spare parallel capacity, ranging
/// 2.0-4.6 ms across one set of five runs; 2 streams did about the same
/// tasks/s on 58% of the CPU.
constexpr std::size_t kStreams = 2;

/// Stamps of one node in a traced tree; each node writes only its own.
struct alignas(64) NodeRec {
    std::uint64_t start = 0, end = 0;
    std::uint64_t create_b = 0, create_e = 0;
    std::uint64_t join_b = 0, join_e = 0;
    std::uint64_t leaf_b = 0, leaf_e = 0;
};

struct NodeFlags {
    std::atomic<std::uint8_t> done{0};  // node's last instruction ran
    std::uint8_t ready = 0;             // left child done when join began
    std::int16_t stream = -1;
};

class Tree final : public Workload {
  public:
    explicit Tree(const Options& o)
        : opt_(o),
          depth_(o.smoke ? 6 : 10),
          nodes_((2u << depth_) - 1),
          first_leaf_(1u << depth_),
          recs_(nodes_ + 1),
          flags_(new NodeFlags[nodes_ + 1]),
          rt_(glt::init(runtime_options(glt::Backend::kAbt, kStreams))) {
        lat_.reserve(window_samples(o, 20000));
        op(false);  // maps the stacks and fills the unit cache
    }

    void warm() override {
        for (int i = 0; i < (opt_.smoke ? 3 : 50); ++i) {
            op(false);
        }
    }

    Phase measure(double seconds, bool traced) override {
        Phase ph;
        Windows win(window_seconds(opt_), process_cpu_ns);
        win.latency = &lat_;
        const Counters c0 = read_counters(*rt_);
        std::vector<double> create_ns, dispatch_us, ready_ns, handoff_us,
            leaf_ns;
        double self_abt = 0, self_core = 0, self_app = 0, self_node = 0;
        std::uint64_t ops = 0;
        const std::uint64_t end =
            tsc() + static_cast<std::uint64_t>(seconds * 1e9 / ns_per_tick());
        win.start(0, 0);
        while (tsc() < end) {
            hang_ = opt_.inject_hang && ops == 2;
            op(traced);
            ++ops;
            win.poll(ops * nodes_, ops);
            if (!traced) {
                continue;
            }
            for (std::uint32_t k = 1; k <= nodes_; ++k) {
                const NodeRec& r = recs_[k];
                const double busy = ticks(r.start, r.end);
                if (k >= first_leaf_) {
                    const double leaf = ticks(r.leaf_b, r.leaf_e);
                    leaf_ns.push_back(ticks_to_ns(leaf));
                    self_app += leaf;
                    self_node += std::max(0.0, busy - leaf);
                    continue;
                }
                const NodeRec& left = recs_[2 * k];
                const NodeRec& right = recs_[2 * k + 1];
                const double create = ticks(r.create_b, r.create_e);
                const double join = ticks(r.join_b, r.join_e);
                create_ns.push_back(ticks_to_ns(create));
                dispatch_us.push_back(ticks_to_us(ticks(r.create_b, left.start)));
                if (flags_[k].ready != 0) {
                    ready_ns.push_back(ticks_to_ns(join));
                } else {
                    handoff_us.push_back(ticks_to_us(ticks(left.end, r.join_e)));
                }
                self_abt += create;
                self_core += join;
                self_node += std::max(
                    0.0, busy - create - join - ticks(right.start, right.end));
            }
            if (ph.spans.size() + 6 * nodes_ <= kMaxSpans) {
                add_spans(ph.spans, ops - 1);
            }
        }
        if (win.rate.empty()) {
            win.close(ops * nodes_, ops);
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
        const double tasks = static_cast<double>(ops) * nodes_;
        auto& L = ph.layers;
        L["abt.create_ns"] = median(create_ns);
        L["core.dispatch_us"] = median(dispatch_us);
        L["core.join.ready_ns"] = median(ready_ns);
        L["core.join.handoff_us"] = median(handoff_us);
        L["app.leaf_ns"] = median(leaf_ns);
        const auto allocs = static_cast<double>(c1.cache_allocs - c0.cache_allocs);
        L["alloc.unit_cache.hit_ratio"] =
            allocs > 0 ? static_cast<double>(c1.cache_hits - c0.cache_hits) /
                             allocs
                       : 0.0;
        L["alloc.stack.maps_per_op"] =
            static_cast<double>(c1.stack_maps - c0.stack_maps) /
            static_cast<double>(ops);
        L["tree.abt.self_ns_per_task"] = ticks_to_ns(self_abt) / tasks;
        L["tree.core.self_ns_per_task"] = ticks_to_ns(self_core) / tasks;
        L["tree.app.self_ns_per_task"] = ticks_to_ns(self_app) / tasks;
        L["tree.op.self_ns_per_task"] = ticks_to_ns(self_node) / tasks;
        const double joins = static_cast<double>(ready_ns.size() + handoff_us.size());
        char line[512];
        std::snprintf(
            line, sizeof line,
            "tree, per task (ns; spans overlap across streams): abt.create "
            "%.1f + core.join %.1f (%.0f%% of joins waited) + app.leaf %.1f "
            "+ node remainder %.1f; %u tasks per op",
            L["tree.abt.self_ns_per_task"], L["tree.core.self_ns_per_task"],
            joins > 0 ? 100.0 * static_cast<double>(handoff_us.size()) / joins
                      : 0.0,
            L["tree.app.self_ns_per_task"], L["tree.op.self_ns_per_task"],
            nodes_);
        ph.breakdown = line;
        return ph;
    }

  private:
    /// One op: a whole tree, checked against the closed form of its sum.
    void op(bool traced) {
        progress().begin();
        offset_ = mix(opt_.seed ^ (tree_no_ << 20)) % 1000;
        if (traced) {
            for (std::uint32_t k = 1; k <= nodes_; ++k) {
                flags_[k].done.store(0, std::memory_order_relaxed);
            }
            rec_ = recs_.data();
        }
        // The root is a ULT too: with the main thread running the root's
        // recursion itself, its nested native-thread joins hung within a
        // few hundred trees on this runtime.
        const std::uint64_t t0 = tsc();
        std::int64_t sum = 0;
        glt::UnitToken root =
            rt_->ult_create([this, &sum] { sum = node(1, depth_); });
        rt_->join(root);
        lat_.add(t0, tsc());
        rec_ = nullptr;
        const auto leaves = static_cast<std::int64_t>(first_leaf_);
        const std::int64_t expect =
            leaves * (leaves - 1) / 2 + leaves * static_cast<std::int64_t>(offset_);
        progress().end(sum == expect);
        ++tree_no_;
    }

    std::int64_t node(std::uint32_t k, int depth) {
        NodeRec* r = rec_ != nullptr ? &rec_[k] : nullptr;
        if (r != nullptr) {
            r->start = tsc();
            flags_[k].stream = static_cast<std::int16_t>(
                lwt::abt::Library::self_xstream_rank());
        }
        std::int64_t v = 0;
        if (depth == 0) {
            if (r != nullptr) {
                r->leaf_b = tsc();
            }
            std::uint64_t x = spin_work(
                mix(opt_.seed ^ (tree_no_ << 20) ^ k) | 1, kLeafIters);
            while (hang_ && k == first_leaf_) {
                x = spin_work(x, kLeafIters);  // the op that never returns
            }
            if (r != nullptr) {
                r->leaf_e = tsc();
            }
            v = static_cast<std::int64_t>(k - first_leaf_ + offset_) +
                (x == 0 ? 1 : 0);
        } else {
            // A join that returned before its child finished leaves the
            // poison in place and the root's sum check fails.
            std::int64_t left = -(std::int64_t{1} << 40);
            if (r != nullptr) {
                r->create_b = tsc();
            }
            glt::UnitToken child = rt_->ult_create(
                [this, &left, k, depth] { left = node(2 * k, depth - 1); });
            if (r != nullptr) {
                r->create_e = tsc();
            }
            const std::int64_t right = node(2 * k + 1, depth - 1);
            if (r != nullptr) {
                flags_[k].ready =
                    flags_[2 * k].done.load(std::memory_order_acquire);
                r->join_b = tsc();
            }
            rt_->join(child);
            if (r != nullptr) {
                r->join_e = tsc();
            }
            v = left + right;
        }
        if (r != nullptr) {
            r->end = tsc();
            flags_[k].done.store(1, std::memory_order_release);
        }
        return v;
    }

    void add_spans(std::vector<Span>& out, std::uint64_t op) const {
        // Span ids: 8k + {0 node, 1 create, 2 dispatch, 3 join, 4 handoff,
        // 5 leaf}. A left child's node span has its parent's create span as
        // parent; a right child's, its parent's node span.
        for (std::uint32_t k = 1; k <= nodes_; ++k) {
            const NodeRec& r = recs_[k];
            const std::int32_t id = static_cast<std::int32_t>(8 * k);
            const std::int32_t s = flags_[k].stream;
            const std::int32_t parent =
                k == 1 ? -1
                       : static_cast<std::int32_t>(8 * (k / 2) + (k % 2 == 0 ? 1 : 0));
            out.push_back({"node", op, id, parent, r.start, r.end, s});
            if (k >= first_leaf_) {
                out.push_back({"app.leaf", op, id + 5, id, r.leaf_b, r.leaf_e, s});
                continue;
            }
            const NodeRec& left = recs_[2 * k];
            out.push_back({"abt.create", op, id + 1, id, r.create_b, r.create_e, s});
            out.push_back({"core.dispatch", op, id + 2, id + 1, r.create_b,
                           left.start, flags_[2 * k].stream});
            out.push_back({"core.join", op, id + 3, id, r.join_b, r.join_e, s});
            if (flags_[k].ready == 0) {
                out.push_back({"core.join.handoff", op, id + 4, id + 3,
                               std::min(left.end, r.join_e), r.join_e, s});
            }
        }
    }

    Options opt_;
    int depth_;
    std::uint32_t nodes_;
    std::uint32_t first_leaf_;
    std::vector<NodeRec> recs_;
    std::unique_ptr<NodeFlags[]> flags_;
    Samples lat_;
    std::uint64_t tree_no_ = 0;
    std::uint64_t offset_ = 0;
    NodeRec* rec_ = nullptr;  // set for traced ops only
    bool hang_ = false;
    // Declared last: destroyed first, joining every stream before the
    // records above go away.
    std::unique_ptr<glt::Runtime> rt_;
};

}  // namespace

std::unique_ptr<Workload> make_tree(const Options& o) {
    return std::make_unique<Tree>(o);
}

}  // namespace perfbench
