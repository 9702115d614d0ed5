// Interoperability tests: multiple personalities coexisting in one process
// — the scenario the paper's proposed common API must survive (a high-level
// PM built on one LWT library linked next to an application using another).
#include <gtest/gtest.h>

#include <atomic>

#include "abt/abt.hpp"
#include "glt/glt.hpp"
#include "gol/gol.hpp"
#include "momp/momp.hpp"
#include "qth/qth.hpp"

namespace {

TEST(Interop, ThreePersonalitiesSideBySide) {
    // abt + qth + gol booted simultaneously; each runs its own work.
    lwt::abt::Config ac;
    ac.num_xstreams = 2;
    lwt::abt::Library abt(ac);

    lwt::qth::Config qc;
    qc.num_shepherds = 2;
    qc.workers_per_shepherd = 1;
    lwt::qth::Library qth(qc);

    lwt::gol::Config gc;
    gc.num_threads = 2;
    lwt::gol::Library gol(gc);

    std::atomic<int> abt_ran{0}, qth_ran{0}, gol_ran{0};

    lwt::abt::UnitHandle h = abt.thread_create([&] { abt_ran.fetch_add(1); }, 1);
    lwt::qth::aligned_t ret = 0;
    qth.fork_to([&] { qth_ran.fetch_add(1); }, &ret, 0);
    lwt::gol::WaitGroup wg;
    wg.add(1);
    gol.go([&] {
        gol_ran.fetch_add(1);
        wg.done();
    });

    h.free();
    qth.read_ff(&ret);
    wg.wait();

    EXPECT_EQ(abt_ran.load(), 1);
    EXPECT_EQ(qth_ran.load(), 1);
    EXPECT_EQ(gol_ran.load(), 1);
}

TEST(Interop, TwoGltRuntimesConcurrently) {
    auto a = lwt::glt::Runtime::create(lwt::glt::Backend::kAbt, 2);
    auto b = lwt::glt::Runtime::create(lwt::glt::Backend::kGol, 2);
    std::atomic<int> total{0};
    std::vector<lwt::glt::UnitToken> ta, tb;
    for (int i = 0; i < 20; ++i) {
        ta.push_back(a->ult_create([&] { total.fetch_add(1); }));
        tb.push_back(b->ult_create([&] { total.fetch_add(1); }));
    }
    a->join_all(ta);
    b->join_all(tb);
    EXPECT_EQ(total.load(), 40);
}

TEST(Interop, SequentialLibraryLifetimes) {
    // Boot/finalize cycles must leave no residue (thread-locals, tracer,
    // stack source are process-global).
    for (int round = 0; round < 3; ++round) {
        lwt::abt::Config c;
        c.num_xstreams = 2;
        lwt::abt::Library lib(c);
        std::atomic<int> ran{0};
        lwt::abt::UnitHandle h =
            lib.thread_create([&] { ran.fetch_add(1); }, 1);
        h.free();
        ASSERT_EQ(ran.load(), 1) << "round " << round;
    }
    SUCCEED();
}

TEST(Interop, MompInsideProcessWithLwtRuntimes) {
    // An OpenMP-like region running while an LWT runtime is live — the
    // hybrid the paper's conclusion envisions migrating away from.
    lwt::abt::Config ac;
    ac.num_xstreams = 2;
    lwt::abt::Library abt(ac);

    lwt::momp::Config mc;
    mc.flavor = lwt::momp::Flavor::kGcc;
    mc.num_threads = 2;
    mc.wait_policy = lwt::momp::WaitPolicy::kPassive;
    lwt::momp::Runtime omp(mc);

    std::atomic<int> omp_ran{0};
    std::atomic<int> abt_ran{0};
    lwt::abt::UnitHandle h = abt.thread_create([&] { abt_ran.fetch_add(1); }, 1);
    omp.parallel_for(100, [&](std::size_t) { omp_ran.fetch_add(1); });
    h.free();

    EXPECT_EQ(omp_ran.load(), 100);
    EXPECT_EQ(abt_ran.load(), 1);
}

}  // namespace
