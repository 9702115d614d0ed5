// Tests for the unified GLT API (the paper's future-work common API),
// exercised over every backend.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "core/xstream.hpp"
#include "glt/glt.hpp"
#include "idle_policy_pin.hpp"

namespace {

using lwt::glt::Backend;
using lwt::glt::backend_from_name;
using lwt::glt::backend_name;
using lwt::glt::Placement;
using lwt::glt::Runtime;
using lwt::glt::UnitToken;

TEST(GltNames, RoundTrip) {
    for (Backend b : {Backend::kAbt, Backend::kQth, Backend::kMth,
                      Backend::kCvt, Backend::kGol}) {
        ASSERT_TRUE(backend_from_name(backend_name(b)).has_value());
        EXPECT_EQ(backend_from_name(backend_name(b)).value(), b);
    }
    EXPECT_FALSE(backend_from_name("nope").has_value());
    EXPECT_FALSE(backend_from_name("").has_value());
}

TEST(GltNames, CaseAndWhitespaceInsensitive) {
    // Names usually arrive via environment variables; tolerate the obvious
    // config typos instead of silently selecting the default backend.
    EXPECT_EQ(backend_from_name(" Abt"), Backend::kAbt);
    EXPECT_EQ(backend_from_name("ABT"), Backend::kAbt);
    EXPECT_EQ(backend_from_name("qTh\n"), Backend::kQth);
    EXPECT_EQ(backend_from_name("\tMTH "), Backend::kMth);
    EXPECT_EQ(backend_from_name("Cvt"), Backend::kCvt);
    EXPECT_EQ(backend_from_name("GOL"), Backend::kGol);
    EXPECT_FALSE(backend_from_name("a bt").has_value());
    EXPECT_FALSE(backend_from_name("abtx").has_value());
    EXPECT_FALSE(backend_from_name("   ").has_value());
}

TEST(GltPlacement, ValueSemantics) {
    EXPECT_TRUE(Placement().is_any());
    EXPECT_EQ(Placement(), Placement::any());
    EXPECT_EQ(Placement::worker(3).kind(), Placement::Kind::kWorker);
    EXPECT_EQ(Placement::worker(3).index(), 3u);
    EXPECT_EQ(Placement::domain(1).kind(), Placement::Kind::kDomain);
    EXPECT_FALSE(Placement::worker(0) == Placement::domain(0));
    // The deprecated int encoding maps -1 -> any, >= 0 -> worker.
    EXPECT_EQ(Placement::from_where(-1), Placement::any());
    EXPECT_EQ(Placement::from_where(2), Placement::worker(2));
}

class GltBackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(GltBackendTest, CreateReportsBackend) {
    auto rt = Runtime::create(GetParam(), 2);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->backend(), GetParam());
    EXPECT_GE(rt->num_workers(), 1u);
}

TEST_P(GltBackendTest, UltCreateJoinRunsBody) {
    auto rt = Runtime::create(GetParam(), 2);
    std::atomic<int> ran{0};
    UnitToken t = rt->ult_create([&] { ran.fetch_add(1); });
    ASSERT_TRUE(t.valid());
    rt->join(t);
    EXPECT_EQ(ran.load(), 1);
    EXPECT_FALSE(t.valid());
}

TEST_P(GltBackendTest, TaskletCreateJoinRunsBody) {
    auto rt = Runtime::create(GetParam(), 2);
    std::atomic<int> ran{0};
    UnitToken t = rt->tasklet_create([&] { ran.fetch_add(1); });
    rt->join(t);
    EXPECT_EQ(ran.load(), 1);
}

TEST_P(GltBackendTest, ListingFourPseudoCode) {
    // The paper's Listing 4: N creations, a yield, N joins.
    auto rt = Runtime::create(GetParam(), 2);
    constexpr int kN = 100;
    std::atomic<int> ran{0};
    std::vector<UnitToken> tokens;
    tokens.reserve(kN);
    for (int i = 0; i < kN; ++i) {
        tokens.push_back(rt->ult_create([&] { ran.fetch_add(1); }));
    }
    rt->yield();
    rt->join_all(tokens);
    EXPECT_EQ(ran.load(), kN);
}

TEST_P(GltBackendTest, DroppedTokenAndBulkHandleLeaveRunningUnitsSafe) {
    // Dropping a token or a bulk handle before its units finish must not
    // free what they still signal: the FEB word, the sinc or counter, the
    // done flag or the channel. abt and mth handles join on drop, so the
    // units finish on their own instead of waiting on the test.
    std::atomic<int> finished{0};
    auto rt = Runtime::create(GetParam(), 2);
    auto unit = [&finished] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        finished.fetch_add(1);
    };
    {
        UnitToken t = rt->ult_create(unit, Placement::worker(1));
        lwt::glt::BulkHandle h = rt->spawn_bulk(
            4, [unit](std::size_t) { unit(); }, lwt::glt::UnitKind::kUlt,
            Placement::worker(1));
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (finished.load() < 5 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(finished.load(), 5);
}

TEST_P(GltBackendTest, PlacementHintsAccepted) {
    auto rt = Runtime::create(GetParam(), 3);
    std::atomic<int> ran{0};
    std::vector<UnitToken> tokens;
    for (int i = 0; i < 12; ++i) {
        tokens.push_back(rt->ult_create([&] { ran.fetch_add(1); },
                                        Placement::worker(i % 3)));
    }
    rt->join_all(tokens);
    EXPECT_EQ(ran.load(), 12);
}

TEST_P(GltBackendTest, PlacementRoundTripAllKinds) {
    // Every backend must accept every Placement kind — backends without
    // the matching routing ignore the hint, they never reject or crash.
    auto rt = Runtime::create(GetParam(), 2);
    std::atomic<int> ran{0};
    std::vector<UnitToken> tokens;
    for (Placement p : {Placement::any(), Placement::worker(1),
                        Placement::domain(0), Placement::domain(7)}) {
        tokens.push_back(rt->ult_create([&] { ran.fetch_add(1); }, p));
        tokens.push_back(rt->tasklet_create([&] { ran.fetch_add(1); }, p));
        auto h = rt->spawn_bulk(4, [&](std::size_t) { ran.fetch_add(1); },
                                lwt::glt::UnitKind::kUlt, p);
        rt->wait(h);
    }
    rt->join_all(tokens);
    EXPECT_EQ(ran.load(), 4 * (2 + 4));
}

TEST_P(GltBackendTest, SscalKernelMatchesSerial) {
    auto rt = Runtime::create(GetParam(), 2);
    constexpr std::size_t kN = 200;
    std::vector<float> v(kN, 6.0f);
    std::vector<UnitToken> tokens;
    tokens.reserve(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        tokens.push_back(rt->tasklet_create([&v, i] { v[i] /= 3.0f; }));
    }
    rt->join_all(tokens);
    for (float x : v) {
        ASSERT_FLOAT_EQ(x, 2.0f);
    }
}

TEST_P(GltBackendTest, TaskletCapabilityMatchesTableOne) {
    auto rt = Runtime::create(GetParam(), 2);
    // Table I: only Argobots and Converse Threads support tasklets.
    const bool expect_native =
        GetParam() == Backend::kAbt || GetParam() == Backend::kCvt;
    EXPECT_EQ(rt->capabilities().native_tasklets, expect_native);
}

TEST_P(GltBackendTest, CapabilitiesMatchTableOne) {
    auto rt = Runtime::create(GetParam(), 2);
    const lwt::glt::Capabilities caps = rt->capabilities();
    // Every backend implements the batched v2 creation path natively.
    EXPECT_TRUE(caps.native_bulk);
    // Placement: abt pools, qth shepherds, cvt PEs; mth and gol have no
    // targetable queues (Table I "cross-queue creation" / single run queue).
    const bool expect_hints = GetParam() == Backend::kAbt ||
                              GetParam() == Backend::kQth ||
                              GetParam() == Backend::kCvt;
    EXPECT_EQ(caps.placement_hints, expect_hints);
    // Go is the only backend without a yield (Table I).
    EXPECT_EQ(caps.yieldable, GetParam() != Backend::kGol);
    // Domain routing exists exactly where placement hints do; without a
    // topology override the map is flat, i.e. a single domain.
    if (expect_hints) {
        EXPECT_GE(caps.locality_domains, 1u);
    } else {
        EXPECT_EQ(caps.locality_domains, 0u);
        EXPECT_TRUE(rt->domain_workers(0).empty());
    }
}

TEST_P(GltBackendTest, JoinAllSpanOverload) {
    auto rt = Runtime::create(GetParam(), 2);
    std::atomic<int> ran{0};
    std::vector<UnitToken> tokens;
    for (int i = 0; i < 8; ++i) {
        tokens.push_back(rt->ult_create([&] { ran.fetch_add(1); }));
    }
    rt->join_all(std::span<UnitToken>(tokens.data(), tokens.size()));
    EXPECT_EQ(ran.load(), 8);
    for (const UnitToken& t : tokens) {
        EXPECT_FALSE(t.valid());
    }
}

TEST_P(GltBackendTest, SchedStatsAggregateAcrossWorkers) {
    auto rt = Runtime::create(GetParam(), 2);
    std::vector<UnitToken> tokens;
    for (int i = 0; i < 32; ++i) {
        tokens.push_back(rt->ult_create([] {}));
    }
    rt->join_all(std::span<UnitToken>(tokens.data(), tokens.size()));
    // Counters aggregate across every worker of every backend; the exact
    // values are timing-dependent, but the accounting invariants are not.
    const lwt::core::SchedStats s = rt->sched_stats();
    EXPECT_LE(s.steal_hits, s.steal_attempts);
    EXPECT_LE(s.steal_empty + s.steal_lost, s.steal_attempts);
    EXPECT_LE(s.unparks, s.parks);
}

TEST_P(GltBackendTest, ParkPolicyReachesEveryBackend) {
    lwt::glt::RuntimeOptions opts;
    opts.backend = GetParam();
    opts.workers = 2;
    opts.idle = lwt::sync::IdlePolicy::kPark;
    lwt::test::IdlePolicyEnvPin pin;
    auto rt = lwt::glt::init(opts);
    pin.restore();
    std::vector<UnitToken> tokens;
    for (int i = 0; i < 16; ++i) {
        tokens.push_back(rt->ult_create([] {}));
    }
    rt->join_all(std::span<UnitToken>(tokens.data(), tokens.size()));
    // Out of work, every dedicated stream climbs the idle ladder to the
    // park rung within microseconds; allow a loaded host 2 s.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (rt->sched_stats().parks == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::uint64_t parks = rt->sched_stats().parks;
    rt.reset();
    lwt::core::set_default_idle_policy(std::nullopt);
    EXPECT_GT(parks, 0u);
}

TEST_P(GltBackendTest, TraceWindowCollectsStatsAndExports) {
    auto rt = Runtime::create(GetParam(), 2);
    lwt::glt::trace_begin();
    std::vector<UnitToken> tokens;
    for (int i = 0; i < 8; ++i) {
        tokens.push_back(rt->ult_create([] {}));
    }
    rt->join_all(std::span<UnitToken>(tokens.data(), tokens.size()));
    // gol (channel receive) and cvt (done flag) signal their join token
    // from inside the unit body, so join_all can return while the worker
    // is still switching back to its scheduler — which is what stamps
    // kFinish. Wait out that trailing bookkeeping boundedly.
    lwt::glt::Stats mid = lwt::glt::stats();
    for (int spin = 0;
         spin < 2000 && mid.trace.of(lwt::core::TraceEvent::kFinish) < 8u;
         ++spin) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        mid = lwt::glt::stats();
    }
    EXPECT_GE(mid.trace.of(lwt::core::TraceEvent::kCreate), 8u);
    EXPECT_GE(mid.trace.of(lwt::core::TraceEvent::kFinish), 8u);
    const std::string path = "glt_trace_" +
                             std::string(lwt::glt::backend_name(GetParam())) +
                             ".json";
    ASSERT_TRUE(lwt::glt::trace_end(path));
    // trace_end clears the event ring but keeps the latency histograms.
    EXPECT_EQ(lwt::glt::stats().trace.of(lwt::core::TraceEvent::kCreate), 0u);
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char first = static_cast<char>(std::fgetc(f));
    std::fclose(f);
    EXPECT_EQ(first, '{');
}

// --- domain-targeted placement under a synthetic topology -----------------------

TEST(GltDomainPlacement, DomainSpawnsLandOnlyOnThatPackage) {
    // Paper-style 2-package fixture: with 4 workers compact-grouped over
    // 2x2x1, domain 0 owns workers {0, 1} and domain 1 owns {2, 3}. Every
    // unit spawned with Placement::domain(1) must execute on a worker of
    // domain 1 — the per-package pools are scanned by nobody else.
    ::setenv("LWT_TOPOLOGY", "2x2x1", 1);
    for (Backend b : {Backend::kAbt, Backend::kQth, Backend::kCvt}) {
        SCOPED_TRACE(std::string(backend_name(b)));
        auto rt = Runtime::create(b, 4);
        ASSERT_EQ(rt->capabilities().locality_domains, 2u);
        const std::vector<std::size_t> workers = rt->domain_workers(1);
        ASSERT_EQ(workers, (std::vector<std::size_t>{2, 3}));
        EXPECT_EQ(rt->domain_workers(0), (std::vector<std::size_t>{0, 1}));
        EXPECT_TRUE(rt->domain_workers(2).empty());

        std::array<std::atomic<int>, 4> per_rank{};
        std::atomic<int> elsewhere{0};
        auto record = [&] {
            lwt::core::XStream* s = lwt::core::XStream::current();
            if (s != nullptr && s->rank() < per_rank.size()) {
                per_rank[s->rank()].fetch_add(1);
            } else {
                elsewhere.fetch_add(1);
            }
        };
        std::vector<UnitToken> tokens;
        for (int i = 0; i < 8; ++i) {
            tokens.push_back(rt->ult_create(record, Placement::domain(1)));
        }
        auto h = rt->spawn_bulk(16, [&](std::size_t) { record(); },
                                lwt::glt::UnitKind::kUlt,
                                Placement::domain(1));
        rt->wait(h);
        rt->join_all(tokens);
        EXPECT_EQ(elsewhere.load(), 0);
        EXPECT_EQ(per_rank[0].load(), 0) << "domain-0 worker ran domain-1 work";
        EXPECT_EQ(per_rank[1].load(), 0) << "domain-0 worker ran domain-1 work";
        EXPECT_EQ(per_rank[2].load() + per_rank[3].load(), 24);
    }
    ::unsetenv("LWT_TOPOLOGY");
}

TEST(GltPersonalityConfig, QthWorkerPlacementFollowsShepherdLayout) {
    // Two shepherds of two workers: workers 0-1 drain shepherd 0's queue
    // and 2-3 shepherd 1's, so a worker(i) unit runs beside worker i.
    auto rt = Runtime::create(
        lwt::qth::Config{.num_shepherds = 2, .workers_per_shepherd = 2});
    ASSERT_EQ(rt->num_workers(), 4u);
    for (std::size_t w = 0; w < 4; ++w) {
        std::size_t ran_on = 99;
        UnitToken t = rt->ult_create(
            [&ran_on] { ran_on = lwt::core::XStream::current()->rank(); },
            Placement::worker(w));
        rt->join(t);
        EXPECT_EQ(ran_on / 2, w / 2) << "worker(" << w << ") ran on " << ran_on;
    }
}

// --- RuntimeOptions / init ------------------------------------------------------

TEST(GltRuntimeOptions, InitAppliesProgrammaticDefaults) {
    // No LWT_TOPOLOGY in the env: the programmatic spec must shape the
    // locality map exactly as the env var would.
    ::unsetenv("LWT_TOPOLOGY");
    lwt::glt::RuntimeOptions opts;
    opts.backend = Backend::kAbt;
    opts.workers = 4;
    opts.topology = "2x2x1";
    opts.idle = lwt::sync::IdlePolicy::kSpin;
    opts.stack_cache = 8;
    auto rt = lwt::glt::init(opts);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->backend(), Backend::kAbt);
    EXPECT_EQ(rt->num_workers(), 4u);
    EXPECT_EQ(rt->capabilities().locality_domains, 2u);
    EXPECT_EQ(rt->domain_workers(1), (std::vector<std::size_t>{2, 3}));
    rt.reset();
    // Defaults persist process-wide until replaced: a plain init() resets
    // them, and the next runtime sees the machine topology again.
    auto plain = lwt::glt::init();
    EXPECT_NE(plain->capabilities().locality_domains, 2u)
        << "cleared topology default still in effect";
}

TEST(GltRuntimeOptions, EnvWinsOverProgrammaticValue) {
    ::setenv("LWT_TOPOLOGY", "1x2x1", 1);
    lwt::glt::RuntimeOptions opts;
    opts.backend = Backend::kAbt;
    opts.workers = 2;
    opts.topology = "2x1x1";  // must lose to the env var
    auto rt = lwt::glt::init(opts);
    EXPECT_EQ(rt->capabilities().locality_domains, 1u);
    ::unsetenv("LWT_TOPOLOGY");
    rt.reset();
    lwt::glt::init();  // clear the defaults for later tests
}

TEST(GltRuntimeOptions, FromEnvReadsBackendAndWorkers) {
    ::setenv("GLT_BACKEND", "cvt", 1);
    ::setenv("GLT_NUM_WORKERS", "3", 1);
    const lwt::glt::RuntimeOptions opts = lwt::glt::RuntimeOptions::from_env();
    EXPECT_EQ(opts.backend, Backend::kCvt);
    EXPECT_EQ(opts.workers, 3u);
    ::unsetenv("GLT_BACKEND");
    ::unsetenv("GLT_NUM_WORKERS");
}

TEST(GltEnv, CreateFromEnvHonoursVariables) {
    ::setenv("GLT_BACKEND", "gol", 1);
    ::setenv("GLT_NUM_WORKERS", "2", 1);
    auto rt = Runtime::create_from_env();
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->backend(), Backend::kGol);
    EXPECT_EQ(rt->num_workers(), 2u);
    ::unsetenv("GLT_BACKEND");
    ::unsetenv("GLT_NUM_WORKERS");
}

TEST(GltEnv, CreateFromEnvDefaultsToAbtAndIgnoresLegacyAlias) {
    ::unsetenv("GLT_BACKEND");
    ::unsetenv("GLT_NUM_WORKERS");
    // The legacy GLT_WORKERS alias was dropped in v2: setting it must not
    // change the worker count vs the plain default.
    auto defaulted = Runtime::create(Backend::kAbt, 0);
    ::setenv("GLT_WORKERS", "7", 1);
    auto rt = Runtime::create_from_env();
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->backend(), Backend::kAbt);
    EXPECT_EQ(rt->num_workers(), defaulted->num_workers());
    ::unsetenv("GLT_WORKERS");
}

TEST(GltEnv, BackendNameToleratesCaseAndSpace) {
    ::setenv("GLT_BACKEND", " GOL ", 1);
    ::setenv("GLT_NUM_WORKERS", "2", 1);
    auto rt = Runtime::create_from_env();
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->backend(), Backend::kGol);
    ::unsetenv("GLT_BACKEND");
    ::unsetenv("GLT_NUM_WORKERS");
}

INSTANTIATE_TEST_SUITE_P(Backends, GltBackendTest,
                         ::testing::Values(Backend::kAbt, Backend::kQth,
                                           Backend::kMth, Backend::kCvt,
                                           Backend::kGol),
                         [](const auto& info) {
                             return std::string(backend_name(info.param));
                         });

}  // namespace
