#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "serving/engine.hh"
#include "serving/lockstep_backend.hh"
#include "serving/workload.hh"
#include "test_util.hh"

namespace vattn::serving
{
namespace
{

EngineConfig
baseConfig(perf::BackendKind kind, bool caching)
{
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.tp_degree = 1;
    config.backend = kind;
    config.scheduler.max_num_seqs = 64;
    config.scheduler.max_batched_tokens = 16384;
    config.vattn.max_batch_size = 64;
    config.enable_prefix_caching = caching;
    return config;
}

std::vector<Request>
sharedTrace()
{
    auto trace = sharedSystemPromptTrace(/*n=*/64, /*tenants=*/4,
                                         /*system_tokens=*/4096,
                                         /*user_mean=*/256, /*seed=*/3);
    assignOfflineArrivals(trace);
    return trace;
}

// ---- Trace generator ------------------------------------------------

TEST(SharedSystemPromptTrace, EmitsRealTokenIdsWithSharedPrefixes)
{
    const auto trace = sharedSystemPromptTrace(40, 4, 1024, 128, 11);
    ASSERT_EQ(trace.size(), 40u);
    int shared_pairs = 0;
    for (const Request &r : trace) {
        ASSERT_TRUE(r.hasTokenIds());
        EXPECT_EQ(static_cast<i64>(r.token_ids.size()),
                  r.prompt_tokens);
        EXPECT_GT(r.prompt_tokens, 1024);
    }
    // Requests of the same tenant share the full system prompt;
    // different tenants share nothing at the front.
    for (std::size_t i = 1; i < trace.size(); ++i) {
        const auto &a = trace[0].token_ids;
        const auto &b = trace[i].token_ids;
        const bool same_tenant =
            std::equal(a.begin(), a.begin() + 1024, b.begin());
        if (same_tenant) {
            ++shared_pairs;
        } else {
            EXPECT_NE(a[0], b[0]);
        }
    }
    EXPECT_GT(shared_pairs, 0);
}

TEST(SharedSystemPromptTrace, DeterministicForSeed)
{
    const auto a = sharedSystemPromptTrace(10, 2, 256, 64, 5);
    const auto b = sharedSystemPromptTrace(10, 2, 256, 64, 5);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].token_ids, b[i].token_ids);
        EXPECT_EQ(a[i].max_new_tokens, b[i].max_new_tokens);
    }
}

// ---- End-to-end, both backends --------------------------------------

class PrefixCachingEndToEnd
    : public ::testing::TestWithParam<perf::BackendKind>
{
};

TEST_P(PrefixCachingEndToEnd, DisabledRunsReportNoPrefixActivity)
{
    Engine engine(baseConfig(GetParam(), /*caching=*/false));
    const auto report = engine.run(sharedTrace());
    EXPECT_EQ(report.num_requests, 64);
    EXPECT_EQ(report.prefix_lookups, 0);
    EXPECT_EQ(report.prefix_hits, 0);
    EXPECT_EQ(report.prefill_tokens_saved, 0);
    EXPECT_EQ(report.prefix_aliased_bytes, 0u);
}

TEST_P(PrefixCachingEndToEnd, SharedPromptsHitAndSavePrefill)
{
    Engine off_engine(baseConfig(GetParam(), false));
    const auto off = off_engine.run(sharedTrace());

    Engine on_engine(baseConfig(GetParam(), true));
    const auto on = on_engine.run(sharedTrace());

    // Same work served.
    EXPECT_EQ(on.num_requests, off.num_requests);
    EXPECT_EQ(on.prompt_tokens, off.prompt_tokens);
    EXPECT_EQ(on.decode_tokens, off.decode_tokens);

    // The cache was consulted for every admission and hits dominate
    // (4 tenants x 16 requests; only the first of each tenant can
    // miss, modulo same-iteration co-admissions).
    EXPECT_EQ(on.prefix_lookups, 64);
    EXPECT_GT(on.prefix_hits, 32);
    // >= 50% of all prompt tokens were served from cache (the §8.1
    // acceptance bar), and sharing was physical.
    EXPECT_GE(on.prefillSavedFraction(), 0.5);
    EXPECT_GT(on.prefix_aliased_bytes, 0u);

    // Cutting ~80% of prefill work must show up end to end.
    EXPECT_LT(on.ttft_s.median(), off.ttft_s.median());
    EXPECT_LT(on.makespan_ns, off.makespan_ns);
}

INSTANTIATE_TEST_SUITE_P(Backends, PrefixCachingEndToEnd,
                         ::testing::Values(
                             perf::BackendKind::kFa2Paged,
                             perf::BackendKind::kFa2VAttention));

// ---- vAttention-specific: aliasing is observable at the driver ------

TEST(PrefixCachingVAttention, AliasedPageGroupsVisibleViaNumMappings)
{
    Engine engine(baseConfig(perf::BackendKind::kFa2VAttention, true));
    auto *backend = engine.vattnBackend();
    ASSERT_NE(backend, nullptr);

    // Two concurrent requests with a shared 2-group prefix: the
    // second aliases the first's physical page-groups.
    const i64 tpg = backend->runtime().geometry().tokensPerGroup();
    std::vector<i32> base(static_cast<std::size_t>(2 * tpg + 128));
    std::iota(base.begin(), base.end(), 1);

    std::vector<Request> trace(2);
    for (int i = 0; i < 2; ++i) {
        auto &r = trace[static_cast<std::size_t>(i)];
        r.id = static_cast<u64>(i);
        r.token_ids = base;
        // Diverge after the shared aligned groups.
        r.token_ids[static_cast<std::size_t>(2 * tpg + 10)] += i;
        r.prompt_tokens = static_cast<i64>(r.token_ids.size());
        r.max_new_tokens = 64;
        r.arrival_ns = static_cast<TimeNs>(i) * 1'000'000;
    }
    const auto report = engine.run(std::move(trace));
    EXPECT_EQ(report.prefix_hits, 1);
    EXPECT_EQ(report.prefill_tokens_saved, 2 * tpg);
    EXPECT_GT(report.prefix_aliased_bytes, 0u);
    // The runtime recorded true multi-mapping: one handle, two VAs
    // (the acceptance criterion's Driver::numMappings() > 1 is
    // asserted directly at the core layer in test_prefix_reuse).
    EXPECT_GT(backend->runtime().stats().prefix_aliased_handles, 0);
}

// ---- Admission accounts only un-cached bytes ------------------------

class PrefixAdmission
    : public ::testing::TestWithParam<perf::BackendKind>
{
  protected:
    /** r1 holds most of the KV budget while r2 (same prefix + short
     *  suffix) arrives: without the prefix discount r2 cannot be
     *  admitted until r1 finishes. */
    static std::vector<Request>
    twoRequestTrace()
    {
        std::vector<i32> base(4000);
        std::iota(base.begin(), base.end(), 7);
        std::vector<Request> trace(2);
        trace[0].id = 0;
        trace[0].token_ids = base;
        trace[0].prompt_tokens = 4000;
        trace[0].max_new_tokens = 512;
        trace[0].arrival_ns = 0;
        trace[1].id = 1;
        trace[1].token_ids = base;
        for (int i = 0; i < 100; ++i) {
            trace[1].token_ids.push_back(1'000'000 + i);
        }
        trace[1].prompt_tokens = 4100;
        trace[1].max_new_tokens = 16;
        trace[1].arrival_ns = 5'000'000'000; // after r1's prefill
        return trace;
    }

    static EngineConfig
    tightConfig(perf::BackendKind kind, bool caching)
    {
        EngineConfig config = baseConfig(kind, caching);
        // Yi-6B: 64KB KV/token. Paged: 400 blocks of 16 tokens.
        // vAttention (2MB groups, 64 buffers, 2048 tokens/group):
        // 340 groups — room for r1's 3 group-rows (192 handles) plus
        // r2's private tail-copy and suffix rows (128), but not a
        // fresh 4100-token prompt (192 more). Background allocation
        // is disabled so the arithmetic is exact.
        config.kv_budget_override =
            perf::isPaged(kind) ? 400 * MiB : 680 * MiB;
        config.vattn.eager_allocation = false;
        config.vattn.overlap_allocation = false;
        return config;
    }
};

TEST_P(PrefixAdmission, DiscountedDemandAdmitsSharerEarly)
{
    // Without caching, r2's full prompt cannot fit beside r1: it
    // waits, and the batch never exceeds 1.
    Engine off_engine(tightConfig(GetParam(), false));
    const auto off = off_engine.run(twoRequestTrace());
    EXPECT_EQ(off.num_requests, 2);
    EXPECT_EQ(off.peak_batch, 1);

    // With caching, canAdmit sees only the 100-token un-cached
    // suffix (the same helper feeds the starvation check, so the
    // engine agrees with itself): r2 runs alongside r1.
    Engine on_engine(tightConfig(GetParam(), true));
    const auto on = on_engine.run(twoRequestTrace());
    EXPECT_EQ(on.num_requests, 2);
    EXPECT_EQ(on.peak_batch, 2);
    EXPECT_EQ(on.prefix_hits, 1);
    EXPECT_GT(on.prefill_tokens_saved, 3000);
    EXPECT_EQ(on.preemptions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, PrefixAdmission,
                         ::testing::Values(
                             perf::BackendKind::kFa2Paged,
                             perf::BackendKind::kFa2VAttention));

// ---- Invariants under serving-shaped churn --------------------------

TEST(PrefixCachingVAttention, InvariantsHoldAcrossAServingRun)
{
    Engine engine(baseConfig(perf::BackendKind::kFa2VAttention, true));
    auto trace = sharedSystemPromptTrace(48, 3, 2048, 128, 13);
    assignPoissonArrivals(trace, 4.0, 17);
    const auto report = engine.run(std::move(trace));
    EXPECT_EQ(report.num_requests, 48);
    EXPECT_GT(report.prefix_hits, 0);
    ASSERT_NE(engine.vattnBackend(), nullptr);
    EXPECT_TRUE(test::auditClean(engine.vattnBackend()->runtime()));
}

TEST(PrefixCachingPaged, BlockManagerInvariantsHoldAcrossAServingRun)
{
    Engine engine(baseConfig(perf::BackendKind::kFa2Paged, true));
    auto trace = sharedSystemPromptTrace(48, 3, 2048, 128, 13);
    assignPoissonArrivals(trace, 4.0, 17);
    const auto report = engine.run(std::move(trace));
    EXPECT_EQ(report.num_requests, 48);
    EXPECT_GT(report.prefix_hits, 0);
    auto *backend =
        dynamic_cast<PagedBackend *>(&engine.backend());
    ASSERT_NE(backend, nullptr);
    EXPECT_TRUE(test::auditClean(backend->runtime().groupManager(0)));
}

} // namespace
} // namespace vattn::serving
