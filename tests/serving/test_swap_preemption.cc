/**
 * @file
 * Engine-level tests of the host-memory KV swap tier and the pluggable
 * preemption policy: swapped requests resume without recomputing
 * prefilled tokens (on both backends), kAuto picks the cheaper of
 * recompute vs PCIe round trip, victim selection is a knob with LIFO
 * pinned as the default, prefix-shared pages never swap, and a request
 * that can never fit fails gracefully instead of killing the engine.
 */

#include <gtest/gtest.h>

#include "serving/engine.hh"
#include "test_util.hh"

namespace vattn::serving
{
namespace
{

/** KV bytes for @p tokens tokens of Yi-6B on one worker. */
u64
kvBytes(i64 tokens)
{
    return perf::ModelSpec::yi6B().kvBytesPerTokenPerWorker(1) *
           static_cast<u64>(tokens);
}

EngineConfig
pressureConfig(perf::BackendKind kind, PreemptionPolicy policy)
{
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.tp_degree = 1;
    config.backend = kind;
    // Room for the four 2000-token prompts but not for all of their
    // decoded contexts: pressure peaks mid-decode.
    config.kv_budget_override = kvBytes(9600);
    config.scheduler.max_num_seqs = 8;
    config.scheduler.max_batched_tokens = 8192;
    config.vattn.max_batch_size = 8;
    config.preemption_policy = policy;
    config.record_iterations = true;
    return config;
}

std::vector<Request>
pressureTrace()
{
    std::vector<Request> trace(4);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].id = i;
        trace[i].prompt_tokens = 2000;
        trace[i].max_new_tokens = 600;
    }
    assignOfflineArrivals(trace);
    return trace;
}

/** Total prefill query tokens the engine actually computed. */
i64
prefillTokensComputed(const RunReport &report)
{
    i64 total = 0;
    for (const IterationRecord &record : report.iterations) {
        total += record.prefill_chunk_tokens;
    }
    return total;
}

class SwapPolicyTest
    : public ::testing::TestWithParam<perf::BackendKind>
{
};

TEST_P(SwapPolicyTest, RecomputePolicyRepeatsPrefillWork)
{
    Engine engine(
        pressureConfig(GetParam(), PreemptionPolicy::kRecompute));
    const auto report = engine.run(pressureTrace());
    EXPECT_EQ(report.num_requests, 4);
    ASSERT_GT(report.preemptions, 0u); // the scenario creates pressure
    EXPECT_EQ(report.swap_outs, 0u);
    EXPECT_EQ(report.swap_ins, 0u);
    EXPECT_EQ(report.swap_stall_ns, 0u);
    // Recomputation replays prefill (and re-prefills decoded tokens),
    // so computed prefill tokens exceed the trace's prompt tokens.
    EXPECT_GT(prefillTokensComputed(report), 4 * 2000);
}

TEST_P(SwapPolicyTest, SwappedRequestsResumeWithoutRecompute)
{
    Engine engine(pressureConfig(GetParam(), PreemptionPolicy::kSwap));
    const auto report = engine.run(pressureTrace());
    EXPECT_EQ(report.num_requests, 4);
    ASSERT_GT(report.preemptions, 0u);
    EXPECT_GT(report.swap_outs, 0u);
    EXPECT_EQ(report.swap_ins, report.swap_outs); // everyone came back
    EXPECT_EQ(report.swap_in_bytes, report.swap_out_bytes);
    EXPECT_GT(report.swap_stall_ns, 0u);
    EXPECT_EQ(report.decode_tokens, 4 * 600);
    // The headline property: every prompt token is prefilled exactly
    // once — preemption moved KV over PCIe instead of burning FLOPs.
    EXPECT_EQ(prefillTokensComputed(report), 4 * 2000);
}

TEST_P(SwapPolicyTest, AutoSwapsLongContextsAndRecomputesTinyOnes)
{
    // Long computed contexts: PCIe round trip beats re-prefill, so
    // kAuto must behave like kSwap here.
    Engine engine(pressureConfig(GetParam(), PreemptionPolicy::kAuto));
    const auto report = engine.run(pressureTrace());
    EXPECT_EQ(report.num_requests, 4);
    ASSERT_GT(report.preemptions, 0u);
    EXPECT_GT(report.swap_outs, 0u);
    EXPECT_EQ(prefillTokensComputed(report), 4 * 2000);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SwapPolicyTest,
    ::testing::Values(perf::BackendKind::kFa2Paged,
                      perf::BackendKind::kFa2VAttention));

TEST(SwapPolicyCost, AutoPrefersRecomputeWhenTheModelSaysSo)
{
    // Price the PCIe link absurdly slow: the round trip always loses
    // against recompute, so kAuto must never swap.
    auto config = pressureConfig(perf::BackendKind::kFa2VAttention,
                                 PreemptionPolicy::kAuto);
    config.pcie.h2d_bytes_per_s = 1e6; // 1 MB/s
    config.pcie.d2h_bytes_per_s = 1e6;
    Engine engine(config);
    const auto report = engine.run(pressureTrace());
    EXPECT_EQ(report.num_requests, 4);
    ASSERT_GT(report.preemptions, 0u);
    EXPECT_EQ(report.swap_outs, 0u);
}

// ---- Victim-selection knob -----------------------------------------

TEST(VictimPolicy, DefaultIsLifo)
{
    // A named config: GCC 12 misreads the destruction of an
    // EngineConfig{} temporary's strings as maybe-uninitialized.
    const EngineConfig defaults;
    EXPECT_EQ(defaults.preemption_victim, PreemptionVictim::kLifo);
    EXPECT_EQ(defaults.preemption_policy, PreemptionPolicy::kRecompute);
}

TEST(VictimPolicy, LifoPreemptsTheMostRecentlyAdmitted)
{
    // Batch [500, 500, 500, 8000] against a ~2500-token budget: LIFO
    // (the pinned default) evicts from the back until the rest fits,
    // so exactly the three 500-token requests survive — bit-for-bit
    // the engine's historical behaviour.
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.tp_degree = 1;
    config.backend = perf::BackendKind::kFa2VAttention;
    config.kv_budget_override = kvBytes(2500);
    config.scheduler.max_num_seqs = 8;
    config.vattn.max_batch_size = 8;
    config.vattn.page_group = PageGroup::k64KB;
    Engine engine(config);
    auto run = engine.decodeOnlyVaried({500, 500, 500, 8000}, 3);
    EXPECT_EQ(run.effective_batch, 3);
    EXPECT_GE(run.preemptions, 1u);
}

TEST(VictimPolicy, SmallestRecomputeEvictsCheapestFirst)
{
    // Same batch, smallest-recompute victims: the cheap 500-token
    // requests go first, and the 8000-token request alone still
    // exceeds the budget, so it is ultimately dropped — membership of
    // the survivor set is the observable difference vs LIFO.
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.tp_degree = 1;
    config.backend = perf::BackendKind::kFa2VAttention;
    config.kv_budget_override = kvBytes(2500);
    config.scheduler.max_num_seqs = 8;
    config.vattn.max_batch_size = 8;
    config.vattn.page_group = PageGroup::k64KB;
    config.preemption_victim = PreemptionVictim::kSmallestRecompute;
    Engine engine(config);
    auto run = engine.decodeOnlyVaried({500, 500, 500, 8000}, 3);
    EXPECT_EQ(run.effective_batch, 0);
    EXPECT_GE(run.preemptions, 3u);
}

// ---- Graceful per-request failure ----------------------------------

TEST(GracefulDrop, MidDecodeGrowthBeyondBudgetDropsTheRequest)
{
    // A lone request whose context grows past the whole KV budget used
    // to livelock/panic the engine; it must now fail alone while the
    // engine completes the rest of the trace.
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.tp_degree = 1;
    config.backend = perf::BackendKind::kFa2Paged;
    config.kv_budget_override = kvBytes(1500);
    config.scheduler.max_num_seqs = 4;
    config.vattn.max_batch_size = 4;
    Engine engine(config);
    std::vector<Request> trace(2);
    trace[0].id = 0;
    trace[0].prompt_tokens = 400;
    trace[0].max_new_tokens = 5000; // grows past the 1500-token budget
    trace[1].id = 1;
    trace[1].prompt_tokens = 400;
    trace[1].max_new_tokens = 10;
    assignOfflineArrivals(trace);
    const auto report = engine.run(std::move(trace));
    EXPECT_EQ(report.dropped_requests, 1);
    EXPECT_EQ(report.num_requests, 1);
    EXPECT_EQ(report.latency_s.count(), 1u);
}

// Shared pages stay resident at the backend interface level: see
// BackendContract.PrefixSharedSlotRefusesSwapOut
// (test_backend_contract.cc), which covers both backends at TP 1 and 2.

// ---- Engine end-to-end with prefix caching + swap ------------------

TEST(SwapWithPrefixCaching, PressureRunStaysCorrectOnBothBackends)
{
    // Prefix caching pins shared pages; the swap policy must fall back
    // to recomputation for those victims and still finish everything.
    for (auto kind : {perf::BackendKind::kFa2Paged,
                      perf::BackendKind::kFa2VAttention}) {
        auto config = pressureConfig(kind, PreemptionPolicy::kSwap);
        config.enable_prefix_caching = true;
        // Small page-groups so the 1K-token system prompt spans
        // aligned groups and really gets aliased (and thus pinned).
        config.vattn.page_group = PageGroup::k64KB;
        Engine engine(config);
        auto trace = sharedSystemPromptTrace(
            24, /*tenants=*/2, /*system_tokens=*/1024,
            /*user_mean=*/128, /*seed=*/11);
        for (auto &request : trace) {
            request.max_new_tokens = 400;
        }
        assignOfflineArrivals(trace);
        const auto report = engine.run(std::move(trace));
        EXPECT_EQ(report.num_requests, 24) << toString(kind);
        EXPECT_EQ(report.dropped_requests, 0) << toString(kind);
        EXPECT_EQ(report.swap_ins, report.swap_outs) << toString(kind);
    }
}

} // namespace
} // namespace vattn::serving
