#include <gtest/gtest.h>

#include "serving/engine.hh"
#include "serving/lockstep_backend.hh"
#include "test_util.hh"

namespace vattn::serving
{
namespace
{

TEST(PagedBackendTest, EnsureOomSurfaces)
{
    PagedBackend backend(perf::ModelSpec::yi6B(), 1, 16, 4 * MiB);
    auto slot = backend.allocSlot();
    ASSERT_TRUE(slot.isOk());
    auto r = backend.ensure({{slot.value(), 16 * 10}});
    EXPECT_EQ(r.code(), ErrorCode::kOutOfMemory);
}

TEST(PagedBackendTest, EnsureCostsNoDriverTime)
{
    PagedBackend backend(perf::ModelSpec::yi6B(), 1, 16, 64 * MiB);
    auto slot = backend.allocSlot();
    ASSERT_TRUE(slot.isOk());
    auto r = backend.ensure({{slot.value(), 1000}});
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ(r.value(), 0u); // pool committed up-front
}

EngineConfig
tinyEngineConfig(perf::BackendKind kind)
{
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.tp_degree = 1;
    config.backend = kind;
    config.kv_budget_override = 2 * GiB;
    config.scheduler.max_num_seqs = 8;
    config.scheduler.max_batched_tokens = 8192;
    config.vattn.max_batch_size = 8;
    return config;
}

std::vector<Request>
tinyTrace(int n, i64 prompt, i64 decode)
{
    std::vector<Request> trace(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto &r = trace[static_cast<std::size_t>(i)];
        r.id = static_cast<u64>(i);
        r.prompt_tokens = prompt;
        r.max_new_tokens = decode;
    }
    assignOfflineArrivals(trace);
    return trace;
}

class EngineBackendTest
    : public ::testing::TestWithParam<perf::BackendKind>
{
};

TEST_P(EngineBackendTest, OfflineRunCompletesAllRequests)
{
    Engine engine(tinyEngineConfig(GetParam()));
    auto report = engine.run(tinyTrace(12, 2000, 50));
    EXPECT_EQ(report.num_requests, 12);
    EXPECT_EQ(report.decode_tokens, 12 * 50);
    EXPECT_GT(report.makespan_ns, 0u);
    EXPECT_GT(report.prefill_iterations, 0);
    EXPECT_GT(report.decode_iterations, 0);
    EXPECT_GT(report.requestsPerMinute(), 0.0);
    EXPECT_LE(report.peak_batch, 8);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, EngineBackendTest,
    ::testing::Values(perf::BackendKind::kVllmPaged,
                      perf::BackendKind::kFa2Paged,
                      perf::BackendKind::kFiPaged,
                      perf::BackendKind::kFa2VAttention,
                      perf::BackendKind::kFiVAttention));

TEST(EngineTest, ContinuousBatchingAdmitsMidStream)
{
    // More requests than max_num_seqs: later ones must join as
    // earlier ones finish, and everything completes.
    auto config = tinyEngineConfig(perf::BackendKind::kFa2VAttention);
    config.scheduler.max_num_seqs = 4;
    Engine engine(config);
    auto report = engine.run(tinyTrace(16, 1000, 30));
    EXPECT_EQ(report.num_requests, 16);
    EXPECT_EQ(report.peak_batch, 4);
}

TEST(EngineTest, PreemptionRecoversFromMemoryPressure)
{
    // Budget fits ~2 full requests; 6 long-decode requests force
    // preemptions but must all finish.
    auto config = tinyEngineConfig(perf::BackendKind::kFa2VAttention);
    config.kv_budget_override = 600 * MiB; // ~9600 tokens of KV
    config.vattn.page_group = PageGroup::k2MB;
    Engine engine(config);
    auto report = engine.run(tinyTrace(6, 1500, 600));
    EXPECT_EQ(report.num_requests, 6);
    EXPECT_EQ(report.decode_tokens, 6 * 600);
}

TEST(EngineTest, PagedPreemptionAlsoRecovers)
{
    auto config = tinyEngineConfig(perf::BackendKind::kFa2Paged);
    config.kv_budget_override = 600 * MiB;
    Engine engine(config);
    auto report = engine.run(tinyTrace(6, 1500, 600));
    EXPECT_EQ(report.num_requests, 6);
}

TEST(EngineTest, OnlineArrivalsRespectClock)
{
    auto config = tinyEngineConfig(perf::BackendKind::kFa2VAttention);
    Engine engine(config);
    auto trace = tinyTrace(5, 1000, 20);
    // Space arrivals 30 seconds apart: the system is idle between
    // them, so each latency is queue-free.
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].arrival_ns = static_cast<TimeNs>(i) * 30 * kSec;
    }
    auto report = engine.run(trace);
    EXPECT_EQ(report.num_requests, 5);
    EXPECT_GE(report.makespan_ns, 4u * 30 * kSec);
    // No queueing: all latencies nearly identical.
    EXPECT_LT(report.latency_s.max() - report.latency_s.min(), 0.5);
}

TEST(EngineTest, FirstTokenBeforeFinish)
{
    auto config = tinyEngineConfig(perf::BackendKind::kFa2VAttention);
    Engine engine(config);
    auto report = engine.run(tinyTrace(4, 1000, 40));
    EXPECT_EQ(report.ttft_s.count(), 4u);
    EXPECT_LT(report.ttft_s.max(), report.latency_s.min());
}

TEST(EngineTest, DecodeOnlyThroughputSane)
{
    auto config = tinyEngineConfig(perf::BackendKind::kFa2VAttention);
    Engine engine(config);
    // Start just below a page-group boundary (2048 tokens for Yi-6B
    // with 2MB groups) so the decode run commits new memory.
    auto run = engine.decodeOnly(8, 2040, 50);
    EXPECT_GT(run.tokens_per_s, 50.0);
    EXPECT_GT(run.alloc_bytes_per_s, 0.0);
    EXPECT_GT(run.mean_iter_ms, 0.0);
    EXPECT_EQ(run.iter_ms.count(), 50u);
}

TEST(EngineTest, PrefillOnceBreakdownAddsUp)
{
    auto config = tinyEngineConfig(perf::BackendKind::kFa2VAttention);
    config.vattn.deferred_reclamation = true;
    Engine engine(config);
    auto first = engine.prefillOnce(4096);
    EXPECT_EQ(first.total_ns, first.mem_ns + first.attention_ns +
                                  first.linear_ns + first.comm_ns +
                                  first.cpu_ns);
    EXPECT_GT(first.mem_ns, 0u);
    // Second prefill reuses the cached mappings: no allocation cost.
    auto second = engine.prefillOnce(4096);
    EXPECT_EQ(second.mem_ns, 0u);
    EXPECT_LT(second.total_ns, first.total_ns);
}

TEST(EngineTest, VAttentionBeatsPagedOnPrefillHeavyWork)
{
    // Long prompts, short decodes: the Figure 9 regime. vAttention's
    // non-paged prefill kernels must win end-to-end.
    auto make_report = [&](perf::BackendKind kind) {
        auto config = tinyEngineConfig(kind);
        config.kv_budget_override = 4 * GiB;
        config.scheduler.max_batched_tokens = 32768;
        Engine engine(config);
        return engine.run(tinyTrace(8, 30000, 20));
    };
    const auto paged = make_report(perf::BackendKind::kFa2Paged);
    const auto vattn = make_report(perf::BackendKind::kFa2VAttention);
    EXPECT_EQ(paged.num_requests, 8);
    EXPECT_EQ(vattn.num_requests, 8);
    const double speedup = vattn.requestsPerMinute() /
                           paged.requestsPerMinute();
    EXPECT_GT(speedup, 1.05);
    EXPECT_LT(speedup, 1.6);
}

TEST(EngineTest, ImpossiblePromptIsDroppedGracefully)
{
    // A prompt that can never fit the KV budget used to be fatal;
    // it is now a per-request failure and the engine keeps serving.
    auto config = tinyEngineConfig(perf::BackendKind::kFa2VAttention);
    config.kv_budget_override = 256 * MiB; // ~4K tokens
    Engine engine(config);
    auto trace = tinyTrace(3, 1000, 10);
    trace[1].prompt_tokens = 150000; // impossible
    assignOfflineArrivals(trace);
    const auto report = engine.run(std::move(trace));
    EXPECT_EQ(report.dropped_requests, 1);
    EXPECT_EQ(report.num_requests, 2); // the feasible ones finished
    EXPECT_EQ(report.latency_s.count(), 2u);
}

TEST(EngineTest, KvBudgetComputation)
{
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.tp_degree = 1;
    // 0.9*80GB - ~11.3GB weights - 2GB reserve ~= 58.7GB.
    EXPECT_NEAR(static_cast<double>(config.kvBudgetPerWorker()) /
                    static_cast<double>(GiB),
                58.7, 1.5);
    config.kv_budget_override = 1 * GiB;
    EXPECT_EQ(config.kvBudgetPerWorker(), 1 * GiB);
}

TEST(EngineTest, RecordIterationsTrace)
{
    auto config = tinyEngineConfig(perf::BackendKind::kFa2VAttention);
    config.record_iterations = true;
    Engine engine(config);
    auto report = engine.run(tinyTrace(3, 1000, 10));
    EXPECT_EQ(static_cast<i64>(report.iterations.size()),
              report.prefill_iterations + report.decode_iterations);
    TimeNs prev_start = 0;
    for (const auto &iteration : report.iterations) {
        EXPECT_GE(iteration.start_ns, prev_start);
        prev_start = iteration.start_ns;
        EXPECT_GT(iteration.duration_ns, 0u);
    }
}

TEST(EngineTest, BothBackendsTakeTheSameTierAndPrefixSettings)
{
    // EngineConfig is the one switch for the host tier and prefix
    // caching: whichever backend the engine builds must report exactly
    // what the policy and the flag ask for.
    for (const auto kind : {perf::BackendKind::kFa2Paged,
                            perf::BackendKind::kFa2VAttention}) {
        for (const auto policy : {PreemptionPolicy::kRecompute,
                                  PreemptionPolicy::kSwap}) {
            for (const bool prefix : {false, true}) {
                SCOPED_TRACE(std::string(perf::toString(kind)) + " " +
                             toString(policy) +
                             (prefix ? " prefix" : " no-prefix"));
                auto config = tinyEngineConfig(kind);
                config.preemption_policy = policy;
                config.host_swap_bytes = 1 * GiB;
                config.enable_prefix_caching = prefix;
                Engine engine(config);
                EXPECT_EQ(engine.backend().hasHostTier(),
                          policy != PreemptionPolicy::kRecompute);
                EXPECT_EQ(engine.backend().prefixCachingEnabled(), prefix);
            }
        }
    }
}

TEST(VAttentionBackendTest, EveryWorkerPricesCopiesOnTheGivenLink)
{
    const perf::PcieSpec pcie{"slow-link", 5e9, 3e9, 20 * kUsec};
    const ReplicateFollowers replicate;
    VAttentionBackend backend(perf::ModelSpec::yi6B(), 2, {}, 512 * MiB,
                              false, 256 * MiB, pcie);
    core::WorkerGroup &group = backend.workerGroup();
    ASSERT_EQ(group.numWorkers(), 2);
    for (int w = 0; w < group.numWorkers(); ++w) {
        SCOPED_TRACE(w);
        const cuvmm::LatencyModel &latency = group.driver(w).latency();
        for (const u64 bytes : {u64{0}, 64 * KiB, 2 * MiB, 1 * GiB}) {
            EXPECT_EQ(latency.copyDtoHCost(bytes), pcie.dtohNs(bytes));
            EXPECT_EQ(latency.copyHtoDCost(bytes), pcie.htodNs(bytes));
        }
    }
}

} // namespace
} // namespace vattn::serving
