/**
 * @file
 * Chunked-prefill hybrid batching: BatchComposer plan composition,
 * engine execution of mixed iterations, TBT / normalized-latency
 * metrics, and the golden regression pinning kPrefillPrioritized to
 * the pre-refactor engine behaviour on the arXiv online trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "serving/engine.hh"
#include "serving/workload.hh"
#include "test_util.hh"

namespace vattn::serving
{
namespace
{

EngineConfig
tinyConfig(perf::BackendKind kind)
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
uniformTrace(int n, i64 prompt, i64 decode)
{
    std::vector<Request> trace(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        trace[static_cast<std::size_t>(i)].id = static_cast<u64>(i);
        trace[static_cast<std::size_t>(i)].prompt_tokens = prompt;
        trace[static_cast<std::size_t>(i)].max_new_tokens = decode;
    }
    assignOfflineArrivals(trace);
    return trace;
}

const auto kAdmitAll = [](const Request &) { return true; };

// ---- BatchComposer unit tests ---------------------------------------

TEST(BatchComposer, PrefillPrioritizedMatchesPickPrefillBatch)
{
    Scheduler::Config config;
    config.max_num_seqs = 8;
    config.max_batched_tokens = 100;
    Scheduler scheduler(config);
    BatchComposer composer(config);
    Request a;
    a.id = 1;
    a.prompt_tokens = 60;
    Request b;
    b.id = 2;
    b.prompt_tokens = 60;
    scheduler.enqueue(&a);
    scheduler.enqueue(&b);

    auto plan = composer.compose(scheduler, {}, kAdmitAll);
    // Monolithic prompts, one per chunk, token budget caps the batch.
    ASSERT_EQ(plan.prefills.size(), 1u);
    EXPECT_TRUE(plan.decodes.empty());
    EXPECT_EQ(plan.prefills[0].request->id, 1u);
    EXPECT_EQ(plan.prefills[0].tokens, 60);
    EXPECT_TRUE(plan.prefills[0].first_chunk);
    EXPECT_EQ(scheduler.numWaiting(), 1u);
}

TEST(BatchComposer, PrefillPrioritizedFallsBackToDecodes)
{
    Scheduler::Config config;
    Scheduler scheduler(config);
    BatchComposer composer(config);
    Request running;
    running.prompt_tokens = 10;
    running.prefilled_tokens = 10;
    running.generated = 3;
    running.state = Request::State::kRunning;
    std::vector<Request *> running_set{&running};

    auto plan = composer.compose(scheduler, running_set, kAdmitAll);
    EXPECT_TRUE(plan.prefills.empty());
    ASSERT_EQ(plan.decodes.size(), 1u);
    EXPECT_EQ(plan.decodes[0], &running);
}

TEST(BatchComposer, StallFreeDecodesAlwaysRideAlong)
{
    Scheduler::Config config;
    config.mode = SchedulingMode::kStallFreeChunked;
    config.chunk_tokens = 100;
    Scheduler scheduler(config);
    BatchComposer composer(config);

    Request decoding;
    decoding.prompt_tokens = 10;
    decoding.prefilled_tokens = 10;
    decoding.generated = 2;
    decoding.state = Request::State::kRunning;
    Request waiting;
    waiting.id = 7;
    waiting.prompt_tokens = 500;
    scheduler.enqueue(&waiting);

    auto plan = composer.compose(scheduler, {&decoding}, kAdmitAll);
    // Mixed iteration: the decode rides along, the waiting prompt's
    // first chunk fills the leftover budget (100 - 1 decode token).
    ASSERT_EQ(plan.decodes.size(), 1u);
    ASSERT_EQ(plan.prefills.size(), 1u);
    EXPECT_TRUE(plan.mixed());
    EXPECT_EQ(plan.prefills[0].request->id, 7u);
    EXPECT_EQ(plan.prefills[0].tokens, 99);
    EXPECT_TRUE(plan.prefills[0].first_chunk);
    EXPECT_FALSE(scheduler.hasWaiting());
}

TEST(BatchComposer, StallFreeOngoingChunkContinuesBeforeNewAdmits)
{
    Scheduler::Config config;
    config.mode = SchedulingMode::kStallFreeChunked;
    config.chunk_tokens = 128;
    Scheduler scheduler(config);
    BatchComposer composer(config);

    Request mid;
    mid.id = 1;
    mid.prompt_tokens = 400;
    mid.prefilled_tokens = 300; // 100 tokens to go
    mid.state = Request::State::kRunning;
    Request fresh;
    fresh.id = 2;
    fresh.prompt_tokens = 1000;
    scheduler.enqueue(&fresh);

    auto plan = composer.compose(scheduler, {&mid}, kAdmitAll);
    ASSERT_EQ(plan.prefills.size(), 2u);
    // The ongoing prompt finishes its tail first...
    EXPECT_EQ(plan.prefills[0].request->id, 1u);
    EXPECT_EQ(plan.prefills[0].tokens, 100);
    EXPECT_FALSE(plan.prefills[0].first_chunk);
    // ...and the fresh prompt gets what budget remains.
    EXPECT_EQ(plan.prefills[1].request->id, 2u);
    EXPECT_EQ(plan.prefills[1].tokens, 28);
    EXPECT_TRUE(plan.prefills[1].first_chunk);
}

TEST(BatchComposer, StallFreeRespectsMaxNumSeqs)
{
    Scheduler::Config config;
    config.mode = SchedulingMode::kStallFreeChunked;
    config.chunk_tokens = 10000;
    config.max_num_seqs = 3;
    Scheduler scheduler(config);
    BatchComposer composer(config);

    Request decoding;
    decoding.prompt_tokens = 10;
    decoding.prefilled_tokens = 10;
    decoding.generated = 1;
    decoding.state = Request::State::kRunning;
    Request a;
    a.id = 1;
    a.prompt_tokens = 100;
    Request b;
    b.id = 2;
    b.prompt_tokens = 100;
    Request c;
    c.id = 3;
    c.prompt_tokens = 100;
    scheduler.enqueue(&a);
    scheduler.enqueue(&b);
    scheduler.enqueue(&c);

    auto plan = composer.compose(scheduler, {&decoding}, kAdmitAll);
    // One running + two new = max_num_seqs; the third stays queued.
    EXPECT_EQ(plan.prefills.size(), 2u);
    EXPECT_EQ(scheduler.numWaiting(), 1u);
}

TEST(BatchComposer, StallFreeKeepsFcfsNoBypass)
{
    Scheduler::Config config;
    config.mode = SchedulingMode::kStallFreeChunked;
    config.chunk_tokens = 1000;
    Scheduler scheduler(config);
    BatchComposer composer(config);

    Request big;
    big.id = 1;
    big.prompt_tokens = 5000;
    Request small;
    small.id = 2;
    small.prompt_tokens = 10;
    scheduler.enqueue(&big);
    scheduler.enqueue(&small);

    // Memory admits only the small request; FCFS still refuses to let
    // it jump the blocked queue head.
    auto plan = composer.compose(
        scheduler, {},
        [](const Request &r) { return r.prompt_tokens < 100; });
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(scheduler.numWaiting(), 2u);
}

TEST(BatchComposer, StallFreeOversizedPromptChunksAcrossIterations)
{
    Scheduler::Config config;
    config.mode = SchedulingMode::kStallFreeChunked;
    config.chunk_tokens = 1000;
    Scheduler scheduler(config);
    BatchComposer composer(config);

    Request huge;
    huge.prompt_tokens = 2500; // needs ceil(2500/1000) = 3 chunks
    scheduler.enqueue(&huge);

    std::vector<Request *> running;
    std::vector<i64> chunks;
    for (int iter = 0; iter < 4 && chunks.size() < 4; ++iter) {
        auto plan = composer.compose(scheduler, running, kAdmitAll);
        if (plan.prefills.empty()) {
            break;
        }
        ASSERT_EQ(plan.prefills.size(), 1u);
        const auto &chunk = plan.prefills[0];
        chunks.push_back(chunk.tokens);
        if (chunk.first_chunk) {
            chunk.request->state = Request::State::kRunning;
            running.push_back(chunk.request);
        }
        chunk.request->prefilled_tokens += chunk.tokens;
    }
    ASSERT_EQ(chunks.size(), 3u);
    EXPECT_EQ(chunks[0], 1000);
    EXPECT_EQ(chunks[1], 1000);
    EXPECT_EQ(chunks[2], 500);
    EXPECT_TRUE(huge.prefillComplete());
}

// ---- Scheduler::clearWaiting regression -----------------------------

TEST(Scheduler, ClearWaitingResetsDroppedRequestState)
{
    Scheduler scheduler(Scheduler::Config{});
    Request preempted;
    preempted.prompt_tokens = 100;
    // A preempted-then-dropped request carries computed state.
    preempted.prefilled_tokens = 40;
    preempted.generated = 3;
    preempted.slot = 5;
    preempted.last_token_ns = 123;
    Request fresh;
    fresh.prompt_tokens = 10;
    scheduler.enqueue(&preempted);
    scheduler.enqueue(&fresh);

    scheduler.clearWaiting();
    EXPECT_FALSE(scheduler.hasWaiting());
    for (const Request *r : {&preempted, &fresh}) {
        EXPECT_EQ(r->state, Request::State::kPending);
        EXPECT_EQ(r->prefilled_tokens, 0);
        EXPECT_EQ(r->generated, 0);
        EXPECT_EQ(r->slot, -1);
        EXPECT_EQ(r->last_token_ns, 0u);
    }
    // A cleared request can go through a fresh lifecycle.
    scheduler.enqueue(&preempted);
    EXPECT_EQ(preempted.state, Request::State::kWaiting);
    auto batch = scheduler.pickPrefillBatch(0, kAdmitAll);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0], &preempted);
}

// ---- Engine: stall-free chunked execution ---------------------------

TEST(HybridEngine, ChunkedRunCompletesAllRequests)
{
    for (auto kind : {perf::BackendKind::kFa2VAttention,
                      perf::BackendKind::kFa2Paged}) {
        auto config = tinyConfig(kind);
        config.scheduler.mode = SchedulingMode::kStallFreeChunked;
        config.scheduler.chunk_tokens = 512;
        Engine engine(config);
        auto report = engine.run(uniformTrace(12, 2000, 50));
        EXPECT_EQ(report.num_requests, 12);
        EXPECT_EQ(report.decode_tokens, 12 * 50);
        EXPECT_GT(report.mixed_iterations, 0);
    }
}

TEST(HybridEngine, OversizedPromptSpansAtLeastThreeIterations)
{
    auto config = tinyConfig(perf::BackendKind::kFa2VAttention);
    config.scheduler.mode = SchedulingMode::kStallFreeChunked;
    config.scheduler.chunk_tokens = 1024;
    config.record_iterations = true;
    Engine engine(config);
    // 3500-token prompt over a 1024-token budget: 4 chunk iterations.
    auto report = engine.run(uniformTrace(1, 3500, 5));
    EXPECT_EQ(report.num_requests, 1);
    i64 chunk_iterations = 0;
    i64 chunk_tokens = 0;
    for (const auto &iteration : report.iterations) {
        if (iteration.num_prefill_chunks > 0) {
            ++chunk_iterations;
            chunk_tokens += iteration.prefill_chunk_tokens;
            EXPECT_LE(iteration.prefill_chunk_tokens, 1024);
        }
    }
    EXPECT_EQ(chunk_iterations, 4);
    EXPECT_EQ(chunk_tokens, 3500);
}

TEST(HybridEngine, PreemptedHalfPrefilledRequestRecomputesFromZero)
{
    auto config = tinyConfig(perf::BackendKind::kFa2VAttention);
    config.scheduler.mode = SchedulingMode::kStallFreeChunked;
    config.scheduler.chunk_tokens = 512;
    config.kv_budget_override = 600 * MiB; // ~9600 tokens of KV
    config.vattn.page_group = PageGroup::k2MB;
    config.record_iterations = true;
    Engine engine(config);
    auto trace = uniformTrace(6, 1500, 600);
    const i64 total_prompt = 6 * 1500;
    auto report = engine.run(std::move(trace));
    EXPECT_EQ(report.num_requests, 6);
    EXPECT_EQ(report.decode_tokens, 6 * 600);
    EXPECT_GT(report.preemptions, 0u);
    // Preemption restarts the victim's prefill from prompt token 0,
    // so recomputation makes total chunked work exceed the trace's
    // prompt tokens.
    i64 chunk_tokens = 0;
    for (const auto &iteration : report.iterations) {
        chunk_tokens += iteration.prefill_chunk_tokens;
    }
    EXPECT_GT(chunk_tokens, total_prompt);
}

TEST(HybridEngine, MaxNumSeqsCapsHybridBatch)
{
    auto config = tinyConfig(perf::BackendKind::kFa2VAttention);
    config.scheduler.mode = SchedulingMode::kStallFreeChunked;
    config.scheduler.chunk_tokens = 512;
    config.scheduler.max_num_seqs = 4;
    Engine engine(config);
    auto report = engine.run(uniformTrace(16, 1000, 30));
    EXPECT_EQ(report.num_requests, 16);
    EXPECT_EQ(report.peak_batch, 4);
}

TEST(HybridEngine, IterationAccountingCoversAllKinds)
{
    auto config = tinyConfig(perf::BackendKind::kFa2VAttention);
    config.scheduler.mode = SchedulingMode::kStallFreeChunked;
    config.scheduler.chunk_tokens = 512;
    config.record_iterations = true;
    Engine engine(config);
    auto report = engine.run(uniformTrace(8, 1500, 40));
    EXPECT_EQ(static_cast<i64>(report.iterations.size()),
              report.prefill_iterations + report.decode_iterations +
                  report.mixed_iterations);
    TimeNs sum = 0;
    for (const auto &iteration : report.iterations) {
        sum += iteration.duration_ns;
        EXPECT_EQ(iteration.num_prefill_chunks > 0 &&
                      iteration.decode_batch == 0,
                  iteration.is_prefill);
    }
    EXPECT_EQ(sum, report.makespan_ns); // offline run: no idle gaps
}

// ---- TBT and normalized-latency metrics -----------------------------

TEST(HybridEngine, TbtSampleCountMatchesTokenEmissions)
{
    auto config = tinyConfig(perf::BackendKind::kFa2VAttention);
    Engine engine(config);
    auto report = engine.run(uniformTrace(6, 1000, 25));
    ASSERT_EQ(report.preemptions, 0u);
    // Every token after a request's first yields one TBT sample.
    EXPECT_EQ(static_cast<i64>(report.tbt_s.count()),
              report.decode_tokens - report.num_requests);
    EXPECT_GT(report.tbt_s.min(), 0.0);
    EXPECT_EQ(report.normalized_latency_s.count(), 6u);
}

TEST(HybridEngine, NormalizedLatencyIsLatencyPerDecodeToken)
{
    auto config = tinyConfig(perf::BackendKind::kFa2VAttention);
    Engine engine(config);
    auto report = engine.run(uniformTrace(4, 800, 20));
    // Uniform decode lengths: the percentile-by-percentile relation
    // holds exactly.
    EXPECT_DOUBLE_EQ(report.normalized_latency_s.median(),
                     report.latency_s.median() / 20.0);
    EXPECT_DOUBLE_EQ(report.normalized_latency_s.max(),
                     report.latency_s.max() / 20.0);
}

TEST(HybridEngine, StallFreeCutsTailTbtOnLongPromptTrace)
{
    // The headline behaviour: long arXiv prompts stall running
    // decodes for whole prefill iterations under the prioritized
    // policy; chunking bounds the stall at one iteration.
    auto run = [](SchedulingMode mode) {
        EngineConfig config;
        config.model = perf::ModelSpec::yi6B();
        config.tp_degree = 1;
        config.backend = perf::BackendKind::kFa2VAttention;
        config.scheduler.max_num_seqs = 256;
        config.scheduler.max_batched_tokens = 192 * 1024;
        config.scheduler.mode = mode;
        config.scheduler.chunk_tokens = 2048;
        config.vattn.max_batch_size = 256;
        auto trace = arxivOnlineTrace(64);
        assignPoissonArrivals(trace, 0.25, 2024);
        Engine engine(config);
        return engine.run(std::move(trace));
    };
    const auto prioritized = run(SchedulingMode::kPrefillPrioritized);
    const auto chunked = run(SchedulingMode::kStallFreeChunked);
    EXPECT_EQ(prioritized.num_requests, 64);
    EXPECT_EQ(chunked.num_requests, 64);
    // Same tokens served either way.
    EXPECT_EQ(chunked.decode_tokens, prioritized.decode_tokens);
    EXPECT_LT(chunked.tbt_s.p99(), 0.5 * prioritized.tbt_s.p99());
    EXPECT_LT(chunked.tbt_s.max(), 0.2 * prioritized.tbt_s.max());
}

// ---- Golden regression: kPrefillPrioritized == pre-refactor ---------

struct Golden
{
    perf::BackendKind kind;
    u64 kv_budget_override;
    int n;
    double qps;
    i64 num_requests;
    i64 prefill_iterations;
    i64 decode_iterations;
    u64 preemptions;
    i64 peak_batch;
    TimeNs makespan_ns;
    TimeNs busy_ns;
    double latency_median_s;
    double latency_p99_s;
    double ttft_median_s;
};

/**
 * Name a case by its inputs, e.g. VAttention_n64_qps0p25. Without this
 * gtest dumps the struct's raw bytes, padding included, so the test
 * names that ctest derives from the printed value differ from build
 * to build.
 */
void
PrintTo(const Golden &golden, std::ostream *os)
{
    *os << (perf::isPaged(golden.kind) ? "Paged" : "VAttention");
    if (golden.kv_budget_override != 0) {
        *os << "_kv" << golden.kv_budget_override / GiB << "GiB";
    }
    std::string qps = std::to_string(golden.qps);
    qps.erase(qps.find_last_not_of('0') + 1);
    std::replace(qps.begin(), qps.end(), '.', 'p');
    *os << "_n" << golden.n << "_qps" << qps;
}

class GoldenRegression : public ::testing::TestWithParam<Golden>
{
};

TEST_P(GoldenRegression, PrefillPrioritizedReproducesPreRefactorRun)
{
    const Golden &golden = GetParam();
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.tp_degree = 1;
    config.backend = golden.kind;
    config.kv_budget_override = golden.kv_budget_override;
    config.scheduler.max_num_seqs = 256;
    config.scheduler.max_batched_tokens = 192 * 1024;
    config.vattn.max_batch_size = 256;
    auto trace = arxivOnlineTrace(golden.n);
    assignPoissonArrivals(trace, golden.qps, 2024);
    Engine engine(config);
    const auto report = engine.run(std::move(trace));

    // Scheduling decisions must match the pre-refactor engine
    // exactly: same iteration sequence, same preemptions.
    EXPECT_EQ(report.num_requests, golden.num_requests);
    EXPECT_EQ(report.prefill_iterations, golden.prefill_iterations);
    EXPECT_EQ(report.decode_iterations, golden.decode_iterations);
    EXPECT_EQ(report.mixed_iterations, 0);
    EXPECT_EQ(report.preemptions, golden.preemptions);
    EXPECT_EQ(report.peak_batch, golden.peak_batch);
    // Virtual-time results agree to sub-microsecond (exact on the
    // reference toolchain; the slack only absorbs cross-toolchain
    // FP-contraction differences).
    EXPECT_NEAR(static_cast<double>(report.makespan_ns),
                static_cast<double>(golden.makespan_ns), 1e3);
    EXPECT_NEAR(static_cast<double>(report.busy_ns),
                static_cast<double>(golden.busy_ns), 1e3);
    EXPECT_NEAR(report.latency_s.median(), golden.latency_median_s,
                1e-6);
    EXPECT_NEAR(report.latency_s.p99(), golden.latency_p99_s, 1e-6);
    EXPECT_NEAR(report.ttft_s.median(), golden.ttft_median_s, 1e-6);
}

// Captured from the pre-refactor engine (commit 5ac9b1d) with the
// golden-capture harness: arXiv online trace, Yi-6B TP-1, arrival
// seed 2024. One correction: the pre-refactor report double-counted
// preemptions (events at preemption time plus per-request totals at
// finish, exactly 2x when every preempted request completes, as in
// these runs); the golden values below are the true event counts,
// i.e. the captured 60/140/216 halved.
INSTANTIATE_TEST_SUITE_P(
    PreRefactor, GoldenRegression,
    ::testing::Values(
        Golden{perf::BackendKind::kFa2VAttention, 0, 64, 0.25, 64, 46,
               2897, 30, 28, 275589569625, 273092652142,
               64.590524985499997, 173.23790165374999,
               7.5961115860000001},
        Golden{perf::BackendKind::kFa2Paged, 0, 64, 0.25, 64, 47,
               2243, 70, 31, 300410591200, 297913673717,
               100.83197760499999, 237.39405995185999,
               12.173029296500001},
        Golden{perf::BackendKind::kFa2VAttention, 8ull * GiB, 32, 0.5,
               32, 31, 4036, 108, 4, 165523627466, 164275168725,
               52.360582227499997, 104.92974204530002,
               42.932052745}));

TEST(HybridEngine, PrefillPrioritizedIsDeterministicIterationForIteration)
{
    RunReport reports[2];
    for (auto &report : reports) {
        auto config = tinyConfig(perf::BackendKind::kFa2VAttention);
        config.kv_budget_override = 0;
        config.record_iterations = true;
        Engine engine(config);
        auto trace = arxivOnlineTrace(24, 3);
        assignPoissonArrivals(trace, 0.5, 99);
        report = engine.run(std::move(trace));
    }
    ASSERT_EQ(reports[0].iterations.size(),
              reports[1].iterations.size());
    for (std::size_t i = 0; i < reports[0].iterations.size(); ++i) {
        const auto &a = reports[0].iterations[i];
        const auto &b = reports[1].iterations[i];
        EXPECT_EQ(a.start_ns, b.start_ns);
        EXPECT_EQ(a.duration_ns, b.duration_ns);
        EXPECT_EQ(a.is_prefill, b.is_prefill);
        EXPECT_EQ(a.batch, b.batch);
        EXPECT_EQ(a.prefill_chunk_tokens, b.prefill_chunk_tokens);
        EXPECT_EQ(a.decode_batch, b.decode_batch);
    }
}

} // namespace
} // namespace vattn::serving
