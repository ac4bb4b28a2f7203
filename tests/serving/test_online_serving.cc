/**
 * @file
 * The online streaming serving path: incremental submission into a
 * live engine, per-token streaming callbacks, SLO accounting and
 * deadline-aware shedding, the Router's live-state scoring, and the
 * ServingCluster start/submit/shutdown session — including its
 * equivalence with the offline run() wrapper, its determinism under
 * live routing with migration, submission from several threads, and
 * malformed requests reported as errors at both submission paths.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serving/cluster.hh"
#include "serving/engine.hh"
#include "serving/router.hh"
#include "serving/workload.hh"
#include "test_util.hh"

namespace vattn::serving
{
namespace
{

EngineConfig
onlineConfig(perf::BackendKind kind)
{
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.backend = kind;
    config.kv_budget_override = 2 * GiB;
    config.scheduler.max_num_seqs = 8;
    config.scheduler.max_batched_tokens = 8192;
    config.vattn.max_batch_size = 8;
    config.record_iterations = true;
    return config;
}

std::vector<Request>
onlineTrace(int n)
{
    auto trace = shareGptTrace(n, /*seed=*/7);
    assignPoissonArrivals(trace, /*qps=*/4.0, /*seed=*/2026);
    return trace;
}

void
expectSamePercentiles(const Percentiles &a, const Percentiles &b)
{
    ASSERT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sorted(), b.sorted());
}

/** Bit-for-bit equality of two run reports, iterations included. */
void
expectSameReport(const RunReport &a, const RunReport &b)
{
    EXPECT_EQ(a.num_requests, b.num_requests);
    EXPECT_EQ(a.makespan_ns, b.makespan_ns);
    EXPECT_EQ(a.busy_ns, b.busy_ns);
    EXPECT_EQ(a.prompt_tokens, b.prompt_tokens);
    EXPECT_EQ(a.decode_tokens, b.decode_tokens);
    EXPECT_EQ(a.decode_iterations, b.decode_iterations);
    EXPECT_EQ(a.prefill_iterations, b.prefill_iterations);
    EXPECT_EQ(a.mixed_iterations, b.mixed_iterations);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.peak_batch, b.peak_batch);
    EXPECT_EQ(a.comm_ns, b.comm_ns);
    EXPECT_EQ(a.swap_outs, b.swap_outs);
    EXPECT_EQ(a.swap_ins, b.swap_ins);
    EXPECT_EQ(a.swap_out_bytes, b.swap_out_bytes);
    EXPECT_EQ(a.swap_in_bytes, b.swap_in_bytes);
    EXPECT_EQ(a.swap_stall_ns, b.swap_stall_ns);
    EXPECT_EQ(a.dropped_requests, b.dropped_requests);
    EXPECT_EQ(a.slo_requests, b.slo_requests);
    EXPECT_EQ(a.slo_met_requests, b.slo_met_requests);
    EXPECT_EQ(a.slo_violations_ttft, b.slo_violations_ttft);
    EXPECT_EQ(a.slo_violations_tbt, b.slo_violations_tbt);
    EXPECT_EQ(a.shed_requests, b.shed_requests);
    EXPECT_EQ(a.migrations_in, b.migrations_in);
    EXPECT_EQ(a.migrations_out, b.migrations_out);
    expectSamePercentiles(a.latency_s, b.latency_s);
    expectSamePercentiles(a.ttft_s, b.ttft_s);
    expectSamePercentiles(a.tbt_s, b.tbt_s);
    expectSamePercentiles(a.normalized_latency_s,
                          b.normalized_latency_s);
    ASSERT_EQ(a.iterations.size(), b.iterations.size());
    for (std::size_t i = 0; i < a.iterations.size(); ++i) {
        EXPECT_EQ(a.iterations[i].start_ns, b.iterations[i].start_ns);
        EXPECT_EQ(a.iterations[i].duration_ns,
                  b.iterations[i].duration_ns);
        EXPECT_EQ(a.iterations[i].batch, b.iterations[i].batch);
        EXPECT_EQ(a.iterations[i].decode_batch,
                  b.iterations[i].decode_batch);
        EXPECT_EQ(a.iterations[i].prefill_chunk_tokens,
                  b.iterations[i].prefill_chunk_tokens);
    }
}

RunReport
runOnline(Engine &engine, const std::vector<Request> &trace)
{
    engine.beginOnline(trace.size());
    for (const auto &request : trace) {
        auto status = engine.submitOnline(request);
        EXPECT_TRUE(status.isOk()) << status.message();
    }
    engine.closeOnline();
    while (engine.runActive()) {
        engine.stepRun();
    }
    return engine.endRun();
}

// ---- Engine: online session vs the offline driver -------------------

class OnlineEngineTest
    : public ::testing::TestWithParam<perf::BackendKind>
{
};

TEST_P(OnlineEngineTest, OnlineSessionMatchesOfflineRunBitForBit)
{
    auto trace = onlineTrace(24);
    Engine offline(onlineConfig(GetParam()));
    auto offline_report = offline.run(trace);

    Engine online(onlineConfig(GetParam()));
    auto online_report = runOnline(online, trace);
    expectSameReport(offline_report, online_report);
}

TEST_P(OnlineEngineTest, BoundedMemoryAcrossSubmissions)
{
    // gcOnline retires terminal requests from the front of the owned
    // deque, so a drained engine owns nothing even though the session
    // saw the whole trace.
    Engine engine(onlineConfig(GetParam()));
    auto trace = onlineTrace(16);
    engine.beginOnline(trace.size());
    for (const auto &request : trace) {
        ASSERT_TRUE(engine.submitOnline(request).isOk());
        while (engine.runActive() &&
               engine.nextEventNs() <= request.arrival_ns) {
            engine.stepRun();
        }
    }
    while (engine.runActive()) {
        engine.stepRun();
    }
    EXPECT_LE(engine.ownedRequests(), trace.size());
    // One more submission garbage-collects everything terminal.
    Request probe;
    probe.id = 999;
    probe.prompt_tokens = 16;
    probe.max_new_tokens = 1;
    probe.arrival_ns = trace.back().arrival_ns + 1'000'000'000;
    ASSERT_TRUE(engine.submitOnline(probe).isOk());
    EXPECT_EQ(engine.ownedRequests(), 1u);
    engine.closeOnline();
    while (engine.runActive()) {
        engine.stepRun();
    }
    auto report = engine.endRun();
    EXPECT_EQ(report.num_requests,
              static_cast<i64>(trace.size()) + 1);
}

/** Malformed submissions, each one field away from a valid request. */
std::vector<std::pair<const char *, Request>>
malformedRequests()
{
    Request valid;
    valid.prompt_tokens = 16;
    valid.max_new_tokens = 2;
    std::vector<std::pair<const char *, Request>> cases;
    for (const i64 prompt : {i64{0}, i64{-4}}) {
        Request request = valid;
        request.prompt_tokens = prompt;
        cases.emplace_back("prompt_tokens", request);
    }
    Request no_decode = valid;
    no_decode.max_new_tokens = 0;
    cases.emplace_back("max_new_tokens", no_decode);
    Request short_ids = valid;
    short_ids.token_ids.assign(8, 5);
    cases.emplace_back("token ids", short_ids);
    return cases;
}

TEST_P(OnlineEngineTest, MalformedRequestIsReportedAndServingGoesOn)
{
    Engine engine(onlineConfig(GetParam()));
    engine.beginOnline();
    for (const auto &[field, request] : malformedRequests()) {
        const Status status = engine.submitOnline(request);
        EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument) << field;
    }
    Request valid;
    valid.prompt_tokens = 16;
    valid.max_new_tokens = 2;
    ASSERT_TRUE(engine.submitOnline(valid).isOk());
    engine.closeOnline();
    while (engine.runActive()) {
        engine.stepRun();
    }
    EXPECT_EQ(engine.endRun().num_requests, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, OnlineEngineTest,
    ::testing::Values(perf::BackendKind::kFa2VAttention,
                      perf::BackendKind::kFa2Paged));

TEST(OnlineEngineTest, SubmitGuards)
{
    Engine engine(onlineConfig(perf::BackendKind::kFa2VAttention));
    Request request;
    request.prompt_tokens = 16;
    request.max_new_tokens = 2;

    auto before = engine.submitOnline(request);
    EXPECT_EQ(before.code(), ErrorCode::kFailedPrecondition);

    engine.beginOnline();
    request.arrival_ns = 100;
    EXPECT_TRUE(engine.submitOnline(request).isOk());
    request.arrival_ns = 50;
    auto disorder = engine.submitOnline(request);
    EXPECT_EQ(disorder.code(), ErrorCode::kInvalidArgument);
    request.arrival_ns = 100; // equal timestamps are in order
    EXPECT_TRUE(engine.submitOnline(request).isOk());

    engine.closeOnline();
    auto after = engine.submitOnline(request);
    EXPECT_EQ(after.code(), ErrorCode::kFailedPrecondition);

    while (engine.runActive()) {
        engine.stepRun();
    }
    EXPECT_EQ(engine.endRun().num_requests, 2);
}

// ---- Streaming callbacks --------------------------------------------

TEST(OnlineStreamingTest, CallbacksFireOncePerTokenAndTerminal)
{
    struct Counts
    {
        i64 first = 0;
        i64 tokens = 0;
        i64 finished = 0;
        TimeNs last_emit_ns = 0;
        bool monotone = true;
    } counts;
    StreamCallbacks callbacks;
    callbacks.on_first_token = [&](const Request &) {
        ++counts.first;
    };
    callbacks.on_token = [&](const Request &request) {
        ++counts.tokens;
        if (request.last_emit_ns < counts.last_emit_ns) {
            counts.monotone = false;
        }
        counts.last_emit_ns = request.last_emit_ns;
    };
    callbacks.on_finish = [&](const Request &) {
        ++counts.finished;
    };

    auto trace = onlineTrace(6);
    for (auto &request : trace) {
        request.max_new_tokens = 8;
        request.stream = &callbacks;
    }
    Engine engine(onlineConfig(perf::BackendKind::kFa2VAttention));
    auto report = runOnline(engine, trace);

    EXPECT_EQ(report.num_requests, 6);
    EXPECT_EQ(counts.first, 6);
    EXPECT_EQ(counts.tokens, 6 * 8); // every emission, first included
    EXPECT_EQ(counts.finished, 6);
    EXPECT_TRUE(counts.monotone);
}

TEST(OnlineStreamingTest, CallbacksDoNotPerturbTheSimulation)
{
    auto trace = onlineTrace(12);
    Engine plain(onlineConfig(perf::BackendKind::kFa2VAttention));
    auto plain_report = runOnline(plain, trace);

    StreamCallbacks callbacks;
    i64 tokens = 0;
    callbacks.on_token = [&](const Request &) { ++tokens; };
    for (auto &request : trace) {
        request.stream = &callbacks;
    }
    Engine streamed(onlineConfig(perf::BackendKind::kFa2VAttention));
    auto streamed_report = runOnline(streamed, trace);

    EXPECT_GT(tokens, 0);
    expectSameReport(plain_report, streamed_report);
}

// ---- SLO accounting and deadline-aware shedding ---------------------

TEST(OnlineSloTest, LooseDeadlinesAllMet)
{
    auto trace = onlineTrace(8);
    for (auto &request : trace) {
        request.ttft_deadline_ns = 3'600'000'000'000ull;
        request.tbt_deadline_ns = 3'600'000'000'000ull;
    }
    Engine engine(onlineConfig(perf::BackendKind::kFa2VAttention));
    auto report = runOnline(engine, trace);
    EXPECT_EQ(report.slo_requests, 8);
    EXPECT_EQ(report.slo_met_requests, 8);
    EXPECT_EQ(report.slo_violations_ttft, 0);
    EXPECT_EQ(report.slo_violations_tbt, 0);
    EXPECT_DOUBLE_EQ(report.goodput(), 1.0);
}

TEST(OnlineSloTest, ImpossibleDeadlinesAllViolated)
{
    auto trace = onlineTrace(8);
    for (auto &request : trace) {
        request.ttft_deadline_ns = 1;
        request.tbt_deadline_ns = 1;
        request.max_new_tokens = std::max<i64>(request.max_new_tokens,
                                               2);
    }
    Engine engine(onlineConfig(perf::BackendKind::kFa2VAttention));
    auto report = runOnline(engine, trace);
    EXPECT_EQ(report.num_requests, 8); // served late, not shed
    EXPECT_EQ(report.slo_requests, 8);
    EXPECT_EQ(report.slo_met_requests, 0);
    EXPECT_EQ(report.slo_violations_ttft, 8);
    EXPECT_EQ(report.slo_violations_tbt, 8);
    EXPECT_EQ(report.shed_requests, 0); // shedding is opt-in
    EXPECT_DOUBLE_EQ(report.goodput(), 0.0);
}

TEST(OnlineSloTest, UndeadlinedRequestsStayOutOfTheDenominator)
{
    auto trace = onlineTrace(8);
    for (std::size_t i = 0; i < trace.size(); i += 2) {
        trace[i].ttft_deadline_ns = 3'600'000'000'000ull;
    }
    Engine engine(onlineConfig(perf::BackendKind::kFa2VAttention));
    auto report = runOnline(engine, trace);
    EXPECT_EQ(report.num_requests, 8);
    EXPECT_EQ(report.slo_requests, 4);
    EXPECT_EQ(report.slo_met_requests, 4);
}

TEST(OnlineSloTest, ShedOnTtftRejectsHopelessRequests)
{
    auto trace = onlineTrace(8);
    for (auto &request : trace) {
        request.ttft_deadline_ns = 1; // already unmeetable
    }
    auto config = onlineConfig(perf::BackendKind::kFa2VAttention);
    config.shed_on_ttft = true;
    Engine engine(config);
    auto report = runOnline(engine, trace);
    EXPECT_EQ(report.num_requests, 0);
    EXPECT_EQ(report.shed_requests, 8);
    EXPECT_EQ(report.dropped_requests, 0); // disjoint counters
    EXPECT_EQ(report.slo_requests, 8);
    EXPECT_DOUBLE_EQ(report.goodput(), 0.0);

    // Meetable deadlines shed nothing under the same config.
    auto relaxed = onlineTrace(8);
    for (auto &request : relaxed) {
        request.ttft_deadline_ns = 3'600'000'000'000ull;
    }
    Engine second(config);
    auto relaxed_report = runOnline(second, relaxed);
    EXPECT_EQ(relaxed_report.num_requests, 8);
    EXPECT_EQ(relaxed_report.shed_requests, 0);
}

// ---- Router live-state scoring --------------------------------------

TEST(RouterLiveTest, TieBreaksAreDeterministic)
{
    Router router(RoutingPolicy::kJoinShortestQueue,
                  {{1 * GiB}, {1 * GiB}, {1 * GiB}});
    auto uniform = [](int) { return Router::LiveLoad{}; };
    EXPECT_EQ(router.routeLive(0, uniform), 0);
    EXPECT_EQ(router.routeLive(10, uniform), 0);
    EXPECT_EQ(router.routeLive(20, uniform), 0);
}

TEST(RouterLiveTest, SaturatedReplicaNeverBeatsAnIdleOne)
{
    Router router(RoutingPolicy::kJoinShortestQueue,
                  {{1 * GiB}, {1 * GiB}, {1 * GiB}});
    auto loads = [](int replica) {
        Router::LiveLoad load;
        if (replica == 0) {
            // Full KV, otherwise quiet: saturation alone must lose.
            load.kv_pressure = 1.0;
            load.kv_saturated = true;
        } else if (replica == 1) {
            // Busy but admitting.
            load.queued = 50;
            load.running = 8;
            load.prefill_debt_tokens = 100000;
        }
        return load; // replica 2 idle
    };
    EXPECT_EQ(router.routeLive(0, loads), 2);

    // Even when every unsaturated replica is heavily loaded, the
    // saturated one is still never chosen.
    Router pair(RoutingPolicy::kJoinShortestQueue,
                {{1 * GiB}, {1 * GiB}});
    auto pair_loads = [](int replica) {
        Router::LiveLoad load;
        if (replica == 0) {
            load.kv_saturated = true;
        } else {
            load.queued = 1000;
            load.running = 64;
        }
        return load;
    };
    EXPECT_EQ(pair.routeLive(0, pair_loads), 1);
}

TEST(RouterLiveTest, ScoreOrderingMatchesLoadOrdering)
{
    Router::LiveLoad base;
    Router::LiveLoad queued = base;
    queued.queued = 1;
    Router::LiveLoad running = base;
    running.running = 1;
    Router::LiveLoad pressured = base;
    pressured.kv_pressure = 0.5;
    Router::LiveLoad debt = base;
    debt.prefill_debt_tokens = 8192;

    EXPECT_GT(Router::liveScore(queued), Router::liveScore(base));
    EXPECT_GT(Router::liveScore(running), Router::liveScore(base));
    EXPECT_GT(Router::liveScore(pressured), Router::liveScore(base));
    EXPECT_GT(Router::liveScore(debt), Router::liveScore(base));
    // A queued request weighs more than a running one (it still has
    // its whole service ahead of it).
    EXPECT_GT(Router::liveScore(queued), Router::liveScore(running));
}

// ---- Cluster session ------------------------------------------------

ServingCluster::Config
clusterConfig()
{
    return ServingCluster::uniform(
        onlineConfig(perf::BackendKind::kFa2VAttention), 3,
        RoutingPolicy::kJoinShortestQueue);
}

TEST(ClusterOnlineTest, SubmitBeforeStartReportsError)
{
    ServingCluster cluster(clusterConfig());
    Request request;
    request.prompt_tokens = 16;
    request.max_new_tokens = 2;
    auto status = cluster.submit(request);
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
    EXPECT_NE(status.message().find("start"), std::string::npos);

    // The same cluster still serves a session normally afterwards.
    cluster.start();
    EXPECT_TRUE(cluster.submit(request).isOk());
    auto report = cluster.shutdown();
    EXPECT_EQ(report.merged.num_requests, 1);
}

TEST(ClusterOnlineTest, SubmitAfterShutdownReportsError)
{
    ServingCluster cluster(clusterConfig());
    Request request;
    request.prompt_tokens = 16;
    request.max_new_tokens = 2;
    cluster.start();
    EXPECT_TRUE(cluster.submit(request).isOk());
    auto report = cluster.shutdown();
    EXPECT_EQ(report.merged.num_requests, 1);

    auto status = cluster.submit(request);
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
    EXPECT_NE(status.message().find("shutdown"), std::string::npos);
}

TEST(ClusterOnlineTest, OutOfOrderSubmissionIsInvalid)
{
    ServingCluster cluster(clusterConfig());
    cluster.start();
    Request request;
    request.prompt_tokens = 16;
    request.max_new_tokens = 2;
    request.arrival_ns = 1000;
    EXPECT_TRUE(cluster.submit(request).isOk());
    request.arrival_ns = 10;
    EXPECT_EQ(cluster.submit(request).code(),
              ErrorCode::kInvalidArgument);
    cluster.shutdown();
}

struct SubmitCase
{
    perf::BackendKind backend;
    RoutingMode routing;
};

void
PrintTo(const SubmitCase &param, std::ostream *os)
{
    *os << (param.backend == perf::BackendKind::kFa2Paged ? "paged"
                                                           : "vattention")
        << (param.routing == RoutingMode::kLive ? "/live" : "/static");
}

class MalformedSubmission : public ::testing::TestWithParam<SubmitCase>
{
};

TEST_P(MalformedSubmission, ReportedAndServingGoesOn)
{
    ServingCluster cluster(ServingCluster::uniform(
        onlineConfig(GetParam().backend), 2,
        RoutingPolicy::kJoinShortestQueue));
    OnlineOptions options;
    options.routing = GetParam().routing;
    cluster.start(options);
    for (const auto &[field, request] : malformedRequests()) {
        const Status status = cluster.submit(request);
        EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument) << field;
        EXPECT_NE(status.message().find(field), std::string::npos)
            << status.message();
    }
    Request valid;
    valid.prompt_tokens = 16;
    valid.max_new_tokens = 2;
    ASSERT_TRUE(cluster.submit(valid).isOk());
    const auto report = cluster.shutdown();
    EXPECT_EQ(report.merged.num_requests, 1);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndRouting, MalformedSubmission,
    ::testing::Values(
        SubmitCase{perf::BackendKind::kFa2VAttention, RoutingMode::kStatic},
        SubmitCase{perf::BackendKind::kFa2VAttention, RoutingMode::kLive},
        SubmitCase{perf::BackendKind::kFa2Paged, RoutingMode::kStatic},
        SubmitCase{perf::BackendKind::kFa2Paged, RoutingMode::kLive}));

TEST(ClusterOnlineTest, StaticRoutingMatchesRunBitForBit)
{
    auto trace = onlineTrace(24);
    ServingCluster offline(clusterConfig());
    auto offline_report = offline.run(trace);

    ServingCluster online(clusterConfig());
    OnlineOptions options;
    options.routing = RoutingMode::kStatic;
    options.expected_requests = trace.size();
    online.start(options);
    for (const auto &request : trace) {
        ASSERT_TRUE(online.submit(request).isOk());
    }
    auto online_report = online.shutdown();

    ASSERT_EQ(online_report.assigned, offline_report.assigned);
    expectSameReport(offline_report.merged, online_report.merged);
    for (std::size_t i = 0; i < offline_report.replicas.size(); ++i) {
        expectSameReport(offline_report.replicas[i],
                         online_report.replicas[i]);
    }
    EXPECT_DOUBLE_EQ(offline_report.jain_fairness,
                     online_report.jain_fairness);
}

TEST(ClusterOnlineTest, LiveMigrationSessionIsDeterministic)
{
    // Live routing and migration decide from replica state sampled at
    // each arrival instant; the same submission sequence must still
    // produce the same goodput and a bit-identical merged report.
    auto trace = skewedTenantOnlineTrace(40);
    for (auto &request : trace) {
        request.ttft_deadline_ns = 2'000'000'000;
        request.tbt_deadline_ns = 500'000'000;
    }

    auto runSession = [&] {
        ServingCluster cluster(clusterConfig());
        OnlineOptions options;
        options.routing = RoutingMode::kLive;
        options.migration = true;
        options.expected_requests = trace.size();
        cluster.start(options);
        for (const auto &request : trace) {
            EXPECT_TRUE(cluster.submit(request).isOk());
        }
        return cluster.shutdown();
    };

    auto first = runSession();
    auto second = runSession();

    EXPECT_DOUBLE_EQ(first.merged.goodput(), second.merged.goodput());
    ASSERT_EQ(first.assigned, second.assigned);
    expectSameReport(first.merged, second.merged);
    for (std::size_t i = 0; i < first.replicas.size(); ++i) {
        expectSameReport(first.replicas[i], second.replicas[i]);
    }
}

TEST(ClusterOnlineTest, ConcurrentSubmitIsSerialized)
{
    // submit() is the one cross-thread edge of the cluster: two client
    // threads race their submissions (equal arrival times, so any
    // interleaving is time-ordered) and every one must land exactly
    // once. A data-race probe under the TSan preset.
    constexpr int kPerThread = 24;
    ServingCluster cluster(clusterConfig());
    cluster.start();

    std::vector<Status> statuses[2];
    auto client = [&cluster](u64 first_id, std::vector<Status> &out) {
        for (int i = 0; i < kPerThread; ++i) {
            Request request;
            request.id = first_id + static_cast<u64>(i);
            request.prompt_tokens = 16;
            request.max_new_tokens = 2;
            request.arrival_ns = 1000;
            out.push_back(cluster.submit(request));
        }
    };
    std::thread a(client, 0, std::ref(statuses[0]));
    std::thread b(client, kPerThread, std::ref(statuses[1]));
    a.join();
    b.join();

    for (const auto &thread_statuses : statuses) {
        ASSERT_EQ(thread_statuses.size(), std::size_t{kPerThread});
        for (const Status &status : thread_statuses) {
            EXPECT_TRUE(status.isOk()) << status.message();
        }
    }
    const auto report = cluster.shutdown();
    EXPECT_EQ(report.merged.num_requests, 2 * kPerThread);
    i64 assigned = 0;
    for (const i64 count : report.assigned) {
        assigned += count;
    }
    EXPECT_EQ(assigned, 2 * kPerThread);
}

} // namespace
} // namespace vattn::serving
