#include <algorithm>

#include <gtest/gtest.h>

#include "serving/cluster.hh"
#include "test_util.hh"

namespace vattn::serving
{
namespace
{

EngineConfig
replicaConfig(perf::BackendKind kind = perf::BackendKind::kFa2VAttention)
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
chatTrace(int n, double qps, u64 seed)
{
    auto trace = openChatTrace(n, seed);
    assignPoissonArrivals(trace, qps, seed + 11);
    return trace;
}

std::function<Router::Estimate(int)>
flatEstimate(TimeNs service_ns, u64 kv_bytes)
{
    return [service_ns, kv_bytes](int) {
        return Router::Estimate{service_ns, kv_bytes};
    };
}

// ---- Router unit tests ---------------------------------------------

TEST(Router, RoundRobinCycles)
{
    Router router(RoutingPolicy::kRoundRobin,
                  {{1 * GiB}, {1 * GiB}, {1 * GiB}});
    for (int i = 0; i < 9; ++i) {
        EXPECT_EQ(router.route(static_cast<TimeNs>(i),
                               flatEstimate(1000, 100)),
                  i % 3);
    }
}

TEST(Router, JoinShortestQueueSpreadsAndDrains)
{
    Router router(RoutingPolicy::kJoinShortestQueue,
                  {{1 * GiB}, {1 * GiB}});
    // Simultaneous arrivals alternate via the lowest-index tie-break.
    EXPECT_EQ(router.route(0, flatEstimate(100, 1)), 0);
    EXPECT_EQ(router.route(0, flatEstimate(100, 1)), 1);
    EXPECT_EQ(router.route(0, flatEstimate(500, 1)), 0);
    EXPECT_EQ(router.outstanding(0), 2);
    EXPECT_EQ(router.outstanding(1), 1);
    // By t=200 the two 100ns requests have drained; replica 0 still
    // holds the 500ns one, so the next arrival joins replica 1.
    EXPECT_EQ(router.route(200, flatEstimate(100, 1)), 1);
    EXPECT_EQ(router.outstanding(0), 1);
    EXPECT_EQ(router.outstanding(1), 1);
}

TEST(Router, LeastKvPressureNormalizesByBudget)
{
    // Replica 1 has 4x the budget: equal commitments pressure it 4x
    // less, so it absorbs most of a simultaneous burst.
    Router router(RoutingPolicy::kLeastKvPressure,
                  {{1 * GiB}, {4 * GiB}});
    int to_large = 0;
    for (int i = 0; i < 10; ++i) {
        to_large += router.route(0, flatEstimate(1000000, 64 * MiB));
    }
    EXPECT_EQ(to_large, 8); // 1:4 budget ratio => 2:8 split
    EXPECT_GT(router.kvBytes(1), router.kvBytes(0));
    // Pressure stays budget-normalized within one request of even.
    EXPECT_NEAR(router.kvPressure(0), router.kvPressure(1),
                static_cast<double>(64 * MiB) / (1 * GiB));
}

TEST(Router, KvPressureDrainsOverTime)
{
    Router router(RoutingPolicy::kLeastKvPressure, {{1 * GiB}});
    router.route(0, flatEstimate(100, 512 * MiB));
    EXPECT_DOUBLE_EQ(router.kvPressure(0), 0.5);
    router.route(1000, flatEstimate(100, 1 * MiB));
    EXPECT_EQ(router.kvBytes(0), 1 * MiB); // first request retired
}

TEST(Router, RejectsMalformedInput)
{
    test::ScopedThrowErrors guard;
    Router router(RoutingPolicy::kRoundRobin, {{1 * GiB}, {1 * GiB}});
    // Null estimator.
    EXPECT_THROW(router.route(0, nullptr), SimError);
    // Time going backwards.
    router.route(100, flatEstimate(1, 1));
    EXPECT_THROW(router.route(50, flatEstimate(1, 1)), SimError);
    // Empty cluster / zero budget are configuration errors.
    EXPECT_THROW(Router(RoutingPolicy::kRoundRobin, {}), SimError);
    EXPECT_THROW(Router(RoutingPolicy::kRoundRobin, {{0}}), SimError);
}

TEST(Router, PolicyNames)
{
    EXPECT_STREQ(toString(RoutingPolicy::kRoundRobin), "round_robin");
    EXPECT_STREQ(toString(RoutingPolicy::kJoinShortestQueue),
                 "join_shortest_queue");
    EXPECT_STREQ(toString(RoutingPolicy::kLeastKvPressure),
                 "least_kv_pressure");
}

// ---- Cluster tests --------------------------------------------------

TEST(Cluster, SingleReplicaMatchesEngine)
{
    auto trace = chatTrace(40, 4.0, 17);
    Engine engine(replicaConfig());
    const auto solo = engine.run(trace);

    ServingCluster cluster(ServingCluster::uniform(
        replicaConfig(), 1, RoutingPolicy::kJoinShortestQueue));
    const auto report = cluster.run(trace);

    EXPECT_EQ(report.merged.makespan_ns, solo.makespan_ns);
    EXPECT_EQ(report.merged.num_requests, solo.num_requests);
    EXPECT_EQ(report.merged.decode_tokens, solo.decode_tokens);
    EXPECT_EQ(report.merged.preemptions, solo.preemptions);
    EXPECT_DOUBLE_EQ(report.merged.latency_s.median(),
                     solo.latency_s.median());
    EXPECT_DOUBLE_EQ(report.request_imbalance, 1.0);
    EXPECT_DOUBLE_EQ(report.jain_fairness, 1.0);
}

TEST(Cluster, EveryRequestServedExactlyOnce)
{
    const int n = 60;
    auto trace = chatTrace(n, 8.0, 23);
    for (RoutingPolicy policy : kAllRoutingPolicies) {
        ServingCluster cluster(
            ServingCluster::uniform(replicaConfig(), 3, policy));
        const auto report = cluster.run(trace);
        EXPECT_EQ(report.merged.num_requests, n) << toString(policy);
        EXPECT_EQ(report.merged.latency_s.count(),
                  static_cast<u64>(n));
        i64 assigned = 0;
        for (std::size_t r = 0; r < report.assigned.size(); ++r) {
            assigned += report.assigned[r];
            EXPECT_EQ(report.assigned[r],
                      report.replicas[r].num_requests);
            // Busy time excludes idle gaps between arrivals.
            EXPECT_GT(report.replicas[r].busy_ns, 0u);
            EXPECT_LE(report.replicas[r].busy_ns,
                      report.replicas[r].makespan_ns);
        }
        EXPECT_EQ(assigned, n) << toString(policy);
        EXPECT_GE(report.busy_imbalance, 1.0) << toString(policy);
    }
}

TEST(Cluster, SecondRunOnSameClusterPanics)
{
    // Replica clocks are consumed by a run; silent reuse would shift
    // every arrival of the next trace into the past.
    test::ScopedThrowErrors guard;
    ServingCluster cluster(ServingCluster::uniform(
        replicaConfig(), 2, RoutingPolicy::kRoundRobin));
    cluster.run(chatTrace(6, 6.0, 53));
    EXPECT_THROW(cluster.run(chatTrace(6, 6.0, 53)), SimError);
}

TEST(Cluster, DeterministicMergedReportAcrossRuns)
{
    // Same seed => byte-identical merged report across clusters.
    ClusterReport reports[2];
    for (auto &report : reports) {
        auto config = ServingCluster::uniform(
            replicaConfig(), 4, RoutingPolicy::kLeastKvPressure);
        config.replicas[1].kv_budget_override = 1 * GiB; // mild skew
        ServingCluster cluster(std::move(config));
        report = cluster.run(chatTrace(64, 10.0, 31));
    }
    EXPECT_EQ(reports[0].merged.makespan_ns,
              reports[1].merged.makespan_ns);
    EXPECT_EQ(reports[0].merged.preemptions,
              reports[1].merged.preemptions);
    EXPECT_EQ(reports[0].assigned, reports[1].assigned);
    // Full latency sample vectors, bit for bit.
    EXPECT_EQ(reports[0].merged.latency_s.sorted(),
              reports[1].merged.latency_s.sorted());
    EXPECT_EQ(reports[0].merged.ttft_s.sorted(),
              reports[1].merged.ttft_s.sorted());
    for (int r = 0; r < 4; ++r) {
        const auto idx = static_cast<std::size_t>(r);
        EXPECT_EQ(reports[0].replicas[idx].makespan_ns,
                  reports[1].replicas[idx].makespan_ns);
        EXPECT_EQ(reports[0].replicas[idx].decode_iterations,
                  reports[1].replicas[idx].decode_iterations);
    }
    EXPECT_DOUBLE_EQ(reports[0].jain_fairness,
                     reports[1].jain_fairness);
    EXPECT_DOUBLE_EQ(reports[0].merged.latency_s.mean(),
                     reports[1].merged.latency_s.mean());
}

TEST(Cluster, RoundRobinAssignmentIsReported)
{
    // Round-robin deals arrivals out alternately starting at replica
    // 0 (Router.RoundRobinCycles pins the cycle), so an odd-length
    // trace leaves replica 0 one request ahead; the report's assigned
    // counts say exactly that, and each replica served its share.
    auto trace = chatTrace(25, 6.0, 37);
    ServingCluster cluster(ServingCluster::uniform(
        replicaConfig(), 2, RoutingPolicy::kRoundRobin));
    const auto report = cluster.run(trace);
    ASSERT_EQ(report.assigned.size(), 2u);
    EXPECT_EQ(report.assigned[0], 13);
    EXPECT_EQ(report.assigned[1], 12);
    for (std::size_t r = 0; r < 2; ++r) {
        EXPECT_EQ(report.replicas[r].num_requests, report.assigned[r]);
    }
}

TEST(Cluster, LeastKvPressureFavoursBiggerReplica)
{
    // 3:1 budget skew: the pressure-aware policy must shift load to
    // the big replica while round-robin splits evenly regardless.
    auto make = [](RoutingPolicy policy) {
        auto config = ServingCluster::uniform(replicaConfig(), 2,
                                              policy);
        config.replicas[0].kv_budget_override = 3 * GiB;
        config.replicas[1].kv_budget_override = 1 * GiB;
        return ServingCluster(std::move(config));
    };
    auto trace = chatTrace(48, 12.0, 41);

    auto rr = make(RoutingPolicy::kRoundRobin);
    const auto rr_report = rr.run(trace);
    EXPECT_EQ(rr_report.assigned[0], rr_report.assigned[1]);

    auto kv = make(RoutingPolicy::kLeastKvPressure);
    const auto kv_report = kv.run(trace);
    EXPECT_GT(kv_report.assigned[0], kv_report.assigned[1]);
    EXPECT_GT(kv_report.request_imbalance, 1.0);
    EXPECT_LT(kv_report.jain_fairness, 1.0);
}

TEST(Cluster, MergedIterationsSortedByTimestamp)
{
    auto config = replicaConfig();
    config.record_iterations = true;
    ServingCluster cluster(ServingCluster::uniform(
        config, 3, RoutingPolicy::kJoinShortestQueue));
    const auto report = cluster.run(chatTrace(30, 9.0, 43));
    ASSERT_FALSE(report.merged.iterations.empty());
    std::size_t total = 0;
    for (const auto &replica : report.replicas) {
        total += replica.iterations.size();
    }
    EXPECT_EQ(report.merged.iterations.size(), total);
    for (std::size_t i = 1; i < report.merged.iterations.size(); ++i) {
        EXPECT_GE(report.merged.iterations[i].start_ns,
                  report.merged.iterations[i - 1].start_ns);
    }
}

TEST(Cluster, EmptyTraceYieldsZeroedReport)
{
    ServingCluster cluster(ServingCluster::uniform(
        replicaConfig(), 2, RoutingPolicy::kJoinShortestQueue));
    const auto report = cluster.run({});
    EXPECT_EQ(report.merged.num_requests, 0);
    EXPECT_EQ(report.merged.makespan_ns, 0u);
    EXPECT_EQ(report.merged.requestsPerMinute(), 0.0);
    EXPECT_EQ(report.merged.decodeTokensPerSecond(), 0.0);
    EXPECT_DOUBLE_EQ(report.jain_fairness, 1.0);
    EXPECT_DOUBLE_EQ(report.request_imbalance, 0.0);
}

TEST(Cluster, MixedBackendReplicasServe)
{
    // A cluster may mix vAttention and paged replicas (e.g. staged
    // rollout); both serve their share.
    ServingCluster::Config config;
    config.replicas = {replicaConfig(perf::BackendKind::kFa2VAttention),
                       replicaConfig(perf::BackendKind::kFa2Paged)};
    config.policy = RoutingPolicy::kJoinShortestQueue;
    ServingCluster cluster(std::move(config));
    const auto report = cluster.run(chatTrace(24, 6.0, 47));
    EXPECT_EQ(report.merged.num_requests, 24);
    EXPECT_GT(report.assigned[0], 0);
    EXPECT_GT(report.assigned[1], 0);
}

} // namespace
} // namespace vattn::serving
