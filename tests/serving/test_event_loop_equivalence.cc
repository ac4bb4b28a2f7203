/**
 * @file
 * Event-driven equivalence: the single-threaded cluster driver and the
 * engine step API must reproduce a standalone Engine::run bit for bit.
 *
 *  - Each replica of a round-robin cluster reports exactly what a
 *    standalone engine serving the same share reports, down to the
 *    full latency sample vectors and the iteration records, although
 *    the cluster steps its replicas interleaved between arrivals.
 *  - An online session stepped externally (nextEventNs/stepRun) vs
 *    run() on a sparse-arrival trace: identical RunReport, identical
 *    iteration records, and the idle steps jump the clock instead of
 *    spinning.
 *  - The k-way iteration merge is pinned against its specification,
 *    a stable sort of the concatenated per-replica streams.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "serving/cluster.hh"
#include "test_util.hh"

namespace vattn::serving
{
namespace
{

EngineConfig
replicaConfig(SchedulingMode mode = SchedulingMode::kStallFreeChunked)
{
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.backend = perf::BackendKind::kFa2VAttention;
    config.kv_budget_override = 8 * GiB;
    config.scheduler.max_num_seqs = 4;
    config.scheduler.max_batched_tokens = 8192;
    config.scheduler.mode = mode;
    config.vattn.max_batch_size = 4;
    config.record_iterations = true;
    return config;
}

void
expectSameIterations(const std::vector<IterationRecord> &a,
                     const std::vector<IterationRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].start_ns, b[i].start_ns) << "record " << i;
        EXPECT_EQ(a[i].duration_ns, b[i].duration_ns) << "record " << i;
        EXPECT_EQ(a[i].is_prefill, b[i].is_prefill) << "record " << i;
        EXPECT_EQ(a[i].batch, b[i].batch) << "record " << i;
        EXPECT_EQ(a[i].mem_critical_ns, b[i].mem_critical_ns)
            << "record " << i;
        EXPECT_EQ(a[i].groups_mapped, b[i].groups_mapped)
            << "record " << i;
        EXPECT_EQ(a[i].prefill_chunk_tokens, b[i].prefill_chunk_tokens)
            << "record " << i;
        EXPECT_EQ(a[i].num_prefill_chunks, b[i].num_prefill_chunks)
            << "record " << i;
        EXPECT_EQ(a[i].decode_batch, b[i].decode_batch)
            << "record " << i;
    }
}

/** Bit-for-bit RunReport equality: every counter, every raw latency
 *  sample, every iteration record. */
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
    EXPECT_EQ(a.swap_outs, b.swap_outs);
    EXPECT_EQ(a.swap_ins, b.swap_ins);
    EXPECT_EQ(a.swap_out_bytes, b.swap_out_bytes);
    EXPECT_EQ(a.swap_in_bytes, b.swap_in_bytes);
    EXPECT_EQ(a.swap_stall_ns, b.swap_stall_ns);
    EXPECT_EQ(a.dropped_requests, b.dropped_requests);
    EXPECT_EQ(a.prefix_lookups, b.prefix_lookups);
    EXPECT_EQ(a.prefix_hits, b.prefix_hits);
    EXPECT_EQ(a.prefill_tokens_saved, b.prefill_tokens_saved);
    EXPECT_EQ(a.prefix_aliased_bytes, b.prefix_aliased_bytes);
    EXPECT_EQ(a.prefix_copied_bytes, b.prefix_copied_bytes);
    EXPECT_EQ(a.latency_s.sorted(), b.latency_s.sorted());
    EXPECT_EQ(a.ttft_s.sorted(), b.ttft_s.sorted());
    EXPECT_EQ(a.tbt_s.sorted(), b.tbt_s.sorted());
    EXPECT_EQ(a.normalized_latency_s.sorted(),
              b.normalized_latency_s.sorted());
    expectSameIterations(a.iterations, b.iterations);
}

/** Figure-10-shaped online load scaled to test size: long-context
 *  summarization requests at a near-capacity Poisson rate. */
std::vector<Request>
onlineTrace(int n)
{
    auto trace = arxivOnlineTrace(n, /*seed=*/2);
    assignPoissonArrivals(trace, /*qps=*/0.5, /*seed=*/2024);
    return trace;
}

ClusterReport
runCluster(const std::vector<Request> &trace)
{
    ServingCluster cluster(ServingCluster::uniform(
        replicaConfig(), 3, RoutingPolicy::kJoinShortestQueue));
    return cluster.run(trace);
}

TEST(EventLoopEquivalence, ClusterEquivalenceUnderPrefillPrioritized)
{
    // The cluster steps its replicas interleaved, up to each arrival
    // instant; replicas are independent, so each must end exactly
    // where a standalone engine serving the same share ends. The
    // prefill-prioritized composer exercises monolithic prefill
    // iterations and preemption timing.
    const auto trace = onlineTrace(12);
    const auto config = replicaConfig(SchedulingMode::kPrefillPrioritized);
    ServingCluster cluster(
        ServingCluster::uniform(config, 2, RoutingPolicy::kRoundRobin));
    EXPECT_EQ(cluster.resolvedExecution(), ClusterExecution::kEventLoop);
    EXPECT_STREQ(toString(cluster.resolvedExecution()), "event_loop");
    const auto report = cluster.run(trace);

    // Round-robin deals the arrival-ordered trace out alternately.
    std::vector<Request> sorted = trace;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival_ns < b.arrival_ns;
                     });
    std::vector<Request> shares[2];
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        shares[i % 2].push_back(sorted[i]);
    }
    ASSERT_EQ(report.replicas.size(), 2u);
    for (std::size_t r = 0; r < 2; ++r) {
        Engine standalone(config);
        expectSameReport(report.replicas[r],
                         standalone.run(std::move(shares[r])));
    }
}

TEST(EventLoopEquivalence, MergedIterationsMatchStableSortSpec)
{
    // Pin the k-way merge against its specification: a stable sort of
    // the concatenated per-replica streams by start time, replicas in
    // index order. Any tie-break change shows up here.
    const auto report = runCluster(onlineTrace(18));
    std::vector<std::pair<std::size_t, const IterationRecord *>> spec;
    for (std::size_t r = 0; r < report.replicas.size(); ++r) {
        for (const auto &record : report.replicas[r].iterations) {
            spec.emplace_back(r, &record);
        }
    }
    std::stable_sort(spec.begin(), spec.end(),
                     [](const auto &a, const auto &b) {
                         return a.second->start_ns < b.second->start_ns;
                     });
    ASSERT_EQ(report.merged.iterations.size(), spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        EXPECT_EQ(report.merged.iterations[i].start_ns,
                  spec[i].second->start_ns);
        EXPECT_EQ(report.merged.iterations[i].duration_ns,
                  spec[i].second->duration_ns);
        EXPECT_EQ(report.merged.iterations[i].batch,
                  spec[i].second->batch);
    }
}

// ---- Engine step API ------------------------------------------------

/** Open an online session on @p engine, submit @p trace (time-ordered)
 *  and close it: the engine is then ready to be stepped. */
void
submitAll(Engine &engine, const std::vector<Request> &trace)
{
    engine.beginOnline(trace.size());
    for (const Request &request : trace) {
        ASSERT_TRUE(engine.submitOnline(request).isOk());
    }
    engine.closeOnline();
}

/** Sparse arrivals: long idle gaps between chat requests, the trace
 *  shape where the idle-skip path does all the work. */
std::vector<Request>
sparseTrace(int n)
{
    auto trace = openChatTrace(n, /*seed=*/3);
    assignPoissonArrivals(trace, /*qps=*/0.05, /*seed=*/71);
    return trace;
}

TEST(EventLoopEquivalence, StepApiMatchesRunOnSparseTrace)
{
    const auto trace = sparseTrace(16);

    Engine whole(replicaConfig());
    const RunReport via_run = whole.run(trace);

    Engine stepped(replicaConfig());
    EXPECT_EQ(stepped.nextEventNs(), sim::kNoEventNs); // no active run
    submitAll(stepped, trace);
    while (stepped.runActive()) {
        // The engine's next event never precedes its clock, and while
        // active it is always a real timestamp.
        const TimeNs next = stepped.nextEventNs();
        ASSERT_NE(next, sim::kNoEventNs);
        ASSERT_GE(next, stepped.clock().now());
        stepped.stepRun();
    }
    EXPECT_EQ(stepped.nextEventNs(), sim::kNoEventNs);
    const RunReport via_steps = stepped.endRun();

    expectSameReport(via_run, via_steps);
    // Sparse load: most of the makespan is idle gaps the engine
    // jumped over, not simulated busy time.
    EXPECT_LT(via_steps.busy_ns, via_steps.makespan_ns / 2);
}

TEST(EventLoopEquivalence, IdleEngineJumpsToNextArrival)
{
    constexpr TimeNs kHourNs = 3'600'000'000'000ULL;
    auto trace = sparseTrace(2);
    trace[0].arrival_ns = 0;
    trace[1].arrival_ns = kHourNs; // an hour of virtual time later
    Engine engine(replicaConfig());
    submitAll(engine, trace);

    // Serve the first request to completion.
    while (engine.runActive() &&
           engine.nextEventNs() <= engine.clock().now()) {
        engine.stepRun();
    }
    ASSERT_TRUE(engine.runActive());
    // Idle: the next event is the second arrival, an hour of virtual
    // time away. One step must jump the clock straight there.
    EXPECT_EQ(engine.nextEventNs(), kHourNs);
    engine.stepRun();
    EXPECT_EQ(engine.clock().now(), kHourNs);

    while (engine.runActive()) {
        engine.stepRun();
    }
    const auto report = engine.endRun();
    EXPECT_EQ(report.num_requests, 2);
}

TEST(EventLoopEquivalence, StepApiGuardsMisuse)
{
    test::ScopedThrowErrors guard;
    Engine engine(replicaConfig());
    EXPECT_THROW(engine.stepRun(), SimError); // no active run

    submitAll(engine, sparseTrace(4));
    EXPECT_THROW(engine.beginOnline(), SimError); // nested
    EXPECT_THROW(engine.endRun(), SimError);      // requests in flight
    while (engine.runActive()) {
        engine.stepRun();
    }
    EXPECT_EQ(engine.endRun().num_requests, 4);

    // A session must be closed before it is finalized, and an empty
    // one yields the zero report.
    Engine fresh(replicaConfig());
    fresh.beginOnline();
    EXPECT_FALSE(fresh.runActive());
    EXPECT_THROW(fresh.endRun(), SimError); // session still open
    fresh.closeOnline();
    EXPECT_EQ(fresh.endRun().num_requests, 0);
}

} // namespace
} // namespace vattn::serving
