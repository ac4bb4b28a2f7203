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
 *  - Engine::advanceTo(h), which runs decode-only stretches as decode
 *    runs with ensure() skipped inside the growth horizon, matches a
 *    stepRun loop to the same horizons: RunReport, iteration records
 *    and per-rank driver API counts, on both backends and in both
 *    scheduling modes, with prefix caching, a sliding-window model,
 *    swap preemption under live routing and migration, TP 2, TBT
 *    deadlines violated inside decode runs, and a full sequence cap
 *    with requests waiting (decode runs continue) or with TTFT
 *    shedding on (they must not). Cap cases also advance one
 *    iteration at a time, which counts the decode-run iterations that
 *    ran while requests waited and must match as well.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serving/cluster.hh"
#include "serving/lockstep_backend.hh"
#include "serving/router.hh"
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

// ---- advanceTo vs the stepRun loop ----------------------------------

enum class Feature
{
    kPrefix,
    kWindow,
    kSwapLive,
    kTp2,
    kTbtDeadlines,
    kCapFull,
    kCapFullShed,
};

/** The sequence cap of the cap features: below the burst's size. */
constexpr int kCapSeqs = 4;

struct AdvanceCase
{
    Feature feature;
    perf::BackendKind backend;
    SchedulingMode mode;
};

std::string
advanceCaseName(const AdvanceCase &c)
{
    const char *feature = "";
    switch (c.feature) {
    case Feature::kPrefix: feature = "Prefix"; break;
    case Feature::kWindow: feature = "Window"; break;
    case Feature::kSwapLive: feature = "SwapLive"; break;
    case Feature::kTp2: feature = "Tp2"; break;
    case Feature::kTbtDeadlines: feature = "TbtDeadlines"; break;
    case Feature::kCapFull: feature = "CapFull"; break;
    case Feature::kCapFullShed: feature = "CapFullShed"; break;
    }
    const char *backend =
        perf::isPaged(c.backend) ? "Paged" : "VAttention";
    const char *mode = c.mode == SchedulingMode::kPrefillPrioritized
                           ? "PrefillPrioritized"
                           : "StallFree";
    return std::string(feature) + backend + mode;
}

/** Names the case in test listings (the default prints raw bytes,
 *  padding included, which differ between builds). */
void
PrintTo(const AdvanceCase &c, std::ostream *os)
{
    *os << advanceCaseName(c);
}

EngineConfig
advanceConfig(const AdvanceCase &c)
{
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.backend = c.backend;
    config.kv_budget_override = 1 * GiB;
    config.scheduler.max_num_seqs = 16;
    config.scheduler.max_batched_tokens = 4096;
    config.scheduler.mode = c.mode;
    config.vattn.max_batch_size = 16;
    // Small page-groups: growth and driver calls every few hundred
    // tokens, so decode runs end at many horizons.
    config.vattn.page_group = PageGroup::k64KB;
    config.record_iterations = true;
    switch (c.feature) {
    case Feature::kPrefix:
        config.enable_prefix_caching = true;
        break;
    case Feature::kWindow:
        config.model = config.model.withSlidingWindowInterleave(512);
        break;
    case Feature::kSwapLive:
        // A few long requests per replica fit as prompts but not as
        // decoded contexts: victims swap out mid-decode.
        config.kv_budget_override =
            config.model.kvBytesPerTokenPerWorker(1) * 9600;
        config.preemption_policy = PreemptionPolicy::kSwap;
        config.host_swap_bytes = 1 * GiB;
        break;
    case Feature::kTp2:
        config.tp_degree = 2;
        break;
    case Feature::kTbtDeadlines:
        break;
    case Feature::kCapFull:
    case Feature::kCapFullShed:
        config.scheduler.max_num_seqs = kCapSeqs;
        config.vattn.max_batch_size = kCapSeqs;
        config.shed_on_ttft = c.feature == Feature::kCapFullShed;
        break;
    }
    return config;
}

/** Requests of @p prompt + 37 * i prompt tokens decoding @p decode
 *  tokens, Poisson at @p qps. */
std::vector<Request>
burstTrace(int n, i64 prompt, i64 decode, double qps, u64 seed)
{
    std::vector<Request> trace(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < trace.size(); ++i) {
        Request &r = trace[i];
        r.id = static_cast<u64>(i);
        r.prompt_tokens = prompt + 37 * static_cast<i64>(i);
        r.max_new_tokens = decode;
    }
    assignPoissonArrivals(trace, qps, seed);
    return trace;
}

std::vector<Request>
advanceTrace(Feature feature)
{
    std::vector<Request> trace;
    switch (feature) {
    case Feature::kPrefix:
        trace = sharedSystemPromptTrace(/*n=*/24, /*tenants=*/2,
                                        /*system_tokens=*/1024,
                                        /*user_mean=*/128, /*seed=*/3);
        assignPoissonArrivals(trace, /*qps=*/4.0, /*seed=*/31);
        break;
    case Feature::kWindow:
    case Feature::kSwapLive:
        // Window: the shorter prompts decode across the 512-token
        // window edge, the longer ones decode past it. Swap: long
        // requests arriving in a burst squeeze the pools.
        trace.resize(feature == Feature::kWindow ? 8 : 14);
        for (std::size_t i = 0; i < trace.size(); ++i) {
            Request &r = trace[i];
            r.id = static_cast<u64>(i);
            r.prompt_tokens = feature == Feature::kWindow
                                  ? 200 + 150 * static_cast<i64>(i)
                                  : 2000;
            r.max_new_tokens = 600;
        }
        assignPoissonArrivals(
            trace, feature == Feature::kWindow ? 2.0 : 40.0, /*seed=*/32);
        break;
    case Feature::kTp2:
        trace = openChatTrace(/*n=*/12, /*seed=*/5);
        assignPoissonArrivals(trace, /*qps=*/6.0, /*seed=*/33);
        break;
    case Feature::kTbtDeadlines: {
        // Offline: the prompts prefill together, then one long
        // decode-only stretch whose iterations lengthen as KV grows.
        // Deadlines sit at quantiles of the gaps the trace shows
        // without them (deadlines change no schedule), so all but the
        // loosest are crossed, inside decode runs. Every third request
        // has none.
        trace = burstTrace(10, 200, 500, /*qps=*/1.0, /*seed=*/34);
        assignOfflineArrivals(trace);
        Engine pilot(advanceConfig({feature, perf::BackendKind::kFa2Paged,
                                    SchedulingMode::kStallFreeChunked}));
        const RunReport gaps = pilot.run(trace);
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const double q =
                std::min(1.0, 0.25 + 0.1 * static_cast<double>(i));
            trace[i].tbt_deadline_ns =
                i % 3 == 2 ? 0
                           : static_cast<TimeNs>(std::llround(
                                 gaps.tbt_s.quantile(q) * 1e9));
        }
        break;
    }
    case Feature::kCapFull:
    case Feature::kCapFullShed:
        // A burst three times the cap: most requests wait while the
        // cap decodes. The TTFT deadline sheds some of them when
        // shedding is on.
        trace = burstTrace(3 * kCapSeqs, 300, 200, /*qps=*/30.0,
                           /*seed=*/35);
        for (Request &r : trace) {
            r.ttft_deadline_ns = 3'000'000'000;
        }
        break;
    }
    std::stable_sort(trace.begin(), trace.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival_ns < b.arrival_ns;
                     });
    return trace;
}

/** How a drive moves its engines to each horizon. */
enum class Drive
{
    kStepRun,   ///< the stepRun() loop
    kAdvanceTo, ///< one advanceTo(horizon)
    /** advanceTo() one iteration at a time, noting which decode-run
     *  iterations ran while requests waited. */
    kAdvanceByIteration,
};

/** What one drive of a set of replicas leaves behind. */
struct Driven
{
    std::vector<RunReport> reports;
    /** Per-replica, per-rank driver counters (vAttention only). */
    std::vector<std::vector<cuvmm::DriverCounters>> drivers;
    u64 decode_run_iterations = 0;
    /** kAdvanceByIteration: decode-run iterations that started with a
     *  request waiting (a decode run admits nothing, so it waited
     *  throughout). */
    u64 waiting_decode_run_iterations = 0;
};

/** Step @p engine to @p horizon the @p how way. */
void
advance(Engine &engine, TimeNs horizon, Drive how, Driven &driven)
{
    switch (how) {
    case Drive::kStepRun:
        while (engine.runActive() && engine.nextEventNs() < horizon) {
            engine.stepRun();
        }
        return;
    case Drive::kAdvanceTo:
        engine.advanceTo(horizon);
        return;
    case Drive::kAdvanceByIteration:
        while (engine.runActive() && engine.nextEventNs() < horizon) {
            const bool waiting = engine.liveLoad().queued > 0;
            const u64 before = engine.decodeRunIterations();
            const TimeNs next =
                std::max(engine.clock().now(), engine.nextEventNs());
            engine.advanceTo(std::min(horizon, next + 1));
            if (waiting) {
                driven.waiting_decode_run_iterations +=
                    engine.decodeRunIterations() - before;
            }
        }
        return;
    }
}

/**
 * Serve @p trace on @p replicas engines: before each arrival every
 * replica is advanced to it, then (with live routing) one queued or
 * swapped request migrates from the replica with the longest queue to
 * an idle one, and the arrival is routed live (or to replica 0).
 */
Driven
drive(const AdvanceCase &c, int replicas, Drive how)
{
    // TP 2 compares every rank's driver, so build the followers too.
    const ReplicateFollowers replicate;
    const EngineConfig config = advanceConfig(c);
    std::vector<std::unique_ptr<Engine>> engines;
    std::vector<Router::Replica> routed;
    for (int r = 0; r < replicas; ++r) {
        engines.push_back(std::make_unique<Engine>(config));
        routed.push_back({engines.back()->backend().budgetBytes()});
    }
    Router router(RoutingPolicy::kJoinShortestQueue, routed);
    const auto load = [&engines](int r) {
        return engines[static_cast<std::size_t>(r)]->liveLoad();
    };
    const std::vector<Request> trace = advanceTrace(c.feature);
    Driven driven;
    for (auto &engine : engines) {
        engine->beginOnline(trace.size());
    }
    for (const Request &request : trace) {
        for (auto &engine : engines) {
            advance(*engine, request.arrival_ns, how, driven);
        }
        if (replicas > 1) {
            auto by_queue = [&](const auto &a, const auto &b) {
                return a->liveLoad().queued < b->liveLoad().queued;
            };
            Engine &donor =
                **std::max_element(engines.begin(), engines.end(), by_queue);
            Engine &receiver =
                **std::min_element(engines.begin(), engines.end(), by_queue);
            if (donor.liveLoad().queued > 0 &&
                receiver.liveLoad().queued == 0 &&
                !donor.migrateSwappedTo(receiver)) {
                donor.migrateQueuedTo(receiver);
            }
        }
        const int chosen = router.routeLive(request.arrival_ns, load);
        EXPECT_TRUE(engines[static_cast<std::size_t>(chosen)]
                        ->submitOnline(request)
                        .isOk());
    }
    for (auto &engine : engines) {
        engine->closeOnline();
        advance(*engine, sim::kNoEventNs, how, driven);
        driven.decode_run_iterations += engine->decodeRunIterations();
        driven.reports.push_back(engine->endRun());
        EXPECT_TRUE(engine->auditNow().ok());
        std::vector<cuvmm::DriverCounters> ranks;
        if (VAttentionBackend *backend = engine->vattnBackend()) {
            core::WorkerGroup &group = backend->workerGroup();
            for (int w = 0; w < group.numWorkers(); ++w) {
                ranks.push_back(group.driver(w).counters());
            }
        }
        driven.drivers.push_back(std::move(ranks));
    }
    return driven;
}

class AdvanceToEquivalence : public ::testing::TestWithParam<AdvanceCase>
{
};

TEST_P(AdvanceToEquivalence, MatchesTheStepRunLoopBitForBit)
{
    const AdvanceCase &c = GetParam();
    const int replicas = c.feature == Feature::kSwapLive ? 2 : 1;
    const bool cap = c.feature == Feature::kCapFull ||
                     c.feature == Feature::kCapFullShed;
    const Driven stepped = drive(c, replicas, Drive::kStepRun);
    std::vector<Driven> advanced;
    advanced.push_back(drive(c, replicas, Drive::kAdvanceTo));
    if (cap) {
        advanced.push_back(drive(c, replicas, Drive::kAdvanceByIteration));
    }

    EXPECT_EQ(stepped.decode_run_iterations, 0u);
    u64 swap_outs = 0;
    u64 migrations = 0;
    i64 served = 0;
    for (const Driven &b_driven : advanced) {
        EXPECT_GT(b_driven.decode_run_iterations, 0u)
            << "advanceTo never ran a decode run";
        ASSERT_EQ(stepped.reports.size(), b_driven.reports.size());
        for (std::size_t r = 0; r < stepped.reports.size(); ++r) {
            const RunReport &a = stepped.reports[r];
            const RunReport &b = b_driven.reports[r];
            expectSameReport(a, b);
            EXPECT_TRUE(a.iterations == b.iterations) << "replica " << r;
            EXPECT_EQ(a.comm_ns, b.comm_ns);
            EXPECT_EQ(a.shed_requests, b.shed_requests);
            EXPECT_EQ(a.migrations_in, b.migrations_in);
            EXPECT_EQ(a.migrations_out, b.migrations_out);
            EXPECT_EQ(a.slo_met_requests, b.slo_met_requests);
            EXPECT_EQ(a.slo_violations_ttft, b.slo_violations_ttft);
            EXPECT_EQ(a.slo_violations_tbt, b.slo_violations_tbt);
            EXPECT_TRUE(stepped.drivers[r] == b_driven.drivers[r])
                << "replica " << r << ": driver API counts differ";
        }
    }
    for (const RunReport &a : stepped.reports) {
        swap_outs += static_cast<u64>(a.swap_outs);
        migrations += a.migrations_in;
        served += a.num_requests + a.shed_requests;
    }
    EXPECT_EQ(served,
              static_cast<i64>(advanceTrace(c.feature).size()));
    if (c.feature == Feature::kTbtDeadlines) {
        const RunReport &a = stepped.reports[0];
        EXPECT_GT(a.slo_violations_tbt, 0) << "no TBT deadline missed";
        EXPECT_LT(a.slo_violations_tbt, a.slo_requests)
            << "every TBT deadline missed";
    }
    if (cap) {
        EXPECT_EQ(stepped.reports[0].preemptions, 0u);
        EXPECT_EQ(stepped.reports[0].peak_batch, kCapSeqs);
    }
    if (c.feature == Feature::kCapFull) {
        EXPECT_GT(advanced.back().waiting_decode_run_iterations, 0u)
            << "no decode run while requests waited at the cap";
    }
    if (c.feature == Feature::kCapFullShed) {
        EXPECT_EQ(advanced.back().waiting_decode_run_iterations, 0u)
            << "a decode run skipped shedding";
        EXPECT_GT(stepped.reports[0].shed_requests, 0);
    }
    if (c.feature == Feature::kSwapLive) {
        EXPECT_GT(swap_outs, 0u) << "no request swapped out";
        EXPECT_GT(migrations, 0u) << "no request migrated";
    }
    if (c.feature == Feature::kPrefix) {
        EXPECT_GT(stepped.reports[0].prefix_hits, 0);
    }
    if (!perf::isPaged(c.backend)) {
        const std::size_t ranks = c.feature == Feature::kTp2 ? 2u : 1u;
        EXPECT_EQ(stepped.drivers[0].size(), ranks);
        EXPECT_GT(stepped.drivers[0][0].map, 0u);
    }
}

class EmittedTokens : public ::testing::TestWithParam<perf::BackendKind>
{
};

TEST_P(EmittedTokens, AreBackedThroughSwapInsAndDecodeRuns)
{
    // Every token's KV must be backed when it is emitted, whether the
    // iteration ensured it or skipped ensure() on the slack. Swap-ins
    // rejoin the running set with no prefill chunk, so only the forced
    // ensure after them grows a request that swapped out at a boundary.
    // Only every other request streams its tokens: a decode run over a
    // mixed batch must still call on_token for each of their tokens,
    // with the request's fields current.
    const AdvanceCase c{Feature::kSwapLive, GetParam(),
                        SchedulingMode::kStallFreeChunked};
    Engine engine(advanceConfig(c));
    i64 checked = 0;
    i64 streamed_tokens = 0;
    StreamCallbacks callbacks;
    callbacks.on_finish = [&](const Request &request) {
        if (request.state == Request::State::kFinished) {
            streamed_tokens += request.generated;
        }
    };
    callbacks.on_token = [&](const Request &request) {
        // The iteration computed the token after contextLen() - 1.
        const i64 len = request.contextLen() - 1;
        bool backed = false;
        if (VAttentionBackend *backend = engine.vattnBackend()) {
            const core::TpWorker &runtime = backend->runtime();
            backed = runtime.groupsMapped(request.slot) *
                         runtime.geometry().tokensPerGroup() >=
                     len;
        } else {
            backed = static_cast<PagedBackend &>(engine.backend())
                         .runtime()
                         .ensureIsNoop(request.slot, len);
        }
        EXPECT_TRUE(backed) << "request " << request.id << " emitted at "
                            << len << " tokens of unbacked KV";
        EXPECT_EQ(request.last_token_ns, engine.clock().now());
        EXPECT_EQ(request.last_emit_ns, engine.clock().now());
        ++checked;
    };
    std::vector<Request> trace = advanceTrace(c.feature);
    for (std::size_t i = 0; i < trace.size(); i += 2) {
        trace[i].stream = &callbacks;
    }
    const RunReport report = engine.run(trace);
    EXPECT_GT(report.swap_ins, 0);
    EXPECT_GT(engine.decodeRunIterations(), 0u);
    EXPECT_EQ(checked, streamed_tokens); // every streamed output token
    EXPECT_GT(streamed_tokens, 0);
    EXPECT_LT(streamed_tokens, report.decode_tokens);
}

INSTANTIATE_TEST_SUITE_P(Backends, EmittedTokens,
                         ::testing::Values(perf::BackendKind::kFa2Paged,
                                           perf::BackendKind::kFa2VAttention),
                         [](const auto &info) {
                             return perf::isPaged(info.param)
                                        ? "Paged"
                                        : "VAttention";
                         });

std::vector<AdvanceCase>
advanceCases()
{
    std::vector<AdvanceCase> cases;
    for (const Feature feature :
         {Feature::kPrefix, Feature::kWindow, Feature::kSwapLive,
          Feature::kTp2, Feature::kTbtDeadlines, Feature::kCapFull,
          Feature::kCapFullShed}) {
        for (const perf::BackendKind backend :
             {perf::BackendKind::kFa2Paged,
              perf::BackendKind::kFa2VAttention}) {
            for (const SchedulingMode mode :
                 {SchedulingMode::kPrefillPrioritized,
                  SchedulingMode::kStallFreeChunked}) {
                cases.push_back({feature, backend, mode});
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Features, AdvanceToEquivalence,
                         ::testing::ValuesIn(advanceCases()),
                         [](const auto &info) {
                             return advanceCaseName(info.param);
                         });

} // namespace
} // namespace vattn::serving
