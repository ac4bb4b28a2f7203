/**
 * @file
 * Lead-only TP serving against full replication. A KV backend built
 * outside ReplicateFollowers builds worker 0 alone (in Release
 * builds), so an Engine serving a trace that way must report exactly
 * what an Engine whose backend builds and checks every worker
 * reports. Each case runs TP 2 or TP 4 on a paged or a vAttention
 * backend with one of prefix caching, a sliding-window model or
 * host-tier swapping, and compares:
 *
 *  - the two RunReports, every counter, every latency sample and
 *    every iteration record;
 *  - the per-API driver counters of every rank, read through
 *    WorkerGroup::driver(w) for w < numWorkers() as the serving
 *    benchmark sums them, so a lead-only group must still answer TP
 *    ranks (tp x the lead's counts).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serving/engine.hh"
#include "test_util.hh"

namespace vattn::serving
{
namespace
{

enum class Feature
{
    kPrefix,
    kWindow,
    kSwap,
};

struct Case
{
    Feature feature;
    perf::BackendKind backend;
    int tp;
};

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    const Case &c = info.param;
    const char *feature = c.feature == Feature::kPrefix   ? "Prefix"
                          : c.feature == Feature::kWindow ? "Window"
                                                          : "Swap";
    const char *backend =
        perf::isPaged(c.backend) ? "Paged" : "VAttention";
    return std::string(feature) + backend + "Tp" + std::to_string(c.tp);
}

EngineConfig
caseConfig(const Case &c)
{
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.tp_degree = c.tp;
    config.backend = c.backend;
    config.kv_budget_override = 1 * GiB;
    config.scheduler.max_num_seqs = 16;
    config.scheduler.max_batched_tokens = 4096;
    config.vattn.max_batch_size = 16;
    // Small page-groups: many driver calls per request at every TP.
    config.vattn.page_group = PageGroup::k64KB;
    config.record_iterations = true;
    switch (c.feature) {
    case Feature::kPrefix:
        config.enable_prefix_caching = true;
        break;
    case Feature::kWindow:
        config.model = config.model.withSlidingWindowInterleave(512);
        break;
    case Feature::kSwap:
        // Room for the four prompts but not for their decoded
        // contexts: pressure peaks mid-decode and victims swap out.
        config.kv_budget_override =
            config.model.kvBytesPerTokenPerWorker(c.tp) * 9600;
        config.preemption_policy = PreemptionPolicy::kSwap;
        config.host_swap_bytes = 1 * GiB;
        break;
    }
    return config;
}

std::vector<Request>
caseTrace(Feature feature)
{
    std::vector<Request> trace;
    if (feature == Feature::kPrefix) {
        trace = sharedSystemPromptTrace(/*n=*/24, /*tenants=*/2,
                                        /*system_tokens=*/1024,
                                        /*user_mean=*/128, /*seed=*/3);
    } else {
        // Window: decodes run past the 512-token window. Swap: four
        // long requests squeeze the pool.
        const int n = feature == Feature::kWindow ? 6 : 4;
        trace.resize(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            Request &r = trace[static_cast<std::size_t>(i)];
            r.id = static_cast<u64>(i);
            r.prompt_tokens = feature == Feature::kWindow ? 900 + 150 * i
                                                          : 2000;
            r.max_new_tokens = 600;
        }
    }
    assignOfflineArrivals(trace);
    return trace;
}

/** What one engine run leaves behind. */
struct Served
{
    RunReport report;
    Replication replication = Replication::kFull;
    int ranks = 0;
    /** Per-rank driver counters (vAttention only). */
    std::vector<cuvmm::DriverCounters> drivers;
};

Served
serve(const Case &c)
{
    Engine engine(caseConfig(c));
    Served served;
    served.report = engine.run(caseTrace(c.feature));
    if (VAttentionBackend *backend = engine.vattnBackend()) {
        core::WorkerGroup &group = backend->workerGroup();
        served.replication = group.replication();
        served.ranks = group.numWorkers();
        for (int w = 0; w < group.numWorkers(); ++w) {
            served.drivers.push_back(group.driver(w).counters());
        }
    } else {
        auto &paged = dynamic_cast<PagedBackend &>(engine.backend());
        served.replication = paged.workerGroup().replication();
        served.ranks = paged.numWorkers();
    }
    return served;
}

/** Every modeled field of two RunReports, bit for bit. */
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
    ASSERT_EQ(a.iterations.size(), b.iterations.size());
    for (std::size_t i = 0; i < a.iterations.size(); ++i) {
        EXPECT_TRUE(a.iterations[i] == b.iterations[i])
            << "iteration record " << i;
    }
}

class LeadOnlyEquivalence : public ::testing::TestWithParam<Case>
{
};

TEST_P(LeadOnlyEquivalence, ServesExactlyAsFullReplication)
{
    const Case &c = GetParam();
    const Served lead_only = serve(c);
    Served full;
    {
        const ReplicateFollowers replicate;
        full = serve(c);
    }
    // Release builds compare lead-only with full replication;
    // VATTN_AUDIT builds replicate both runs.
    EXPECT_EQ(lead_only.replication, ReplicateFollowers::current());
    EXPECT_EQ(full.replication, Replication::kFull);
    EXPECT_EQ(lead_only.ranks, c.tp);
    EXPECT_EQ(full.ranks, c.tp);

    expectSameReport(lead_only.report, full.report);
    ASSERT_EQ(lead_only.drivers.size(), full.drivers.size());
    for (std::size_t w = 0; w < full.drivers.size(); ++w) {
        EXPECT_TRUE(lead_only.drivers[w] == full.drivers[w])
            << "rank " << w << ": lead-only maps "
            << lead_only.drivers[w].map << " and creates "
            << lead_only.drivers[w].create << ", full replication "
            << full.drivers[w].map << " and " << full.drivers[w].create;
    }

    // Each case reaches the feature it is named after.
    const RunReport &report = full.report;
    EXPECT_GT(report.num_requests, 0);
    if (!perf::isPaged(c.backend)) {
        ASSERT_EQ(static_cast<int>(full.drivers.size()), c.tp);
        EXPECT_GT(full.drivers[0].map, 0u);
    }
    switch (c.feature) {
    case Feature::kPrefix:
        EXPECT_GT(report.prefix_hits, 0);
        break;
    case Feature::kWindow:
        EXPECT_GT(report.decode_tokens, 6 * 512);
        break;
    case Feature::kSwap:
        EXPECT_GT(report.swap_outs, 0u);
        EXPECT_GT(report.swap_ins, 0u);
        break;
    }
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (Feature feature :
         {Feature::kPrefix, Feature::kWindow, Feature::kSwap}) {
        for (perf::BackendKind backend :
             {perf::BackendKind::kFa2Paged,
              perf::BackendKind::kFa2VAttention}) {
            for (int tp : {2, 4}) {
                cases.push_back({feature, backend, tp});
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Features, LeadOnlyEquivalence,
                         ::testing::ValuesIn(allCases()), caseName);

} // namespace
} // namespace vattn::serving
