/**
 * @file
 * Online chat serving — continuous batching under Poisson arrivals
 * (the §7.4 scenario at chat scale). Shows how vAttention's faster
 * prefill shortens queueing delays near capacity, and how the
 * page-group size trades fragmentation against allocation granularity
 * for the achievable batch size.
 *
 * Build & run:  ./build/examples/online_chat [qps] [--prefix-cache]
 *                   [--preemption-mode=recompute|swap|auto]
 *
 * --prefix-cache switches to a multi-tenant shared-system-prompt
 * trace (real token ids) and enables §8.1 prefix caching on both
 * backends, printing hit-rate and prefill-savings stats.
 *
 * --preemption-mode picks what happens to preemption victims under
 * memory pressure: vLLM-style recomputation (default), swapping KV to
 * a host-memory tier, or the cost-model-driven auto policy. Raise qps
 * to actually create pressure; swap traffic is reported per backend.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/table.hh"
#include "serving/engine.hh"

using namespace vattn;

namespace
{

serving::PreemptionPolicy g_policy =
    serving::PreemptionPolicy::kRecompute;

/** One-line swap summary; silent when the tier saw no traffic. */
void
maybePrintSwapStats(const serving::RunReport &report,
                    const char *label)
{
    if (report.swap_outs == 0 && report.dropped_requests == 0) {
        return;
    }
    std::printf("%s swap tier: %llu out / %llu in, %.2f GB moved, "
                "%.1f ms stalled, %llu preemptions, %lld dropped\n",
                label,
                static_cast<unsigned long long>(report.swap_outs),
                static_cast<unsigned long long>(report.swap_ins),
                static_cast<double>(report.swap_out_bytes +
                                    report.swap_in_bytes) /
                    1e9,
                static_cast<double>(report.swap_stall_ns) / 1e6,
                static_cast<unsigned long long>(report.preemptions),
                static_cast<long long>(report.dropped_requests));
}

int
runPrefixCacheStudy(double qps)
{
    std::printf("online chat with shared system prompts: Yi-6B on 1x "
                "A100, %.1f queries/second, 400 requests, 8 tenants x "
                "4K-token system prompt\n\n",
                qps);
    const perf::BackendKind kinds[] = {
        perf::BackendKind::kFa2Paged,
        perf::BackendKind::kFa2VAttention,
    };
    Table table({"backend", "median s", "TTFT p50 s", "hit rate",
                 "prefill saved", "peak batch"});
    for (auto kind : kinds) {
        serving::EngineConfig config;
        config.model = perf::ModelSpec::yi6B();
        config.gpu = perf::GpuSpec::a100();
        config.tp_degree = 1;
        config.backend = kind;
        config.scheduler.max_num_seqs = 256;
        config.scheduler.max_batched_tokens = 8192;
        config.vattn.max_batch_size = 256;
        config.enable_prefix_caching = true;
        config.preemption_policy = g_policy;
        serving::Engine engine(config);

        auto trace = serving::sharedSystemPromptTrace(
            400, /*tenants=*/8, /*system_tokens=*/4096,
            /*user_mean=*/256, /*seed=*/5);
        serving::assignPoissonArrivals(trace, qps, 21);
        const auto report = engine.run(std::move(trace));
        maybePrintSwapStats(report, toString(kind));
        table.addRow({
            toString(kind),
            Table::num(report.latency_s.median(), 2),
            Table::num(report.ttft_s.median(), 2),
            Table::num(100.0 * report.prefixHitRate(), 1) + "%",
            Table::num(100.0 * report.prefillSavedFraction(), 1) + "%",
            Table::integer(report.peak_batch),
        });
    }
    table.print("prefix caching on (both backends)");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    double qps = 6.0;
    bool prefix_cache = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--prefix-cache") == 0) {
            prefix_cache = true;
        } else if (std::strncmp(argv[i], "--preemption-mode=", 18) ==
                   0) {
            const char *mode = argv[i] + 18;
            if (std::strcmp(mode, "recompute") == 0) {
                g_policy = serving::PreemptionPolicy::kRecompute;
            } else if (std::strcmp(mode, "swap") == 0) {
                g_policy = serving::PreemptionPolicy::kSwap;
            } else if (std::strcmp(mode, "auto") == 0) {
                g_policy = serving::PreemptionPolicy::kAuto;
            } else {
                std::fprintf(stderr,
                             "unknown --preemption-mode '%s' (want "
                             "recompute|swap|auto)\n",
                             mode);
                return 1;
            }
        } else {
            qps = std::atof(argv[i]);
        }
    }
    std::printf("preemption mode: %s\n\n", toString(g_policy));
    if (prefix_cache) {
        return runPrefixCacheStudy(qps);
    }
    std::printf("online chat serving: Yi-6B on 1x A100, %.1f "
                "queries/second, 400 requests\n\n",
                qps);

    const perf::BackendKind kinds[] = {
        perf::BackendKind::kFa2Paged,
        perf::BackendKind::kFa2VAttention,
    };

    Table table({"backend", "median s", "p90 s", "p99 s", "TTFT p50 s",
                 "peak batch"});
    for (auto kind : kinds) {
        serving::EngineConfig config;
        config.model = perf::ModelSpec::yi6B();
        config.gpu = perf::GpuSpec::a100();
        config.tp_degree = 1;
        config.backend = kind;
        config.scheduler.max_num_seqs = 256;
        config.scheduler.max_batched_tokens = 8192;
        config.vattn.max_batch_size = 256;
        config.preemption_policy = g_policy;
        serving::Engine engine(config);

        auto trace = serving::openChatTrace(400, 5);
        serving::assignPoissonArrivals(trace, qps, 21);
        const auto report = engine.run(std::move(trace));
        maybePrintSwapStats(report, toString(kind));
        table.addRow({
            toString(kind),
            Table::num(report.latency_s.median(), 2),
            Table::num(report.latency_s.quantile(0.9), 2),
            Table::num(report.latency_s.p99(), 2),
            Table::num(report.ttft_s.median(), 2),
            Table::integer(report.peak_batch),
        });
    }
    table.print("end-to-end request latency");

    // Page-group size study at the same load (vAttention only).
    Table pg_table({"page-group", "median s", "peak batch",
                    "KV waste/req"});
    for (PageGroup group : kAllPageGroups) {
        serving::EngineConfig config;
        config.model = perf::ModelSpec::yi6B();
        config.tp_degree = 1;
        config.backend = perf::BackendKind::kFa2VAttention;
        config.vattn.page_group = group;
        config.scheduler.max_batched_tokens = 8192;
        config.preemption_policy = g_policy;
        serving::Engine engine(config);

        auto trace = serving::openChatTrace(400, 5);
        serving::assignPoissonArrivals(trace, qps, 21);
        const auto report = engine.run(std::move(trace));

        core::Config kv_config;
        kv_config.num_layers = config.model.num_layers;
        kv_config.num_kv_heads = config.model.num_kv_heads;
        kv_config.head_dim = config.model.head_dim;
        kv_config.max_batch_size = 1;
        kv_config.max_context_len = config.model.max_context_len;
        kv_config.page_group = group;
        core::KvGeometry geom(kv_config);
        pg_table.addRow({
            toString(group),
            Table::num(report.latency_s.median(), 2),
            Table::integer(report.peak_batch),
            Table::num(static_cast<double>(
                           geom.wasteBytesForTokens(3600)) /
                           1e6,
                       1) + " MB",
        });
    }
    pg_table.print("vAttention page-group size at the same load "
                   "(waste shown for a typical 3.6K-token request)");
    return 0;
}
