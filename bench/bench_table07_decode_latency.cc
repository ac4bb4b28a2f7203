/**
 * @file
 * Table 7: total attention-kernel latency per decode iteration (sum
 * over all layers, milliseconds) at 16K context. vLLM's kernel is up
 * to 2.8x / 1.5x / 2.5x slower than FlashAttention-2 for Yi-6B /
 * Llama-3-8B / Yi-34B; FA2_vAttention matches FA2_Paged.
 */

#include "bench_util.hh"
#include "perf/kernel_model.hh"

using namespace vattn;
using namespace vattn::bench;

int
main()
{
    banner("Table 7: decode attention latency per iteration (ms)",
           "context 16K per request (kernel latency model)");
    JsonReport json("table07_decode_latency");

    for (const auto &setup : evalSetups()) {
        perf::KernelModel model(perf::GpuSpec::a100(), setup.model,
                                setup.tp);
        Table table({"batch", "vLLM", "FA2_Paged", "FI_Paged",
                     "FA2_vAttention", "vLLM/FA2"});
        const std::vector<i64> batches =
            setup.model.name == "Yi-34B" ? std::vector<i64>{12, 16}
                                         : std::vector<i64>{16, 32};
        for (i64 batch : batches) {
            const i64 total_kv = batch * 16 * 1024;
            auto ms = [&](perf::BackendKind kind) {
                return static_cast<double>(
                           model.decodeAttention(kind, {&total_kv, 1})) /
                       1e6;
            };
            const double vllm = ms(perf::BackendKind::kVllmPaged);
            const double fa2p = ms(perf::BackendKind::kFa2Paged);
            table.addRow({
                Table::integer(batch),
                Table::num(vllm, 1),
                Table::num(fa2p, 1),
                Table::num(ms(perf::BackendKind::kFiPaged), 1),
                Table::num(ms(perf::BackendKind::kFa2VAttention), 1),
                Table::num(vllm / fa2p, 2) + "x",
            });
        }
        json.printTable("Table 7: " + setupLabel(setup), table);
    }
    std::printf("\npaper anchors (bs16): Yi-6B 32.3/11.5/15.2/11.3; "
                "Llama-3-8B 17.8/11.9/12.1/11.8; Yi-34B(bs16) "
                "55.1/21.7/28.8/21.8\n");
    return 0;
}
