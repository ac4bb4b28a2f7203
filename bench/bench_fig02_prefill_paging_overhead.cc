/**
 * @file
 * Figure 2: overhead of PagedAttention in prefill kernels
 * (Llama-3-8B, one A100). Prints the normalized runtime of the paged
 * FlashAttention-2 / FlashInfer prefill kernels over their non-paged
 * counterparts across context lengths — paper: FA2 1.07x-1.37x
 * (growing with context), FI up to 1.42x.
 */

#include "bench_util.hh"
#include "perf/kernel_model.hh"

using namespace vattn;
using namespace vattn::bench;

int
main()
{
    banner("Figure 2: paged-vs-non-paged prefill kernel overhead",
           "model: Llama-3-8B, 1x A100 (kernel latency model)");
    JsonReport json("fig02_prefill_paging_overhead");

    perf::KernelModel model(perf::GpuSpec::a100(),
                            perf::ModelSpec::llama3_8B(), 1);

    Table table({"context", "FA2 (ms)", "FA2_Paged (ms)", "FA2 overhead",
                 "FI (ms)", "FI_Paged (ms)", "FI overhead"});
    for (i64 ctx = 1024; ctx <= 32 * 1024; ctx *= 2) {
        const auto fa2 = model.prefillAttention(
            perf::BackendKind::kFa2VAttention, ctx, ctx);
        const auto fa2_paged = model.prefillAttention(
            perf::BackendKind::kFa2Paged, ctx, ctx);
        const auto fi = model.prefillAttention(
            perf::BackendKind::kFiVAttention, ctx, ctx);
        const auto fi_paged = model.prefillAttention(
            perf::BackendKind::kFiPaged, ctx, ctx);
        table.addRow({
            std::to_string(ctx / 1024) + "K",
            Table::num(static_cast<double>(fa2) / 1e6, 3),
            Table::num(static_cast<double>(fa2_paged) / 1e6, 3),
            Table::num(static_cast<double>(fa2_paged) /
                           static_cast<double>(fa2),
                       2) + "x",
            Table::num(static_cast<double>(fi) / 1e6, 3),
            Table::num(static_cast<double>(fi_paged) / 1e6, 3),
            Table::num(static_cast<double>(fi_paged) /
                           static_cast<double>(fi),
                       2) + "x",
        });
    }
    json.printTable("Figure 2 (paper: FA2 1.07-1.37x, FI 1.25-1.42x)", table);
    return 0;
}
