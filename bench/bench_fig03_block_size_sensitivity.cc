/**
 * @file
 * Figure 3: latency of vLLM's paged decode kernel vs KV block size
 * (Llama-3-8B, one A100). Larger blocks hurt L1 efficiency: block 128
 * is up to 1.9x slower than block 16.
 */

#include "bench_util.hh"
#include "perf/kernel_model.hh"

using namespace vattn;
using namespace vattn::bench;

int
main()
{
    banner("Figure 3: vLLM paged decode kernel vs block size",
           "model: Llama-3-8B, 1x A100 (kernel latency model)");
    JsonReport json("fig03_block_size_sensitivity");

    perf::KernelModel model(perf::GpuSpec::a100(),
                            perf::ModelSpec::llama3_8B(), 1);

    Table table({"batch x ctx", "block16 (ms)", "block32", "block64",
                 "block128", "128 vs 16"});
    for (i64 batch = 1; batch <= 16; batch *= 2) {
        const i64 total = batch * 16 * 1024;
        const double t16 =
            static_cast<double>(model.decodeAttention(
                perf::BackendKind::kVllmPaged, {&total, 1}, 16)) /
            1e6;
        auto cell = [&](int block) {
            const double t =
                static_cast<double>(model.decodeAttention(
                    perf::BackendKind::kVllmPaged, {&total, 1}, block)) /
                1e6;
            return Table::num(t, 2) + " (" + Table::num(t / t16, 2) +
                   "x)";
        };
        table.addRow({
            std::to_string(batch) + "*16K",
            Table::num(t16, 2),
            cell(32),
            cell(64),
            cell(128),
            Table::num(static_cast<double>(model.decodeAttention(
                           perf::BackendKind::kVllmPaged, {&total, 1},
                           128)) /
                           1e6 / t16,
                       2) + "x",
        });
    }
    json.printTable("Figure 3 (paper: block 128 is 1.86-1.93x block 16)", table);
    return 0;
}
