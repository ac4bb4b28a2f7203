/**
 * @file
 * Table 10 (§8.2): tensor slicing as the driver-change-free
 * alternative for shrinking 2MB-page block sizes. Storing all layers
 * of a token in one [B, L, N, H, D] tensor divides the per-group
 * token footprint by N — e.g. Llama-3-8B TP-1 drops from 1024 to 32
 * tokens per 2MB page.
 */

#include "bench_util.hh"
#include "core/kv_geometry.hh"

using namespace vattn;
using namespace vattn::bench;

namespace
{

i64
blockSize(const perf::ModelSpec &model, int tp, bool slicing)
{
    core::Config config;
    config.num_layers = model.num_layers;
    config.num_kv_heads = model.kvHeadsPerWorker(tp);
    config.head_dim = model.head_dim;
    config.bytes_per_elem = model.bytes_per_elem;
    config.max_batch_size = 1;
    config.max_context_len = model.max_context_len;
    config.page_group = PageGroup::k2MB;
    config.tensor_slicing = slicing;
    return core::KvGeometry(config).tokensPerGroup();
}

} // namespace

int
main()
{
    banner("Table 10: block size with and without tensor slicing",
           "2MB pages, stock CUDA APIs (no driver modification)");
    JsonReport json("table10_tensor_slicing");

    Table table({"model", "w/o slicing", "w/ slicing", "reduction"});
    for (const auto &base : evalSetups()) {
        for (int tp : {1, 2, 4, 8}) {
            // GQA bound: a worker needs at least one whole KV head.
            if (base.model.num_kv_heads % tp != 0) {
                continue;
            }
            const i64 plain = blockSize(base.model, tp, false);
            const i64 sliced = blockSize(base.model, tp, true);
            table.addRow({
                base.model.name + " (TP-" + std::to_string(tp) + ")",
                Table::integer(plain),
                Table::integer(sliced),
                Table::num(static_cast<double>(plain) /
                               static_cast<double>(sliced),
                           0) + "x",
            });
            const std::string key = base.model.name + "_tp" +
                                    std::to_string(tp);
            json.metric(key + "_block_tokens_plain", plain);
            json.metric(key + "_block_tokens_sliced", sliced);
        }
    }
    json.printTable("Table 10 (paper: 2048->64, 4096->128, 1024->32, "
                "2048->64, 1024->18, 2048->36; we compute 17 where "
                "the paper rounds Yi-34B TP-1 to 18)", table);
    return 0;
}
