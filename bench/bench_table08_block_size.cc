/**
 * @file
 * Table 8: KV cache "block size" (tokens per physical page-group) as
 * a function of page-group size and tensor-parallel degree. Smaller
 * page-groups approach vLLM's recommended block size of 16-32 while
 * FA2's paged kernel cannot go below 256.
 */

#include "bench_util.hh"
#include "core/kv_geometry.hh"

using namespace vattn;
using namespace vattn::bench;

namespace
{

core::Config
configFor(const perf::ModelSpec &model, int tp, PageGroup group)
{
    core::Config config;
    config.num_layers = model.num_layers;
    config.num_kv_heads = model.kvHeadsPerWorker(tp);
    config.head_dim = model.head_dim;
    config.bytes_per_elem = model.bytes_per_elem;
    config.max_batch_size = 1;
    config.max_context_len = model.max_context_len;
    config.page_group = group;
    return config;
}

} // namespace

int
main()
{
    banner("Table 8: tokens per page-group (block size)",
           "per model and tensor-parallel degree");
    JsonReport json("table08_block_size");

    Table table({"model", "64KB", "128KB", "256KB", "2MB"});
    for (const auto &base : evalSetups()) {
        for (int tp : {1, 2}) {
            std::vector<std::string> cells{
                base.model.name + " (TP-" + std::to_string(tp) + ")"};
            for (PageGroup group : kAllPageGroups) {
                core::KvGeometry geom(
                    configFor(base.model, tp, group));
                cells.push_back(Table::integer(geom.tokensPerGroup()));
            }
            table.addRow(cells);
        }
    }
    json.printTable("Table 8 (paper: Yi-6B TP-1 row = 64/128/256/2048; "
                "Llama-3-8B TP-1 = 32/64/128/1024; TP-2 doubles)", table);
    return 0;
}
