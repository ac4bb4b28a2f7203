/**
 * @file
 * Fragmentation explorer — an analysis tool over the KV geometry
 * model. For a model/TP/page-group choice it reports the per-request
 * physical footprint, internal fragmentation, and the memory-bound
 * batch size across context lengths; it also contrasts the two
 * mitigation strategies of the paper (small page-groups, §6.2, vs
 * tensor slicing, §8.2) and the static pre-reservation of
 * pre-PagedAttention systems (§1).
 *
 * Build & run:  ./build/examples/fragmentation_explorer [model]
 *               model in {yi6b, llama3-8b, yi34b}
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/table.hh"
#include "core/kv_geometry.hh"
#include "perf/model_spec.hh"

using namespace vattn;

namespace
{

core::KvGeometry
geometryFor(const perf::ModelSpec &model, int tp, PageGroup group,
            bool slicing)
{
    core::Config config;
    config.num_layers = model.num_layers;
    config.num_kv_heads = model.kvHeadsPerWorker(tp);
    config.head_dim = model.head_dim;
    config.bytes_per_elem = model.bytes_per_elem;
    config.max_batch_size = 1;
    config.max_context_len = model.max_context_len;
    config.page_group = group;
    config.tensor_slicing = slicing;
    return core::KvGeometry(config);
}

} // namespace

int
main(int argc, char **argv)
{
    perf::ModelSpec model = perf::ModelSpec::yi6B();
    if (argc > 1) {
        const std::string name = argv[1];
        if (name == "llama3-8b") {
            model = perf::ModelSpec::llama3_8B();
        } else if (name == "yi34b") {
            model = perf::ModelSpec::yi34B();
        }
    }
    const int tp = 1;
    const u64 budget = 60 * GiB; // typical KV share of an 80GB A100

    std::printf("model: %s (TP-%d), per-token KV: %llu KB, KV budget "
                "%.0f GB\n\n",
                model.name.c_str(), tp,
                static_cast<unsigned long long>(
                    model.kvBytesPerToken() / 1024),
                static_cast<double>(budget) / 1e9);

    // Static reservation baseline (Orca/FasterTransformer, §1): every
    // request pre-reserves the full max context.
    const u64 static_bytes = static_cast<u64>(model.max_context_len) *
                             model.kvBytesPerTokenPerWorker(tp);
    std::printf("static pre-reservation (pre-PagedAttention): %.1f GB "
                "per request -> max batch %llu regardless of actual "
                "context\n\n",
                static_cast<double>(static_bytes) / 1e9,
                static_cast<unsigned long long>(budget / static_bytes));

    for (i64 ctx : {512, 2048, 8192, 32 * 1024}) {
        Table table({"allocator", "phys/request MB", "waste MB",
                     "waste %", "max batch"});
        auto add_row = [&](const std::string &name,
                           const core::KvGeometry &geom) {
            const u64 phys = geom.physBytesForTokens(ctx);
            const u64 waste = geom.wasteBytesForTokens(ctx);
            table.addRow({
                name,
                Table::num(static_cast<double>(phys) / 1e6, 1),
                Table::num(static_cast<double>(waste) / 1e6, 2),
                Table::num(100.0 * static_cast<double>(waste) /
                               static_cast<double>(phys),
                           1),
                Table::integer(
                    static_cast<long long>(budget / phys)),
            });
        };
        for (PageGroup group : kAllPageGroups) {
            add_row(std::string("vAttention ") + toString(group),
                    geometryFor(model, tp, group, false));
        }
        add_row("vAttention 2MB + slicing",
                geometryFor(model, tp, PageGroup::k2MB, true));
        table.print("context length " + std::to_string(ctx) +
                    " tokens");
    }
    std::printf("\nReading: small page-groups and tensor slicing both "
                "bound waste to about one block per request; 2MB "
                "pages waste up to numBuffers x 2MB on short "
                "contexts, which is what Figure 15 measures "
                "end-to-end.\n");
    return 0;
}
