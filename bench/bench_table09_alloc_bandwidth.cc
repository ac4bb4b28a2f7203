/**
 * @file
 * Table 9 (§7.6.4): physical memory allocation bandwidth achievable
 * through the VMM APIs per page-group size and TP degree, measured by
 * growing a request's KV on the live simulated driver and dividing
 * mapped bytes by charged driver latency. The point: even the
 * smallest groups sustain several GB/s — an order of magnitude more
 * than the <=750 MB/s the decode phase ever demands (Figure 4b).
 */

#include "bench_util.hh"
#include "core/vattention.hh"

using namespace vattn;
using namespace vattn::bench;

namespace
{

double
measureGBps(PageGroup group, int tp)
{
    // Per-worker measurement on Llama-3-8B geometry; workers allocate
    // in parallel so aggregate bandwidth scales with TP.
    const auto model = perf::ModelSpec::llama3_8B();
    gpu::GpuDevice::Config dev_config;
    dev_config.mem_bytes = 4 * GiB;
    gpu::GpuDevice device(dev_config);
    cuvmm::Driver driver(device);

    core::Config config;
    config.num_layers = model.num_layers;
    config.num_kv_heads = model.kvHeadsPerWorker(tp);
    config.head_dim = model.head_dim;
    config.max_batch_size = 4;
    config.max_context_len = model.max_context_len;
    config.page_group = group;
    config.deferred_reclamation = false;
    config.eager_allocation = false;
    config.overlap_allocation = false;
    config.phys_budget_bytes = 3 * GiB;
    core::VAttention vattn(driver, config);

    const int req = vattn.allocReqId().value();
    (void)req;
    // Grow the request's KV in one shot; all latency is charged to
    // the critical path, giving bytes-per-driver-second.
    std::vector<i64> lens(4, 0);
    lens[0] = 16 * 1024;
    const auto stats = vattn.step(lens);
    stats.status.expectOk("bandwidth measurement");
    const double mapped_bytes =
        static_cast<double>(stats.handles_mapped) *
        static_cast<double>(vattn::bytes(group));
    return mapped_bytes /
           (static_cast<double>(stats.critical_ns) / 1e9) / 1e9 * tp;
}

} // namespace

int
main()
{
    banner("Table 9: physical memory allocation bandwidth (GB/s)",
           "live driver measurement, Llama-3-8B KV geometry");
    JsonReport json("table09_alloc_bandwidth");

    Table table({"config", "64KB", "128KB", "256KB", "2MB"});
    for (int tp : {1, 2}) {
        std::vector<std::string> cells{"TP-" + std::to_string(tp)};
        for (PageGroup group : kAllPageGroups) {
            cells.push_back(Table::num(measureGBps(group, tp), 2));
        }
        table.addRow(cells);
    }
    json.printTable("Table 9 (paper: TP-1 7.59/14.56/27.04/35.17; TP-2 "
                "doubles; every value >> the 0.75 GB/s decode "
                "demand)", table);
    return 0;
}
