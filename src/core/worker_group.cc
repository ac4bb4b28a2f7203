#include "core/worker_group.hh"

#include <string>

#include "common/logging.hh"

namespace vattn::core
{

namespace
{

gpu::GpuDevice::Config
deviceConfig(int index, u64 device_mem_bytes)
{
    gpu::GpuDevice::Config config;
    config.name = "simGPU-worker" + std::to_string(index);
    config.mem_bytes = device_mem_bytes;
    return config;
}

/** @p num_workers, once it and @p config are known to be valid. */
int
checkedWorkers(int num_workers, const Config &config)
{
    fatal_if(num_workers <= 0, "WorkerGroup needs >= 1 worker");
    config.validate().expectOk("WorkerGroup config");
    return num_workers;
}

} // namespace

WorkerHardware::WorkerHardware(int index, u64 device_mem_bytes)
    : hw_device(deviceConfig(index, device_mem_bytes)),
      hw_driver(hw_device)
{
}

TpWorker::TpWorker(int index, const Config &config, u64 device_mem_bytes)
    : WorkerHardware(index, device_mem_bytes), VAttention(hw_driver, config)
{
}

BackendPrefixStats
TpWorker::prefixStats() const
{
    const u64 group_bytes = geometry().groupBytes();
    return BackendPrefixStats{
        static_cast<u64>(stats().prefix_aliased_handles) * group_bytes,
        static_cast<u64>(stats().prefix_copied_handles) * group_bytes,
    };
}

u64
TpWorker::slotPhysBytes(int slot) const
{
    // mappedHandles counts each buffer's live [lead, end) range:
    // groupsMapped * numBuffers would over-state window-trimmed slots
    // (the frontier includes unmapped dead leads).
    return static_cast<u64>(mappedHandles(slot)) * geometry().groupBytes();
}

void
TpWorker::auditAgainstLead(const TpWorker &lead, std::size_t w,
                           audit::AuditReport &report) const
{
    // Every control input was identical and the runtime is
    // deterministic, so any divergence means one worker's state
    // machine drifted — localize it by worker, slot and quantity so
    // the failure is actionable.
    report.check(physBytesMapped() == lead.physBytesMapped(),
                 "worker_group: worker ", w, " maps ", physBytesMapped(),
                 " physical bytes but worker 0 maps ",
                 lead.physBytesMapped(), " (lockstep divergence)");
    report.check(poolFreeHandles() == lead.poolFreeHandles(),
                 "worker_group: worker ", w, " pool has ",
                 poolFreeHandles(), " free handles but worker 0 has ",
                 lead.poolFreeHandles(), " (lockstep divergence)");
    report.check(cachedHandles() == lead.cachedHandles(),
                 "worker_group: worker ", w, " caches ", cachedHandles(),
                 " handles but worker 0 caches ", lead.cachedHandles(),
                 " (lockstep divergence)");
    report.check(slots().numActive() == lead.slots().numActive() &&
                     slots().numCached() == lead.slots().numCached(),
                 "worker_group: worker ", w, " has ", slots().numActive(),
                 " active and ", slots().numCached(),
                 " cached slots but worker 0 has ",
                 lead.slots().numActive(), " and ",
                 lead.slots().numCached(), " (lockstep divergence)");
    for (int slot = 0; slot < lead.config().max_batch_size; ++slot) {
        report.check(groupsMapped(slot) == lead.groupsMapped(slot),
                     "worker_group: worker ", w, " slot ", slot,
                     " maps ", groupsMapped(slot),
                     " groups but worker 0 maps ", lead.groupsMapped(slot),
                     " — a worker's sequence state desynced from the "
                     "group");
        report.check(slots().state(slot) == lead.slots().state(slot),
                     "worker_group: worker ", w, " slot ", slot,
                     " is in a different lifecycle state than worker 0's"
                     " (lockstep divergence)");
    }
}

WorkerGroup::WorkerGroup(int num_workers, const Config &config,
                         u64 device_mem_bytes, Replication replication)
    : Lockstep(std::in_place, replication,
               checkedWorkers(num_workers, config), config,
               device_mem_bytes)
{
}

} // namespace vattn::core
