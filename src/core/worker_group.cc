#include "core/worker_group.hh"

#include "common/logging.hh"

namespace vattn::core
{

WorkerGroup::WorkerGroup(int num_workers, const Config &config,
                         u64 device_mem_bytes)
    : workers_(makeWorkers(num_workers, config, device_mem_bytes))
{
}

std::vector<WorkerGroup::Worker>
WorkerGroup::makeWorkers(int num_workers, const Config &config,
                         u64 device_mem_bytes)
{
    fatal_if(num_workers <= 0, "WorkerGroup needs >= 1 worker");
    config.validate().expectOk("WorkerGroup config");
    std::vector<Worker> workers;
    workers.reserve(static_cast<std::size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w) {
        Worker worker;
        gpu::GpuDevice::Config dev_config;
        dev_config.name = "simGPU-worker" + std::to_string(w);
        dev_config.mem_bytes = device_mem_bytes;
        worker.device = std::make_unique<gpu::GpuDevice>(dev_config);
        worker.driver = std::make_unique<cuvmm::Driver>(*worker.device);
        worker.runtime =
            std::make_unique<VAttention>(*worker.driver, config);
        workers.push_back(std::move(worker));
    }
    return workers;
}

bool
WorkerGroup::inLockstep() const
{
    audit::AuditReport report;
    auditLockstepInto(report);
    return report.ok();
}

bool
WorkerGroup::checkInvariants() const
{
    audit::AuditReport report;
    auditInto(report);
    return report.ok();
}

void
WorkerGroup::auditInto(audit::AuditReport &report) const
{
    for (const Worker &worker : workers_) {
        worker.runtime->auditInto(report);
    }
    auditLockstepInto(report);
}

void
WorkerGroup::auditLockstepInto(audit::AuditReport &report) const
{
    // Cross-worker state equality: every control input was identical
    // and the runtime is deterministic, so any divergence means one
    // worker's state machine drifted — localize it by worker, slot and
    // quantity so the failure is actionable.
    workers_.forEachFollower([&](std::size_t w, const Worker &follower,
                                 const Worker &lead) {
        const VAttention &other = *follower.runtime;
        const VAttention &reference = *lead.runtime;
        report.check(other.physBytesMapped() ==
                         reference.physBytesMapped(),
                     "worker_group: worker ", w, " maps ",
                     other.physBytesMapped(),
                     " physical bytes but worker 0 maps ",
                     reference.physBytesMapped(),
                     " (lockstep divergence)");
        report.check(other.poolFreeHandles() ==
                         reference.poolFreeHandles(),
                     "worker_group: worker ", w, " pool has ",
                     other.poolFreeHandles(),
                     " free handles but worker 0 has ",
                     reference.poolFreeHandles(),
                     " (lockstep divergence)");
        report.check(other.cachedHandles() == reference.cachedHandles(),
                     "worker_group: worker ", w, " caches ",
                     other.cachedHandles(),
                     " handles but worker 0 caches ",
                     reference.cachedHandles(),
                     " (lockstep divergence)");
        report.check(other.slots().numActive() ==
                             reference.slots().numActive() &&
                         other.slots().numCached() ==
                             reference.slots().numCached(),
                     "worker_group: worker ", w, " has ",
                     other.slots().numActive(), " active and ",
                     other.slots().numCached(),
                     " cached slots but worker 0 has ",
                     reference.slots().numActive(), " and ",
                     reference.slots().numCached(),
                     " (lockstep divergence)");
        for (int slot = 0; slot < reference.config().max_batch_size;
             ++slot) {
            report.check(
                other.groupsMapped(slot) == reference.groupsMapped(slot),
                "worker_group: worker ", w, " slot ", slot, " maps ",
                other.groupsMapped(slot),
                " groups but worker 0 maps ",
                reference.groupsMapped(slot),
                " — a worker's sequence state desynced from the group");
            report.check(
                other.slots().state(slot) == reference.slots().state(slot),
                "worker_group: worker ", w, " slot ", slot,
                " is in a different lifecycle state than worker 0's"
                " (lockstep divergence)");
        }
    });
}

} // namespace vattn::core
