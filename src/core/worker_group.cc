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

VAttention &
WorkerGroup::worker(int index)
{
    return *workers_.worker(index).runtime;
}

const VAttention &
WorkerGroup::worker(int index) const
{
    return *workers_.worker(index).runtime;
}

cuvmm::Driver &
WorkerGroup::driver(int index)
{
    return *workers_.worker(index).driver;
}

Result<int>
WorkerGroup::allocReqId()
{
    return workers_.apply("allocReqId", [](Worker &w) {
        return w.runtime->allocReqId();
    });
}

Result<int>
WorkerGroup::allocReqIdWithPrefix(const PrefixQuery &query,
                                  i64 max_cached, i64 *cached_tokens)
{
    // The workers must agree on the slot AND on the cached tokens.
    auto [slot, cached] = workers_.apply(
        "allocReqIdWithPrefix", [&](Worker &w) {
            i64 served = 0;
            auto leased =
                w.runtime->allocReqIdWithPrefix(query, max_cached, &served);
            return std::pair{std::move(leased), served};
        });
    if (cached_tokens != nullptr) {
        *cached_tokens = cached;
    }
    return std::move(slot);
}

void
WorkerGroup::registerPrefix(int req_id, const PrefixQuery &query,
                            i64 tokens)
{
    workers_.apply("registerPrefix", [&](Worker &w) {
        w.runtime->registerPrefix(req_id, query, tokens);
    });
}

Status
WorkerGroup::freeReqId(int req_id)
{
    return workers_.apply("freeReqId", [&](Worker &w) {
        return w.runtime->freeReqId(req_id);
    });
}

StepStats
WorkerGroup::step(std::span<const std::pair<int, i64>> active)
{
    return workers_.apply("step", [&](Worker &w) {
        return w.runtime->step(active);
    });
}

SwapStats
WorkerGroup::swapOutReq(int req_id)
{
    return workers_.apply("swapOutReq", [&](Worker &w) {
        return w.runtime->swapOutReq(req_id);
    });
}

SwapStats
WorkerGroup::swapInReq(int req_id)
{
    return workers_.apply("swapInReq", [&](Worker &w) {
        return w.runtime->swapInReq(req_id);
    });
}

Result<VAttention::HostKvImage>
WorkerGroup::exportSwapped(int req_id)
{
    return workers_.apply("exportSwapped", [&](Worker &w) {
        return w.runtime->exportSwapped(req_id);
    });
}

Result<int>
WorkerGroup::importSwapped(const VAttention::HostKvImage &image)
{
    return workers_.apply("importSwapped", [&](Worker &w) {
        return w.runtime->importSwapped(image);
    });
}

void
WorkerGroup::computePhase(TimeNs window_ns)
{
    workers_.apply("computePhase", [&](Worker &w) {
        w.runtime->computePhase(window_ns);
    });
}

u64
WorkerGroup::physBytesMappedTotal() const
{
    u64 total = 0;
    for (const Worker &worker : workers_) {
        total += worker.runtime->physBytesMapped();
    }
    return total;
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
