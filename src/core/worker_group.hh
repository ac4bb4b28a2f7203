/**
 * @file
 * Tensor-parallel worker group (§5.3): one vAttention instance per TP
 * worker, each with its own (simulated) GPU and driver, driven in
 * lockstep. The paper discusses a single worker "for simplicity; all
 * workers behave the same" — this class makes that property explicit
 * and checkable: because every control input (reqIds, sequence
 * lengths, windows) is identical and the runtime is deterministic,
 * workers must remain in identical states. Every mutation goes through
 * Lockstep<Worker> (common/lockstep.hh), which panics on a diverging
 * result; auditInto() checks the resulting states.
 *
 * Workers allocate physical memory in parallel, so the group's
 * aggregate allocation bandwidth scales with TP (Table 9) while the
 * critical-path latency per iteration stays that of one worker.
 */

#ifndef VATTN_CORE_WORKER_GROUP_HH
#define VATTN_CORE_WORKER_GROUP_HH

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/lockstep.hh"
#include "core/vattention.hh"
#include "cuvmm/driver.hh"
#include "gpu/device.hh"

namespace vattn::core
{

/** Lockstep group of per-worker vAttention runtimes. */
class WorkerGroup
{
  public:
    /**
     * @param num_workers tensor-parallel degree
     * @param config per-worker configuration (H must already be the
     *        per-worker head count; §5.1.3)
     * @param device_mem_bytes memory of each worker's GPU
     */
    WorkerGroup(int num_workers, const Config &config,
                u64 device_mem_bytes);

    int numWorkers() const { return workers_.size(); }
    VAttention &worker(int index);
    const VAttention &worker(int index) const;
    cuvmm::Driver &driver(int index);

    /** Lease the same reqId on every worker. */
    Result<int> allocReqId();

    /**
     * Lease the same reqId on every worker, adopting cached prefix
     * page-groups: each worker aliases its own shard of the cached
     * prefix, so the workers must agree on the slot AND on how many
     * tokens the cache served.
     */
    Result<int> allocReqIdWithPrefix(const PrefixQuery &query,
                                     i64 max_cached,
                                     i64 *cached_tokens);

    /** Register the slot's computed prefix on every worker. */
    void registerPrefix(int req_id, const PrefixQuery &query,
                        i64 tokens);

    /** Free the reqId on every worker. */
    Status freeReqId(int req_id);

    // ---- Symmetric queries (answered by worker 0) ---------------------
    // Lockstep makes every worker's answer identical by construction;
    // auditInto verifies that construction, so reads stay O(1) in TP.

    bool canAllocate(i64 prompt_tokens) const
    {
        return lead().canAllocate(prompt_tokens);
    }
    PrefixHit matchPrefix(const PrefixQuery &query) const
    {
        return lead().matchPrefix(query);
    }
    TimeNs lastPrefixAllocNs() const { return lead().lastPrefixAllocNs(); }
    bool canSwapOut(int req_id) const { return lead().canSwapOut(req_id); }
    bool canSwapIn(int req_id) const { return lead().canSwapIn(req_id); }
    u64 hostSwapBudgetBytes() const { return lead().hostSwapBudgetBytes(); }
    const KvGeometry &geometry() const { return lead().geometry(); }
    const RuntimeStats &stats() const { return lead().stats(); }
    /** Physical KV bytes mapped on ONE worker (each worker holds a
     *  1/tp shard; see physBytesMappedTotal for the group sum). */
    u64 physBytesMappedPerWorker() const { return lead().physBytesMapped(); }
    u64 budgetBytesPerWorker() const { return lead().budgetBytes(); }
    i64 mappedHandles(int req_id) const
    {
        return lead().mappedHandles(req_id);
    }

    /**
     * Step every worker with the same (reqId, length) pairs (see
     * VAttention::step). The returned stats are worker 0's;
     * critical_ns is the per-iteration latency (workers run
     * concurrently, so the group does not serialize).
     */
    StepStats step(std::span<const std::pair<int, i64>> active);

    /** Run every worker's background window. */
    void computePhase(TimeNs window_ns);

    /**
     * Swap the reqId's KV to host on every worker (each worker stashes
     * its own shard; copies run concurrently, so the group's swap
     * latency is one worker's). The workers must agree on the outcome.
     */
    SwapStats swapOutReq(int req_id);

    /** Swap the reqId back in on every worker, in lockstep. */
    SwapStats swapInReq(int req_id);

    /**
     * Detach the reqId's host stash on every worker (cross-replica
     * migration). Lockstep makes every worker's image identical except
     * for the opaque host-page identities, so worker 0's image
     * describes the whole group: an adopting group rebuilds one shard
     * per worker from it.
     */
    Result<VAttention::HostKvImage> exportSwapped(int req_id);

    /** Could every worker import an image of @p handles page-groups? */
    bool canImportSwapped(i64 handles) const
    {
        return lead().canImportSwapped(handles);
    }

    /** Adopt the image into the same fresh reqId on every worker. */
    Result<int> importSwapped(const VAttention::HostKvImage &image);

    /** Physical KV bytes mapped across ALL workers. */
    u64 physBytesMappedTotal() const;

    /**
     * Are all workers in identical states (slot states, group counts,
     * pool levels)? True by construction; a false return indicates a
     * determinism bug. The cross-worker half of auditInto, reporting
     * nothing.
     */
    bool inLockstep() const;

    /** auditInto reports nothing. */
    bool checkInvariants() const;

    /**
     * Whole-stack audit of every worker (driver + pool + allocator +
     * runtime) plus the cross-worker state-equality check: lockstep
     * workers fed identical control inputs must hold identical slot
     * states, group counts and pool levels — a divergence is reported
     * with the worker index and the quantity that drifted, not
     * panicked, so audit builds localize the corruption.
     */
    void auditInto(audit::AuditReport &report) const;

  private:
    struct Worker
    {
        std::unique_ptr<gpu::GpuDevice> device;
        std::unique_ptr<cuvmm::Driver> driver;
        std::unique_ptr<VAttention> runtime;
    };

    const VAttention &lead() const { return *workers_.lead().runtime; }
    static std::vector<Worker> makeWorkers(int num_workers,
                                           const Config &config,
                                           u64 device_mem_bytes);
    void auditLockstepInto(audit::AuditReport &report) const;

    Lockstep<Worker> workers_;
};

} // namespace vattn::core

#endif // VATTN_CORE_WORKER_GROUP_HH
