/**
 * @file
 * Tensor-parallel worker group (§5.3): one vAttention instance per TP
 * worker, each with its own (simulated) GPU and driver, driven in
 * lockstep. The paper discusses a single worker "for simplicity; all
 * workers behave the same" — this class makes that property explicit
 * and checkable: because every control input (reqIds, sequence
 * lengths, windows) is identical and the runtime is deterministic,
 * workers must remain in identical states.
 *
 * The group is a Lockstep<TpWorker> (common/lockstep.hh) that builds
 * its workers: callers run each mutation through apply(), which
 * panics on a diverging result, read symmetric answers from lead(),
 * and auditInto() checks every worker and that their states stayed
 * equal. The serving layer's one KV adapter
 * (serving/lockstep_backend.hh) drives it exactly as it drives the
 * paged runtime's block pools.
 *
 * Where followers are built: a group replicates fully unless it is
 * built lead-only. Release serving builds it lead-only — one GPU,
 * driver and VAttention stand for every rank, since the followers
 * would only repeat the lead's work — while VATTN_AUDIT builds and
 * the tests that check followers build every worker. numWorkers()
 * is the TP degree either way, and driver(w) answers every rank with
 * the lead's driver, so a sum of driver counters over the ranks reads
 * tp x the lead's in both modes.
 *
 * Workers allocate physical memory in parallel, so the group's
 * aggregate allocation bandwidth scales with TP (Table 9) while the
 * critical-path latency per iteration stays that of one worker.
 */

#ifndef VATTN_CORE_WORKER_GROUP_HH
#define VATTN_CORE_WORKER_GROUP_HH

#include <cstddef>

#include "common/lockstep.hh"
#include "core/vattention.hh"
#include "cuvmm/driver.hh"
#include "gpu/device.hh"

namespace vattn::core
{

/** The simulated hardware one TP worker owns. */
struct WorkerHardware
{
    WorkerHardware(int index, u64 device_mem_bytes);

    gpu::GpuDevice hw_device;
    cuvmm::Driver hw_driver;
};

/**
 * One TP worker: its own GPU and VMM driver, and the vAttention
 * runtime over them, holding a num_kv_heads/tp KV shard. Besides the
 * runtime's Table-4 API it answers the queries the serving adapter
 * asks of every per-worker KV runtime, in the units
 * paged::PagedRuntime answers them.
 */
class TpWorker : private WorkerHardware, public VAttention
{
  public:
    /** Worker @p index of a group (names its GPU). */
    TpWorker(int index, const Config &config, u64 device_mem_bytes);

    cuvmm::Driver &driver() { return hw_driver; }

    i64 cachedPrefixTokens(const PrefixKey &key) const
    {
        return matchPrefix(key).tokens;
    }
    bool prefixCachingEnabled() const { return config().prefix_caching; }
    /** Aliased and tail-copied page-groups, in bytes. */
    BackendPrefixStats prefixStats() const;
    /** Bytes of the page-groups @p slot maps (each buffer's live
     *  [lead, end) range, so window-trimmed slots count only what
     *  stays mapped). */
    u64 slotPhysBytes(int slot) const;
    /** Leased reqIds (swapped-out requests included). */
    i64 liveSlots() const { return slots().numActive(); }

    /**
     * Lockstep workers fed identical control inputs must hold
     * identical slot states, group counts and pool levels; record
     * every quantity in which this worker (@p worker) drifted from
     * @p lead, naming the worker and the slot.
     */
    void auditAgainstLead(const TpWorker &lead, std::size_t worker,
                          audit::AuditReport &report) const;
};

/** Lockstep group of per-worker vAttention runtimes. */
class WorkerGroup : public Lockstep<TpWorker>
{
  public:
    /**
     * @param num_workers tensor-parallel degree
     * @param config per-worker configuration (H must already be the
     *        per-worker head count; §5.1.3)
     * @param device_mem_bytes memory of each worker's GPU
     * @param replication kLeadOnly builds worker 0 alone
     */
    WorkerGroup(int num_workers, const Config &config,
                u64 device_mem_bytes,
                Replication replication = Replication::kFull);

    /** The TP degree (built workers or not). */
    int numWorkers() const { return size(); }
    /** Rank @p index's driver: the lead's in a lead-only group. */
    cuvmm::Driver &driver(int index) { return forRank(index).driver(); }
    /** Worker 0's lifetime counters (the workers' are identical). */
    const RuntimeStats &stats() const { return lead().stats(); }
};

} // namespace vattn::core

#endif // VATTN_CORE_WORKER_GROUP_HH
