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
 * The group builds the workers and owns the cross-worker audit; it
 * declares no per-op forwards. Callers run each mutation through
 * apply(), the one Lockstep<Worker> entry point (common/lockstep.hh),
 * which panics on a diverging result, and read symmetric answers from
 * worker(0) — the same shape PagedBackend gives its block pools.
 * auditInto() checks that the states stayed equal.
 *
 * Workers allocate physical memory in parallel, so the group's
 * aggregate allocation bandwidth scales with TP (Table 9) while the
 * critical-path latency per iteration stays that of one worker.
 */

#ifndef VATTN_CORE_WORKER_GROUP_HH
#define VATTN_CORE_WORKER_GROUP_HH

#include <memory>
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
    VAttention &worker(int index) { return *workers_.worker(index).runtime; }
    /** Worker @p index's runtime; worker 0 answers the group's
     *  symmetric queries (lockstep makes every worker's answer equal). */
    const VAttention &
    worker(int index) const
    {
        return *workers_.worker(index).runtime;
    }
    cuvmm::Driver &driver(int index)
    {
        return *workers_.worker(index).driver;
    }
    /** Worker 0's lifetime counters (the workers' are identical). */
    const RuntimeStats &stats() const { return worker(0).stats(); }

    /**
     * Run @p op(VAttention &) on every worker in lockstep and return
     * worker 0's result (Lockstep::apply: a follower whose result
     * differs panics naming @p op_name). Workers run concurrently, so
     * worker 0's critical-path latencies are the group's.
     */
    template <typename Op>
    auto
    apply(const char *op_name, Op &&op)
    {
        return workers_.apply(op_name, [&](Worker &w) {
            return op(*w.runtime);
        });
    }

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

    static std::vector<Worker> makeWorkers(int num_workers,
                                           const Config &config,
                                           u64 device_mem_bytes);
    void auditLockstepInto(audit::AuditReport &report) const;

    Lockstep<Worker> workers_;
};

} // namespace vattn::core

#endif // VATTN_CORE_WORKER_GROUP_HH
