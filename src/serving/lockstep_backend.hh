/**
 * @file
 * The engine's one KV memory backend: a lockstep adapter over a
 * per-worker KV runtime, instantiated for the two runtimes the paper
 * compares.
 *
 *  - PagedBackend      = LockstepBackend<paged::PagedRuntime>: the
 *    vLLM baseline, block pools over an up-front committed region
 *    (blocks are CPU-side bookkeeping, so a step never pays driver
 *    latency).
 *  - VAttentionBackend = LockstepBackend<core::TpWorker>: the paper's
 *    system, one simulated GPU, VMM driver and core::VAttention
 *    runtime per worker, committing physical memory page-group by
 *    page-group with the §6.1 optimizations hiding the latency.
 *
 * Tensor parallelism (§5.3): each TP worker holds a num_kv_heads/tp
 * KV shard, and the workers form a Lockstep group (common/lockstep.hh).
 * Each MemoryBackend mutation is one apply() call, every symmetric
 * query reads worker 0, and auditInto() checks every built worker.
 * Workers run concurrently, so worker 0's latencies are the group's,
 * and sizes and bytes are per worker.
 *
 * Where followers are built. Identical control inputs keep every
 * worker in worker 0's state (the paper models one worker "for
 * simplicity; all workers behave the same"), so in Release serving a
 * follower would only repeat the lead's work: the adapter builds the
 * lead alone, one runtime for the whole group, and every op runs
 * once. The price is the check: a Release TP run has no follower to
 * diverge. VATTN_AUDIT builds replicate fully, so there apply() panics
 * on a follower whose result differs from worker 0's and the audit
 * compares each follower with worker 0; tests get the same through
 * ReplicateFollowers. numWorkers() is the TP degree either way.
 *
 * Both runtimes take the same operations (common/kv_results.hh), so
 * the adapter has no per-runtime code paths. What differs per runtime
 * is only how its workers are built from the engine's model and
 * settings: LockstepTraits names the group type, the settings the
 * shared constructor parameters leave out, and the builder.
 */

#ifndef VATTN_SERVING_LOCKSTEP_BACKEND_HH
#define VATTN_SERVING_LOCKSTEP_BACKEND_HH

#include <algorithm>
#include <limits>
#include <utility>

#include "common/lockstep.hh"
#include "core/worker_group.hh"
#include "paged/paged_runtime.hh"
#include "perf/model_spec.hh"
#include "perf/pcie_spec.hh"
#include "serving/memory_backend.hh"

namespace vattn::serving
{

/** vAttention's settings with no paged counterpart: page-group size
 *  (§6.2; below 2MB the driver extension is used), §8.2 tensor
 *  slicing, the §6.1 optimizations and the slot count. */
struct VAttentionOptions
{
    PageGroup page_group = PageGroup::k2MB;
    bool tensor_slicing = false;
    bool deferred_reclamation = true;
    bool eager_allocation = true;
    bool overlap_allocation = true;
    int max_batch_size = 256;
};

/**
 * While one lives on a thread, every LockstepBackend built on that
 * thread — directly or inside an Engine — builds and checks all its TP
 * workers, as VATTN_AUDIT builds always do. Tests that reach a
 * follower, or compare lead-only with full replication, hold one.
 */
class ReplicateFollowers
{
  public:
    ReplicateFollowers();
    ~ReplicateFollowers();
    ReplicateFollowers(const ReplicateFollowers &) = delete;
    ReplicateFollowers &operator=(const ReplicateFollowers &) = delete;

    /** The replication of a LockstepBackend built now: full in
     *  VATTN_AUDIT builds and under a ReplicateFollowers, else
     *  lead-only. */
    static Replication current();

  private:
    bool outer_;
};

/**
 * How the workers of one runtime are built: the lockstep group type,
 * the runtime's own settings, and make(), which derives each worker's
 * runtime config from the model (perf/ sits above paged/ and core/,
 * so only the serving layer can read a ModelSpec).
 */
template <typename Runtime>
struct LockstepTraits;

template <>
struct LockstepTraits<paged::PagedRuntime>
{
    using Workers = Lockstep<paged::PagedRuntime>;
    /** Tokens per KV block. */
    using Options = i64;

    static Workers make(const perf::ModelSpec &model, int tp,
                        Options block_size, u64 budget_bytes,
                        bool enable_prefix_caching, u64 host_swap_bytes,
                        const perf::PcieSpec &pcie,
                        Replication replication);
};

template <>
struct LockstepTraits<core::TpWorker>
{
    using Workers = core::WorkerGroup;
    using Options = VAttentionOptions;

    static Workers make(const perf::ModelSpec &model, int tp,
                        const Options &options, u64 budget_bytes,
                        bool enable_prefix_caching, u64 host_swap_bytes,
                        const perf::PcieSpec &pcie,
                        Replication replication);
};

/** A MemoryBackend over a lockstep group of per-worker runtimes. */
template <typename Runtime>
class LockstepBackend final : public MemoryBackend
{
  public:
    using Workers = typename LockstepTraits<Runtime>::Workers;
    using Options = typename LockstepTraits<Runtime>::Options;

    /**
     * @param model model architecture (per-token KV bytes, windows)
     * @param tp tensor-parallel degree: each rank's runtime holds a
     *        num_kv_heads/tp shard (only the lead's is built unless
     *        ReplicateFollowers::current() says kFull)
     * @param options the runtime's own settings (paged: tokens per
     *        block)
     * @param budget_bytes per-worker KV pool bytes
     * @param enable_prefix_caching §8.1 prefix reuse: hash-block
     *        sharing (paged) or page-group aliasing (vAttention; its
     *        cross-lifetime reuse needs deferred reclamation)
     * @param host_swap_bytes per-worker host tier for preempt-by-swap
     *        (0 disables it: preempt by recomputation)
     * @param pcie link pricing the swap copies
     */
    LockstepBackend(const perf::ModelSpec &model, int tp, Options options,
                    u64 budget_bytes, bool enable_prefix_caching = false,
                    u64 host_swap_bytes = 0,
                    perf::PcieSpec pcie = perf::PcieSpec::gen4x16())
        : workers_(LockstepTraits<Runtime>::make(
              model, tp, options, budget_bytes, enable_prefix_caching,
              host_swap_bytes, pcie, ReplicateFollowers::current()))
    {
    }

    bool canAdmit(i64 uncached_tokens) const override
    {
        return lead().canAllocate(uncached_tokens);
    }
    Result<int> allocSlot() override
    {
        return workers_.apply("allocReqId",
                              [](Runtime &w) { return w.allocReqId(); });
    }
    bool prefixCachingEnabled() const override
    {
        return lead().prefixCachingEnabled();
    }
    i64 matchPrefix(const PrefixKey &key) const override
    {
        return lead().cachedPrefixTokens(key);
    }
    /** Each worker shares its own shard of the cached prefix, so the
     *  workers agree on the slot, the tokens served and the latency. */
    Result<SlotLease> allocSlot(const PrefixKey &key,
                                i64 max_cached) override
    {
        return workers_.apply("allocReqIdWithPrefix", [&](Runtime &w) {
            return w.allocReqIdWithPrefix(key, max_cached);
        });
    }
    void registerPrefix(int slot, const PrefixKey &key,
                        i64 tokens) override
    {
        workers_.apply("registerPrefix", [&](Runtime &w) {
            w.registerPrefix(slot, key, tokens);
        });
    }
    BackendPrefixStats prefixStats() const override
    {
        return lead().prefixStats();
    }

    bool hasHostTier() const override
    {
        return lead().hostSwapBudgetBytes() > 0;
    }
    bool canSwapOut(int slot) const override
    {
        return lead().canSwapOut(slot);
    }
    bool canSwapIn(int slot) const override
    {
        return lead().canSwapIn(slot);
    }
    Result<SwapResult> swapOut(int slot) override
    {
        return swapResult(workers_.apply(
            "swapOutReq", [&](Runtime &w) { return w.swapOutReq(slot); }));
    }
    Result<SwapResult> swapIn(int slot) override
    {
        return swapResult(workers_.apply(
            "swapInReq", [&](Runtime &w) { return w.swapInReq(slot); }));
    }
    u64 slotPhysBytes(int slot) const override
    {
        return lead().slotPhysBytes(slot);
    }
    /** Every worker's image is identical (per-worker shard bytes, as
     *  SwapResult::bytes), so worker 0's describes the group. */
    Result<SwappedKvImage> exportSwapped(int slot) override
    {
        return workers_.apply("exportSwapped", [&](Runtime &w) {
            return w.exportSwapped(slot);
        });
    }
    bool canImportSwapped(const SwappedKvImage &image) const override
    {
        return hasHostTier() && lead().canImportSwapped(image);
    }
    Result<int> importSwapped(const SwappedKvImage &image) override
    {
        return workers_.apply("importSwapped", [&](Runtime &w) {
            return w.importSwapped(image);
        });
    }

    void freeSlot(int slot) override
    {
        workers_.apply("freeReqId", [&](Runtime &w) {
            return w.freeReqId(slot);
        }).expectOk("freeReqId");
    }
    Result<TimeNs> ensure(const ActiveLens &active) override
    {
        last_step_ = workers_.apply(
            "step", [&](Runtime &w) { return w.step(active); });
        if (!last_step_.status.isOk()) {
            return Result<TimeNs>(last_step_.status);
        }
        // Time banked by failed swaps rides the next iteration's
        // critical path (0 in the common case).
        return last_step_.critical_ns + std::exchange(failed_swap_ns_, 0);
    }
    i64 ensureSlack(const ActiveLens &active) const override
    {
        i64 slack = std::numeric_limits<i64>::max();
        for (const auto &[slot, len] : active) {
            slack = std::min(slack,
                             lead().nextWorkLen(slot, len) - len - 1);
            if (slack <= 0) {
                return 0;
            }
        }
        return slack;
    }
    TimeNs skipEnsure() override
    {
        last_step_ = StepStats{};
        return std::exchange(failed_swap_ns_, 0);
    }
    void checkSkippedEnsure(const ActiveLens &active) override
    {
        for (const auto &[slot, len] : active) {
            panic_if(lead().nextWorkLen(slot, len) <= len,
                     "skipped ensure: slot ", slot,
                     " has work due at length ", len);
        }
        const u64 mapped_bytes = lead().physBytesMapped();
        const StepStats step = workers_.apply(
            "step", [&](Runtime &w) { return w.step(active); });
        panic_if(!step.status.isOk() || step.critical_ns != 0 ||
                     step.handles_mapped != 0 || step.handles_stolen != 0 ||
                     lead().physBytesMapped() != mapped_bytes,
                 "skipped ensure did work: status ", step.status.message(),
                 ", critical ", step.critical_ns, " ns, mapped ",
                 step.handles_mapped, ", stolen ", step.handles_stolen,
                 ", bytes ", mapped_bytes, " -> ",
                 lead().physBytesMapped());
    }
    void computeWindow(TimeNs window_ns) override
    {
        workers_.apply("computePhase",
                       [&](Runtime &w) { w.computePhase(window_ns); });
    }
    const StepStats &lastStep() const override { return last_step_; }

    u64 bytesInUse() const override { return lead().physBytesMapped(); }
    u64 budgetBytes() const override { return lead().budgetBytes(); }
    void auditInto(audit::AuditReport &report) const override
    {
        workers_.auditInto(report);
    }

    /** Leased slots, swapped-out ones included. */
    i64 liveSlots() const { return lead().liveSlots(); }
    /** The TP degree (built workers or not). */
    int numWorkers() const { return workers_.size(); }

    /** Worker 0's runtime, which answers for the group (tests and
     *  benches read runtime-specific state here). */
    Runtime &runtime() { return workers_.lead(); }
    const Runtime &runtime() const { return workers_.lead(); }

    /** The lockstep workers (tests reach a single worker through
     *  worker(w), a follower only under ReplicateFollowers). */
    Workers &workerGroup() { return workers_; }

  private:
    const Runtime &lead() const { return workers_.lead(); }

    /** A swap as the engine sees it. A failed swap may still have
     *  done modeled work (a swap-in's cached steals, partial remap
     *  and rollback); an error carries no time, so it is banked for
     *  the next ensure(). */
    Result<SwapResult>
    swapResult(const SwapStats &stats)
    {
        if (!stats.status.isOk()) {
            failed_swap_ns_ += stats.critical_ns;
            return Result<SwapResult>(stats.status);
        }
        return SwapResult{stats.bytes, stats.critical_ns};
    }

    Workers workers_;
    StepStats last_step_;
    /** Time spent by failed swaps, charged to the next ensure(). */
    TimeNs failed_swap_ns_ = 0;
};

extern template class LockstepBackend<paged::PagedRuntime>;
extern template class LockstepBackend<core::TpWorker>;

/** Block-managed KV backend (the baseline systems). */
using PagedBackend = LockstepBackend<paged::PagedRuntime>;
/** vAttention-managed KV backend (the paper's system). */
using VAttentionBackend = LockstepBackend<core::TpWorker>;

} // namespace vattn::serving

#endif // VATTN_SERVING_LOCKSTEP_BACKEND_HH
