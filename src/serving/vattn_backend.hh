/**
 * @file
 * The vAttention memory backend: a lockstep adapter shaped like
 * PagedBackend. It owns a core::WorkerGroup — one simulated GPU, VMM
 * driver and core::VAttention runtime per tensor-parallel worker, each
 * holding a num_kv_heads/tp KV shard (§5.3) — and applies each
 * MemoryBackend mutation to every runtime through the group's one
 * Lockstep entry point, WorkerGroup::apply. Symmetric queries read
 * worker 0's runtime; the audit layer's cross-worker state-equality
 * check verifies that symmetry.
 * ensure() hands the engine's (slot, length) list straight to the
 * sparse step() on every worker, so its cost follows the running
 * requests, not the slot count; computeWindow() drives the
 * background-allocation model (§6.1.1). Prefix keys and swapped KV
 * images cross the boundary unchanged: the runtime hashes the
 * engine's PrefixKey at page-group granularity itself, and exports
 * and imports the SwappedKvImage both backends share.
 * The constructor mirrors PagedBackend's, so the engine configures
 * prefix caching, the swap tier and the PCIe link of both alike.
 */

#ifndef VATTN_SERVING_VATTN_BACKEND_HH
#define VATTN_SERVING_VATTN_BACKEND_HH

#include "core/worker_group.hh"
#include "cuvmm/driver.hh"
#include "perf/model_spec.hh"
#include "perf/pcie_spec.hh"
#include "serving/memory_backend.hh"

namespace vattn::serving
{

/** vAttention-managed KV backend (the paper's system). */
class VAttentionBackend : public MemoryBackend
{
  public:
    /** The settings with no paged counterpart: page-group size (§6.2;
     *  below 2MB the driver extension is used), §8.2 tensor slicing,
     *  the §6.1 optimizations and the slot count. */
    struct Options
    {
        PageGroup page_group = PageGroup::k2MB;
        bool tensor_slicing = false;
        bool deferred_reclamation = true;
        bool eager_allocation = true;
        bool overlap_allocation = true;
        int max_batch_size = 256;
    };

    /**
     * PagedBackend's parameters, with Options in block_size's place.
     * @param tp tensor-parallel degree: one lockstep worker per rank,
     *        each with num_kv_heads/tp heads (§5.3)
     * @param budget_bytes per-worker physical KV budget
     * @param enable_prefix_caching §8.1: hits alias physical
     *        page-groups into the new request's virtual tensors
     *        (cross-lifetime reuse needs deferred reclamation)
     * @param host_swap_bytes per-worker pinned host bytes for the KV
     *        swap tier (0 disables it: preempt by recomputation)
     * @param pcie link pricing swap copies, set on every worker's driver
     */
    VAttentionBackend(const perf::ModelSpec &model, int tp,
                      Options options, u64 budget_bytes,
                      bool enable_prefix_caching = false,
                      u64 host_swap_bytes = 0,
                      perf::PcieSpec pcie = perf::PcieSpec::gen4x16());

    bool canAdmit(i64 uncached_tokens) const override
    {
        return runtime().canAllocate(uncached_tokens);
    }
    Result<int> allocSlot() override;
    bool prefixCachingEnabled() const override
    {
        return runtime().config().prefix_caching;
    }
    i64 matchPrefix(const PrefixKey &key) const override
    {
        return runtime().matchPrefix(key).tokens;
    }
    Result<SlotLease> allocSlot(const PrefixKey &key,
                                i64 max_cached) override;
    void registerPrefix(int slot, const PrefixKey &key,
                        i64 tokens) override;
    BackendPrefixStats prefixStats() const override;
    void freeSlot(int slot) override;
    Result<TimeNs> ensure(const ActiveLens &active) override;
    void computeWindow(TimeNs window_ns) override;
    /** Per-worker shard bytes (workers are symmetric): the engine's
     *  budget and admission math are per worker throughout. */
    u64 bytesInUse() const override { return runtime().physBytesMapped(); }
    u64 budgetBytes() const override { return runtime().budgetBytes(); }
    /** Whole-stack audit of every worker (driver + pool + allocator +
     *  runtime) plus the cross-worker lockstep-equality check. */
    void auditInto(audit::AuditReport &report) const override
    {
        group_.auditInto(report);
    }

    bool hasHostTier() const override
    {
        return runtime().hostSwapBudgetBytes() > 0;
    }
    bool canSwapOut(int slot) const override
    {
        return runtime().canSwapOut(slot);
    }
    bool canSwapIn(int slot) const override
    {
        return runtime().canSwapIn(slot);
    }
    Result<SwapResult> swapOut(int slot) override;
    Result<SwapResult> swapIn(int slot) override;
    u64 slotPhysBytes(int slot) const override;

    Result<SwappedKvImage> exportSwapped(int slot) override;
    /** Host tier, an image cut exactly like this replica's buffers
     *  (same model, TP degree, page-group size and windows), and room
     *  for it on every worker. */
    bool canImportSwapped(const SwappedKvImage &image) const override
    {
        return hasHostTier() && runtime().canImportSwapped(image);
    }
    Result<int> importSwapped(const SwappedKvImage &image) override;

    /** The lockstep TP worker group backing this replica. */
    core::WorkerGroup &workerGroup() { return group_; }

    /** Worker 0's runtime/driver (workers are symmetric; the
     *  historical single-worker accessors for tests and benches). */
    core::VAttention &runtime() { return group_.worker(0); }
    const core::VAttention &runtime() const { return group_.worker(0); }
    cuvmm::Driver &driver() { return group_.driver(0); }

    /** Result of the most recent ensure() (for iteration traces). */
    const core::StepStats &lastStep() const { return last_step_; }

  private:
    core::WorkerGroup group_;
    core::StepStats last_step_;
    /** Driver time spent by failed swap-in attempts, charged to the
     *  next ensure() (error results cannot carry latency). */
    TimeNs failed_swap_ns_ = 0;
};

} // namespace vattn::serving

#endif // VATTN_SERVING_VATTN_BACKEND_HH
