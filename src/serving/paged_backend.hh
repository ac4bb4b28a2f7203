/**
 * @file
 * PagedAttention memory backend: block-granular user-space accounting
 * over an up-front committed pool, as in vLLM. Block (de)allocation is
 * pure CPU bookkeeping (its cost lives in perf::OverheadModel); the
 * fragmentation behaviour — at most block_size-1 wasted tokens per
 * request — is what Figure 15 compares against page-group rounding.
 *
 * With prefix caching enabled the backend runs vLLM's hash-block
 * scheme on top of paged::BlockManager: full blocks are tagged with
 * chained content hashes as prefill completes them, refcount-0 blocks
 * park on an LRU evictable list instead of freeing, and a new request
 * whose prompt prefix matches a stored chain adopts the blocks by
 * reference (sharing is CPU-side bookkeeping — no data moves).
 *
 * Per-layer heterogeneous geometries: layers are grouped by attention
 * window class (full vs each sliding-window width), one BlockManager
 * per group with the budget split pro rata by layer count. Sliding
 * groups free a request's dead leading blocks as its window advances;
 * a uniform model collapses to the single historical manager with
 * bit-identical arithmetic.
 *
 * Tensor parallelism: one block pool per TP worker, each sized for a
 * num_kv_heads/tp KV shard and held in a Lockstep<WorkerPool>
 * (common/lockstep.hh), driven like VAttentionBackend's
 * core::WorkerGroup: each mutation is one apply() call on all workers
 * and must produce identical results (the pool logic is
 * deterministic, so divergence is a bug and panics naming the op and
 * the worker). Symmetric queries are answered
 * by worker 0; auditInto() verifies the cross-worker state equality
 * that makes worker 0 representative.
 */

#ifndef VATTN_SERVING_PAGED_BACKEND_HH
#define VATTN_SERVING_PAGED_BACKEND_HH

#include <vector>

#include "common/lockstep.hh"
#include "paged/block_manager.hh"
#include "perf/model_spec.hh"
#include "perf/pcie_spec.hh"
#include "serving/memory_backend.hh"

namespace vattn::serving
{

/** Block-managed KV backend (the baseline systems). */
class PagedBackend : public MemoryBackend
{
    struct WorkerPool; // one TP worker's block pools (below)

  public:
    /**
     * @param model model architecture (for per-token KV bytes)
     * @param tp tensor-parallel degree: one lockstep block pool per
     *        worker, each holding a num_kv_heads/tp shard
     * @param block_size tokens per KV block
     * @param budget_bytes per-worker KV pool bytes
     * @param enable_prefix_caching hash-block prefix cache (§8.1)
     * @param host_swap_bytes per-worker CPU block pool for
     *        preempt-by-swap, the vLLM --swap-space model (0 disables
     *        the tier)
     * @param pcie link pricing the swap copies (block sharing itself
     *        stays free; only swap traffic crosses PCIe)
     */
    PagedBackend(const perf::ModelSpec &model, int tp, i64 block_size,
                 u64 budget_bytes, bool enable_prefix_caching = false,
                 u64 host_swap_bytes = 0,
                 perf::PcieSpec pcie = perf::PcieSpec::gen4x16());

    bool canAdmit(i64 uncached_tokens) const override
    {
        return workers_.lead().canAdmit(uncached_tokens);
    }
    Result<int> allocSlot() override;
    bool prefixCachingEnabled() const override
    {
        return workers_.lead().groups[0].manager.prefixCacheEnabled();
    }
    i64 matchPrefix(const PrefixKey &key) const override
    {
        return workers_.lead().matchPrefix(key);
    }
    Result<SlotLease> allocSlot(const PrefixKey &key,
                                i64 max_cached) override;
    void registerPrefix(int slot, const PrefixKey &key,
                        i64 tokens) override;
    BackendPrefixStats prefixStats() const override
    {
        return workers_.lead().prefix;
    }
    void freeSlot(int slot) override;
    Result<TimeNs> ensure(const ActiveLens &active) override;
    /** Nothing to overlap: blocks are CPU-side bookkeeping. */
    void computeWindow(TimeNs) override {}
    /** Per-worker shard bytes (workers are symmetric): the engine's
     *  budget and admission math are per worker throughout. */
    u64 bytesInUse() const override { return workers_.lead().bytesInUse(); }
    u64 budgetBytes() const override { return budget_bytes_; }
    /** Per-worker block-manager self-audits + slot/manager
     *  cross-checks + the cross-worker lockstep-equality check. */
    void auditInto(audit::AuditReport &report) const override;

    bool hasHostTier() const override
    {
        return workers_.lead().groups[0].manager.numCpuBlocks() > 0;
    }
    bool canSwapOut(int slot) const override
    {
        return workers_.lead().canSwapOut(slot);
    }
    bool canSwapIn(int slot) const override
    {
        return workers_.lead().canSwapIn(slot);
    }
    Result<SwapResult> swapOut(int slot) override;
    Result<SwapResult> swapIn(int slot) override;
    u64 slotPhysBytes(int slot) const override
    {
        return workers_.lead().slotPhysBytes(slot);
    }

    Result<SwappedKvImage> exportSwapped(int slot) override;
    bool canImportSwapped(const SwappedKvImage &image) const override;
    Result<int> importSwapped(const SwappedKvImage &image) override;

    /** Number of lockstep TP workers (block-pool replicas). */
    int numWorkers() const { return workers_.size(); }

    /** Worker 0's full-attention manager (the only group on uniform
     *  models — the historical accessor for tests and benches). */
    paged::BlockManager &blockManager()
    {
        return workers_.lead().groups[0].manager;
    }
    i64 blockSize() const
    {
        return workers_.lead().groups[0].manager.blockSize();
    }

    /** Number of window classes (1 for uniform models). */
    int numLayerGroups() const
    {
        return static_cast<int>(workers_.lead().groups.size());
    }
    /** Worker 0's manager of window class @p group. */
    paged::BlockManager &groupManager(int group)
    {
        return workers_.lead()
            .groups[static_cast<std::size_t>(group)]
            .manager;
    }
    /** Window width of class @p group (0 = full attention). */
    i64 groupWindowTokens(int group) const
    {
        return workers_.lead()
            .groups[static_cast<std::size_t>(group)]
            .window_tokens;
    }

    /** Blocks held by one slot across all groups, per worker
     *  (overhead-model inputs; dead window leads excluded). */
    i64 blocksHeld(int slot) const
    {
        return workers_.lead().blocksHeld(slot);
    }

    /** The lockstep block pools, one per TP worker (fault-injection
     *  tests reach a single worker through worker(w)). */
    Lockstep<WorkerPool> &workers() { return workers_; }

  private:
    /** One window class: the layers sharing an attention window and
     *  their dedicated block pool. */
    struct LayerGroup
    {
        i64 window_tokens;   ///< 0 = full attention
        int layers;          ///< layers in this class
        u64 bytes_per_block; ///< 2 * layers * H_kv/tp * D * P * bs
        paged::BlockManager manager;
    };

    struct Slot
    {
        /** Leased (false: the id waits on WorkerPool::free_ids). */
        bool live = false;
        /** One block list per layer group, parallel to groups. */
        std::vector<paged::RequestBlocks> blocks;
        /** Chained hash per full prompt block already registered
         *  (prefix caching is uniform-only: group 0). */
        std::vector<u64> hashes;
        /** Running chain value after hashes.back(). */
        u64 chain = 0;
        /** Per-group CPU blocks while swapped out (all empty =
         *  resident). */
        std::vector<std::vector<i32>> cpu_blocks;
        /** Per-group dead-lead boundary at swap-out time. */
        std::vector<i64> swap_leads;

        bool
        swapped() const
        {
            for (const auto &group : cpu_blocks) {
                if (!group.empty()) {
                    return true;
                }
            }
            return false;
        }
    };

    /** One TP worker's complete block-pool state. The pool logic is
     *  deterministic, so feeding every worker the same call sequence
     *  keeps the replicas byte-identical (verified by auditInto). */
    struct WorkerPool
    {
        std::vector<LayerGroup> groups;
        /** How each window class is cut into blocks, as swapped
         *  images record it (parallel to groups). */
        std::vector<KvPageLayout> layouts;
        /** Dense slot table indexed by slot id, as core::ReqSlots;
         *  freed ids wait on free_ids and are reused first. */
        std::vector<Slot> slots;
        std::vector<int> free_ids;
        i64 live_slots = 0;
        i64 swapped_slots = 0;
        BackendPrefixStats prefix;

        /** The live slot @p slot, or nullptr. */
        Slot *find(int slot);
        const Slot *find(int slot) const;
        /** The live slot @p slot; panics naming @p op otherwise. */
        Slot &at(int slot, const char *op);
        i64 deadLeadBlocks(const LayerGroup &group, i64 tokens) const;
        bool canAdmit(i64 uncached_tokens) const;
        int allocSlot();
        i64 matchPrefix(const PrefixKey &key) const;
        SlotLease adoptPrefix(int slot, const PrefixKey &key,
                              i64 max_cached);
        void registerPrefix(int slot, const PrefixKey &key,
                            i64 tokens);
        void freeSlot(int slot);
        Status ensureSlot(int slot, i64 len);
        /** Would ensureSlot(@p slot, @p len) change nothing? True iff
         *  every group's list already covers @p len tokens and no
         *  sliding group's lead would advance — exactly the two ways
         *  ensureSlot mutates. False for an unknown slot, so the call
         *  still reaches ensureSlot and panics there. */
        bool ensureIsNoop(int slot, i64 len) const;
        /** Audit builds: run ensureSlot on a slot ensureIsNoop
         *  skipped and panic if any group's block count, lead or
         *  free-block count moved. */
        void checkSkippedEnsure(int slot, i64 len, std::size_t worker);
        /** Why swapOutSlot(@p slot) would fail right now, or OK. */
        Status swapOutRefusal(int slot) const;
        bool canSwapOut(int slot) const
        {
            return swapOutRefusal(slot).isOk();
        }
        bool canSwapIn(int slot) const;
        Result<u64> swapOutSlot(int slot);
        Result<u64> swapInSlot(int slot);
        Result<SwappedKvImage> exportSlot(int slot);
        bool canImportImage(const SwappedKvImage &image) const;
        Result<int> importImage(const SwappedKvImage &image);
        u64 slotPhysBytes(int slot) const;
        u64 bytesInUse() const;
        i64 blocksHeld(int slot) const;
        void auditInto(audit::AuditReport &report,
                       std::size_t worker) const;
    };

    static std::vector<WorkerPool>
    makeWorkers(const perf::ModelSpec &model, int tp, i64 block_size,
                u64 budget_bytes, bool enable_prefix_caching,
                u64 host_swap_bytes);

    u64 budget_bytes_;
    perf::PcieSpec pcie_;
    Lockstep<WorkerPool> workers_;
};

} // namespace vattn::serving

#endif // VATTN_SERVING_PAGED_BACKEND_HH
