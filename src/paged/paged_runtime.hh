/**
 * @file
 * The PagedAttention KV runtime of one TP worker: block-granular
 * user-space accounting over an up-front committed pool, as in vLLM.
 * Block (de)allocation is pure CPU bookkeeping (its cost lives in
 * perf::OverheadModel); the fragmentation behaviour — at most
 * block_size-1 wasted tokens per request — is what Figure 15 compares
 * against page-group rounding.
 *
 * Its operations carry core::VAttention's names, meanings and result
 * types (common/kv_results.hh), so the serving layer drives both
 * runtimes through one lockstep adapter (serving/lockstep_backend.hh).
 *
 * With prefix caching enabled the runtime runs vLLM's hash-block
 * scheme on top of BlockManager: full blocks are tagged with chained
 * content hashes as prefill completes them, refcount-0 blocks park on
 * an LRU evictable list instead of freeing, and a new request whose
 * prompt prefix matches a stored chain adopts the blocks by reference
 * (sharing is CPU-side bookkeeping — no data moves).
 *
 * Per-layer windows: layers are grouped by attention window class
 * (full vs each sliding-window width), one BlockManager per class with
 * the budget split pro rata by layer count. Sliding classes free a
 * request's dead leading blocks as its window advances.
 */

#ifndef VATTN_PAGED_PAGED_RUNTIME_HH
#define VATTN_PAGED_PAGED_RUNTIME_HH

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/audit.hh"
#include "common/kv_image.hh"
#include "common/kv_results.hh"
#include "common/prefix_hash.hh"
#include "common/status.hh"
#include "cuvmm/latency_model.hh"
#include "paged/block_manager.hh"

namespace vattn::paged
{

/** One TP worker's block pools, slots, prefix store and swap tier. */
class PagedRuntime
{
  public:
    struct Config
    {
        int num_layers = 0;
        i64 max_context_len = 0;
        /** Window per layer (0 = full attention; empty = all full),
         *  by core::Config's rules (common/layer_windows.hh). */
        std::vector<i64> layer_window_tokens;
        i64 block_size = 16;
        /** One layer's K and V bytes per block on this worker. */
        u64 layer_block_bytes = 0;
        u64 budget_bytes = 0;
        /** Hash-block prefix cache (§8.1). */
        bool prefix_caching = false;
        /** CPU block pool for preempt-by-swap, the vLLM --swap-space
         *  model (0 disables the tier). */
        u64 host_swap_bytes = 0;
        /** Prices swap copies (block sharing itself is free). */
        cuvmm::LatencyModel::CopyModel copy = {};

        Status validate() const;
    };

    /** Worker @p worker of a lockstep group (named by the audits). */
    PagedRuntime(int worker, const Config &config);

    // ---- Lockstep operations (core::VAttention's) --------------------
    Result<int> allocReqId();
    /** Lease a slot adopting up to @p max_cached tokens of a stored
     *  block chain matching @p key. */
    Result<SlotLease> allocReqIdWithPrefix(const PrefixKey &key,
                                      i64 max_cached);
    void registerPrefix(int slot, const PrefixKey &key, i64 tokens);
    Status freeReqId(int slot);
    /** Grow each listed slot and free its dead window leads; never
     *  pays driver time or maps page-groups. */
    StepStats step(std::span<const std::pair<int, i64>> active);
    /** Nothing to overlap: blocks are CPU-side bookkeeping. */
    void computePhase(TimeNs) {}
    SwapStats swapOutReq(int slot);
    SwapStats swapInReq(int slot);
    Result<SwappedKvImage> exportSwapped(int slot);
    Result<int> importSwapped(const SwappedKvImage &image);

    // ---- Symmetric queries ---------------------------------------------
    /** Fits @p uncached_tokens, keeping one block of headroom per
     *  live slot (vLLM's watermark)? */
    bool canAllocate(i64 uncached_tokens) const;
    i64 cachedPrefixTokens(const PrefixKey &key) const;
    bool prefixCachingEnabled() const { return config_.prefix_caching; }
    BackendPrefixStats prefixStats() const { return prefix_; }
    bool canSwapOut(int slot) const { return swapOutRefusal(slot).isOk(); }
    bool canSwapIn(int slot) const;
    bool canImportSwapped(const SwappedKvImage &image) const;
    u64 slotPhysBytes(int slot) const;
    /** Bytes of blocks live requests hold (evictable cached blocks
     *  are reclaimable capacity, not use). */
    u64 physBytesMapped() const;
    u64 budgetBytes() const { return config_.budget_bytes; }
    u64 hostSwapBudgetBytes() const;
    i64 liveSlots() const { return live_slots_; }

    /** Block-manager self-audits plus the slot/manager cross-checks. */
    void auditInto(audit::AuditReport &report) const;
    /** Record where this worker (@p worker) drifted from @p lead. */
    void auditAgainstLead(const PagedRuntime &lead, std::size_t worker,
                          audit::AuditReport &report) const;

    // ---- Block-level access (tests, benches, fault injection) -------
    /** Number of window classes (1 for uniform models). */
    int numLayerGroups() const { return static_cast<int>(groups_.size()); }
    BlockManager &groupManager(int group) { return groupAt(group).manager; }
    const BlockManager &groupManager(int group) const
    {
        return const_cast<PagedRuntime *>(this)->groupManager(group);
    }
    i64 blockSize() const { return config_.block_size; }
    /** Window width of class @p group (0 = full attention). */
    i64 groupWindowTokens(int group) const
    {
        return const_cast<PagedRuntime *>(this)->groupAt(group).window_tokens;
    }
    const RequestBlocks &slotBlocks(int slot, int group) const;

    /** The per-slot half of step. */
    Status ensureSlot(int slot, i64 len);
    /** Would ensureSlot(@p slot, @p len) change nothing? True iff
     *  every class's list already covers @p len tokens and no sliding
     *  class's lead would advance — exactly the two ways ensureSlot
     *  mutates. False for an unknown slot, so the call still reaches
     *  ensureSlot and panics there. */
    bool ensureIsNoop(int slot, i64 len) const;
    /** The smallest length >= @p len at which ensureIsNoop(@p slot)
     *  turns false: the next block boundary or the next dead-lead
     *  advance of a sliding class, whichever comes first (@p len
     *  itself for an unknown slot). */
    i64 nextWorkLen(int slot, i64 len) const;
    /** Run ensureSlot on a slot ensureIsNoop skipped and panic if any
     *  class's block count, lead or free-block count moved (step runs
     *  it on every skip in VATTN_AUDIT builds). */
    void checkSkippedEnsure(int slot, i64 len);

  private:
    /** One window class and its dedicated block pool. */
    struct LayerGroup
    {
        i64 window_tokens;   ///< 0 = full attention
        u64 bytes_per_block; ///< the class's layers * layer_block_bytes
        BlockManager manager;
    };

    /** One slot's share of one window class. */
    struct SlotGroup
    {
        RequestBlocks blocks;
        /** CPU blocks while swapped out (empty = resident). */
        std::vector<i32> cpu_blocks = {};
        /** Dead-lead boundary at swap-out time. */
        i64 swap_lead = 0;
    };

    struct Slot
    {
        /** Leased (false: the id waits on free_ids_). */
        bool live = false;
        /** Parallel to groups_. */
        std::vector<SlotGroup> groups;
        /** Chained hash per full prompt block already registered
         *  (prefix caching is uniform-only: group 0). */
        std::vector<u64> hashes;
        /** Running chain value after hashes.back(). */
        u64 chain = 0;

        bool swapped() const;
    };

    LayerGroup &groupAt(int group);
    /** The live slot @p slot, or nullptr. */
    Slot *find(int slot);
    const Slot *find(int slot) const
    {
        return const_cast<PagedRuntime *>(this)->find(slot);
    }
    /** The live slot @p slot; panics naming @p op otherwise. */
    Slot &at(int slot, const char *op);
    i64 deadLeadBlocks(const LayerGroup &group, i64 tokens) const;
    int leaseSlot();
    /** Live blocks @p slot holds across all classes. */
    i64 blocksHeld(int slot) const;
    /** Why swapOutReq(@p slot) would fail right now, or OK. */
    Status swapOutRefusal(int slot) const;

    Config config_;
    std::size_t worker_;
    std::vector<LayerGroup> groups_;
    /** How each window class is cut into blocks, as swapped images
     *  record it (parallel to groups_). */
    std::vector<KvPageLayout> layouts_;
    /** Dense slot table indexed by slot id; freed ids wait on
     *  free_ids_ and are reused first. */
    std::vector<Slot> slots_;
    std::vector<int> free_ids_;
    i64 live_slots_ = 0;
    i64 swapped_slots_ = 0;
    BackendPrefixStats prefix_;
};

} // namespace vattn::paged

#endif // VATTN_PAGED_PAGED_RUNTIME_HH
