/**
 * @file
 * KV virtual-tensor allocator: reserves the 2N per-layer virtual
 * buffers (or the 2 sliced buffers of §8.2) at init and performs the
 * runtime page-group (un)mapping that backs each request's sub-tensor.
 *
 * Layout (§5.1.3 / §5.2.3): request reqId occupies the byte range
 * [reqId * S_aligned, (reqId+1) * S_aligned) of every buffer, where
 * S_aligned is the per-request share rounded up to the page-group size
 * so requests never share a group.
 *
 * Every buffer has the one per-token footprint of Config; only the
 * sliding window differs per layer. Each buffer's mapped region is a
 * contiguous group range [lead, end). Full-attention layers always
 * have lead 0, so a window-free model grows every buffer in lockstep
 * — the historical invariant. Sliding-window layers advance lead as
 * the window moves:
 * fully-dead leading page-groups are unmapped (llama.cpp-style
 * eviction bookkeeping), while prefix-aliased groups only drop this
 * slot's mapping — the sharer keeps the physical group alive.
 */

#ifndef VATTN_CORE_KV_ALLOCATOR_HH
#define VATTN_CORE_KV_ALLOCATOR_HH

#include <limits>
#include <vector>

#include "attn/kv_view.hh"
#include "common/audit.hh"
#include "core/config.hh"
#include "core/kv_geometry.hh"
#include "core/page_pool.hh"
#include "cuvmm/driver.hh"
#include "tensor/virtual_tensor.hh"

namespace vattn::core
{

/** K and V tensors of one layer, each [B, L, H, D] (possibly strided). */
struct LayerKv
{
    tensor::VirtualTensor k;
    tensor::VirtualTensor v;
};

/** Owns the virtual buffers + per-slot mapping state. */
class KvAllocator
{
  public:
    KvAllocator(cuvmm::Driver &driver, const Config &config,
                PagePool &pool);
    ~KvAllocator();

    KvAllocator(const KvAllocator &) = delete;
    KvAllocator &operator=(const KvAllocator &) = delete;

    const KvGeometry &geometry() const { return geom_; }

    /** Per-layer full-batch KV tensors (what init() hands the serving
     *  framework, Table 4). */
    const std::vector<LayerKv> &layerTensors() const
    {
        return layer_tensors_;
    }

    /** One request's K (or V) cache at one layer: a [L, H, D] view. */
    tensor::VirtualTensor kView(int layer, int slot) const;
    tensor::VirtualTensor vView(int layer, int slot) const;

    /** The slot's group frontier: the highest end of any buffer's
     *  mapped range (every buffer's end without windows). */
    i64 groupsMapped(int slot) const;

    /** Page-group mappings the slot holds across all buffers
     *  (Σ end − lead; per-layer trims make this the real footprint,
     *  where groupsMapped * numBuffers over-counts). O(1): cached per
     *  slot next to its horizons and refreshed with them. */
    i64 mappedHandles(int slot) const
    {
        return slots_[static_cast<std::size_t>(slot)].mapped;
    }

    /** First mapped group of the slot in @p buffer (window trims
     *  advance it past 0). */
    i64 bufferLead(int slot, int buffer) const;

    /** One past the last mapped group of the slot in @p buffer. */
    i64 bufferEnd(int slot, int buffer) const;

    /** Leading groups mapped in EVERY buffer — the prefix usable for
     *  §8.1 aliasing. Zero as soon as any buffer trimmed its lead. */
    i64 prefixGroupsMapped(int slot) const;

    /**
     * Grow the slot's backing to @p target_groups in every buffer.
     * Groups are mapped across all buffers in lockstep; on pool
     * exhaustion the slot is left consistent at its previous (or
     * partially grown) group count and kOutOfMemory is returned.
     */
    Status growTo(int slot, i64 target_groups);

    /**
     * Bring the slot to the canonical layout for a context of
     * @p tokens tokens: per buffer, unmap dead leading groups of
     * sliding-window layers (never rewinding a lead), then grow every
     * buffer to the frontier groupsForTokens(tokens). Trims happen
     * before growth so a tight pool benefits from the freed groups.
     * Window-free configs reduce to growTo(groupsForTokens).
     */
    Status ensureTokens(int slot, i64 tokens);

    /**
     * Would ensureTokens(slot, tokens) perform any work? O(1): every
     * slot caches two token horizons, recomputed from its buffers
     * after each change to a [lead, end) range.
     *
     * - Grow horizon H_g = floor(min_b end_b * groupBytes /
     *   tokenBytesPerBuffer), the largest context the current
     *   mappings back. Any buffer is below the frontier
     *   (end_b < groupsForTokens(t)) exactly when t > H_g.
     * - Trim horizon H_t = min over sliding-window buffers with
     *   lead_b < end_b of window + (lead_b + 1) * tokensPerGroup, the
     *   smallest context at which a mapped group falls wholly behind
     *   the window (lead_b < min(deadLeadGroups(layer_b, t), end_b));
     *   +inf without such a buffer.
     *
     * So this is t > H_g || t >= H_t, and both checks are exact with
     * and without windows and under tensor slicing. A decode request
     * crosses H_g once per page-group (2,048 tokens for Yi-6B TP-1
     * with 2MB groups, Table 8), so growth work stays proportional to
     * growth events.
     */
    bool needsEnsureTokens(int slot, i64 tokens) const;

    /** Any buffer below its frontier for @p tokens? t > H_g, O(1).
     *  (Growth only — ignores pending trims; the overlap prefetcher
     *  must never trim groups the current iteration still reads.) */
    bool needsGrowthForTokens(int slot, i64 tokens) const;

    /** The smallest t with needsEnsureTokens(slot, t): min(H_g + 1,
     *  H_t). Both predicates are thresholds in t, so every shorter
     *  context is a no-op. */
    i64 nextEnsureTokens(int slot) const;
    /** The smallest t with needsGrowthForTokens(slot, t): H_g + 1. */
    i64 nextGrowthTokens(int slot) const;

    /** Map the single lowest missing group row toward the frontier
     *  for @p tokens (incremental overlap-allocation step). */
    Status growOneRowForTokens(int slot, i64 tokens);

    /**
     * Rebuild an empty slot to an explicit per-buffer layout
     * (swap-in): set each buffer's lead, then map [lead, end) group
     * rows. On pool exhaustion the partial layout remains (the caller
     * rolls back with releaseAll).
     */
    Status growToLayout(int slot, const std::vector<i64> &leads,
                        const std::vector<i64> &ends);

    /**
     * Unmap and forget every buffer whose lead advanced past 0. A
     * lead can never rewind, so a slot recycled for a NEW request
     * must restart its window-trimmed buffers from empty; untrimmed
     * buffers keep their mappings for §6.1 reuse. No-op without
     * windows.
     */
    void resetWindowTrimmed(int slot);

    /** Unmap the last mapped group of every non-empty buffer
     *  (reclaim). */
    Status shrinkTail(int slot);

    /** Unmap everything mapped for the slot (leads reset to 0). */
    void releaseAll(int slot);

    /**
     * Prefix sharing (§8.1): map @p src's first @p groups page-groups
     * into @p dst's virtual range as well — the same physical handle
     * becomes visible at both requests' sub-tensors (vMemMap /
     * cuMemMap multi-mapping; Driver::numMappings > 1). Handles are
     * reference-counted in the pool, so either slot may release
     * independently. @p dst must currently have no groups mapped; the
     * shared groups must never be written through @p dst. The source
     * prefix must be intact in every buffer (window trims clear a
     * slot's shareable prefix).
     */
    Status aliasFrom(int dst, int src, i64 groups);

    /** The handle mapped at (slot, buffer, group) — introspection for
     *  aliasing tests. kInvalidHandle in a trimmed lead. */
    cuvmm::MemHandle handleAt(int slot, int buffer, i64 group) const;

    /**
     * Does @p other map any of @p slot's physical page-groups (an
     * aliased group sits at the same index in both slots)? A slot
     * shared with a live request must not be swapped out: unmapping
     * would not free the memory, and the sharer's KV must stay
     * resident.
     */
    bool sharesGroupsWith(int slot, int other) const;

    /**
     * Make the slot's groups from @p from_group onward private: any
     * group whose handle is shared with another slot is remapped onto
     * a fresh pool handle (the other slot keeps the original and its
     * content). Required before a slot with retained mappings is
     * recycled for a new request — writing through a shared mapping
     * would corrupt the sharer's KV. If the pool cannot supply a
     * replacement the tail is shrunk instead, so on return no group
     * at or beyond @p from_group is shared. No-op when nothing is
     * aliased.
     */
    void privatizeFrom(int slot, i64 from_group);

    /** Sum of mappedHandles over all slots (counts mappings; aliased
     *  groups count once per mapping). O(1): a ledger maintained at
     *  every map/unmap — the serving hot path reads this several times
     *  per iteration, and the audit cross-checks it against a full
     *  recount. */
    i64 totalHandlesMapped() const { return total_mapped_; }
    /** Mappings that alias another slot's physical group. */
    i64 aliasedMappings() const { return aliased_mappings_; }
    /** Unique physical bytes mapped (aliases counted once). */
    u64 physBytesMapped() const;

    /**
     * Self- and cross-layer audit: per-slot mapping tables are
     * contiguous [lead, end) ranges that are RW-accessible, trimmed
     * lead regions are NOT mapped (a rogue window-tail mapping is
     * caught here by name), window-free configs additionally keep
     * every buffer in lockstep with lead 0; every physical handle's mapping count here equals its pool
     * refcount AND its driver mapping count (a leaked pool reference
     * or a mapping created behind the allocator breaks the
     * equality); the aliased-mappings ledger
     * matches the per-handle excess; every slot's cached grow and
     * trim horizons and mapped-handle count equal a recomputation
     * from its buffers.
     */
    void auditInto(audit::AuditReport &report) const;

  private:
    /** Corruption-injection tests reach the horizon and mapped-count
     *  caches through this. */
    friend struct KvAllocatorTestPeer;

    Addr groupVa(int buffer, int slot, i64 group) const;

    /** Map one pool handle at (buffer, slot, group). */
    Status mapOne(int buffer, int slot, i64 group,
                  cuvmm::MemHandle handle);
    /** Unmap the group and return/destroy its handle per the API
     *  path (§6.2: 2MB keeps the handle, vMemRelease destroys it). */
    void unmapOne(int buffer, int slot, i64 group);

    /** Mapped range of one slot in one buffer: groups [lead, end)
     *  where end == handles.size(); entries below lead are
     *  kInvalidHandle placeholders (absolute indexing). */
    struct BufferMappings
    {
        i64 lead = 0;
        std::vector<cuvmm::MemHandle> handles;

        i64 end() const { return static_cast<i64>(handles.size()); }
        i64 mapped() const { return end() - lead; }
    };

    /** A slot's cached token horizons (see needsEnsureTokens). */
    struct Horizon
    {
        i64 grow = 0;
        i64 trim = std::numeric_limits<i64>::max();
    };

    struct SlotMappings
    {
        std::vector<BufferMappings> buffers;
        Horizon horizon;
        i64 mapped = 0; ///< cached mappedHandles (Σ buffer mapped())
    };

    /** Both horizons of @p mappings, recomputed in O(buffers). */
    Horizon horizonOf(const SlotMappings &mappings) const;
    /** Σ mapped() over the buffers of @p mappings, in O(buffers). */
    static i64 mappedCountOf(const SlotMappings &mappings);

    /** Recomputes the slot's horizon and mapped-handle count when it
     *  goes out of scope: every public method that changes a
     *  [lead, end) range holds one, so all of its return paths
     *  (kOutOfMemory rollbacks included) leave the cache fresh. */
    class HorizonRefresh
    {
      public:
        HorizonRefresh(KvAllocator &allocator, int slot)
            : allocator_(allocator), slot_(slot)
        {
        }
        ~HorizonRefresh()
        {
            auto &mappings =
                allocator_.slots_[static_cast<std::size_t>(slot_)];
            mappings.horizon = allocator_.horizonOf(mappings);
            mappings.mapped = mappedCountOf(mappings);
        }
        HorizonRefresh(const HorizonRefresh &) = delete;
        HorizonRefresh &operator=(const HorizonRefresh &) = delete;

      private:
        KvAllocator &allocator_;
        int slot_;
    };

    /** Map group rows until every buffer reaches its target end
     *  (group-major, buffer-inner — the historical growTo order);
     *  @p max_rows < 0 means unbounded. Rolls a partial row back on
     *  pool exhaustion. */
    Status growRows(int slot, const std::vector<i64> &targets,
                    i64 max_rows);

    /** Advance one buffer's lead to @p target_lead, unmapping dead
     *  groups (or skipping never-mapped ones when empty). */
    void advanceLead(int slot, int buffer, i64 target_lead);

    cuvmm::Driver &driver_;
    Config config_;
    KvGeometry geom_;
    PagePool &pool_;
    bool use_cu_path_; ///< stock CUDA calls (2MB) vs vMem extension
    std::vector<Addr> buffer_base_;
    std::vector<LayerKv> layer_tensors_;
    std::vector<SlotMappings> slots_;
    i64 aliased_mappings_ = 0; ///< current mappings beyond one per handle
    i64 total_mapped_ = 0;     ///< sum of mappedHandles over all slots

    // Reusable growth scratch (clear()-not-reallocate): growth runs
    // inside the serving hot path, so per-call vector churn here shows
    // up in every decode iteration that crosses a group boundary.
    std::vector<i64> targets_scratch_; ///< per-buffer growth targets
    std::vector<int> row_scratch_;     ///< buffers mapped this row
};

} // namespace vattn::core

#endif // VATTN_CORE_KV_ALLOCATOR_HH
