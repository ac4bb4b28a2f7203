/**
 * @file
 * The vAttention runtime — the paper's primary contribution. Exposes
 * the Table-4 API to a serving framework:
 *
 *   init (constructor)  : configure with N, B, L, H, D, P and a
 *                         page-group size; reserves 2N virtual tensors
 *                         and pre-creates physical page-groups.
 *   allocReqId          : lease an unused reqId (prefers slots whose
 *                         mappings were retained by deferred
 *                         reclamation, §6.1.2).
 *   freeReqId           : return a reqId; mappings are kept (Cached)
 *                         unless deferred reclamation is disabled.
 *   step                : given the per-reqId sequence lengths, ensure
 *                         every active request's KV sub-tensors are
 *                         physically backed (Algorithm 1, line 13);
 *                         the paper's B-wide form adapts onto a
 *                         sparse (reqId, length) form, so per-step
 *                         work scales with the active requests, not
 *                         with B.
 *
 * plus the engine-facing computePhase() hook that models the
 * background allocation thread (§6.1.1): decode prefetch, eager
 * allocation and watermark-driven reclamation all run inside the
 * previous iteration's compute window.
 */

#ifndef VATTN_CORE_VATTENTION_HH
#define VATTN_CORE_VATTENTION_HH

#include <span>
#include <utility>
#include <vector>

#include "attn/kv_view.hh"
#include "common/audit.hh"
#include "common/kv_image.hh"
#include "common/kv_results.hh"
#include "common/prefix_hash.hh"
#include "core/background.hh"
#include "core/config.hh"
#include "core/kv_allocator.hh"
#include "core/page_pool.hh"
#include "core/req_slots.hh"
#include "cuvmm/driver.hh"

namespace vattn::core
{

/** Lifetime counters for the ablation studies. */
struct RuntimeStats
{
    u64 steps = 0;
    i64 sync_handles = 0;        ///< mapped inside step()
    i64 background_handles = 0;  ///< mapped inside computePhase()
    i64 reclaimed_handles = 0;   ///< unmapped from cached slots
    i64 reused_cached_slots = 0; ///< allocReqId hits on cached slots
    TimeNs critical_ns = 0;
    TimeNs background_ns = 0;
    TimeNs init_ns = 0;

    // ---- Host swap tier --------------------------------------------
    i64 swap_out_reqs = 0;      ///< requests swapped to host
    i64 swap_in_reqs = 0;       ///< requests swapped back in
    u64 swap_out_bytes = 0;     ///< KV bytes copied DtoH
    u64 swap_in_bytes = 0;      ///< KV bytes copied HtoD
    TimeNs swap_ns = 0;         ///< critical-path swap latency

    // ---- §8.1 prefix caching ---------------------------------------
    i64 prefix_hits = 0;           ///< allocations that matched a prefix
    i64 prefix_inplace_hits = 0;   ///< hits served by reusing the slot
    i64 prefix_aliased_handles = 0;///< mappings created by aliasing
    i64 prefix_copied_handles = 0; ///< partial tail groups copied
    i64 prefix_cached_tokens = 0;  ///< prompt tokens served from cache
};

/** Longest stored prefix matching a prompt. */
struct PrefixHit
{
    int slot = -1;       ///< slot holding the prefix (-1 = miss)
    i64 groups = 0;      ///< aligned page-groups matched
    i64 tokens = 0;      ///< tokens matched (>= groups * tokensPerGroup
                         ///  when the partial tail matched too)
};

/** The per-worker vAttention memory manager. */
class VAttention
{
  public:
    VAttention(cuvmm::Driver &driver, const Config &config);

    const Config &config() const { return config_; }
    const KvGeometry &geometry() const { return allocator_.geometry(); }

    /** The KV cache tensors handed to the model (Table 4 init). */
    const std::vector<LayerKv> &kvCache() const
    {
        return allocator_.layerTensors();
    }

    /** One request's [L, H, D] views for attention kernels. */
    tensor::VirtualTensor kCache(int layer, int req_id) const;
    tensor::VirtualTensor vCache(int layer, int req_id) const;
    /** Convenience KV view combining both. */
    attn::TensorKvView requestView(int layer, int req_id,
                                   bool touch_tlb = false) const;

    /** Lease a reqId. Fails when all B slots are active. */
    Result<int> allocReqId();

    // ---- §8.1 prefix caching ----------------------------------------

    /**
     * Longest stored prefix matching the prompt @p key across every
     * slot with a registered hash chain (active and cached alike — a
     * fully written group is immutable, so live requests are valid
     * sources). Chains are keyed on @p key's chunk hashes at
     * page-group granularity; a partial trailing group matches by its
     * range hash.
     */
    PrefixHit matchPrefix(const PrefixKey &key) const;

    /**
     * Prefix-aware allocReqId: on a match of at most @p max_cached
     * tokens, either reuses the matching cached slot in place (its
     * page-groups already hold the prefix KV — zero driver calls) or
     * aliases the source's aligned groups into a free slot via
     * multi-mapping, copying the partial trailing group when the match
     * extends into one. The lease names the slot, the tokens whose KV
     * the new request inherits and the driver time of the alias and
     * copy maps (on the serving critical path). Falls back to plain
     * allocReqId (0 cached, 0 ns) on a miss or when no suitable target
     * slot exists.
     */
    Result<SlotLease> allocReqIdWithPrefix(const PrefixKey &key,
                                           i64 max_cached);

    /**
     * Record that @p req_id's sub-tensors now hold the KV of the first
     * @p tokens tokens of @p key (call as prefill chunks complete).
     * Only fully written groups plus one partial tail enter the store.
     */
    void registerPrefix(int req_id, const PrefixKey &key, i64 tokens);

    /** Return a reqId (request completed or preempted). */
    Status freeReqId(int req_id);

    // ---- Host swap tier ---------------------------------------------
    //
    // The CUDA-VMM substrate makes swapping uniquely cheap here: the
    // request's VIRTUAL KV layout (its sub-tensor addresses) stays
    // intact while its physical page-groups are copied to pinned host
    // pages and unmapped, so swap-in is remap + copy with no allocator
    // churn and no framework-visible address changes. The reqId stays
    // leased (Active) for the whole swap cycle.

    /**
     * Copy every resident page-group of @p req_id to host pages, then
     * unmap the device groups (returning them to the pool). Refuses
     * slots whose groups are prefix-aliased by another active slot
     * (kFailedPrecondition — the sharer's KV must stay resident), and
     * fails with kOutOfMemory when the host tier cannot hold the slot.
     * Cached slots aliasing the groups are freed first.
     */
    SwapStats swapOutReq(int req_id);

    /**
     * Re-back a swapped-out request: remap page-groups at the slot's
     * unchanged virtual addresses (stealing cached groups like step()
     * would) and copy the stashed KV back. kOutOfMemory when device
     * supply is insufficient — the slot keeps its stash and any
     * partially remapped groups; retry later.
     */
    SwapStats swapInReq(int req_id);

    /** Could swapOutReq succeed right now? */
    bool canSwapOut(int req_id) const
    {
        return swapOutRefusal(req_id).isOk();
    }
    /** Could swapInReq succeed right now (device supply check)? */
    bool canSwapIn(int req_id) const;
    /** Page-groups (per buffer) stashed on host for the slot. */
    i64 swappedGroups(int req_id) const;
    /** Host pages currently holding swapped KV (all slots). */
    i64 hostGroupsInUse() const { return pool_.hostGroupsInUse(); }
    u64 hostSwapBudgetBytes() const { return pool_.hostBudgetBytes(); }

    // ---- Cross-replica migration ------------------------------------
    //
    // A swapped-out request's host stash can be detached from this
    // runtime — freeing its reqId — and re-attached to another runtime
    // on the same node whose buffers are cut into identical
    // page-groups (common/kv_image.hh). Replicas on one node
    // share host memory, so the handover itself is modeled zero-copy:
    // the donor paid the DtoH copies at swap-out, the adopter pays
    // HtoD at its own swapInReq.

    /** Detach @p req_id's stash (the slot must be swapped out) and
     *  free the reqId; the donor's host pages return to its pool. The
     *  image's units are this runtime's KV buffers, its pages
     *  page-groups. */
    Result<SwappedKvImage> exportSwapped(int req_id);

    /** Could importSwapped admit @p image right now (cut exactly like
     *  this runtime's buffers, leasable reqId, host-tier supply)? */
    bool canImportSwapped(const SwappedKvImage &image) const;

    /** Lease a fresh reqId holding @p image in swapped-out state; the
     *  regular swapInReq then revives it on this runtime. An image cut
     *  at another layout is kInvalidArgument, with no reqId leased. */
    Result<int> importSwapped(const SwappedKvImage &image);

    /**
     * Ensure physical backing for the context lengths of the listed
     * (reqId, length) pairs, in any order. Every listed reqId must be
     * active, appear once and have length <= max_context_len; any
     * violation returns kInvalidArgument before a single driver call.
     * Active reqIds left out are ensured at length 0 (a swapped-out
     * request holds nothing on the device). Slots grow in ascending
     * reqId order and only active slots are visited, so the cost
     * scales with the active requests, not with B. Returns
     * kOutOfMemory when demand cannot be met even after reclaiming
     * every cached group — the framework should preempt a request and
     * call step again (§5.3.3); the lengths of the last successful
     * step then stay in force for computePhase.
     */
    StepStats step(std::span<const std::pair<int, i64>> active);

    /**
     * The paper's Table-4 form: seq_lens[reqId] for every reqId, 0 for
     * inactive ones (size must be B, else kInvalidArgument). Gathers
     * the non-zero entries and calls the sparse form above, so a
     * non-zero length for an inactive reqId is kInvalidArgument.
     */
    StepStats step(const std::vector<i64> &seq_lens);

    /**
     * Would step() with @p req_id at @p len, followed by the
     * computePhase() prefetch from the length step() records, leave
     * @p req_id unchanged? True iff the slot's mappings back @p len
     * with no sliding-window trim due and, under overlap allocation,
     * also back len + 1 (§6.1.1: the background thread maps the next
     * iteration's group from the last stepped length, so a skipped
     * step would move that map onto the critical path). False for a
     * reqId that is not active.
     */
    bool stepIsNoop(int req_id, i64 len) const;

    /** The smallest length >= @p len at which stepIsNoop(@p req_id)
     *  turns false, in O(1) from the slot's cached horizons; @p len
     *  itself for a reqId that is not active. */
    i64 nextWorkLen(int req_id, i64 len) const;

    /**
     * Model the background thread running during an iteration whose
     * compute lasts @p window_ns: prefetch next-iteration decode
     * groups, keep the eager slot warm, refill the pool from cached
     * slots when it drops below the low watermark.
     */
    void computePhase(TimeNs window_ns);

    // ---- Capacity / admission ---------------------------------------

    /** Could a new request with this prompt be admitted right now? */
    bool canAllocate(i64 prompt_tokens) const;

    /** Physical bytes currently mapped into KV tensors. */
    u64 physBytesMapped() const { return allocator_.physBytesMapped(); }
    /** Groups held by completed requests awaiting reuse. */
    i64 cachedHandles() const;
    i64 poolFreeHandles() const { return pool_.freeGroups(); }
    /** Pooled + still-creatable handles (the small-page reclaim path
     *  destroys handles rather than pooling them, §6.2). */
    i64 poolAvailableHandles() const { return pool_.availableGroups(); }
    u64 budgetBytes() const { return pool_.budgetBytes(); }

    const RuntimeStats &stats() const { return stats_; }
    const ReqSlots &slots() const { return slots_; }
    i64 groupsMapped(int req_id) const
    {
        return allocator_.groupsMapped(req_id);
    }
    /** Leading page-groups mapped in every buffer, 0 once a window
     *  trim advanced any buffer's lead: what a prefix may cover. */
    i64 prefixGroupsMapped(int req_id) const
    {
        return allocator_.prefixGroupsMapped(req_id);
    }
    /** Page-group mappings the request holds across all buffers (the
     *  real footprint under per-layer window trims). */
    i64 mappedHandles(int req_id) const
    {
        return allocator_.mappedHandles(req_id);
    }
    /** Handle mapped at (req_id, buffer, group) — aliasing tests. */
    cuvmm::MemHandle
    handleAt(int req_id, int buffer, i64 group) const
    {
        return allocator_.handleAt(req_id, buffer, group);
    }

    /**
     * Whole-runtime audit: sub-audits the driver, pool and allocator,
     * then checks the cross-layer equalities — pool handles in use ==
     * unique handles mapped in KV tensors, driver phys/host bytes ==
     * pool-created groups (this runtime's driver serves only the KV
     * pool), free slots unmapped, host stashes and prefix chains
     * consistent with slot states. Records violations in @p report.
     */
    void auditInto(audit::AuditReport &report) const;

    /** Bytes currently mapped into more than one virtual range. */
    u64 aliasedBytes() const
    {
        return static_cast<u64>(allocator_.aliasedMappings()) *
               allocator_.geometry().groupBytes();
    }

  private:
    /** OK iff every (reqId, length) pair is a valid step() entry;
     *  then listed_ holds the reqIds and step_lens_ their lengths
     *  (on an error listed_ is left empty). */
    Status gatherStepInput(std::span<const std::pair<int, i64>> active);

    /** OK iff @p req_id is an active slot whose KV is (@p swapped) or
     *  is not on the host tier. */
    Status checkSwapped(int req_id, bool swapped) const;
    /** Why swapOutReq(@p req_id) would fail right now, or OK. */
    Status swapOutRefusal(int req_id) const;

    /** Run the allocator step @p grow, stealing one cached group and
     *  retrying while it fails with kOutOfMemory; mappings stolen are
     *  added to @p stolen. */
    template <typename Grow>
    Status growStealing(Grow grow, i64 *stolen = nullptr);

    /** Reclaim one group-row from the oldest cached slot; returns the
     *  number of handle mappings freed (0 = nothing left to steal). */
    i64 stealOneCachedGroup();

    /** Would computePhase's decode prefetch map a group for @p slot
     *  stepped at @p len (it grows toward len + 1)? */
    bool prefetchPending(int slot, i64 len) const;

    /** Estimated driver cost of mapping one group on every buffer. */
    TimeNs mapAllBuffersCost() const;

    /** Per-slot prefix store entry (content of the slot's groups). */
    struct PrefixChain
    {
        std::vector<u64> hashes; ///< chained aligned-group hashes
        i64 tokens = 0;          ///< registered token count
        u64 tail_hash = 0;       ///< chained hash incl. the partial tail

        bool empty() const { return tokens == 0; }
        void
        clear()
        {
            hashes.clear();
            tokens = 0;
            tail_hash = 0;
        }
    };

    /** Truncate @p slot's chain to what its mapped groups still hold
     *  (reclamation may have unmapped tail groups). */
    void clampChainToMapped(int slot);

    /** Host pages holding one swapped-out slot's KV. */
    struct HostStash
    {
        /** pages[buffer][i] backs device group leads[buffer] + i —
         *  only the live [lead, end) range of each buffer is stashed. */
        std::vector<std::vector<cuvmm::MemHandle>> pages;
        /** Per-buffer lead at swap-out time (all 0 without windows). */
        std::vector<i64> leads;
        i64 groups = 0;  ///< device group frontier at swap-out
        i64 handles = 0; ///< live page-group copies held (Σ sizes)

        bool empty() const { return handles == 0; }
        void
        clear()
        {
            pages.clear();
            leads.clear();
            groups = 0;
            handles = 0;
        }
    };

    cuvmm::Driver &driver_;
    Config config_;
    PagePool pool_;
    KvAllocator allocator_;
    ReqSlots slots_;
    BackgroundWorker background_;
    /** Per-slot length of the last successful step(). */
    std::vector<i64> last_seq_lens_;
    /** Per-slot length the running step() ensures, valid for the
     *  slots in listed_; committed to last_seq_lens_ only when the
     *  step succeeds. */
    std::vector<i64> step_lens_;
    /** Slots the running step() lists (empty between steps). */
    SlotSet listed_;
    /** The B-wide step()'s non-zero entries, reserved to B. */
    std::vector<std::pair<int, i64>> adapter_lens_;
    std::vector<PrefixChain> chains_;
    std::vector<HostStash> stashes_;
    /** How each KV buffer is cut into page-groups, as swapped images
     *  record it. */
    std::vector<KvPageLayout> unit_layouts_;
    RuntimeStats stats_;
    /** Eager-allocation group count, fixed for the allocator's life. */
    const i64 eager_target_;
};

} // namespace vattn::core

#endif // VATTN_CORE_VATTENTION_HH
