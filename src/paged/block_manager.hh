/**
 * @file
 * vLLM-style block manager: the user-space memory manager that the
 * PagedAttention approach forces a serving framework to implement (§3.2).
 * The KV cache is carved into fixed-size blocks of block_size tokens;
 * a logical block id indexes the per-layer K and V pools simultaneously,
 * so one block accounts for 2 * N * H * D * P * block_size bytes.
 */

#ifndef VATTN_PAGED_BLOCK_MANAGER_HH
#define VATTN_PAGED_BLOCK_MANAGER_HH

#include <list>
#include <unordered_map>
#include <vector>

#include "common/audit.hh"
#include "common/status.hh"
#include "common/types.hh"

namespace vattn::paged
{

/**
 * Free-list allocator of KV-cache blocks with refcounts, plus an
 * optional hash-block prefix cache (the vLLM prefix-caching scheme):
 * full blocks are tagged with the chained content hash of the tokens
 * they hold, and a block whose refcount drops to zero is parked on an
 * LRU "evictable" list instead of the free list, so a later request
 * with the same prompt prefix can revive it with refSharedBlock().
 * Eviction pops the least recently parked block when the free list
 * runs dry. With caching disabled (the default) behaviour is
 * bit-for-bit the historical free-list allocator.
 */
class BlockManager
{
  public:
    /**
     * @param num_blocks pool capacity in blocks
     * @param block_size tokens per block
     * @param enable_prefix_cache park refcount-0 hashed blocks on the
     *        LRU evictable list instead of freeing them
     * @param num_cpu_blocks CPU (host) block pool for block-granular
     *        swap, the vLLM --swap-space model (0 disables swapping)
     */
    BlockManager(i64 num_blocks, i64 block_size,
                 bool enable_prefix_cache = false,
                 i64 num_cpu_blocks = 0);

    i64 numBlocks() const { return num_blocks_; }
    i64 blockSize() const { return block_size_; }
    bool prefixCacheEnabled() const { return prefix_cache_; }
    i64 numFree() const { return static_cast<i64>(free_list_.size()); }
    i64 numAllocated() const { return num_blocks_ - numFree(); }
    /** Refcount-0 blocks parked for prefix reuse (allocatable). */
    i64 numEvictable() const
    {
        return static_cast<i64>(evictable_.size());
    }
    /** Free + evictable: blocks obtainable without touching live ones. */
    i64 numAllocatable() const { return numFree() + numEvictable(); }
    /** Blocks referenced by live requests. */
    i64 numLive() const { return numAllocated() - numEvictable(); }

    /** Blocks needed to store @p tokens tokens. */
    i64 blocksFor(i64 tokens) const;

    /** Allocate one block (refcount = 1); evicts the LRU cached block
     *  (dropping its hash) when the free list is empty. */
    Result<i32> allocBlock();

    /** Increase the refcount (prefix sharing / copy-on-write support). */
    Status addRef(i32 block);

    /** Drop a reference; at zero the block goes to the free list, or
     *  to the evictable LRU when it carries a prefix hash. */
    Status freeBlock(i32 block);

    int refCount(i32 block) const;

    // ---- Prefix cache (no-ops unless enabled) -----------------------

    /** Tag @p block with the chained content hash of the tokens it
     *  holds; the hash map always points at the latest such block. */
    void setBlockHash(i32 block, u64 hash);

    /** Block currently holding @p hash (live or evictable), or -1. */
    i32 lookupHash(u64 hash) const;

    /** Take a reference on a block found via lookupHash: bumps a live
     *  block's refcount, or revives an evictable one (refcount 1). */
    Status refSharedBlock(i32 block);

    // ---- CPU block pool: block-granular swap ------------------------
    //
    // The vLLM preempt-by-swap model: a victim's GPU blocks move to
    // same-sized CPU blocks and back. Sharing never survives a swap —
    // a block another request still references must stay resident, so
    // swapOutBlock refuses refcount > 1.

    i64 numCpuBlocks() const { return num_cpu_blocks_; }
    i64 numCpuFree() const
    {
        return static_cast<i64>(cpu_free_list_.size());
    }
    i64 numCpuInUse() const { return num_cpu_blocks_ - numCpuFree(); }

    /**
     * Move one device block to a CPU block: drops the device block's
     * hash (its content leaves the device) and frees it for reuse.
     * kFailedPrecondition when the block is shared (refcount != 1),
     * kOutOfMemory when the CPU pool is full.
     */
    Result<i32> swapOutBlock(i32 block);

    /** Bring a CPU block back: allocates a device block (evicting the
     *  LRU cached block if needed) and frees the CPU block. */
    Result<i32> swapInBlock(i32 cpu_block);

    /** Return a CPU block without swapping it in (request dropped). */
    Status freeCpuBlock(i32 cpu_block);

    /** Take a CPU block straight from the free pool without a device
     *  copy (migration import: the payload is already in host memory,
     *  handed over from the donor replica). kOutOfMemory when full. */
    Result<i32> acquireCpuBlock();

    /**
     * Self-audit: the free list, evictable LRU and live (refcount > 0)
     * blocks partition the pool; evictable blocks keep a valid hash
     * entry; the CPU pool conserves blocks. Records violations in
     * @p report.
     */
    void auditInto(audit::AuditReport &report) const;

    /** Sum of refcounts over all blocks (cross-layer audits compare
     *  it against the holds the serving layer can account for). */
    i64 totalRefCount() const;

  private:
    void dropHash(i32 block);

    i64 num_blocks_;
    i64 block_size_;
    bool prefix_cache_;
    i64 num_cpu_blocks_;
    std::vector<i32> cpu_free_list_;
    std::vector<bool> cpu_in_use_;
    std::vector<i32> free_list_;
    std::vector<int> ref_counts_;
    /** Content hash per block (valid iff has_hash_[block]). */
    std::vector<u64> block_hash_;
    std::vector<bool> has_hash_;
    std::unordered_map<u64, i32> hash_to_block_;
    /** Refcount-0 cached blocks, least recently parked first. */
    std::list<i32> evictable_;
    /** Iterator into evictable_ per block (valid when parked). */
    std::vector<std::list<i32>::iterator> evictable_pos_;
    std::vector<bool> is_evictable_;
};

/**
 * The per-request logical-to-physical block list a PagedAttention
 * serving framework maintains, mirroring what the OS page table already
 * does (Figure 1 of the paper).
 */
class RequestBlocks
{
  public:
    /** Sentinel in blocks() for a dead leading slot of a
     *  sliding-window layer group (freed or never allocated). */
    static constexpr i32 kNoBlock = -1;

    explicit RequestBlocks(BlockManager *manager);
    ~RequestBlocks();

    RequestBlocks(const RequestBlocks &) = delete;
    RequestBlocks &operator=(const RequestBlocks &) = delete;
    RequestBlocks(RequestBlocks &&other) noexcept;
    RequestBlocks &operator=(RequestBlocks &&other) noexcept;

    /** Grow the block list to cover @p tokens tokens. */
    Status ensureTokens(i64 tokens);

    /**
     * Advance the dead-lead boundary of a sliding-window layer group:
     * blocks below @p lead_blocks are freed back to the manager (a
     * hash-cached block parks on the evictable LRU instead of being
     * destroyed) and their entries become kNoBlock, keeping indexing
     * absolute. On an empty list the dead region is skipped without
     * ever allocating it. The lead never rewinds.
     */
    void advanceLeadTo(i64 lead_blocks);

    /** First live block index (0 unless a window advanced it). */
    i64 lead() const { return lead_; }

    /** Blocks actually held (list size minus the dead lead). */
    i64 liveBlockCount() const
    {
        return static_cast<i64>(blocks_.size()) - lead_;
    }

    /**
     * Share the parent's blocks covering the first @p prefix_tokens
     * tokens (prefix de-duplication, as in vLLM's prefix caching):
     * full blocks are reference-counted rather than copied. This list
     * must be empty. Writes into shared blocks must go through
     * PagedKvCache::ensurePrivate (copy-on-write).
     */
    Status shareFrom(const RequestBlocks &parent, i64 prefix_tokens);

    /**
     * Swap the block at @p index for @p new_block (whose reference
     * the caller transfers in), dropping this list's reference on the
     * old block. Used by the copy-on-write path.
     */
    Status replaceBlock(std::size_t index, i32 new_block);

    /** Append a block whose reference the caller already took
     *  (hash-based prefix sharing via refSharedBlock). */
    void adoptBlock(i32 block);

    /**
     * Relinquish the block list without touching refcounts: the caller
     * has already moved every block's ownership elsewhere (swap-out
     * transfers them to CPU blocks one by one). Returns the list
     * (kNoBlock entries below lead() included) and resets the lead.
     */
    std::vector<i32> releaseForSwap();

    /** Release all blocks back to the manager (lead resets to 0). */
    void releaseAll();

    i64 numTokensCapacity() const;
    /** Logical-to-physical table; entries below lead() are kNoBlock. */
    const std::vector<i32> &blocks() const { return blocks_; }

  private:
    BlockManager *manager_;
    std::vector<i32> blocks_;
    i64 lead_ = 0; ///< blocks below this index are dead (kNoBlock)
};

} // namespace vattn::paged

#endif // VATTN_PAGED_BLOCK_MANAGER_HH
