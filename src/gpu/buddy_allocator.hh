/**
 * @file
 * Buddy allocator over device physical memory. cuMemCreate/vMemCreate
 * carve physically contiguous page-groups (64KB..2MB) out of this pool;
 * the buddy discipline keeps external fragmentation bounded and gives the
 * natural power-of-two alignment the MMU needs for large pages.
 */

#ifndef VATTN_GPU_BUDDY_ALLOCATOR_HH
#define VATTN_GPU_BUDDY_ALLOCATOR_HH

#include <set>
#include <unordered_map>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace vattn::gpu
{

/**
 * Power-of-two buddy allocator. Block sizes range from @p minBlock to
 * @p maxBlock (both powers of two); allocations are rounded up to the
 * next power of two and returned naturally aligned.
 */
class BuddyAllocator
{
  public:
    /**
     * @param capacity pool size in bytes (multiple of min_block)
     * @param min_block smallest allocatable block (default 4KB page)
     * @param max_block largest block / top-level chunk (default 32MB)
     */
    BuddyAllocator(u64 capacity, u64 min_block = 4 * KiB,
                   u64 max_block = 32 * MiB);

    /** Allocate a naturally aligned block of at least @p size bytes. */
    Result<PhysAddr> alloc(u64 size);

    /** Free a block previously returned by alloc() with the same size. */
    Status free(PhysAddr addr, u64 size);

    u64 capacity() const { return capacity_; }
    u64 allocatedBytes() const { return allocated_bytes_; }
    u64 freeBytes() const { return capacity_ - allocated_bytes_; }

    /** Largest block that could currently be allocated. */
    u64 largestFreeBlock() const;

    u64 minBlock() const { return min_block_; }
    u64 maxBlock() const { return max_block_; }

    /** Internal consistency check (tests): free lists are disjoint,
     *  aligned, and account for exactly freeBytes(). */
    bool checkInvariants() const;

  private:
    unsigned orderFor(u64 size) const;
    u64 sizeOfOrder(unsigned order) const;

    u64 capacity_;
    u64 min_block_;
    u64 max_block_;
    unsigned num_orders_;
    u64 allocated_bytes_ = 0;
    /** free_lists_[k] holds start addresses of free blocks of
     *  size min_block << k. std::set gives O(log n) buddy lookup. */
    std::vector<std::set<PhysAddr>> free_lists_;
    /** Live allocations (addr -> order) for exact double-free and
     *  wrong-size detection even after buddies coalesce. */
    std::unordered_map<PhysAddr, unsigned> live_;
};

} // namespace vattn::gpu

#endif // VATTN_GPU_BUDDY_ALLOCATOR_HH
