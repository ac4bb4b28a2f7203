#include "gpu/buddy_allocator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vattn::gpu
{

BuddyAllocator::BuddyAllocator(u64 capacity, u64 min_block, u64 max_block)
    : capacity_(capacity), min_block_(min_block), max_block_(max_block)
{
    fatal_if(!isPow2(min_block_), "min_block must be a power of two");
    fatal_if(!isPow2(max_block_), "max_block must be a power of two");
    fatal_if(max_block_ < min_block_, "max_block < min_block");
    fatal_if(capacity_ % min_block_ != 0,
             "capacity must be a multiple of min_block");

    num_orders_ = log2Exact(max_block_ / min_block_) + 1;
    free_lists_.resize(num_orders_);

    // Seed the free lists greedily: repeatedly take the largest
    // naturally-aligned power-of-two block that fits the remainder.
    Addr addr = 0;
    u64 remaining = capacity_;
    while (remaining >= min_block_) {
        u64 block = max_block_;
        while (block > remaining || (addr % block) != 0) {
            block >>= 1;
        }
        free_lists_[orderFor(block)].insert(addr);
        addr += block;
        remaining -= block;
    }
}

unsigned
BuddyAllocator::orderFor(u64 size) const
{
    panic_if(size < min_block_ || size > max_block_ || !isPow2(size),
             "bad buddy block size ", size);
    return log2Exact(size / min_block_);
}

u64
BuddyAllocator::sizeOfOrder(unsigned order) const
{
    return min_block_ << order;
}

Result<PhysAddr>
BuddyAllocator::alloc(u64 size)
{
    if (size == 0) {
        return Result<PhysAddr>(ErrorCode::kInvalidArgument, "zero size");
    }
    u64 want = std::max(min_block_, size);
    if (!isPow2(want)) {
        u64 p = min_block_;
        while (p < want) {
            p <<= 1;
        }
        want = p;
    }
    if (want > max_block_) {
        return Result<PhysAddr>(ErrorCode::kInvalidArgument,
                                "request exceeds max block size");
    }

    const unsigned order = orderFor(want);
    // Find the smallest order with a free block.
    unsigned from = order;
    while (from < num_orders_ && free_lists_[from].empty()) {
        ++from;
    }
    if (from >= num_orders_) {
        return Result<PhysAddr>(ErrorCode::kOutOfMemory,
                                "no free block large enough");
    }

    // Pop the lowest-address block and split down to the target order.
    auto it = free_lists_[from].begin();
    PhysAddr addr = *it;
    free_lists_[from].erase(it);
    while (from > order) {
        --from;
        // Put the upper half back; keep the lower half.
        free_lists_[from].insert(addr + sizeOfOrder(from));
    }

    allocated_bytes_ += want;
    live_.emplace(addr, order);
    return addr;
}

Status
BuddyAllocator::free(PhysAddr addr, u64 size)
{
    if (size == 0) {
        return errorStatus(ErrorCode::kInvalidArgument, "zero size free");
    }
    // Accept the original request size: round up exactly like alloc().
    u64 block = std::max(size, min_block_);
    if (!isPow2(block)) {
        u64 p = min_block_;
        while (p < block) {
            p <<= 1;
        }
        block = p;
    }
    if (block > max_block_ || addr % block != 0 ||
        addr + block > capacity_) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "bad free address/size");
    }

    unsigned order = orderFor(block);
    auto live_it = live_.find(addr);
    if (live_it == live_.end()) {
        return errorStatus(ErrorCode::kAlreadyExists,
                           "double free or never allocated");
    }
    if (live_it->second != order) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "free size does not match allocation");
    }
    live_.erase(live_it);

    allocated_bytes_ -= block;

    // Coalesce with the buddy while possible.
    while (order + 1 < num_orders_) {
        const u64 bsize = sizeOfOrder(order);
        const PhysAddr buddy = addr ^ bsize;
        auto it = free_lists_[order].find(buddy);
        if (it == free_lists_[order].end()) {
            break;
        }
        free_lists_[order].erase(it);
        addr = std::min(addr, buddy);
        ++order;
    }
    free_lists_[order].insert(addr);
    return Status::ok();
}

u64
BuddyAllocator::largestFreeBlock() const
{
    for (unsigned order = num_orders_; order-- > 0;) {
        if (!free_lists_[order].empty()) {
            return sizeOfOrder(order);
        }
    }
    return 0;
}

bool
BuddyAllocator::checkInvariants() const
{
    u64 free_total = 0;
    PhysAddr prev_end = 0;
    bool first = true;
    // Gather all blocks across orders sorted by address.
    std::vector<std::pair<PhysAddr, u64>> blocks;
    for (unsigned order = 0; order < num_orders_; ++order) {
        const u64 bsize = sizeOfOrder(order);
        for (PhysAddr a : free_lists_[order]) {
            if (a % bsize != 0 || a + bsize > capacity_) {
                return false;
            }
            blocks.emplace_back(a, bsize);
            free_total += bsize;
        }
    }
    std::sort(blocks.begin(), blocks.end());
    for (const auto &[a, s] : blocks) {
        if (!first && a < prev_end) {
            return false; // overlapping free blocks
        }
        prev_end = a + s;
        first = false;
    }
    return free_total == freeBytes();
}

} // namespace vattn::gpu
