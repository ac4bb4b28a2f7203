#include "gpu/va_space.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vattn::gpu
{

VaSpace::VaSpace(Addr base, u64 size)
    : base_(base), size_(size)
{
    fatal_if(size_ == 0, "VaSpace with zero size");
    fatal_if(base_ + size_ < base_, "VaSpace wraps the address space");
}

VaSpace::Iter
VaSpace::firstAfter(Addr addr) const
{
    return std::upper_bound(
        reserved_.begin(), reserved_.end(), addr,
        [](Addr a, const Range &range) { return a < range.start; });
}

Result<Addr>
VaSpace::reserve(u64 size, u64 alignment, Addr fixed)
{
    if (size == 0) {
        return Result<Addr>(ErrorCode::kInvalidArgument, "zero size");
    }
    if (alignment == 0) {
        alignment = 1;
    }
    if (!isPow2(alignment)) {
        return Result<Addr>(ErrorCode::kInvalidArgument,
                            "alignment must be a power of two");
    }

    if (fixed != 0) {
        if (fixed % alignment != 0) {
            return Result<Addr>(ErrorCode::kInvalidArgument,
                                "fixed address not aligned");
        }
        // The gap holding [fixed, fixed + size) runs from the end of
        // the reservation before it to the start of the one after.
        const Iter next = firstAfter(fixed);
        const Addr gap_start =
            next == reserved_.begin() ? base_ : std::prev(next)->end;
        const Addr gap_end =
            next == reserved_.end() ? base_ + size_ : next->start;
        if (fixed < gap_start || fixed + size > gap_end) {
            return Result<Addr>(ErrorCode::kOutOfMemory,
                                "fixed range unavailable");
        }
        reserved_.insert(next, Range{fixed, fixed + size});
        return fixed;
    }

    // First fit with alignment, walking the gaps in address order.
    Addr gap_start = base_;
    for (auto it = reserved_.begin();; ++it) {
        const Addr gap_end =
            it == reserved_.end() ? base_ + size_ : it->start;
        const Addr aligned = roundUp(gap_start, alignment);
        if (aligned >= gap_start && aligned + size <= gap_end) {
            reserved_.insert(it, Range{aligned, aligned + size});
            return aligned;
        }
        if (it == reserved_.end()) {
            break;
        }
        gap_start = it->end;
    }
    return Result<Addr>(ErrorCode::kOutOfMemory, "virtual space exhausted");
}

Status
VaSpace::release(Addr addr)
{
    const Iter next = firstAfter(addr);
    if (next == reserved_.begin() || std::prev(next)->start != addr) {
        return errorStatus(ErrorCode::kNotFound,
                           "no reservation starts at this address");
    }
    reserved_.erase(std::prev(next));
    return Status::ok();
}

u64
VaSpace::reservationSize(Addr addr) const
{
    const Iter next = firstAfter(addr);
    if (next == reserved_.begin() || std::prev(next)->start != addr) {
        return 0;
    }
    return std::prev(next)->end - addr;
}

bool
VaSpace::isReserved(Addr addr, u64 size) const
{
    const Iter next = firstAfter(addr);
    if (next == reserved_.begin()) {
        return false;
    }
    const Range &range = *std::prev(next);
    return addr < range.end && addr + size <= range.end;
}

u64
VaSpace::reservedBytes() const
{
    u64 bytes = 0;
    for (const Range &range : reserved_) {
        bytes += range.end - range.start;
    }
    return bytes;
}

} // namespace vattn::gpu
