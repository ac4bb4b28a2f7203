#include "gpu/page_table.hh"

#include <bit>

#include "common/logging.hh"

namespace vattn::gpu
{

// --------------------------------------------------------------------
// Directory: open addressing with linear probing and backward-shift
// deletion (no tombstones), at most half full.
// --------------------------------------------------------------------

std::size_t
PageTable::dirHome(u64 key) const
{
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                    dir_hash_shift_);
}

PageTable::Id
PageTable::dirGet(u64 key) const
{
    if (dir_.empty()) {
        return kNoId;
    }
    const std::size_t mask = dir_.size() - 1;
    for (std::size_t i = dirHome(key);; i = (i + 1) & mask) {
        if (dir_[i].key == key) {
            return dir_[i].entry;
        }
        if (dir_[i].key == kNoKey) {
            return kNoId;
        }
    }
}

void
PageTable::dirGrow()
{
    std::vector<DirSlot> old = std::move(dir_);
    const std::size_t size = old.empty() ? 64 : old.size() * 2;
    dir_.assign(size, DirSlot{});
    dir_hash_shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
    const std::size_t mask = size - 1;
    for (const DirSlot &slot : old) {
        if (slot.key == kNoKey) {
            continue;
        }
        std::size_t i = dirHome(slot.key);
        while (dir_[i].key != kNoKey) {
            i = (i + 1) & mask;
        }
        dir_[i] = slot;
    }
}

PageTable::Id &
PageTable::dirInsert(u64 key)
{
    if (2 * (dir_used_ + 1) > dir_.size()) {
        dirGrow();
    }
    const std::size_t mask = dir_.size() - 1;
    std::size_t i = dirHome(key);
    while (dir_[i].key != key && dir_[i].key != kNoKey) {
        i = (i + 1) & mask;
    }
    if (dir_[i].key == kNoKey) {
        dir_[i] = DirSlot{key, kNoId};
        ++dir_used_;
    }
    return dir_[i].entry;
}

void
PageTable::dirErase(u64 key)
{
    const std::size_t mask = dir_.size() - 1;
    std::size_t hole = dirHome(key);
    while (dir_[hole].key != key) {
        panic_if(dir_[hole].key == kNoKey, "directory erase of absent key");
        hole = (hole + 1) & mask;
    }
    // Shift later members of the probe run back into the hole unless
    // their home lies cyclically in (hole, j].
    for (std::size_t j = (hole + 1) & mask; dir_[j].key != kNoKey;
         j = (j + 1) & mask) {
        const std::size_t home = dirHome(dir_[j].key);
        const bool stays = hole < j ? (home > hole && home <= j)
                                    : (home > hole || home <= j);
        if (!stays) {
            dir_[hole] = dir_[j];
            hole = j;
        }
    }
    dir_[hole] = DirSlot{};
    --dir_used_;
}

// --------------------------------------------------------------------
// Slabs
// --------------------------------------------------------------------

PageTable::Id
PageTable::allocExtent()
{
    if (free_extent_ == kNoId) {
        extents_.emplace_back();
        return static_cast<Id>(extents_.size() - 1);
    }
    const Id id = free_extent_;
    free_extent_ = static_cast<Id>(extents_[id].start);
    return id;
}

void
PageTable::freeExtent(Id id)
{
    extents_[id] = Extent{};
    extents_[id].start = free_extent_;
    free_extent_ = id;
}

void
PageTable::install(Addr va, Addr end, Id id)
{
    while (va < end) {
        const u64 key = va >> kDirShift;
        const Addr seg_end = std::min(end, (key + 1) << kDirShift);
        if (va % kDirSpan == 0 && seg_end - va == kDirSpan) {
            dirInsert(key) = id;
            va = seg_end;
            continue;
        }
        Id &entry = dirInsert(key);
        if (entry == kNoId) {
            Id table;
            if (free_table_ == kNoId) {
                tables_.emplace_back();
                table = static_cast<Id>(tables_.size() - 1);
            } else {
                table = free_table_;
                free_table_ = tables_[table].used;
            }
            tables_[table].slot.fill(kNoId);
            tables_[table].used = 0;
            entry = table | kTableBit;
        }
        GranuleTable &table = tables_[entry & ~kTableBit];
        for (; va < seg_end; va += kGranule) {
            table.slot[(va >> kGranuleShift) % kGranulesPerDir] = id;
            ++table.used;
        }
    }
}

void
PageTable::uninstall(Addr va, Addr end)
{
    while (va < end) {
        const u64 key = va >> kDirShift;
        const Addr seg_end = std::min(end, (key + 1) << kDirShift);
        const Id entry = dirGet(key);
        if (!(entry & kTableBit)) {
            dirErase(key);
            va = seg_end;
            continue;
        }
        const Id index = entry & ~kTableBit;
        GranuleTable &table = tables_[index];
        for (; va < seg_end; va += kGranule) {
            table.slot[(va >> kGranuleShift) % kGranulesPerDir] = kNoId;
            --table.used;
        }
        if (table.used == 0) {
            table.used = free_table_;
            free_table_ = index;
            dirErase(key);
        }
    }
}

// --------------------------------------------------------------------
// Queries
// --------------------------------------------------------------------

PageTable::Id
PageTable::idAt(Addr va) const
{
    const Id entry = dirGet(va >> kDirShift);
    if (entry == kNoId || !(entry & kTableBit)) {
        return entry;
    }
    return tables_[entry & ~kTableBit]
        .slot[(va >> kGranuleShift) % kGranulesPerDir];
}

const Extent *
PageTable::find(Addr va) const
{
    const Id id = idAt(va);
    return id == kNoId ? nullptr : &extents_[id];
}

bool
PageTable::tiles(Addr va, Addr end) const
{
    if (end <= va) {
        return false; // the range wraps the address space
    }
    for (Addr cursor = va; cursor < end;) {
        const Extent *extent = find(cursor);
        if (!extent || extent->start != cursor || extent->end > end) {
            return false; // gap or extent crossing the range boundary
        }
        cursor = extent->end;
    }
    return true;
}

bool
PageTable::rangeFree(Addr va, Addr end) const
{
    while (va < end) {
        const u64 key = va >> kDirShift;
        const Addr seg_end = std::min(end, (key + 1) << kDirShift);
        const Id entry = dirGet(key);
        if (entry != kNoId) {
            if (!(entry & kTableBit)) {
                return false;
            }
            const GranuleTable &table = tables_[entry & ~kTableBit];
            for (Addr g = va; g < seg_end; g += kGranule) {
                if (table.slot[(g >> kGranuleShift) % kGranulesPerDir] !=
                    kNoId) {
                    return false;
                }
            }
        }
        va = seg_end;
    }
    return true;
}

Result<Translation>
PageTable::translate(Addr va) const
{
    const Extent *extent = find(va);
    if (!extent) {
        return Result<Translation>(ErrorCode::kNotFound,
                                   "address not mapped");
    }
    return Translation{
        extent->phys + (va - extent->start),
        extent->start,
        extent->end,
        extent->page,
        extent->access,
    };
}

bool
PageTable::isAccessible(Addr va, u64 size) const
{
    for (Addr cursor = va; cursor < va + size;) {
        const Extent *extent = find(cursor);
        if (!extent || extent->access != Access::kReadWrite) {
            return false;
        }
        cursor = extent->end;
    }
    return true;
}

// --------------------------------------------------------------------
// Updates
// --------------------------------------------------------------------

Status
PageTable::map(Addr va, PhysAddr pa, u64 size, PageSize page,
               Access access, u64 owner)
{
    const u64 psize = bytes(page);
    if (psize < kGranule) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "pages below 64KB are not supported");
    }
    if (size == 0 || size % psize != 0 || va + size < va) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "size not a multiple of the page size");
    }
    if (va % psize != 0 || pa % psize != 0) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "addresses not page aligned");
    }
    if (!rangeFree(va, va + size)) {
        return errorStatus(ErrorCode::kAlreadyExists,
                           "interval overlaps existing entry");
    }
    const Id id = allocExtent();
    extents_[id] = Extent{va, va + size, pa, owner, page, access};
    install(va, va + size, id);
    ++num_extents_;
    mapped_bytes_ += size;
    return Status::ok();
}

Status
PageTable::setAccess(Addr va, u64 size, Access access)
{
    if (size == 0) {
        return errorStatus(ErrorCode::kInvalidArgument, "zero size");
    }
    // Verify the range decomposes into whole extents first (no partial
    // side effects on failure, and access never leaks outside [va, size)).
    if (!tiles(va, va + size)) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "range not fully mapped as whole extents");
    }
    for (Addr cursor = va; cursor < va + size;) {
        Extent &extent = extents_[idAt(cursor)];
        extent.access = access;
        cursor = extent.end;
    }
    return Status::ok();
}

Status
PageTable::unmap(Addr va, u64 size)
{
    if (size == 0) {
        return errorStatus(ErrorCode::kInvalidArgument, "zero size");
    }
    // The range must decompose into whole extents with no gaps and no
    // partial overlap at either boundary.
    if (!tiles(va, va + size)) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "range does not match mapped extents");
    }
    for (Addr cursor = va; cursor < va + size;) {
        const Id id = idAt(cursor);
        const Extent extent = extents_[id];
        uninstall(extent.start, extent.end);
        freeExtent(id);
        --num_extents_;
        mapped_bytes_ -= extent.end - extent.start;
        cursor = extent.end;
    }
    return Status::ok();
}

} // namespace vattn::gpu
