/**
 * @file
 * Per-device page table. Mappings are created at page-group granularity
 * (one driver call = one physically contiguous range), so the table
 * stores variable-size extents rather than fixed 4KB PTEs; translation
 * also reports the hardware page size backing the extent, which the TLB
 * model consumes.
 *
 * The table is a two-level radix structure shaped like the GPU's own:
 * a directory keyed by VA >> 21 whose entry either names one extent
 * covering the whole 2MB, or points to a 32-slot table of 64KB
 * granules, each naming the extent that covers it. The directory is a
 * flat open-addressing hash (VA space is sparse: terabytes reserved,
 * gigabytes mapped); extent records and granule tables live in slabs
 * with free lists. Map, unmap, setAccess and translate therefore cost
 * a few array probes, and a warm map/unmap cycle allocates nothing.
 * 64KB is the finest mappable page: every page-group is a multiple of
 * it, so 4KB pages are rejected.
 *
 * Every extent carries an owner tag chosen by the caller; the driver
 * stores the MemHandle there, so the table doubles as its VA->handle
 * index.
 *
 * CUDA semantics honoured here: cuMemMap creates a mapping with *no*
 * access rights; cuMemSetAccess grants RW. The paper's vMemMap fuses the
 * two (§6.2), which the driver expresses by mapping with kReadWrite
 * directly.
 */

#ifndef VATTN_GPU_PAGE_TABLE_HH
#define VATTN_GPU_PAGE_TABLE_HH

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace vattn::gpu
{

/** Access rights on a mapped extent. */
enum class Access : u8
{
    kNone = 0,   ///< mapped but not accessible (cuMemMap w/o SetAccess)
    kReadWrite,  ///< fully accessible
};

/** Result of a successful translation. */
struct Translation
{
    PhysAddr phys;     ///< physical address for the queried VA
    Addr extent_start; ///< VA where this mapping begins
    Addr extent_end;   ///< VA where this mapping ends (exclusive)
    PageSize page;     ///< hardware page size backing the extent
    Access access;
};

/** One mapping: [start, end) -> [phys, phys + (end - start)). */
struct Extent
{
    Addr start = 0;
    Addr end = 0; ///< exclusive
    PhysAddr phys = 0;
    u64 owner = 0; ///< caller's tag (the driver's MemHandle); 0 = none
    PageSize page = PageSize::k64KB;
    Access access = Access::kNone;
};

/** Variable-extent page table with exact-range map/unmap. */
class PageTable
{
  public:
    /**
     * Map [va, va+size) -> [pa, pa+size), tagged with @p owner. Both
     * addresses must be aligned to @p page, which must be at least
     * 64KB, and @p size must be a multiple of it. Fails with
     * kAlreadyExists if any byte of the range is already mapped.
     */
    Status map(Addr va, PhysAddr pa, u64 size, PageSize page,
               Access access, u64 owner = 0);

    /**
     * Change access on mapped extents fully covering [va, va+size).
     * Fails without side effects if any byte of the range is unmapped.
     */
    Status setAccess(Addr va, u64 size, Access access);

    /**
     * Remove mappings covering exactly [va, va+size). The range must
     * decompose into whole previously-mapped extents.
     */
    Status unmap(Addr va, u64 size);

    /** Translate one VA; fails if unmapped. Access is NOT enforced
     *  here — the device read/write path checks it. */
    Result<Translation> translate(Addr va) const;

    /** The extent containing @p va, or nullptr. The pointer is valid
     *  until the next map or unmap. */
    const Extent *find(Addr va) const;

    /** True iff every byte of [va, va+size) is mapped with RW access. */
    bool isAccessible(Addr va, u64 size) const;

    u64 mappedBytes() const { return mapped_bytes_; }
    std::size_t numExtents() const { return num_extents_; }

    /** Visit extents intersecting [va, va+size) in address order.
     *  Free on an empty table; otherwise empty 2MB directory ranges
     *  cost one probe each, and a range wider than the directory costs
     *  one pass over the directory. */
    template <typename Fn>
    void
    forEachExtent(Addr va, u64 size, Fn &&fn) const
    {
        if (size == 0 || va + size <= va) {
            return;
        }
        visit(va, va + size, fn);
    }

    /** Visit every extent in address order. */
    template <typename Fn>
    void
    forEachExtent(Fn &&fn) const
    {
        visit(0, std::numeric_limits<Addr>::max(), fn);
    }

  private:
    /** Finest mappable unit; every extent starts and ends on one. */
    static constexpr u64 kGranule = 64 * KiB;
    /** VA covered by one directory entry. */
    static constexpr u64 kDirSpan = 2 * MiB;
    using Id = u32;
    static constexpr Id kNoId = std::numeric_limits<Id>::max();
    /** Directory entries with this bit set index a granule table;
     *  without it they name the extent covering the whole 2MB. */
    static constexpr Id kTableBit = Id{1} << 31;
    static constexpr unsigned kGranuleShift = 16;
    static constexpr unsigned kDirShift = 21;
    static constexpr unsigned kGranulesPerDir = 1u << (kDirShift -
                                                       kGranuleShift);
    static constexpr u64 kNoKey = std::numeric_limits<u64>::max();

    /** 64KB-granule level under one directory entry. */
    struct GranuleTable
    {
        std::array<Id, kGranulesPerDir> slot;
        u32 used; ///< occupied slots; the free-list link when free
    };

    struct DirSlot
    {
        u64 key = kNoKey; ///< VA >> 21
        Id entry = kNoId;
    };

    /** Directory entry for @p key, kNoId if absent. */
    Id dirGet(u64 key) const;
    /** Entry for @p key, inserted as kNoId if absent. */
    Id &dirInsert(u64 key);
    void dirErase(u64 key);
    std::size_t dirHome(u64 key) const;
    void dirGrow();

    /** Id of the extent containing @p va, kNoId if none. */
    Id idAt(Addr va) const;
    /** Do whole extents tile [va, end) exactly? */
    bool tiles(Addr va, Addr end) const;
    bool rangeFree(Addr va, Addr end) const;
    /** Point every granule of [va, end) at @p id (or clear it). */
    void install(Addr va, Addr end, Id id);
    void uninstall(Addr va, Addr end);

    Id allocExtent();
    void freeExtent(Id id);

    template <typename Fn>
    void
    visit(Addr lo, Addr hi, Fn &fn) const
    {
        if (num_extents_ == 0) {
            return; // KV buffers are freed after all their unmaps
        }
        const u64 first = lo >> kDirShift;
        const u64 last = (hi - 1) >> kDirShift;
        Addr done = 0; // end of the last extent visited
        if (last - first < dir_.size()) {
            for (u64 key = first; key <= last; ++key) {
                visitDir(key, lo, hi, done, fn);
            }
            return;
        }
        std::vector<u64> keys;
        keys.reserve(dir_used_);
        for (const DirSlot &slot : dir_) {
            if (slot.key != kNoKey && slot.key >= first &&
                slot.key <= last) {
                keys.push_back(slot.key);
            }
        }
        std::sort(keys.begin(), keys.end());
        for (const u64 key : keys) {
            visitDir(key, lo, hi, done, fn);
        }
    }

    template <typename Fn>
    void
    visitDir(u64 key, Addr lo, Addr hi, Addr &done, Fn &fn) const
    {
        const Id entry = dirGet(key);
        if (entry == kNoId) {
            return;
        }
        if (!(entry & kTableBit)) {
            const Extent &extent = extents_[entry];
            if (extent.end > done) {
                fn(extent);
                done = extent.end;
            }
            return;
        }
        const GranuleTable &table = tables_[entry & ~kTableBit];
        const Addr base = key << kDirShift;
        const Addr from = std::max(lo, base);
        const Addr to = std::min(hi - 1, base + kDirSpan - 1);
        for (Addr g = (from - base) >> kGranuleShift;
             g <= (to - base) >> kGranuleShift; ++g) {
            const Id id = table.slot[g];
            if (id != kNoId && extents_[id].end > done) {
                fn(extents_[id]);
                done = extents_[id].end;
            }
        }
    }

    /** Extent slab; a free record's start links the free list. */
    std::vector<Extent> extents_;
    Id free_extent_ = kNoId;
    std::vector<GranuleTable> tables_;
    Id free_table_ = kNoId;
    /** Open-addressing directory, linear probing, power-of-two size. */
    std::vector<DirSlot> dir_;
    std::size_t dir_used_ = 0;
    unsigned dir_hash_shift_ = 64;
    std::size_t num_extents_ = 0;
    u64 mapped_bytes_ = 0;
};

} // namespace vattn::gpu

#endif // VATTN_GPU_PAGE_TABLE_HH
