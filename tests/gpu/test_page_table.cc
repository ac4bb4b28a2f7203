/**
 * @file
 * Page-table tests: the map/translate/unmap contract, a seeded
 * differential run against an IntervalMap-based reference table (the
 * table's previous implementation, kept here as the oracle), and
 * allocation counts of warm driver map/unmap cycles.
 */

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "alloc_counter.hh"
#include "common/interval_map.hh"
#include "common/rng.hh"
#include "cuvmm/driver.hh"
#include "gpu/device.hh"
#include "gpu/page_table.hh"

namespace vattn::gpu
{
namespace
{

constexpr Addr kVa = 0x10'0000'0000ULL;

TEST(PageTable, MapTranslateUnmap)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa, 0x10000, 64 * KiB, PageSize::k64KB,
                         Access::kReadWrite)
                    .isOk());
    auto t = table.translate(kVa + 100);
    ASSERT_TRUE(t.isOk());
    EXPECT_EQ(t.value().phys, 0x10000u + 100);
    EXPECT_EQ(t.value().page, PageSize::k64KB);
    EXPECT_EQ(t.value().access, Access::kReadWrite);
    EXPECT_EQ(t.value().extent_start, kVa);
    EXPECT_EQ(t.value().extent_end, kVa + 64 * KiB);

    ASSERT_TRUE(table.unmap(kVa, 64 * KiB).isOk());
    EXPECT_FALSE(table.translate(kVa).isOk());
}

TEST(PageTable, AlignmentEnforced)
{
    PageTable table;
    EXPECT_FALSE(table
                     .map(kVa + 1, 0, 64 * KiB, PageSize::k64KB,
                          Access::kReadWrite)
                     .isOk());
    EXPECT_FALSE(table
                     .map(kVa, 4096, 64 * KiB, PageSize::k64KB,
                          Access::kReadWrite)
                     .isOk()); // phys unaligned
    EXPECT_FALSE(table
                     .map(kVa, 0, 60 * KiB, PageSize::k64KB,
                          Access::kReadWrite)
                     .isOk()); // size not multiple
}

TEST(PageTable, DoubleMapRejected)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa, 0, 2 * MiB, PageSize::k2MB,
                         Access::kReadWrite)
                    .isOk());
    EXPECT_EQ(table
                  .map(kVa + 64 * KiB, 0, 64 * KiB, PageSize::k64KB,
                       Access::kReadWrite)
                  .code(),
              ErrorCode::kAlreadyExists);
}

TEST(PageTable, CudaMapThenSetAccessSemantics)
{
    // cuMemMap leaves the range inaccessible until cuMemSetAccess.
    PageTable table;
    ASSERT_TRUE(
        table.map(kVa, 0, 2 * MiB, PageSize::k2MB, Access::kNone)
            .isOk());
    EXPECT_FALSE(table.isAccessible(kVa, 2 * MiB));
    auto t = table.translate(kVa);
    ASSERT_TRUE(t.isOk());
    EXPECT_EQ(t.value().access, Access::kNone);

    ASSERT_TRUE(
        table.setAccess(kVa, 2 * MiB, Access::kReadWrite).isOk());
    EXPECT_TRUE(table.isAccessible(kVa, 2 * MiB));
}

TEST(PageTable, SetAccessRequiresWholeExtents)
{
    PageTable table;
    ASSERT_TRUE(
        table.map(kVa, 0, 2 * MiB, PageSize::k2MB, Access::kNone)
            .isOk());
    // Partial extent.
    EXPECT_FALSE(
        table.setAccess(kVa, 1 * MiB, Access::kReadWrite).isOk());
    // Range with a gap.
    EXPECT_FALSE(
        table.setAccess(kVa, 4 * MiB, Access::kReadWrite).isOk());
}

TEST(PageTable, UnmapRequiresExactExtentDecomposition)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa, 0, 64 * KiB, PageSize::k64KB,
                         Access::kReadWrite)
                    .isOk());
    ASSERT_TRUE(table
                    .map(kVa + 64 * KiB, 64 * KiB, 64 * KiB,
                         PageSize::k64KB, Access::kReadWrite)
                    .isOk());
    // Partial unmap of one extent: rejected.
    EXPECT_FALSE(table.unmap(kVa, 32 * KiB).isOk());
    // Unmap spanning both extents exactly: fine.
    EXPECT_TRUE(table.unmap(kVa, 128 * KiB).isOk());
    EXPECT_EQ(table.numExtents(), 0u);
}

TEST(PageTable, UnmapWithGapRejectedAtomically)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa, 0, 64 * KiB, PageSize::k64KB,
                         Access::kReadWrite)
                    .isOk());
    ASSERT_TRUE(table
                    .map(kVa + 128 * KiB, 64 * KiB, 64 * KiB,
                         PageSize::k64KB, Access::kReadWrite)
                    .isOk());
    EXPECT_FALSE(table.unmap(kVa, 192 * KiB).isOk());
    // Nothing was removed.
    EXPECT_EQ(table.numExtents(), 2u);
    EXPECT_TRUE(table.translate(kVa).isOk());
    EXPECT_TRUE(table.translate(kVa + 128 * KiB).isOk());
}

TEST(PageTable, MixedPageSizes)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa, 0, 2 * MiB, PageSize::k2MB,
                         Access::kReadWrite)
                    .isOk());
    ASSERT_TRUE(table
                    .map(kVa + 2 * MiB, 2 * MiB, 64 * KiB,
                         PageSize::k64KB, Access::kReadWrite)
                    .isOk());
    EXPECT_EQ(table.translate(kVa).value().page, PageSize::k2MB);
    EXPECT_EQ(table.translate(kVa + 2 * MiB).value().page,
              PageSize::k64KB);
    EXPECT_EQ(table.mappedBytes(), 2 * MiB + 64 * KiB);
}

TEST(PageTable, TranslationOffsetsWithinExtent)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa, 0x100000, 256 * KiB, PageSize::k64KB,
                         Access::kReadWrite)
                    .isOk());
    const u64 offsets[] = {0, 1, 64 * KiB + 5, 256 * KiB - 1};
    for (u64 off : offsets) {
        auto t = table.translate(kVa + off);
        ASSERT_TRUE(t.isOk()) << off;
        EXPECT_EQ(t.value().phys, 0x100000 + off);
    }
    EXPECT_FALSE(table.translate(kVa + 256 * KiB).isOk());
}

TEST(PageTable, IsAccessibleAcrossExtents)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa, 0, 64 * KiB, PageSize::k64KB,
                         Access::kReadWrite)
                    .isOk());
    ASSERT_TRUE(table
                    .map(kVa + 64 * KiB, 64 * KiB, 64 * KiB,
                         PageSize::k64KB, Access::kNone)
                    .isOk());
    EXPECT_TRUE(table.isAccessible(kVa, 64 * KiB));
    EXPECT_FALSE(table.isAccessible(kVa, 128 * KiB)); // second is kNone
    EXPECT_FALSE(table.isAccessible(kVa + 200 * KiB, 1)); // unmapped
}

TEST(PageTable, SubGranulePagesRejected)
{
    // Every page-group is a multiple of 64KB, so 4KB pages never reach
    // the table; it refuses them rather than tracking 4KB granules.
    PageTable table;
    EXPECT_EQ(table
                  .map(kVa, 0, 64 * KiB, PageSize::k4KB,
                       Access::kReadWrite)
                  .code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(table.numExtents(), 0u);
}

TEST(PageTable, ExtentsCarryTheirOwnerTag)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa + 2 * MiB - 64 * KiB, 0, 128 * KiB,
                         PageSize::k64KB, Access::kNone, 42)
                    .isOk());
    const Extent *extent = table.find(kVa + 2 * MiB + 5);
    ASSERT_NE(extent, nullptr);
    EXPECT_EQ(extent->owner, 42u);
    EXPECT_EQ(extent->start, kVa + 2 * MiB - 64 * KiB);
    EXPECT_EQ(table.find(kVa + 2 * MiB + 64 * KiB), nullptr);
}

TEST(PageTable, ForEachExtentSkipsEmptyDirectoryRanges)
{
    // Two extents 1TB apart: a walk over the whole span visits both, in
    // order, without probing each of the 512K empty 2MB ranges.
    PageTable table;
    const Addr far = kVa + 1024 * GiB;
    ASSERT_TRUE(table
                    .map(far, 0, 4 * MiB, PageSize::k2MB,
                         Access::kReadWrite)
                    .isOk());
    ASSERT_TRUE(table
                    .map(kVa + 64 * KiB, 4 * MiB, 64 * KiB,
                         PageSize::k64KB, Access::kReadWrite)
                    .isOk());
    std::vector<Addr> starts;
    table.forEachExtent(kVa, far + 4 * MiB - kVa,
                        [&](const Extent &e) { starts.push_back(e.start); });
    EXPECT_EQ(starts, (std::vector<Addr>{kVa + 64 * KiB, far}));
    starts.clear();
    table.forEachExtent([&](const Extent &e) { starts.push_back(e.start); });
    EXPECT_EQ(starts, (std::vector<Addr>{kVa + 64 * KiB, far}));
}

// ---- Differential test against the IntervalMap reference -----------

/** The table's previous implementation: one IntervalMap of extents. */
class ReferenceTable
{
  public:
    Status
    map(Addr va, PhysAddr pa, u64 size, PageSize page, Access access,
        u64 owner)
    {
        const u64 psize = bytes(page);
        if (size == 0 || size % psize != 0) {
            return errorStatus(ErrorCode::kInvalidArgument);
        }
        if (va % psize != 0 || pa % psize != 0) {
            return errorStatus(ErrorCode::kInvalidArgument);
        }
        return map_.insert(va, va + size,
                           Extent{va, va + size, pa, owner, page, access});
    }

    Status
    setAccess(Addr va, u64 size, Access access)
    {
        if (size == 0) {
            return errorStatus(ErrorCode::kInvalidArgument);
        }
        if (!coversWholeExtents(va, size)) {
            return errorStatus(ErrorCode::kFailedPrecondition);
        }
        for (Addr cursor = va; cursor < va + size;) {
            Extent *extent = map_.findValue(cursor);
            extent->access = access;
            cursor = extent->end;
        }
        return Status::ok();
    }

    Status
    unmap(Addr va, u64 size)
    {
        if (size == 0) {
            return errorStatus(ErrorCode::kInvalidArgument);
        }
        if (!coversWholeExtents(va, size)) {
            return errorStatus(ErrorCode::kFailedPrecondition);
        }
        for (Addr cursor = va; cursor < va + size;) {
            const Addr end = map_.findExact(cursor)->end;
            map_.eraseAt(cursor).expectOk("reference erase");
            cursor = end;
        }
        return Status::ok();
    }

    std::optional<Extent>
    find(Addr va) const
    {
        const auto entry = map_.find(va);
        return entry ? std::optional<Extent>(entry->value) : std::nullopt;
    }

    bool
    isAccessible(Addr va, u64 size) const
    {
        Addr cursor = va;
        bool ok = true;
        map_.forEachIn(va, va + size, [&](const auto &e) {
            if (ok && (e.start > cursor ||
                       e.value.access != Access::kReadWrite)) {
                ok = false;
            }
            cursor = e.end;
        });
        return ok && cursor >= va + size;
    }

    std::vector<Extent>
    extentsIn(Addr va, u64 size) const
    {
        std::vector<Extent> out;
        map_.forEachIn(va, va + size,
                       [&](const auto &e) { out.push_back(e.value); });
        return out;
    }

    u64 mappedBytes() const { return map_.coveredBytes(); }
    std::size_t numExtents() const { return map_.size(); }

  private:
    bool
    coversWholeExtents(Addr va, u64 size) const
    {
        Addr cursor = va;
        bool bad = false;
        map_.forEachIn(va, va + size, [&](const auto &e) {
            if (!bad && (e.start != cursor || e.end > va + size)) {
                bad = true;
            }
            cursor = e.end;
        });
        return !bad && cursor == va + size;
    }

    IntervalMap<Extent> map_;
};

bool
sameExtent(const Extent &a, const Extent &b)
{
    return a.start == b.start && a.end == b.end && a.phys == b.phys &&
           a.owner == b.owner && a.page == b.page && a.access == b.access;
}

std::vector<Extent>
extentsIn(const PageTable &table, Addr va, u64 size)
{
    std::vector<Extent> out;
    table.forEachExtent(va, size,
                        [&](const Extent &e) { out.push_back(e); });
    return out;
}

::testing::AssertionResult
sameExtents(const std::vector<Extent> &got,
            const std::vector<Extent> &want)
{
    if (got.size() != want.size()) {
        return ::testing::AssertionFailure()
               << got.size() << " extents, reference has " << want.size();
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (!sameExtent(got[i], want[i])) {
            return ::testing::AssertionFailure()
                   << "extent " << i << " at 0x" << std::hex
                   << got[i].start << " differs from reference at 0x"
                   << want[i].start;
        }
    }
    return ::testing::AssertionSuccess();
}

/** Random map/setAccess/unmap/query traffic over 4MB VA regions, so
 *  extents collide, straddle 2MB boundaries and leave gaps. With many
 *  regions scattered over 64TB the directory keys hash like real
 *  reservations do, and its probe runs collide and wrap around. */
class Differential
{
  public:
    static constexpr u64 kRegion = 4 * MiB;

    Differential(u64 seed, int regions) : rng_(seed)
    {
        for (int r = 0; r < regions; ++r) {
            bases_.push_back(
                r == 0 ? kVa
                       : kVa + 2 * MiB * static_cast<u64>(
                                             rng_.uniformInt(0, 1 << 25)));
        }
    }

    void
    step(int op)
    {
        switch (rng_.uniformInt(0, 7)) {
          case 0:
          case 1:
          case 2: mapRandom(op); break;
          case 3: setAccessRandom(op); break;
          case 4:
          case 5: unmapRandom(op); break;
          default: queryRandom(op); break;
        }
        ASSERT_EQ(table_.numExtents(), ref_.numExtents()) << "op " << op;
        ASSERT_EQ(table_.mappedBytes(), ref_.mappedBytes()) << "op " << op;
        std::vector<Extent> all;
        table_.forEachExtent([&](const Extent &e) { all.push_back(e); });
        ASSERT_TRUE(sameExtents(all, ref_.extentsIn(0, ~Addr{0})))
            << "op " << op;
    }

  private:
    /** A 64KB-aligned VA in the window (2MB-aligned if @p big). */
    Addr
    randomVa(bool big)
    {
        const u64 unit = big ? 2 * MiB : 64 * KiB;
        const Addr base = bases_[static_cast<std::size_t>(rng_.uniformInt(
            0, static_cast<i64>(bases_.size()) - 1))];
        return base + unit * static_cast<u64>(
                                 rng_.uniformInt(0, kRegion / unit - 1));
    }

    u64
    randomSize()
    {
        static constexpr u64 kSizes[] = {64 * KiB, 128 * KiB, 256 * KiB,
                                         2 * MiB, 4 * MiB, 6 * MiB};
        return kSizes[rng_.uniformInt(0, 5)];
    }

    void
    mapRandom(int op)
    {
        const u64 size = randomSize();
        // 2MB pages need 2MB alignment; 64KB pages may straddle 2MB
        // boundaries. Now and then pass a misaligned phys.
        const bool big_page = size % (2 * MiB) == 0 && rng_.uniform() < 0.5;
        const PageSize page = big_page ? PageSize::k2MB : PageSize::k64KB;
        const Addr va = randomVa(big_page);
        PhysAddr pa = bytes(page) * static_cast<u64>(rng_.uniformInt(0, 999));
        if (rng_.uniform() < 0.05) {
            pa += 4 * KiB;
        }
        const Access access =
            rng_.uniform() < 0.5 ? Access::kNone : Access::kReadWrite;
        const u64 owner = static_cast<u64>(op) + 1;
        ASSERT_EQ(table_.map(va, pa, size, page, access, owner).code(),
                  ref_.map(va, pa, size, page, access, owner).code())
            << "op " << op << " map 0x" << std::hex << va << " +" << size;
    }

    /** A range that is often exactly a run of whole extents, sometimes
     *  partial, gapped or empty. */
    std::pair<Addr, u64>
    randomRange()
    {
        const auto extents = ref_.extentsIn(0, ~Addr{0});
        if (extents.empty() || rng_.uniform() < 0.2) {
            return {randomVa(false), randomSize()};
        }
        const auto first = static_cast<std::size_t>(rng_.uniformInt(
            0, static_cast<i64>(extents.size()) - 1));
        const auto last = std::min(
            extents.size() - 1,
            first + static_cast<std::size_t>(rng_.uniformInt(0, 2)));
        Addr start = extents[first].start;
        Addr end = extents[last].end;
        const double shape = rng_.uniform();
        if (shape < 0.1) {
            start += 64 * KiB; // partial at the front
        } else if (shape < 0.2) {
            end -= 64 * KiB; // partial at the back
        } else if (shape < 0.25) {
            end += 64 * KiB; // runs past the last extent
        }
        return {start, end > start ? end - start : 0};
    }

    void
    setAccessRandom(int op)
    {
        const auto [va, size] = randomRange();
        const Access access =
            rng_.uniform() < 0.5 ? Access::kNone : Access::kReadWrite;
        ASSERT_EQ(table_.setAccess(va, size, access).code(),
                  ref_.setAccess(va, size, access).code())
            << "op " << op << " setAccess 0x" << std::hex << va;
    }

    void
    unmapRandom(int op)
    {
        const auto [va, size] = randomRange();
        ASSERT_EQ(table_.unmap(va, size).code(),
                  ref_.unmap(va, size).code())
            << "op " << op << " unmap 0x" << std::hex << va << " +"
            << size;
    }

    void
    queryRandom(int op)
    {
        const Addr va = randomVa(false) - 64 * KiB +
                        static_cast<u64>(rng_.uniformInt(0, 192 * KiB));
        const Extent *got = table_.find(va);
        const auto want = ref_.find(va);
        ASSERT_EQ(got != nullptr, want.has_value())
            << "op " << op << " find 0x" << std::hex << va;
        const auto xlat = table_.translate(va);
        ASSERT_EQ(xlat.isOk(), want.has_value());
        if (want) {
            ASSERT_TRUE(sameExtent(*got, *want)) << "op " << op;
            EXPECT_EQ(xlat.value().phys, want->phys + (va - want->start));
            EXPECT_EQ(xlat.value().extent_start, want->start);
            EXPECT_EQ(xlat.value().extent_end, want->end);
            EXPECT_EQ(xlat.value().page, want->page);
            EXPECT_EQ(xlat.value().access, want->access);
        }
        const auto [lo, size] = randomRange();
        ASSERT_EQ(table_.isAccessible(lo, size),
                  ref_.isAccessible(lo, size))
            << "op " << op << " isAccessible 0x" << std::hex << lo;
        ASSERT_TRUE(sameExtents(extentsIn(table_, va, size),
                                ref_.extentsIn(va, size)))
            << "op " << op << " forEachExtent 0x" << std::hex << va;
    }

    Rng rng_;
    std::vector<Addr> bases_;
    PageTable table_;
    ReferenceTable ref_;
};

TEST(PageTable, MatchesReferenceUnderRandomTraffic)
{
    for (u64 seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        Differential diff(seed, seed <= 4 ? 4 : 24);
        for (int op = 0; op < 5000; ++op) {
            diff.step(op);
            if (::testing::Test::HasFatalFailure()) {
                return;
            }
        }
    }
}

TEST(PageTable, DirectoryChurnMatchesReference)
{
    // Whole-2MB extents at scattered keys: every map inserts and every
    // unmap erases one directory entry, so probe runs grow, collide,
    // wrap around the table and shift back on erase. The small pool
    // keeps a 64-slot directory near its load limit.
    for (const int pool : {40, 1024}) {
        SCOPED_TRACE(pool);
        Rng rng(static_cast<u64>(pool));
        std::vector<Addr> vas;
        for (int i = 0; i < pool; ++i) {
            vas.push_back(kVa + 2 * MiB * static_cast<u64>(
                                              rng.uniformInt(0, 1 << 30)));
        }
        auto pick = [&] {
            return vas[static_cast<std::size_t>(
                rng.uniformInt(0, pool - 1))];
        };
        PageTable table;
        ReferenceTable ref;
        for (int op = 0; op < 40000; ++op) {
            const Addr va = pick();
            if (ref.find(va)) {
                ASSERT_TRUE(table.unmap(va, 2 * MiB).isOk()) << "op " << op;
                ASSERT_TRUE(ref.unmap(va, 2 * MiB).isOk());
            } else {
                const u64 owner = static_cast<u64>(op) + 1;
                ASSERT_TRUE(table
                                .map(va, 0, 2 * MiB, PageSize::k2MB,
                                     Access::kReadWrite, owner)
                                .isOk())
                    << "op " << op;
                ASSERT_TRUE(ref.map(va, 0, 2 * MiB, PageSize::k2MB,
                                    Access::kReadWrite, owner)
                                .isOk());
            }
            if (pool > 64 && op % 64 != 0) {
                continue; // sweep the big pool now and then
            }
            for (const Addr probe : vas) {
                const Extent *got = table.find(probe + 4096);
                const auto want = ref.find(probe + 4096);
                ASSERT_EQ(got != nullptr, want.has_value()) << "op " << op;
                if (want) {
                    ASSERT_EQ(got->owner, want->owner) << "op " << op;
                }
            }
        }
        std::vector<Extent> all;
        table.forEachExtent([&](const Extent &e) { all.push_back(e); });
        EXPECT_TRUE(sameExtents(all, ref.extentsIn(0, ~Addr{0})));
        EXPECT_EQ(table.numExtents(), ref.numExtents());
    }
}

// ---- Allocation counts of warm driver cycles -----------------------

class WarmDriverCycle : public ::testing::Test
{
  protected:
    WarmDriverCycle() : device_(config()), driver_(device_) {}

    static GpuDevice::Config
    config()
    {
        GpuDevice::Config config;
        config.mem_bytes = 256 * MiB;
        return config;
    }

    GpuDevice device_;
    cuvmm::Driver driver_;
};

TEST_F(WarmDriverCycle, VMemMapUnmapAllocatesNothing)
{
    // Page-groups of every size, packed so that some straddle 2MB
    // boundaries, mapped and unmapped at the same VAs twice over.
    Addr base = 0;
    ASSERT_EQ(driver_.vMemReserve(&base, 64 * MiB, 2 * MiB),
              cuvmm::CuResult::kSuccess);
    std::vector<std::pair<cuvmm::MemHandle, Addr>> groups;
    Addr va = base + 2 * MiB - 192 * KiB;
    for (int i = 0; i < 24; ++i) {
        const PageGroup group = kAllPageGroups[i % 4];
        cuvmm::MemHandle handle = cuvmm::kInvalidHandle;
        ASSERT_EQ(driver_.vMemCreate(&handle, group),
                  cuvmm::CuResult::kSuccess);
        va = roundUp(va, bytes(group));
        groups.emplace_back(handle, va);
        va += bytes(group);
    }
    auto cycle = [&] {
        for (const auto &[handle, at] : groups) {
            ASSERT_EQ(driver_.vMemMap(at, handle),
                      cuvmm::CuResult::kSuccess);
        }
        for (const auto &[handle, at] : groups) {
            ASSERT_EQ(driver_.vMemUnmap(at), cuvmm::CuResult::kSuccess);
        }
    };
    cycle();
    const long long before = allocCount();
    cycle();
    cycle();
    EXPECT_EQ(allocCount(), before)
        << "a warm vMemMap/vMemUnmap cycle allocated";
    EXPECT_EQ(device_.pageTable().numExtents(), 0u);
}

TEST_F(WarmDriverCycle, CuMemMapSetAccessUnmapAllocatesNothing)
{
    Addr base = 0;
    ASSERT_EQ(driver_.cuMemAddressReserve(&base, 64 * MiB),
              cuvmm::CuResult::kSuccess);
    std::vector<std::pair<cuvmm::MemHandle, u64>> handles;
    for (const u64 size : {2 * MiB, 4 * MiB, 2 * MiB, 6 * MiB}) {
        cuvmm::MemHandle handle = cuvmm::kInvalidHandle;
        ASSERT_EQ(driver_.cuMemCreate(&handle, size),
                  cuvmm::CuResult::kSuccess);
        handles.emplace_back(handle, size);
    }
    auto cycle = [&] {
        Addr at = base;
        for (const auto &[handle, size] : handles) {
            ASSERT_EQ(driver_.cuMemMap(at, size, 0, handle),
                      cuvmm::CuResult::kSuccess);
            ASSERT_EQ(driver_.cuMemSetAccess(at, size),
                      cuvmm::CuResult::kSuccess);
            at += size;
        }
        at = base;
        for (const auto &[handle, size] : handles) {
            ASSERT_EQ(driver_.cuMemUnmap(at, size),
                      cuvmm::CuResult::kSuccess);
            at += size;
        }
    };
    cycle();
    const long long before = allocCount();
    cycle();
    cycle();
    EXPECT_EQ(allocCount(), before)
        << "a warm cuMemMap/cuMemSetAccess/cuMemUnmap cycle allocated";
    EXPECT_EQ(device_.pageTable().numExtents(), 0u);
}

} // namespace
} // namespace vattn::gpu
