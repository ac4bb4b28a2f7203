#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "gpu/va_space.hh"

namespace vattn::gpu
{
namespace
{

TEST(VaSpace, ReserveIsAligned)
{
    VaSpace space;
    auto r = space.reserve(10 * MiB, 2 * MiB);
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ(r.value() % (2 * MiB), 0u);
    EXPECT_TRUE(space.isReserved(r.value(), 10 * MiB));
    EXPECT_EQ(space.reservationSize(r.value()), 10 * MiB);
}

TEST(VaSpace, ReservationsAreDisjoint)
{
    VaSpace space;
    auto a = space.reserve(1 * MiB, 4 * KiB);
    auto b = space.reserve(1 * MiB, 4 * KiB);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    const bool disjoint = a.value() + 1 * MiB <= b.value() ||
                          b.value() + 1 * MiB <= a.value();
    EXPECT_TRUE(disjoint);
    EXPECT_EQ(space.reservedBytes(), 2 * MiB);
}

TEST(VaSpace, TerabyteScaleReservations)
{
    // §5.1.3: Yi-34B needs 120 buffers of 100GB each (12TB total);
    // virtual memory must shrug this off.
    VaSpace space;
    std::vector<Addr> buffers;
    for (int i = 0; i < 120; ++i) {
        auto r = space.reserve(100 * GiB, 2 * MiB);
        ASSERT_TRUE(r.isOk()) << "buffer " << i;
        buffers.push_back(r.value());
    }
    EXPECT_EQ(space.reservedBytes(), 120ull * 100 * GiB);
    for (Addr addr : buffers) {
        EXPECT_TRUE(space.release(addr).isOk());
    }
    EXPECT_EQ(space.reservedBytes(), 0u);
}

TEST(VaSpace, ReleaseCoalescesFreeSpace)
{
    VaSpace space(0x1000, 64 * KiB);
    auto a = space.reserve(16 * KiB, 4 * KiB);
    auto b = space.reserve(16 * KiB, 4 * KiB);
    auto c = space.reserve(32 * KiB, 4 * KiB);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    ASSERT_TRUE(c.isOk());
    EXPECT_FALSE(space.reserve(4 * KiB, 4 * KiB).isOk()); // full
    // Free middle then neighbours; the whole space must coalesce.
    ASSERT_TRUE(space.release(b.value()).isOk());
    ASSERT_TRUE(space.release(a.value()).isOk());
    ASSERT_TRUE(space.release(c.value()).isOk());
    auto whole = space.reserve(64 * KiB, 4 * KiB);
    EXPECT_TRUE(whole.isOk());
}

TEST(VaSpace, FixedAddressReservation)
{
    VaSpace space(0x10000, 1 * MiB);
    auto r = space.reserve(64 * KiB, 4 * KiB, 0x20000);
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ(r.value(), 0x20000u);
    // Conflicting fixed reservation fails.
    EXPECT_FALSE(space.reserve(4 * KiB, 4 * KiB, 0x20000).isOk());
    // Around it works.
    auto before = space.reserve(64 * KiB, 4 * KiB, 0x10000);
    EXPECT_TRUE(before.isOk());
}

TEST(VaSpace, InvalidArguments)
{
    VaSpace space;
    EXPECT_EQ(space.reserve(0, 4 * KiB).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(space.reserve(4 * KiB, 3).code(),
              ErrorCode::kInvalidArgument); // non-pow2 alignment
    EXPECT_EQ(space.release(0xdead).code(), ErrorCode::kNotFound);
}

TEST(VaSpace, ExhaustionReported)
{
    VaSpace space(0x1000, 16 * KiB);
    ASSERT_TRUE(space.reserve(16 * KiB, 4 * KiB).isOk());
    EXPECT_EQ(space.reserve(4 * KiB, 4 * KiB).code(),
              ErrorCode::kOutOfMemory);
}

TEST(VaSpace, IsReservedChecksWholeRange)
{
    VaSpace space;
    auto r = space.reserve(8 * KiB, 4 * KiB);
    ASSERT_TRUE(r.isOk());
    EXPECT_TRUE(space.isReserved(r.value(), 8 * KiB));
    EXPECT_TRUE(space.isReserved(r.value() + 4 * KiB, 4 * KiB));
    EXPECT_FALSE(space.isReserved(r.value(), 16 * KiB));
    EXPECT_FALSE(space.isReserved(r.value() + 8 * KiB, 1));
}

/**
 * Brute-force reference: one owner entry per 4KiB unit of a small
 * space, first fit by trying every aligned address from the bottom.
 */
class UnitBitmapSpace
{
  public:
    static constexpr u64 kUnit = 4 * KiB;

    UnitBitmapSpace(Addr base, u64 units)
        : base_(base), owner_(units, kFree)
    {
    }

    Result<Addr>
    reserve(u64 size, u64 alignment, Addr fixed)
    {
        if (size == 0) {
            return Result<Addr>(ErrorCode::kInvalidArgument, "");
        }
        alignment = alignment == 0 ? 1 : alignment;
        if (!isPow2(alignment)) {
            return Result<Addr>(ErrorCode::kInvalidArgument, "");
        }
        if (fixed != 0) {
            if (fixed % alignment != 0) {
                return Result<Addr>(ErrorCode::kInvalidArgument, "");
            }
            if (!isFree(fixed, size)) {
                return Result<Addr>(ErrorCode::kOutOfMemory, "");
            }
            take(fixed, size);
            return fixed;
        }
        for (Addr addr = roundUp(base_, alignment); addr < end();
             addr += alignment) {
            if (isFree(addr, size)) {
                take(addr, size);
                return addr;
            }
        }
        return Result<Addr>(ErrorCode::kOutOfMemory, "");
    }

    Status
    release(Addr addr)
    {
        if (reservationSize(addr) == 0) {
            return errorStatus(ErrorCode::kNotFound, "");
        }
        const i64 id = ownerAt(addr);
        for (i64 &owner : owner_) {
            owner = owner == id ? kFree : owner;
        }
        return Status::ok();
    }

    u64
    reservationSize(Addr addr) const
    {
        const i64 id = ownerAt(addr);
        if (id == kFree ||
            (addr > base_ && ownerAt(addr - kUnit) == id)) {
            return 0;
        }
        u64 size = 0;
        while (addr + size < end() && ownerAt(addr + size) == id) {
            size += kUnit;
        }
        return size;
    }

    bool
    isReserved(Addr addr, u64 size) const
    {
        const i64 id = ownerAt(addr);
        if (id == kFree) {
            return false;
        }
        for (Addr a = addr; a < addr + size; a += kUnit) {
            if (ownerAt(a) != id) {
                return false;
            }
        }
        return true;
    }

    u64
    reservedBytes() const
    {
        u64 bytes = 0;
        for (i64 owner : owner_) {
            bytes += owner == kFree ? 0 : kUnit;
        }
        return bytes;
    }

    Addr end() const { return base_ + owner_.size() * kUnit; }

  private:
    static constexpr i64 kFree = -1;

    i64
    ownerAt(Addr addr) const
    {
        if (addr < base_ || addr >= end()) {
            return kFree;
        }
        return owner_[(addr - base_) / kUnit];
    }

    bool
    isFree(Addr addr, u64 size) const
    {
        if (addr < base_ || addr + size > end()) {
            return false;
        }
        for (Addr a = addr; a < addr + size; a += kUnit) {
            if (ownerAt(a) != kFree) {
                return false;
            }
        }
        return true;
    }

    void
    take(Addr addr, u64 size)
    {
        for (Addr a = addr; a < addr + size; a += kUnit) {
            owner_[(a - base_) / kUnit] = next_id_;
        }
        ++next_id_;
    }

    Addr base_;
    std::vector<i64> owner_;
    i64 next_id_ = 0;
};

TEST(VaSpace, RandomWalkMatchesUnitBitmapFirstFit)
{
    // 64 units whose base is 4KiB- but not 32KiB-aligned, so large
    // alignments skip the bottom of a gap.
    constexpr u64 kUnit = UnitBitmapSpace::kUnit;
    constexpr Addr kBase = 3 * kUnit;
    constexpr u64 kUnits = 64;
    VaSpace space(kBase, kUnits * kUnit);
    UnitBitmapSpace ref(kBase, kUnits);
    std::vector<Addr> live;
    Rng rng(2024);
    // Successes per op kind (first fit, fixed, release) and refusals.
    int counts[4] = {};

    // Mostly valid sizes and alignments, with a few invalid ones.
    const auto pick_size = [&] {
        return rng.uniformInt(0, 49) == 0
                   ? 0
                   : static_cast<u64>(rng.uniformInt(1, 12)) * kUnit;
    };
    const auto pick_alignment = [&]() -> u64 {
        return rng.uniformInt(0, 49) == 0
                   ? 3 * kUnit
                   : kUnit << rng.uniformInt(0, 3);
    };
    // Never 0, which reserve() reads as "no fixed address".
    const auto pick_addr = [&] {
        return static_cast<Addr>(rng.uniformInt(1, kUnits + 4)) * kUnit;
    };

    for (int step = 0; step < 1000; ++step) {
        SCOPED_TRACE(step);
        const i64 op = rng.uniformInt(0, 9);
        if (op < 4) {
            const u64 size = pick_size();
            const u64 alignment = pick_alignment();
            const auto got = space.reserve(size, alignment);
            const auto want = ref.reserve(size, alignment, 0);
            ASSERT_EQ(got.code(), want.code());
            if (want.isOk()) {
                ASSERT_EQ(got.value(), want.value());
                live.push_back(want.value());
            }
            ++counts[want.isOk() ? 0 : 3];
        } else if (op < 6) {
            const u64 size = pick_size();
            const u64 alignment = pick_alignment();
            const Addr fixed = pick_addr();
            const auto got = space.reserve(size, alignment, fixed);
            const auto want = ref.reserve(size, alignment, fixed);
            ASSERT_EQ(got.code(), want.code()) << "fixed " << fixed;
            if (want.isOk()) {
                ASSERT_EQ(got.value(), fixed);
                live.push_back(fixed);
            }
            ++counts[want.isOk() ? 1 : 3];
        } else {
            // Release a live reservation, or probe a random address
            // that is usually not a reservation's start.
            Addr addr = pick_addr();
            if (!live.empty() && op < 9) {
                addr = live[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<i64>(live.size()) - 1))];
            }
            const Status want = ref.release(addr);
            ASSERT_EQ(space.release(addr).code(), want.code())
                << "addr " << addr;
            ++counts[want.isOk() ? 2 : 3];
            std::erase(live, addr);
        }
        ASSERT_EQ(space.reservedBytes(), ref.reservedBytes());
        ASSERT_EQ(space.numReservations(), live.size());

        const Addr probe = pick_addr();
        const u64 probe_len =
            static_cast<u64>(rng.uniformInt(0, 4)) * kUnit;
        ASSERT_EQ(space.reservationSize(probe),
                  ref.reservationSize(probe))
            << "probe " << probe;
        ASSERT_EQ(space.isReserved(probe, probe_len),
                  ref.isReserved(probe, probe_len))
            << "probe " << probe;
    }
    // The walk reached every path, not only refusals.
    EXPECT_GT(counts[0], 100);
    EXPECT_GT(counts[1], 10);
    EXPECT_GT(counts[2], 100);
    EXPECT_GT(counts[3], 100);
}

} // namespace
} // namespace vattn::gpu
