#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "core/page_pool.hh"
#include "core/req_slots.hh"
#include "test_util.hh"

namespace vattn::core
{
namespace
{

TEST(ReqSlots, LifecycleTransitions)
{
    ReqSlots slots(4);
    EXPECT_EQ(slots.numFree(), 4);
    EXPECT_EQ(slots.firstFree(), 0);

    ASSERT_TRUE(slots.activate(0).isOk());
    EXPECT_EQ(slots.state(0), SlotState::kActive);
    EXPECT_STREQ(toString(slots.state(0)), "Active");
    EXPECT_EQ(slots.numActive(), 1);
    EXPECT_EQ(slots.firstFree(), 1);

    ASSERT_TRUE(slots.moveToCached(0).isOk());
    EXPECT_EQ(slots.state(0), SlotState::kCached);
    EXPECT_STREQ(toString(slots.state(0)), "Cached");
    EXPECT_EQ(slots.numCached(), 1);

    // Cached slots can be re-activated (deferred reclamation reuse).
    ASSERT_TRUE(slots.activate(0).isOk());
    EXPECT_EQ(slots.state(0), SlotState::kActive);

    ASSERT_TRUE(slots.moveToFree(0).isOk());
    EXPECT_STREQ(toString(slots.state(0)), "Free");
    EXPECT_EQ(slots.numFree(), 4);
}

TEST(ReqSlots, IllegalTransitionsRejected)
{
    ReqSlots slots(2);
    EXPECT_FALSE(slots.moveToCached(0).isOk()); // free -> cached
    EXPECT_FALSE(slots.moveToFree(0).isOk());   // already free
    ASSERT_TRUE(slots.activate(0).isOk());
    EXPECT_FALSE(slots.activate(0).isOk()); // already active
    ASSERT_TRUE(slots.moveToCached(0).isOk());
    EXPECT_FALSE(slots.moveToCached(0).isOk());
}

/** The cached slots in LRU order, read through the in-place view. */
std::vector<int>
cachedOrderOf(const ReqSlots &slots)
{
    std::vector<int> out;
    for (int slot : slots.cachedOrder()) {
        out.push_back(slot);
    }
    return out;
}

TEST(ReqSlots, CachedLruOrder)
{
    ReqSlots slots(4);
    for (int slot : {0, 1, 2}) {
        ASSERT_TRUE(slots.activate(slot).isOk());
    }
    // Cache in order 1, 0, 2: LRU order must reflect insertion.
    ASSERT_TRUE(slots.moveToCached(1).isOk());
    ASSERT_TRUE(slots.moveToCached(0).isOk());
    ASSERT_TRUE(slots.moveToCached(2).isOk());
    EXPECT_EQ(cachedOrderOf(slots), (std::vector<int>{1, 0, 2}));
    EXPECT_EQ(slots.oldestCached(), 1);

    // Re-activating removes from LRU order.
    ASSERT_TRUE(slots.activate(0).isOk());
    EXPECT_EQ(cachedOrderOf(slots), (std::vector<int>{1, 2}));
}

TEST(ReqSlots, CacheFreeSlotParksWarmSlot)
{
    ReqSlots slots(3);
    ASSERT_TRUE(slots.cacheFreeSlot(2).isOk());
    EXPECT_EQ(slots.state(2), SlotState::kCached);
    EXPECT_EQ(slots.numFree(), 2);
    EXPECT_FALSE(slots.cacheFreeSlot(2).isOk()); // no longer free
    // The warm slot is handed out like any cached slot.
    ASSERT_TRUE(slots.activate(2).isOk());
}

TEST(ReqSlots, ActiveSlotsSorted)
{
    ReqSlots slots(5);
    ASSERT_TRUE(slots.activate(3).isOk());
    ASSERT_TRUE(slots.activate(1).isOk());
    for (int slot = 0; slot < 5; ++slot) {
        const bool active = slot == 1 || slot == 3;
        EXPECT_EQ(slots.state(slot),
                  active ? SlotState::kActive : SlotState::kFree)
            << "slot " << slot;
    }
    EXPECT_EQ(slots.numActive(), 2);
}

TEST(ReqSlots, OutOfRangePanics)
{
    test::ScopedThrowErrors guard;
    ReqSlots slots(2);
    EXPECT_THROW(slots.state(2), SimError);
    EXPECT_THROW(slots.activate(-1), SimError);
}

/** The slots forEachActive / forEachCached visit, in visit order. */
std::vector<int>
visited(const ReqSlots &slots, SlotState state)
{
    std::vector<int> out;
    const auto push = [&out](int slot) { out.push_back(slot); };
    if (state == SlotState::kActive) {
        slots.forEachActive(push);
    } else if (state == SlotState::kCached) {
        slots.forEachCached(push);
    } else {
        ADD_FAILURE() << "no visitor for free slots";
    }
    return out;
}

/** The same sets from a naive state() scan, ascending. */
std::vector<int>
scanned(const ReqSlots &slots, SlotState state)
{
    std::vector<int> out;
    for (int slot = 0; slot < slots.capacity(); ++slot) {
        if (slots.state(slot) == state) {
            out.push_back(slot);
        }
    }
    return out;
}

class ReqSlotsDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(ReqSlotsDifferential, BitsetsMatchANaiveStateScan)
{
    // Seeded random transitions (legal and illegal alike) at
    // capacities around the 64-slot word boundary; after each one the
    // bitset visitors, firstFree and the counts must agree with a
    // scan of state() over every slot.
    const int capacity = GetParam();
    ReqSlots slots(capacity);
    Rng rng(0xb175e7 + static_cast<u64>(capacity));
    for (int op = 0; op < 4000; ++op) {
        const int slot =
            static_cast<int>(rng.uniformInt(0, capacity - 1));
        const SlotState before = slots.state(slot);
        Status status;
        SlotState want = before;
        switch (rng.uniformInt(0, 3)) {
          case 0:
            status = slots.activate(slot);
            if (before != SlotState::kActive) {
                want = SlotState::kActive;
            }
            break;
          case 1:
            status = slots.moveToCached(slot);
            if (before == SlotState::kActive) {
                want = SlotState::kCached;
            }
            break;
          case 2:
            status = slots.cacheFreeSlot(slot);
            if (before == SlotState::kFree) {
                want = SlotState::kCached;
            }
            break;
          default:
            status = slots.moveToFree(slot);
            if (before != SlotState::kFree) {
                want = SlotState::kFree;
            }
            break;
        }
        ASSERT_EQ(status.isOk(), want != before) << "op " << op;
        ASSERT_EQ(slots.state(slot), want) << "op " << op;

        const auto active = scanned(slots, SlotState::kActive);
        const auto cached = scanned(slots, SlotState::kCached);
        const auto free = scanned(slots, SlotState::kFree);
        ASSERT_EQ(visited(slots, SlotState::kActive), active)
            << "op " << op;
        ASSERT_EQ(visited(slots, SlotState::kCached), cached)
            << "op " << op;
        std::vector<int> live;
        slots.forEachActiveOrCached(
            [&live](int s) { live.push_back(s); });
        std::vector<int> want_live;
        for (int s = 0; s < capacity; ++s) {
            if (slots.state(s) != SlotState::kFree) {
                want_live.push_back(s);
            }
        }
        ASSERT_EQ(live, want_live) << "op " << op;
        ASSERT_EQ(slots.firstFree(), free.empty() ? -1 : free.front())
            << "op " << op;
        ASSERT_EQ(slots.numActive(), static_cast<int>(active.size()));
        ASSERT_EQ(slots.numCached(), static_cast<int>(cached.size()));
        ASSERT_EQ(slots.numFree(), static_cast<int>(free.size()));
        // The LRU chain holds exactly the cached slots.
        auto lru = cachedOrderOf(slots);
        std::sort(lru.begin(), lru.end());
        ASSERT_EQ(lru, cached) << "op " << op;
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, ReqSlotsDifferential,
                         ::testing::Values(1, 63, 64, 65, 256));

TEST(ReqSlots, VisitorMayMoveTheVisitedSlot)
{
    // swapOutReq frees cached sharers while walking the cached set:
    // moving the visited slot must not disturb the rest of the walk.
    ReqSlots slots(130);
    for (int slot : {2, 63, 64, 65, 129}) {
        ASSERT_TRUE(slots.activate(slot).isOk());
        ASSERT_TRUE(slots.moveToCached(slot).isOk());
    }
    std::vector<int> seen;
    slots.forEachCached([&](int slot) {
        seen.push_back(slot);
        ASSERT_TRUE(slots.moveToFree(slot).isOk());
    });
    EXPECT_EQ(seen, (std::vector<int>{2, 63, 64, 65, 129}));
    EXPECT_EQ(slots.numCached(), 0);
    EXPECT_EQ(slots.numFree(), 130);
}

class PagePoolTest : public ::testing::Test
{
  protected:
    PagePoolTest() : device_(makeConfig()), driver_(device_) {}

    static gpu::GpuDevice::Config
    makeConfig()
    {
        gpu::GpuDevice::Config config;
        config.mem_bytes = 16 * MiB;
        return config;
    }

    gpu::GpuDevice device_;
    cuvmm::Driver driver_;
};

TEST_F(PagePoolTest, PrecreatesWholeBudget)
{
    PagePool pool(driver_, PageGroup::k64KB, 1 * MiB);
    EXPECT_EQ(pool.totalGroups(), 16);
    EXPECT_EQ(pool.freeGroups(), 16);
    // Physical memory committed at init, off the critical path.
    EXPECT_EQ(driver_.physBytesInUse(), 1 * MiB);
    EXPECT_GT(driver_.counters().create, 0u);
}

TEST_F(PagePoolTest, AcquireReleaseAccounting)
{
    PagePool pool(driver_, PageGroup::k64KB, 256 * KiB);
    auto a = pool.acquire();
    auto b = pool.acquire();
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_EQ(pool.groupsInUse(), 2);
    EXPECT_EQ(pool.freeGroups(), 2);
    EXPECT_EQ(pool.availableGroups(), 2);
    pool.release(a.value());
    EXPECT_EQ(pool.groupsInUse(), 1);
    EXPECT_EQ(pool.freeGroups(), 3);
}

TEST_F(PagePoolTest, BudgetExhaustion)
{
    PagePool pool(driver_, PageGroup::k64KB, 128 * KiB);
    auto a = pool.acquire();
    auto b = pool.acquire();
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_EQ(pool.acquire().code(), ErrorCode::kOutOfMemory);
    EXPECT_TRUE(pool.exhausted());
    pool.release(b.value());
    EXPECT_TRUE(pool.acquire().isOk());
}

TEST_F(PagePoolTest, ReleaseDestroyedReopensBudget)
{
    PagePool pool(driver_, PageGroup::k64KB, 128 * KiB);
    auto a = pool.acquire();
    ASSERT_TRUE(a.isOk());
    // Simulate the small-page reclaim path: the handle was destroyed
    // via vMemRelease elsewhere.
    ASSERT_EQ(driver_.vMemRelease(a.value()),
              cuvmm::CuResult::kSuccess);
    pool.releaseDestroyed(a.value());
    EXPECT_EQ(pool.groupsInUse(), 0);
    // The budget slot is creatable again.
    auto b = pool.acquire();
    auto c = pool.acquire();
    EXPECT_TRUE(b.isOk());
    EXPECT_TRUE(c.isOk());
}

TEST_F(PagePoolTest, LazyCreationWithinBudget)
{
    PagePool pool(driver_, PageGroup::k2MB, 4 * MiB,
                  /*precreate=*/false);
    EXPECT_EQ(driver_.physBytesInUse(), 0u);
    auto a = pool.acquire();
    ASSERT_TRUE(a.isOk());
    EXPECT_EQ(driver_.physBytesInUse(), 2 * MiB);
    EXPECT_EQ(pool.availableGroups(), 1);
}

TEST_F(PagePoolTest, DeviceSmallerThanBudgetShrinks)
{
    // Budget claims 32MB but the device only has 16MB: the pool warns
    // and shrinks instead of crashing.
    PagePool pool(driver_, PageGroup::k2MB, 32 * MiB);
    EXPECT_EQ(pool.totalGroups(), 8); // 16MB device / 2MB
}

TEST_F(PagePoolTest, DtorReturnsPhysicalMemory)
{
    {
        PagePool pool(driver_, PageGroup::k256KB, 1 * MiB);
        EXPECT_EQ(driver_.physBytesInUse(), 1 * MiB);
    }
    EXPECT_EQ(driver_.physBytesInUse(), 0u);
    EXPECT_EQ(driver_.numLiveHandles(), 0u);
}

} // namespace
} // namespace vattn::core
