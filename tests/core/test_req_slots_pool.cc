#include <gtest/gtest.h>

#include <vector>

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
    EXPECT_EQ(slots.numActive(), 1);
    EXPECT_EQ(slots.firstFree(), 1);

    ASSERT_TRUE(slots.moveToCached(0).isOk());
    EXPECT_EQ(slots.state(0), SlotState::kCached);
    EXPECT_EQ(slots.numCached(), 1);

    // Cached slots can be re-activated (deferred reclamation reuse).
    ASSERT_TRUE(slots.activate(0).isOk());
    EXPECT_EQ(slots.state(0), SlotState::kActive);

    ASSERT_TRUE(slots.moveToFree(0).isOk());
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
