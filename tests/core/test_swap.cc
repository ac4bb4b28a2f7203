/**
 * @file
 * Host-memory KV swap tier at the core layer: swapOutReq/swapInReq on
 * core::VAttention (page-group granularity over the CUDA-VMM
 * substrate) plus the PagePool host-page accounting behind them. The
 * headline property is the paper-substrate advantage: a swapped slot's
 * VIRTUAL layout never changes, so swap-in is remap + copy only.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/prefix_hash.hh"
#include "core/vattention.hh"
#include "test_util.hh"

namespace vattn::core
{
namespace
{

/** 2 layers, 2 heads, dim 8, fp16: 32B/token/buffer; 64KB group =
 *  2048 tokens; 4 buffers -> one "group row" = 4 handles = 256KB. */
Config
smallConfig()
{
    Config config;
    config.num_layers = 2;
    config.num_kv_heads = 2;
    config.head_dim = 8;
    config.bytes_per_elem = 2;
    config.max_batch_size = 4;
    config.max_context_len = 8192;
    config.page_group = PageGroup::k64KB;
    config.eager_allocation = false;
    config.overlap_allocation = false;
    config.deferred_reclamation = true;
    config.phys_budget_bytes = 8 * MiB;
    config.host_swap_bytes = 8 * MiB;
    return config;
}

class CoreSwapTest : public ::testing::Test
{
  protected:
    CoreSwapTest() : device_(makeConfig()), driver_(device_) {}

    static gpu::GpuDevice::Config
    makeConfig()
    {
        gpu::GpuDevice::Config config;
        config.mem_bytes = 64 * MiB;
        return config;
    }

    std::vector<i64>
    lens(i64 a, i64 b = 0, i64 c = 0, i64 d = 0)
    {
        return {a, b, c, d};
    }

    gpu::GpuDevice device_;
    cuvmm::Driver driver_;
};

TEST_F(CoreSwapTest, SwapOutFreesDeviceAndStashesOnHost)
{
    VAttention vattn(driver_, smallConfig());
    auto req = vattn.allocReqId();
    ASSERT_TRUE(req.isOk());
    const int r1 = req.value();
    ASSERT_TRUE(vattn.step(lens(3000)).status.isOk());
    ASSERT_EQ(vattn.groupsMapped(r1), 2);
    const i64 pool_before = vattn.poolAvailableHandles();
    const u64 host_before = driver_.hostBytesInUse();

    ASSERT_TRUE(vattn.canSwapOut(r1));
    const auto out = vattn.swapOutReq(r1);
    ASSERT_TRUE(out.status.isOk()) << out.status.message();
    // 2 groups x 4 buffers moved, device fully released.
    EXPECT_EQ(out.handles, 8);
    EXPECT_EQ(out.bytes, 8u * 64 * KiB);
    EXPECT_GT(out.critical_ns, 0u);
    EXPECT_EQ(vattn.groupsMapped(r1), 0);
    EXPECT_EQ(vattn.swappedGroups(r1), 2);
    EXPECT_EQ(vattn.poolAvailableHandles(), pool_before + 8);
    EXPECT_EQ(vattn.hostGroupsInUse(), 8);
    EXPECT_GT(driver_.hostBytesInUse(), host_before);
    EXPECT_EQ(driver_.counters().copy_dtoh, 8u);
    // The slot stays leased: it cannot be handed to a new request.
    EXPECT_EQ(vattn.slots().state(r1), SlotState::kActive);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(CoreSwapTest, SwapInRemapsAndRestores)
{
    VAttention vattn(driver_, smallConfig());
    const int r1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(3000)).status.isOk());
    ASSERT_TRUE(vattn.swapOutReq(r1).status.isOk());

    ASSERT_TRUE(vattn.canSwapIn(r1));
    const auto in = vattn.swapInReq(r1);
    ASSERT_TRUE(in.status.isOk()) << in.status.message();
    EXPECT_EQ(in.handles, 8);
    EXPECT_EQ(in.bytes, 8u * 64 * KiB);
    EXPECT_EQ(vattn.groupsMapped(r1), 2);
    EXPECT_EQ(vattn.swappedGroups(r1), 0);
    // Host pages returned to the pool for the next victim.
    EXPECT_EQ(vattn.hostGroupsInUse(), 0);
    EXPECT_EQ(driver_.counters().copy_htod, 8u);
    // The virtual layout survived: stepping to the same length needs
    // no further mapping work.
    const auto step = vattn.step(lens(3000));
    ASSERT_TRUE(step.status.isOk());
    EXPECT_EQ(step.handles_mapped, 0);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(CoreSwapTest, SwapRoundTripKeepsVirtualAddresses)
{
    VAttention vattn(driver_, smallConfig());
    const int r1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(3000)).status.isOk());
    const Addr k_before = vattn.kCache(0, r1).baseVa();
    const Addr v_before = vattn.vCache(1, r1).baseVa();
    ASSERT_TRUE(vattn.swapOutReq(r1).status.isOk());
    ASSERT_TRUE(vattn.swapInReq(r1).status.isOk());
    // No allocator churn: the request's tensors are where they were.
    EXPECT_EQ(vattn.kCache(0, r1).baseVa(), k_before);
    EXPECT_EQ(vattn.vCache(1, r1).baseVa(), v_before);
}

TEST_F(CoreSwapTest, RefusesWhileAnotherSlotMapsThePages)
{
    auto config = smallConfig();
    config.prefix_caching = true;
    VAttention vattn(driver_, config);

    // r1 holds a registered 2048-token (1 aligned group) prefix.
    const int r1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(2500)).status.isOk());
    std::vector<i32> ids(2048);
    std::iota(ids.begin(), ids.end(), 0);
    vattn.registerPrefix(r1, PrefixKey{ids.data(), 2048}, 2048);

    // r2's prompt starts with r1's group and then diverges: it aliases
    // r1's aligned group via a live-to-live prefix hit.
    std::vector<i32> longer = ids;
    longer.resize(4000, 7);
    auto r2 = vattn.allocReqIdWithPrefix(PrefixKey{longer.data(), 4000},
                                         3999);
    ASSERT_TRUE(r2.isOk());
    const i64 cached = r2.value().cached_tokens;
    ASSERT_EQ(cached, 2048);
    ASSERT_GT(vattn.aliasedBytes(), 0u);

    // Neither end of the alias may swap out while the other maps the
    // physical group.
    EXPECT_FALSE(vattn.canSwapOut(r1));
    EXPECT_FALSE(vattn.canSwapOut(r2.value().slot));
    EXPECT_EQ(vattn.swapOutReq(r1).status.code(),
              ErrorCode::kFailedPrecondition);
    EXPECT_EQ(vattn.swapOutReq(r2.value().slot).status.code(),
              ErrorCode::kFailedPrecondition);
    EXPECT_EQ(driver_.counters().copy_dtoh, 0u);

    // Freeing r2 parks its slot as a cached prefix entry that still
    // aliases r1's group. Only a live sharer pins r1: swap-out frees
    // the cached entry, and r1's pages leave the device.
    ASSERT_TRUE(vattn.freeReqId(r2.value().slot).isOk());
    EXPECT_TRUE(vattn.canSwapOut(r1));
    EXPECT_TRUE(vattn.swapOutReq(r1).status.isOk());
    EXPECT_EQ(vattn.slots().state(r2.value().slot), SlotState::kFree);
    EXPECT_EQ(vattn.aliasedBytes(), 0u);
    EXPECT_EQ(vattn.physBytesMapped(), 0u);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(CoreSwapTest, HostBudgetBoundsSwapOut)
{
    auto config = smallConfig();
    config.host_swap_bytes = 4 * 64 * KiB; // one group row only
    VAttention vattn(driver_, config);
    const int r1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(3000)).status.isOk()); // 2 group rows
    EXPECT_FALSE(vattn.canSwapOut(r1));
    EXPECT_EQ(vattn.swapOutReq(r1).status.code(),
              ErrorCode::kOutOfMemory);
    // Nothing moved, nothing leaked.
    EXPECT_EQ(vattn.hostGroupsInUse(), 0);
    EXPECT_EQ(vattn.groupsMapped(r1), 2);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(CoreSwapTest, DisabledTierRefusesSwaps)
{
    auto config = smallConfig();
    config.host_swap_bytes = 0;
    VAttention vattn(driver_, config);
    const int r1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(1000)).status.isOk());
    EXPECT_FALSE(vattn.canSwapOut(r1));
    EXPECT_EQ(vattn.swapOutReq(r1).status.code(),
              ErrorCode::kOutOfMemory);
}

TEST_F(CoreSwapTest, SwapInStealsCachedGroupsLikeStep)
{
    auto config = smallConfig();
    config.phys_budget_bytes = 1 * MiB; // 16 handles = 4 group rows
    VAttention vattn(driver_, config);
    const int r1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(3000)).status.isOk()); // 2 rows
    ASSERT_TRUE(vattn.swapOutReq(r1).status.isOk());

    // Fill the whole pool with a max-context request, then free it:
    // its groups stay cached (deferred reclamation), free pool empty.
    const int r2 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(0, 8192)).status.isOk()); // 4 rows
    ASSERT_TRUE(vattn.freeReqId(r2).isOk());
    ASSERT_EQ(vattn.poolFreeHandles(), 0);
    ASSERT_EQ(vattn.cachedHandles(), 16);

    // Swap-in must reclaim cached groups exactly as step() would.
    ASSERT_TRUE(vattn.canSwapIn(r1));
    const auto in = vattn.swapInReq(r1);
    ASSERT_TRUE(in.status.isOk()) << in.status.message();
    EXPECT_EQ(vattn.groupsMapped(r1), 2);
    EXPECT_LT(vattn.cachedHandles(), 16);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(CoreSwapTest, FreeReqIdAbandonsStash)
{
    VAttention vattn(driver_, smallConfig());
    const int r1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(3000)).status.isOk());
    ASSERT_TRUE(vattn.swapOutReq(r1).status.isOk());
    ASSERT_EQ(vattn.hostGroupsInUse(), 8);

    ASSERT_TRUE(vattn.freeReqId(r1).isOk());
    // The stash is discarded and its host pages return to the pool;
    // the slot is reusable (no mappings survived the swap-out).
    EXPECT_EQ(vattn.hostGroupsInUse(), 0);
    EXPECT_EQ(vattn.slots().state(r1), SlotState::kFree);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(CoreSwapTest, DoubleSwapAndBadStatesAreErrors)
{
    VAttention vattn(driver_, smallConfig());
    const int r1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(1000)).status.isOk());
    // Not swapped yet: swap-in refuses.
    EXPECT_EQ(vattn.swapInReq(r1).status.code(),
              ErrorCode::kFailedPrecondition);
    ASSERT_TRUE(vattn.swapOutReq(r1).status.isOk());
    // Already swapped: a second swap-out refuses.
    EXPECT_EQ(vattn.swapOutReq(r1).status.code(),
              ErrorCode::kFailedPrecondition);
    // Inactive / out-of-range ids.
    EXPECT_EQ(vattn.swapOutReq(3).status.code(),
              ErrorCode::kFailedPrecondition);
    EXPECT_EQ(vattn.swapOutReq(-1).status.code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(vattn.swapInReq(99).status.code(),
              ErrorCode::kInvalidArgument);
    const auto &stats = vattn.stats();
    EXPECT_EQ(stats.swap_out_reqs, 1);
    EXPECT_EQ(stats.swap_in_reqs, 0);
    EXPECT_EQ(stats.swap_out_bytes, 4u * 64 * KiB);
}

} // namespace
} // namespace vattn::core
