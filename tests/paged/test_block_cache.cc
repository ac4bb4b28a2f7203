#include <gtest/gtest.h>

#include "paged/block_manager.hh"
#include "test_util.hh"

namespace vattn::paged
{
namespace
{

TEST(BlockCache, DisabledModeFreesEagerly)
{
    BlockManager manager(8, 16, /*enable_prefix_cache=*/false);
    auto block = manager.allocBlock();
    ASSERT_TRUE(block.isOk());
    manager.setBlockHash(block.value(), 42); // no-op when disabled
    ASSERT_TRUE(manager.freeBlock(block.value()).isOk());
    EXPECT_EQ(manager.numFree(), 8);
    EXPECT_EQ(manager.numEvictable(), 0);
    EXPECT_EQ(manager.lookupHash(42), -1);
    EXPECT_TRUE(test::auditClean(manager));
}

TEST(BlockCache, HashedBlockParksOnReleaseAndRevives)
{
    BlockManager manager(4, 16, /*enable_prefix_cache=*/true);
    auto block = manager.allocBlock();
    ASSERT_TRUE(block.isOk());
    manager.setBlockHash(block.value(), 7);
    ASSERT_TRUE(manager.freeBlock(block.value()).isOk());
    // Parked, not freed: still allocatable, still findable.
    EXPECT_EQ(manager.numFree(), 3);
    EXPECT_EQ(manager.numEvictable(), 1);
    EXPECT_EQ(manager.numAllocatable(), 4);
    EXPECT_EQ(manager.numLive(), 0);
    EXPECT_EQ(manager.lookupHash(7), block.value());

    // A prefix hit revives it with a fresh reference.
    ASSERT_TRUE(manager.refSharedBlock(block.value()).isOk());
    EXPECT_EQ(manager.refCount(block.value()), 1);
    EXPECT_EQ(manager.numEvictable(), 0);
    EXPECT_EQ(manager.lookupHash(7), block.value());
    EXPECT_TRUE(test::auditClean(manager));
}

TEST(BlockCache, SharedLiveBlockRefCounts)
{
    BlockManager manager(4, 16, /*enable_prefix_cache=*/true);
    auto block = manager.allocBlock();
    ASSERT_TRUE(block.isOk());
    manager.setBlockHash(block.value(), 9);
    // A second request shares the live block.
    ASSERT_TRUE(manager.refSharedBlock(block.value()).isOk());
    EXPECT_EQ(manager.refCount(block.value()), 2);
    // Owner leaves: the sharer keeps the block live.
    ASSERT_TRUE(manager.freeBlock(block.value()).isOk());
    EXPECT_EQ(manager.refCount(block.value()), 1);
    EXPECT_EQ(manager.numEvictable(), 0);
    // Last reference: parked for future hits.
    ASSERT_TRUE(manager.freeBlock(block.value()).isOk());
    EXPECT_EQ(manager.numEvictable(), 1);
    EXPECT_TRUE(test::auditClean(manager));
}

TEST(BlockCache, AllocationEvictsLruCachedBlock)
{
    BlockManager manager(2, 16, /*enable_prefix_cache=*/true);
    auto a = manager.allocBlock();
    auto b = manager.allocBlock();
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    manager.setBlockHash(a.value(), 1);
    manager.setBlockHash(b.value(), 2);
    // Park a first, then b: a is the LRU eviction victim.
    ASSERT_TRUE(manager.freeBlock(a.value()).isOk());
    ASSERT_TRUE(manager.freeBlock(b.value()).isOk());
    EXPECT_EQ(manager.numEvictable(), 2);

    auto c = manager.allocBlock();
    ASSERT_TRUE(c.isOk());
    EXPECT_EQ(c.value(), a.value()); // oldest parked block reused
    EXPECT_EQ(manager.lookupHash(1), -1);
    EXPECT_EQ(manager.lookupHash(2), b.value());
    EXPECT_TRUE(test::auditClean(manager));

    // Exhaust the rest, then genuinely OOM.
    auto d = manager.allocBlock();
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(manager.allocBlock().code(), ErrorCode::kOutOfMemory);
}

TEST(BlockCache, NewerBlockSupersedesHashMapping)
{
    BlockManager manager(4, 16, /*enable_prefix_cache=*/true);
    auto a = manager.allocBlock();
    auto b = manager.allocBlock();
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    manager.setBlockHash(a.value(), 5);
    manager.setBlockHash(b.value(), 5); // same content, newer block
    EXPECT_EQ(manager.lookupHash(5), b.value());
    // The superseded block frees instead of parking (it would never
    // be found again).
    ASSERT_TRUE(manager.freeBlock(a.value()).isOk());
    EXPECT_EQ(manager.numEvictable(), 0);
    EXPECT_EQ(manager.numFree(), 3);
    ASSERT_TRUE(manager.freeBlock(b.value()).isOk());
    EXPECT_EQ(manager.numEvictable(), 1);
    EXPECT_TRUE(test::auditClean(manager));
}

TEST(BlockCache, SetBlockHashUnparksSupersededEvictableHolder)
{
    BlockManager manager(4, 16, /*enable_prefix_cache=*/true);
    auto a = manager.allocBlock();
    ASSERT_TRUE(a.isOk());
    manager.setBlockHash(a.value(), 21);
    ASSERT_TRUE(manager.freeBlock(a.value()).isOk());
    ASSERT_EQ(manager.numEvictable(), 1);

    // A fresh block recomputes the same content: the parked copy can
    // never be found again, so it must return to the free list (a
    // stale evictable entry would break the invariants forever).
    auto b = manager.allocBlock();
    ASSERT_TRUE(b.isOk());
    ASSERT_NE(b.value(), a.value());
    manager.setBlockHash(b.value(), 21);
    EXPECT_EQ(manager.lookupHash(21), b.value());
    EXPECT_EQ(manager.numEvictable(), 0);
    EXPECT_EQ(manager.numFree(), 3);
    EXPECT_TRUE(test::auditClean(manager));
    ASSERT_TRUE(manager.freeBlock(b.value()).isOk());
    EXPECT_TRUE(test::auditClean(manager));
}

TEST(BlockCache, AdoptedSharedBlocksSurviveParentRelease)
{
    BlockManager manager(8, 16, /*enable_prefix_cache=*/true);
    RequestBlocks parent(&manager);
    ASSERT_TRUE(parent.ensureTokens(32).isOk());
    manager.setBlockHash(parent.blocks()[0], 11);
    manager.setBlockHash(parent.blocks()[1], 12);

    RequestBlocks child(&manager);
    for (u64 hash : {u64{11}, u64{12}}) {
        const i32 block = manager.lookupHash(hash);
        ASSERT_GE(block, 0);
        ASSERT_TRUE(manager.refSharedBlock(block).isOk());
        child.adoptBlock(block);
    }
    parent.releaseAll();
    // Content still live through the child's references.
    EXPECT_EQ(manager.numLive(), 2);
    child.releaseAll();
    EXPECT_EQ(manager.numEvictable(), 2);
    EXPECT_TRUE(test::auditClean(manager));
}

TEST(BlockSwap, RoundTripMovesBlocksThroughTheCpuPool)
{
    BlockManager manager(4, 16, /*enable_prefix_cache=*/false,
                         /*num_cpu_blocks=*/2);
    EXPECT_EQ(manager.numCpuBlocks(), 2);
    EXPECT_EQ(manager.numCpuFree(), 2);

    auto block = manager.allocBlock();
    ASSERT_TRUE(block.isOk());
    auto cpu = manager.swapOutBlock(block.value());
    ASSERT_TRUE(cpu.isOk());
    // The device block is free again, the CPU block is occupied.
    EXPECT_EQ(manager.numFree(), 4);
    EXPECT_EQ(manager.numCpuInUse(), 1);
    EXPECT_TRUE(test::auditClean(manager));

    auto back = manager.swapInBlock(cpu.value());
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(manager.refCount(back.value()), 1);
    EXPECT_EQ(manager.numCpuFree(), 2);
    EXPECT_TRUE(test::auditClean(manager));
    manager.freeBlock(back.value()).expectOk("free");
}

TEST(BlockSwap, RefusesSharedAndFreeBlocks)
{
    BlockManager manager(4, 16, /*enable_prefix_cache=*/true,
                         /*num_cpu_blocks=*/4);
    auto block = manager.allocBlock();
    ASSERT_TRUE(block.isOk());
    manager.addRef(block.value()).expectOk("share");
    // Shared (prefix-aliased) blocks must stay resident.
    EXPECT_EQ(manager.swapOutBlock(block.value()).code(),
              ErrorCode::kFailedPrecondition);
    manager.freeBlock(block.value()).expectOk("unshare");
    // Refcount back to 1: swappable now.
    EXPECT_TRUE(manager.swapOutBlock(block.value()).isOk());
    // A free block has nothing to move.
    auto other = manager.allocBlock();
    ASSERT_TRUE(other.isOk());
    manager.freeBlock(other.value()).expectOk("free");
    EXPECT_EQ(manager.swapOutBlock(other.value()).code(),
              ErrorCode::kFailedPrecondition);
    EXPECT_TRUE(test::auditClean(manager));
}

TEST(BlockSwap, SwapOutDropsTheBlockHash)
{
    BlockManager manager(4, 16, /*enable_prefix_cache=*/true,
                         /*num_cpu_blocks=*/2);
    auto block = manager.allocBlock();
    ASSERT_TRUE(block.isOk());
    manager.setBlockHash(block.value(), 0xabcu);
    ASSERT_EQ(manager.lookupHash(0xabcu), block.value());
    auto cpu = manager.swapOutBlock(block.value());
    ASSERT_TRUE(cpu.isOk());
    // The content left the device: the hash may not match anymore.
    EXPECT_EQ(manager.lookupHash(0xabcu), -1);
    manager.freeCpuBlock(cpu.value()).expectOk("drop CPU block");
    EXPECT_EQ(manager.numCpuFree(), 2);
    EXPECT_TRUE(test::auditClean(manager));
}

TEST(BlockSwap, CpuPoolExhaustionAndDisabledPool)
{
    BlockManager manager(4, 16, /*enable_prefix_cache=*/false,
                         /*num_cpu_blocks=*/1);
    auto a = manager.allocBlock();
    auto b = manager.allocBlock();
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    ASSERT_TRUE(manager.swapOutBlock(a.value()).isOk());
    EXPECT_EQ(manager.swapOutBlock(b.value()).code(),
              ErrorCode::kOutOfMemory);

    BlockManager no_pool(4, 16);
    auto c = no_pool.allocBlock();
    ASSERT_TRUE(c.isOk());
    EXPECT_EQ(no_pool.swapOutBlock(c.value()).code(),
              ErrorCode::kOutOfMemory);
    EXPECT_EQ(no_pool.numCpuBlocks(), 0);
}

TEST(BlockSwap, SwapInEvictsCachedBlocksWhenDeviceIsFull)
{
    BlockManager manager(2, 16, /*enable_prefix_cache=*/true,
                         /*num_cpu_blocks=*/2);
    // One block swapped out...
    auto victim = manager.allocBlock();
    ASSERT_TRUE(victim.isOk());
    auto cpu = manager.swapOutBlock(victim.value());
    ASSERT_TRUE(cpu.isOk());
    // ...then fill the device with hashed blocks parked evictable.
    auto a = manager.allocBlock();
    auto b = manager.allocBlock();
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    manager.setBlockHash(a.value(), 1);
    manager.setBlockHash(b.value(), 2);
    manager.freeBlock(a.value()).expectOk("park a");
    manager.freeBlock(b.value()).expectOk("park b");
    ASSERT_EQ(manager.numFree(), 0);
    ASSERT_EQ(manager.numEvictable(), 2);
    // Swap-in must evict the LRU cached block to make room.
    auto back = manager.swapInBlock(cpu.value());
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(manager.numEvictable(), 1);
    EXPECT_TRUE(test::auditClean(manager));
}

} // namespace
} // namespace vattn::paged
