#include <gtest/gtest.h>

#include "cuvmm/driver.hh"
#include "paged/block_manager.hh"
#include "paged/block_table.hh"
#include "paged/paged_kv_cache.hh"
#include "test_util.hh"

namespace vattn::paged
{
namespace
{

TEST(BlockManager, AllocFreeCycle)
{
    BlockManager manager(8, 16);
    EXPECT_EQ(manager.numFree(), 8);
    auto a = manager.allocBlock();
    auto b = manager.allocBlock();
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_NE(a.value(), b.value());
    EXPECT_EQ(manager.numFree(), 6);
    EXPECT_TRUE(manager.freeBlock(a.value()).isOk());
    EXPECT_EQ(manager.numFree(), 7);
    EXPECT_TRUE(test::auditClean(manager));
}

TEST(BlockManager, ExhaustionReturnsOom)
{
    BlockManager manager(2, 16);
    ASSERT_TRUE(manager.allocBlock().isOk());
    ASSERT_TRUE(manager.allocBlock().isOk());
    EXPECT_EQ(manager.allocBlock().code(), ErrorCode::kOutOfMemory);
}

TEST(BlockManager, RefCounting)
{
    BlockManager manager(4, 16);
    auto block = manager.allocBlock();
    ASSERT_TRUE(block.isOk());
    EXPECT_TRUE(manager.addRef(block.value()).isOk());
    EXPECT_EQ(manager.refCount(block.value()), 2);
    EXPECT_TRUE(manager.freeBlock(block.value()).isOk());
    EXPECT_EQ(manager.numFree(), 3); // still referenced
    EXPECT_TRUE(manager.freeBlock(block.value()).isOk());
    EXPECT_EQ(manager.numFree(), 4);
    EXPECT_FALSE(manager.freeBlock(block.value()).isOk()); // double free
    EXPECT_FALSE(manager.addRef(block.value()).isOk());
}

TEST(BlockManager, BlocksForTokens)
{
    BlockManager manager(100, 16);
    EXPECT_EQ(manager.blocksFor(0), 0);
    EXPECT_EQ(manager.blocksFor(1), 1);
    EXPECT_EQ(manager.blocksFor(16), 1);
    EXPECT_EQ(manager.blocksFor(17), 2);
    EXPECT_EQ(manager.blocksFor(160), 10);
}

TEST(RequestBlocks, GrowsMonotonically)
{
    BlockManager manager(10, 16);
    RequestBlocks blocks(&manager);
    ASSERT_TRUE(blocks.ensureTokens(20).isOk()); // 2 blocks
    EXPECT_EQ(blocks.blocks().size(), 2u);
    ASSERT_TRUE(blocks.ensureTokens(10).isOk()); // no shrink
    EXPECT_EQ(blocks.blocks().size(), 2u);
    ASSERT_TRUE(blocks.ensureTokens(64).isOk());
    EXPECT_EQ(blocks.blocks().size(), 4u);
    EXPECT_EQ(blocks.numTokensCapacity(), 64);
    blocks.releaseAll();
    EXPECT_EQ(manager.numFree(), 10);
}

TEST(RequestBlocks, DtorReleases)
{
    BlockManager manager(10, 16);
    {
        RequestBlocks blocks(&manager);
        ASSERT_TRUE(blocks.ensureTokens(100).isOk());
        EXPECT_EQ(manager.numFree(), 3);
    }
    EXPECT_EQ(manager.numFree(), 10);
}

TEST(RequestBlocks, OomSurfacedMidGrowth)
{
    BlockManager manager(3, 16);
    RequestBlocks blocks(&manager);
    const auto status = blocks.ensureTokens(100); // needs 7
    EXPECT_EQ(status.code(), ErrorCode::kOutOfMemory);
    // Partial growth retained (vLLM would preempt at this point).
    EXPECT_EQ(blocks.blocks().size(), 3u);
}

TEST(PaddedBlockTable, PadsToLongestRequest)
{
    std::vector<i32> r0 = {5};
    std::vector<i32> r1 = {1, 2, 3, 4};
    auto table = PaddedBlockTable::build({&r0, &r1});
    EXPECT_EQ(table.batch, 2);
    EXPECT_EQ(table.max_blocks, 4);
    // The padding is the §3.3.2 cost driver: 8 slots for 5 blocks.
    EXPECT_EQ(table.numEntries(), 8);
    EXPECT_EQ(table.at(0, 0), 5);
    EXPECT_EQ(table.at(0, 1), -1);
    EXPECT_EQ(table.at(1, 3), 4);
}

TEST(CompressedBlockTable, CsrLayout)
{
    std::vector<i32> r0 = {5};
    std::vector<i32> r1 = {1, 2, 3, 4};
    auto table = CompressedBlockTable::build({&r0, &r1});
    EXPECT_EQ(table.batch(), 2);
    EXPECT_EQ(table.numEntries(), 5); // no padding
    auto [begin0, end0] = table.row(0);
    EXPECT_EQ(end0 - begin0, 1);
    EXPECT_EQ(*begin0, 5);
    auto [begin1, end1] = table.row(1);
    EXPECT_EQ(end1 - begin1, 4);
    EXPECT_EQ(begin1[2], 3);
}

TEST(BlockTables, PaddedCostExceedsCsrWithSkew)
{
    // One long and many short requests: exactly the pathological
    // padding case the paper describes.
    std::vector<i32> longreq(1000);
    std::vector<i32> shortreq = {1};
    std::vector<const std::vector<i32> *> batch;
    batch.push_back(&longreq);
    for (int i = 0; i < 31; ++i) {
        batch.push_back(&shortreq);
    }
    auto padded = PaddedBlockTable::build(batch);
    auto csr = CompressedBlockTable::build(batch);
    EXPECT_EQ(padded.numEntries(), 32 * 1000);
    EXPECT_EQ(csr.numEntries(), 1000 + 31);
    EXPECT_GT(padded.numEntries(), 30 * csr.numEntries());
}

class PagedCacheTest : public ::testing::Test
{
  protected:
    PagedCacheTest() : device_(makeConfig()), driver_(device_) {}

    static gpu::GpuDevice::Config
    makeConfig()
    {
        gpu::GpuDevice::Config config;
        config.mem_bytes = 256 * MiB;
        return config;
    }

    gpu::GpuDevice device_;
    cuvmm::Driver driver_;
};

TEST_F(PagedCacheTest, PoolsCommittedUpFront)
{
    PagedKvCache::Config config;
    config.num_layers = 2;
    config.num_kv_heads = 2;
    config.head_dim = 8;
    config.block_size = 16;
    config.num_blocks = 32;
    PagedKvCache cache(driver_, config);

    // 2 layers x {K,V} x [32, 16, 2, 8] fp16.
    EXPECT_EQ(cache.committedBytes(), 2u * 2 * 32 * 16 * 2 * 8 * 2);
    // All of it is physically committed immediately (cudaMalloc
    // reservation-based model) — before any request arrived.
    EXPECT_GE(driver_.physBytesInUse(), cache.committedBytes());
    EXPECT_TRUE(cache.kPool(0).fullyBacked());
    EXPECT_TRUE(cache.vPool(1).fullyBacked());
}

TEST_F(PagedCacheTest, ViewReadsWhatWriterStored)
{
    PagedKvCache::Config config;
    config.num_layers = 1;
    config.num_kv_heads = 2;
    config.head_dim = 4;
    config.block_size = 8;
    config.num_blocks = 8;
    PagedKvCache cache(driver_, config);

    auto &manager = cache.blockManager();
    RequestBlocks blocks(&manager);
    ASSERT_TRUE(blocks.ensureTokens(20).isOk());

    auto view = cache.view(blocks.blocks(), 0);
    float in[4] = {1, 2, 3, 4};
    view.storeK(17, 1, in); // token 17 lives in the third block
    float out[4] = {};
    view.loadK(17, 1, out);
    for (int i = 0; i < 4; ++i) {
        EXPECT_FLOAT_EQ(out[i], in[i]);
    }
}

} // namespace
} // namespace vattn::paged
