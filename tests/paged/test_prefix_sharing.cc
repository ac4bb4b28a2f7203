#include <gtest/gtest.h>

#include "attn/kernels.hh"
#include "common/rng.hh"
#include "cuvmm/driver.hh"
#include "paged/paged_kv_cache.hh"
#include "test_util.hh"

namespace vattn::paged
{
namespace
{

class PrefixSharingTest : public ::testing::Test
{
  protected:
    PrefixSharingTest() : device_(makeConfig()), driver_(device_)
    {
        PagedKvCache::Config config;
        config.num_layers = 2;
        config.num_kv_heads = 2;
        config.head_dim = 8;
        config.block_size = 16;
        config.num_blocks = 32;
        cache_ = std::make_unique<PagedKvCache>(driver_, config);
    }

    static gpu::GpuDevice::Config
    makeConfig()
    {
        gpu::GpuDevice::Config config;
        config.mem_bytes = 64 * MiB;
        return config;
    }

    gpu::GpuDevice device_;
    cuvmm::Driver driver_;
    std::unique_ptr<PagedKvCache> cache_;
};

TEST_F(PrefixSharingTest, ShareFromRefCountsWholeBlocks)
{
    auto &manager = cache_->blockManager();
    RequestBlocks parent(&manager);
    ASSERT_TRUE(parent.ensureTokens(50).isOk()); // 4 blocks

    RequestBlocks child(&manager);
    // 40-token prefix: only 2 FULL blocks (32 tokens) can be shared.
    ASSERT_TRUE(child.shareFrom(parent, 40).isOk());
    EXPECT_EQ(child.blocks().size(), 2u);
    EXPECT_EQ(child.blocks()[0], parent.blocks()[0]);
    EXPECT_EQ(child.blocks()[1], parent.blocks()[1]);
    EXPECT_EQ(manager.refCount(parent.blocks()[0]), 2);
    EXPECT_EQ(manager.refCount(parent.blocks()[2]), 1);
    // Shared blocks don't consume new pool capacity.
    EXPECT_EQ(manager.numAllocated(), 4);
    EXPECT_TRUE(test::auditClean(manager));
}

TEST_F(PrefixSharingTest, ShareFromValidation)
{
    auto &manager = cache_->blockManager();
    RequestBlocks parent(&manager);
    ASSERT_TRUE(parent.ensureTokens(32).isOk());
    RequestBlocks child(&manager);
    ASSERT_TRUE(child.ensureTokens(16).isOk());
    // Non-empty child refused.
    EXPECT_FALSE(child.shareFrom(parent, 16).isOk());
    // Prefix longer than the parent refused.
    RequestBlocks other(&manager);
    EXPECT_FALSE(other.shareFrom(parent, 200).isOk());
}

TEST_F(PrefixSharingTest, SharedBlocksServeBothRequests)
{
    auto &manager = cache_->blockManager();
    Rng rng(5);

    RequestBlocks parent(&manager);
    ASSERT_TRUE(parent.ensureTokens(32).isOk());
    auto parent_view = cache_->view(parent.blocks(), 0);
    std::vector<float> k(32 * 2 * 8);
    std::vector<float> v(32 * 2 * 8);
    for (auto &x : k) {
        x = static_cast<float>(rng.uniform(-1, 1));
    }
    for (auto &x : v) {
        x = static_cast<float>(rng.uniform(-1, 1));
    }
    attn::appendKv(parent_view, 0, 32, 2, 8, k.data(), v.data());

    RequestBlocks child(&manager);
    ASSERT_TRUE(child.shareFrom(parent, 32).isOk());
    auto child_view = cache_->view(child.blocks(), 0);
    // The child reads the parent's prefix without any copies.
    float expect[8];
    float got[8];
    for (i64 t = 0; t < 32; ++t) {
        parent_view.loadK(t, 1, expect);
        child_view.loadK(t, 1, got);
        for (int c = 0; c < 8; ++c) {
            ASSERT_FLOAT_EQ(got[c], expect[c]) << "token " << t;
        }
    }
}

TEST_F(PrefixSharingTest, CopyOnWriteIsolatesWriter)
{
    auto &manager = cache_->blockManager();
    RequestBlocks parent(&manager);
    ASSERT_TRUE(parent.ensureTokens(16).isOk());
    auto parent_view = cache_->view(parent.blocks(), 1);
    float row[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    parent_view.storeK(3, 0, row);

    RequestBlocks child(&manager);
    ASSERT_TRUE(child.shareFrom(parent, 16).isOk());
    const i32 shared_block = child.blocks()[0];

    // COW before writing into the shared region.
    auto fresh = cache_->ensurePrivate(child, 3);
    ASSERT_TRUE(fresh.isOk());
    EXPECT_NE(fresh.value(), shared_block);
    EXPECT_EQ(manager.refCount(shared_block), 1); // parent only
    EXPECT_EQ(manager.refCount(fresh.value()), 1);

    // The copy carried the data...
    auto child_view = cache_->view(child.blocks(), 1);
    float got[8];
    child_view.loadK(3, 0, got);
    for (int c = 0; c < 8; ++c) {
        EXPECT_FLOAT_EQ(got[c], row[c]);
    }
    // ...and subsequent writes do not leak into the parent.
    float updated[8] = {9, 9, 9, 9, 9, 9, 9, 9};
    child_view.storeK(3, 0, updated);
    parent_view.loadK(3, 0, got);
    for (int c = 0; c < 8; ++c) {
        EXPECT_FLOAT_EQ(got[c], row[c]);
    }
}

TEST_F(PrefixSharingTest, EnsurePrivateOnPrivateBlockIsNoop)
{
    auto &manager = cache_->blockManager();
    RequestBlocks blocks(&manager);
    ASSERT_TRUE(blocks.ensureTokens(16).isOk());
    const i32 original = blocks.blocks()[0];
    auto result = cache_->ensurePrivate(blocks, 5);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), original);
    EXPECT_EQ(manager.numAllocated(), 1);
}

TEST_F(PrefixSharingTest, ReleaseOrderIndependent)
{
    auto &manager = cache_->blockManager();
    {
        RequestBlocks parent(&manager);
        ASSERT_TRUE(parent.ensureTokens(48).isOk());
        {
            RequestBlocks child(&manager);
            ASSERT_TRUE(child.shareFrom(parent, 48).isOk());
            // Parent dies first; blocks survive via the child's refs.
            parent.releaseAll();
            EXPECT_EQ(manager.numAllocated(), 3);
        }
        // Child died: everything back.
        EXPECT_EQ(manager.numAllocated(), 0);
    }
    EXPECT_TRUE(test::auditClean(manager));
}

TEST_F(PrefixSharingTest, CowUnderPoolPressure)
{
    test::ScopedThrowErrors guard;
    // Fill the pool so COW cannot allocate a fresh block.
    auto &manager = cache_->blockManager();
    RequestBlocks parent(&manager);
    ASSERT_TRUE(
        parent.ensureTokens(manager.numBlocks() * 16).isOk());
    RequestBlocks child(&manager);
    ASSERT_TRUE(child.shareFrom(parent, 16).isOk());
    auto result = cache_->ensurePrivate(child, 0);
    EXPECT_FALSE(result.isOk());
    EXPECT_EQ(result.code(), ErrorCode::kOutOfMemory);
}

} // namespace
} // namespace vattn::paged
