/**
 * @file
 * Dead-lead block handling in the paged layer: RequestBlocks'
 * advanceLeadTo frees the leading blocks a sliding window has killed
 * (parking hash-cached ones on the evictable LRU instead), keeps
 * indexing absolute with kNoBlock placeholders, never rewinds, and
 * lets fresh long requests skip the dead region without allocating it.
 */

#include <gtest/gtest.h>

#include "paged/block_manager.hh"
#include "test_util.hh"

namespace vattn::paged
{
namespace
{

TEST(RequestBlocksLead, AdvanceFreesLeadingBlocks)
{
    BlockManager manager(16, 16);
    RequestBlocks blocks(&manager);
    ASSERT_TRUE(blocks.ensureTokens(100).isOk()); // 7 blocks
    ASSERT_EQ(manager.numAllocated(), 7);

    blocks.advanceLeadTo(3);
    EXPECT_EQ(blocks.lead(), 3);
    EXPECT_EQ(blocks.liveBlockCount(), 4);
    EXPECT_EQ(manager.numAllocated(), 4);
    // Dead entries stay in the table as kNoBlock so logical indexing
    // remains absolute.
    EXPECT_EQ(blocks.blocks()[0], RequestBlocks::kNoBlock);
    EXPECT_EQ(blocks.blocks()[2], RequestBlocks::kNoBlock);
    EXPECT_NE(blocks.blocks()[3], RequestBlocks::kNoBlock);

    // The lead never rewinds.
    blocks.advanceLeadTo(1);
    EXPECT_EQ(blocks.lead(), 3);

    blocks.releaseAll();
    EXPECT_EQ(manager.numAllocated(), 0);
    EXPECT_EQ(blocks.lead(), 0);
}

TEST(RequestBlocksLead, FreshRequestSkipsTheDeadRegion)
{
    BlockManager manager(16, 16);
    RequestBlocks blocks(&manager);
    // A long prompt on a windowed layer group starts with its lead
    // already deep in the context: the dead region must never be
    // allocated at all.
    blocks.advanceLeadTo(5);
    EXPECT_EQ(blocks.lead(), 5);
    EXPECT_EQ(manager.numAllocated(), 0);

    ASSERT_TRUE(blocks.ensureTokens(7 * 16).isOk());
    EXPECT_EQ(manager.numAllocated(), 2); // blocks 5 and 6 only
    EXPECT_EQ(blocks.liveBlockCount(), 2);
    EXPECT_EQ(blocks.blocks()[4], RequestBlocks::kNoBlock);
    EXPECT_NE(blocks.blocks()[5], RequestBlocks::kNoBlock);
    EXPECT_TRUE(test::auditClean(manager));
}

TEST(RequestBlocksLead, HashCachedBlocksParkInsteadOfFreeing)
{
    BlockManager manager(16, 16, /*enable_prefix_cache=*/true);
    RequestBlocks blocks(&manager);
    ASSERT_TRUE(blocks.ensureTokens(4 * 16).isOk());
    const i32 hashed = blocks.blocks()[0];
    manager.setBlockHash(hashed, 0xabcdu);

    blocks.advanceLeadTo(2);
    // The hashed block survives on the evictable LRU (it may serve a
    // future prefix hit); the unhashed one goes straight to the free
    // list.
    EXPECT_EQ(manager.numEvictable(), 1);
    EXPECT_EQ(manager.lookupHash(0xabcdu), hashed);
    EXPECT_EQ(manager.refCount(hashed), 0);
    EXPECT_TRUE(test::auditClean(manager));
}

TEST(RequestBlocksLead, ShareFromRejectsTrimmedParents)
{
    BlockManager manager(16, 16, /*enable_prefix_cache=*/true);
    RequestBlocks parent(&manager);
    ASSERT_TRUE(parent.ensureTokens(4 * 16).isOk());
    parent.advanceLeadTo(2);

    RequestBlocks child(&manager);
    // A window-trimmed parent has no intact prefix to share.
    const auto status = child.shareFrom(parent, 16);
    EXPECT_FALSE(status.isOk());
}

} // namespace
} // namespace vattn::paged
