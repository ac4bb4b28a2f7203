/**
 * @file
 * Per-layer sliding windows: Config::validate() rejection messages
 * for inconsistent window lists, and the KvGeometry per-layer
 * arithmetic (dead/live window splits and per-layer handle sums over
 * the one per-token footprint).
 */

#include <gtest/gtest.h>

#include "core/kv_geometry.hh"

namespace vattn::core
{
namespace
{

/** 4 layers, 2 heads, dim 8, fp16: 32B/token/buffer; 64KB group =
 *  2048 tokens per group per buffer. Layers 1 and 3 slide with a
 *  deliberately group-UNaligned 3000-token window. */
Config
windowConfig()
{
    Config config;
    config.num_layers = 4;
    config.num_kv_heads = 2;
    config.head_dim = 8;
    config.bytes_per_elem = 2;
    config.max_batch_size = 4;
    config.max_context_len = 16384;
    config.page_group = PageGroup::k64KB;
    config.eager_allocation = false;
    config.overlap_allocation = false;
    config.layer_window_tokens = {0, 3000, 0, 3000};
    return config;
}

// ---- Config::validate(): actionable window-list rejections ----------

TEST(WindowConfigValidate, AcceptsTheWindowedSpec)
{
    EXPECT_TRUE(windowConfig().validate().isOk());
}

TEST(WindowConfigValidate, RejectsSpecListLengthMismatch)
{
    auto config = windowConfig();
    config.layer_window_tokens.resize(2);
    const auto status = config.validate();
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("2 entries"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("num_layers is 4"),
              std::string::npos);
}

TEST(WindowConfigValidate, RejectsNegativeWindow)
{
    auto config = windowConfig();
    config.layer_window_tokens[1] = -1;
    const auto status = config.validate();
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("layer 1"), std::string::npos);
    EXPECT_NE(status.message().find("negative"), std::string::npos)
        << status.message();
}

TEST(WindowConfigValidate, RejectsWindowWiderThanContext)
{
    auto config = windowConfig();
    config.layer_window_tokens[3] = config.max_context_len + 1;
    const auto status = config.validate();
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("exceeds max_context_len"),
              std::string::npos)
        << status.message();
}

TEST(WindowConfigValidate, RejectsTensorSlicingWithWindows)
{
    auto config = windowConfig();
    config.tensor_slicing = true;
    const auto status = config.validate();
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("tensor_slicing"),
              std::string::npos)
        << status.message();
}

TEST(WindowGeometry, PerLayerBasics)
{
    const KvGeometry geom(windowConfig());
    EXPECT_EQ(geom.numBuffers(), 8);
    EXPECT_TRUE(geom.hasWindows());
    EXPECT_EQ(geom.layerOfBuffer(1), 1); // K buffer of layer 1
    EXPECT_EQ(geom.layerOfBuffer(5), 1); // V buffer of layer 1
    EXPECT_EQ(geom.windowTokens(0), 0);
    EXPECT_EQ(geom.windowTokens(1), 3000);
    EXPECT_EQ(geom.tokensPerGroup(), 2048);
}

TEST(WindowGeometry, DeadLeadFloorsAtTheStraddledGroup)
{
    const KvGeometry geom(windowConfig());
    // Window not yet full: nothing is dead.
    EXPECT_EQ(geom.deadLeadGroups(1, 2048), 0);
    EXPECT_EQ(geom.deadLeadGroups(1, 3000), 0);
    // 5000 tokens: 2000 dead tokens < 1 group, the straddled group
    // stays mapped.
    EXPECT_EQ(geom.deadLeadGroups(1, 5000), 0);
    // 8192 tokens: floor((8192-3000)/2048) = 2 fully dead groups;
    // group 2 is straddled by the window and stays.
    EXPECT_EQ(geom.deadLeadGroups(1, 8192), 2);
    EXPECT_EQ(geom.groupsForTokens(8192), 4);
    EXPECT_EQ(geom.liveGroupsForTokens(1, 8192), 2);
    // Full-attention layers never shed anything.
    EXPECT_EQ(geom.deadLeadGroups(0, 16384), 0);
}

TEST(WindowGeometry, HandleSumsSplitDeadFromFrontier)
{
    const KvGeometry geom(windowConfig());
    // At 8192 tokens: full layers (0, 2) map 4 groups on each of
    // their 2 buffers; windowed layers (1, 3) map only the 2 live
    // groups on each of theirs.
    EXPECT_EQ(geom.handlesForTokens(8192), 2 * 2 * 4 + 2 * 2 * 2);
    EXPECT_EQ(geom.frontierHandlesForTokens(8192), 8 * 4);
    // physBytes counts live mappings only.
    EXPECT_EQ(geom.physBytesForTokens(8192),
              static_cast<u64>(24) * 64 * KiB);
}

TEST(WindowGeometry, UniformWrappersStillServeWindowedSpecs)
{
    // Windowed models keep the one block size and per-buffer shape:
    // windows decide what stays mapped, not how a token is laid out.
    const KvGeometry geom(windowConfig());
    EXPECT_EQ(geom.tokensPerGroup(), 2048);
    EXPECT_EQ(geom.tokenBytesPerBuffer(), 32u);
    EXPECT_EQ(geom.perRequestBytes(), 16384u * 32u);
}

} // namespace
} // namespace vattn::core
