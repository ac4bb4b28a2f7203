/**
 * @file
 * Per-layer heterogeneous KV geometries: Config::validate() rejection
 * messages for inconsistent per-layer specs, and the KvGeometry
 * per-layer arithmetic (dead/live window splits, per-layer handle
 * sums, and the uniform-wrapper panic on heterogeneous footprints).
 */

#include <gtest/gtest.h>

#include "core/kv_geometry.hh"
#include "test_util.hh"

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
    config.layers.assign(4, LayerKvSpec{});
    config.layers[1].kind = AttentionKind::kSlidingWindow;
    config.layers[1].window_tokens = 3000;
    config.layers[3].kind = AttentionKind::kSlidingWindow;
    config.layers[3].window_tokens = 3000;
    return config;
}

// ---- Config::validate(): actionable per-layer rejections ------------

TEST(WindowConfigValidate, AcceptsTheWindowedSpec)
{
    EXPECT_TRUE(windowConfig().validate().isOk());
}

TEST(WindowConfigValidate, RejectsSpecListLengthMismatch)
{
    auto config = windowConfig();
    config.layers.resize(2);
    const auto status = config.validate();
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("2 entries"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("num_layers is 4"),
              std::string::npos);
}

TEST(WindowConfigValidate, RejectsSlidingLayerWithoutWindow)
{
    auto config = windowConfig();
    config.layers[1].window_tokens = 0;
    const auto status = config.validate();
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("layer 1"), std::string::npos);
    EXPECT_NE(status.message().find("window_tokens > 0"),
              std::string::npos)
        << status.message();
}

TEST(WindowConfigValidate, RejectsWindowWiderThanContext)
{
    auto config = windowConfig();
    config.layers[3].window_tokens = config.max_context_len + 1;
    const auto status = config.validate();
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("exceeds max_context_len"),
              std::string::npos)
        << status.message();
}

TEST(WindowConfigValidate, RejectsWindowOnFullAttentionLayer)
{
    auto config = windowConfig();
    config.layers[0].window_tokens = 512;
    const auto status = config.validate();
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("only meaningful for"),
              std::string::npos)
        << status.message();
}

TEST(WindowConfigValidate, RejectsNonPositiveResolvedShape)
{
    auto config = windowConfig();
    config.layers[2].kv_heads = -1;
    const auto status = config.validate();
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("layer 2"), std::string::npos);
    EXPECT_NE(status.message().find("positive"), std::string::npos);

    auto config2 = windowConfig();
    config2.layers[0].bytes_per_elem = 3;
    const auto status2 = config2.validate();
    ASSERT_FALSE(status2.isOk());
    EXPECT_NE(status2.message().find("2 or 4"), std::string::npos);
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

TEST(WindowConfigValidate, RejectsPrefixCachingOnMixedFootprints)
{
    auto config = windowConfig();
    config.prefix_caching = true;
    // Windows alone are fine...
    EXPECT_TRUE(config.validate().isOk());
    // ...but a per-layer head-count change is not.
    config.layers[2].kv_heads = 4;
    const auto status = config.validate();
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("prefix_caching"),
              std::string::npos)
        << status.message();
}

// ---- KvGeometry: per-layer arithmetic -------------------------------

TEST(WindowGeometry, PerLayerBasics)
{
    const KvGeometry geom(windowConfig());
    EXPECT_EQ(geom.numBuffers(), 8);
    EXPECT_TRUE(geom.hasWindows());
    EXPECT_TRUE(geom.uniformFootprint());
    EXPECT_EQ(geom.layerOfBuffer(1), 1); // K buffer of layer 1
    EXPECT_EQ(geom.layerOfBuffer(5), 1); // V buffer of layer 1
    EXPECT_EQ(geom.windowTokens(0), 0);
    EXPECT_EQ(geom.windowTokens(1), 3000);
    EXPECT_EQ(geom.tokensPerGroup(1), 2048);
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
    EXPECT_EQ(geom.groupsForTokens(1, 8192), 4);
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
    // Footprint-uniform windowed models keep the layer-blind block
    // size, and every layer reports the same per-buffer shape (windows
    // do not change it).
    const KvGeometry geom(windowConfig());
    EXPECT_EQ(geom.tokensPerGroup(), 2048);
    for (int layer : {0, 1}) {
        EXPECT_EQ(geom.tokenBytesPerBuffer(layer), 32u);
        EXPECT_EQ(geom.perRequestBytes(layer), 16384u * 32u);
    }
}

TEST(WindowGeometry, UniformWrappersPanicOnHeterogeneousFootprint)
{
    auto config = windowConfig();
    config.layers[2].kv_heads = 4; // 64B/token on layer 2 only
    ASSERT_TRUE(config.validate().isOk());
    const KvGeometry geom(config);
    EXPECT_FALSE(geom.uniformFootprint());
    // Per-layer accessors answer...
    EXPECT_EQ(geom.tokenBytesPerBuffer(2), 64u);
    EXPECT_EQ(geom.tokensPerGroup(2), 1024);
    // ...the layer-blind block size refuses.
    test::ScopedThrowErrors throw_errors;
    EXPECT_THROW(geom.tokensPerGroup(), SimError);
}

} // namespace
} // namespace vattn::core
