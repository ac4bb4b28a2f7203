#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "core/kv_allocator.hh"
#include "test_util.hh"

namespace vattn::core
{
namespace
{

/** Small model so tests run fast: 2 layers, 2 heads, dim 8, fp16.
 *  Token bytes per buffer = 2*8*2 = 32B; 64KB group = 2048 tokens. */
Config
smallConfig(PageGroup group = PageGroup::k64KB, bool slicing = false)
{
    Config config;
    config.num_layers = 2;
    config.num_kv_heads = 2;
    config.head_dim = 8;
    config.bytes_per_elem = 2;
    config.max_batch_size = 4;
    config.max_context_len = 8192; // 4 groups per buffer at 64KB
    config.page_group = group;
    config.tensor_slicing = slicing;
    config.eager_allocation = false;
    config.overlap_allocation = false;
    return config;
}

class KvAllocatorTest : public ::testing::Test
{
  protected:
    KvAllocatorTest() : device_(makeConfig()), driver_(device_) {}

    static gpu::GpuDevice::Config
    makeConfig()
    {
        gpu::GpuDevice::Config config;
        config.mem_bytes = 64 * MiB;
        return config;
    }

    gpu::GpuDevice device_;
    cuvmm::Driver driver_;
};

TEST_F(KvAllocatorTest, ReservesVirtualBuffersUpFront)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);

    // 2N = 4 buffers; each B * S_aligned.
    const auto &geom = allocator.geometry();
    EXPECT_EQ(geom.numBuffers(), 4);
    EXPECT_EQ(device_.vaSpace().numReservations(), 4u);
    EXPECT_EQ(device_.vaSpace().reservedBytes(),
              4 * geom.bufferBytes());
    // No physical memory mapped into the KV tensors yet.
    EXPECT_EQ(allocator.totalHandlesMapped(), 0);
    EXPECT_EQ(allocator.layerTensors().size(), 2u);
}

TEST_F(KvAllocatorTest, GrowMapsLockstepAcrossBuffers)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);

    ASSERT_TRUE(allocator.growTo(0, 2).isOk());
    EXPECT_EQ(allocator.groupsMapped(0), 2);
    // 2 groups x 4 buffers = 8 handles.
    EXPECT_EQ(allocator.totalHandlesMapped(), 8);
    EXPECT_EQ(pool.groupsInUse(), 8);
    EXPECT_EQ(allocator.physBytesMapped(), 8 * 64 * KiB);
    EXPECT_TRUE(test::auditClean(allocator));

    // Growing to a smaller target is a no-op.
    ASSERT_TRUE(allocator.growTo(0, 1).isOk());
    EXPECT_EQ(allocator.groupsMapped(0), 2);
}

TEST_F(KvAllocatorTest, MappedRegionIsReadableWritable)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(1, 1).isOk());

    // Token 100 of slot 1 at layer 0 is inside the first group.
    auto k = allocator.kView(0, 1);
    k.writeElem({100, 1, 3}, 2.5f);
    EXPECT_FLOAT_EQ(k.readElem({100, 1, 3}), 2.5f);
    // The same cell through the full-batch tensor.
    EXPECT_FLOAT_EQ(
        allocator.layerTensors()[0].k.readElem({1, 100, 1, 3}), 2.5f);
}

TEST_F(KvAllocatorTest, UnbackedRegionStillFaults)
{
    test::ScopedThrowErrors guard;
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(0, 1).isOk()); // 2048 tokens backed

    auto k = allocator.kView(0, 0);
    EXPECT_NO_THROW(k.writeElem({2047, 0, 0}, 1.0f));
    EXPECT_THROW(k.writeElem({2048, 0, 0}, 1.0f), SimError);
    // Slot 1 has nothing mapped at all.
    auto other = allocator.kView(0, 1);
    EXPECT_THROW(other.readElem({0, 0, 0}), SimError);
}

TEST_F(KvAllocatorTest, ShrinkTailReturnsGroups)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(0, 3).isOk());
    ASSERT_TRUE(allocator.shrinkTail(0).isOk());
    EXPECT_EQ(allocator.groupsMapped(0), 2);
    EXPECT_EQ(pool.groupsInUse(), 8);
    EXPECT_TRUE(test::auditClean(allocator));
    ASSERT_TRUE(allocator.shrinkTail(0).isOk());
    ASSERT_TRUE(allocator.shrinkTail(0).isOk());
    EXPECT_EQ(allocator.groupsMapped(0), 0);
    EXPECT_FALSE(allocator.shrinkTail(0).isOk()); // nothing left
    EXPECT_EQ(pool.groupsInUse(), 0);
}

TEST_F(KvAllocatorTest, OomRollsBackPartialGroup)
{
    auto config = smallConfig();
    // Budget of 6 groups; a full group row needs 4 (one per buffer).
    PagePool pool(driver_, config.page_group, 6 * 64 * KiB);
    KvAllocator allocator(driver_, config, pool);

    ASSERT_TRUE(allocator.growTo(0, 1).isOk()); // uses 4
    const auto status = allocator.growTo(0, 2); // needs 4, only 2 left
    EXPECT_EQ(status.code(), ErrorCode::kOutOfMemory);
    // The failed group must be fully rolled back: group counts stay
    // consistent across buffers and the 2 remaining handles returned.
    EXPECT_EQ(allocator.groupsMapped(0), 1);
    EXPECT_EQ(pool.groupsInUse(), 4);
    EXPECT_EQ(pool.availableGroups(), 2);
    EXPECT_TRUE(test::auditClean(allocator));
}

TEST_F(KvAllocatorTest, SlotsAreIsolated)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 16 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(0, 1).isOk());
    ASSERT_TRUE(allocator.growTo(2, 2).isOk());

    auto k0 = allocator.kView(0, 0);
    auto k2 = allocator.kView(0, 2);
    k0.writeElem({0, 0, 0}, 1.0f);
    k2.writeElem({0, 0, 0}, 2.0f);
    EXPECT_FLOAT_EQ(k0.readElem({0, 0, 0}), 1.0f);
    EXPECT_FLOAT_EQ(k2.readElem({0, 0, 0}), 2.0f);
    allocator.releaseAll(0);
    // Slot 2 untouched by slot 0's release.
    EXPECT_FLOAT_EQ(k2.readElem({0, 0, 0}), 2.0f);
    EXPECT_EQ(allocator.groupsMapped(2), 2);
}

TEST_F(KvAllocatorTest, CuPathUsesMapPlusSetAccess)
{
    auto config = smallConfig(PageGroup::k2MB);
    config.max_context_len = 128 * 1024; // 2 groups of 64K tokens
    PagePool pool(driver_, config.page_group, 32 * MiB);
    KvAllocator allocator(driver_, config, pool);

    const u64 maps_before = driver_.counters().map;
    const u64 access_before = driver_.counters().set_access;
    ASSERT_TRUE(allocator.growTo(0, 1).isOk());
    // Stock CUDA path: one cuMemMap + one cuMemSetAccess per buffer.
    EXPECT_EQ(driver_.counters().map - maps_before, 4u);
    EXPECT_EQ(driver_.counters().set_access - access_before, 4u);

    // And unmap path: cuMemUnmap, handle kept pooled (no release).
    const u64 unmap_before = driver_.counters().unmap;
    const i64 available_before = pool.availableGroups();
    ASSERT_TRUE(allocator.shrinkTail(0).isOk());
    EXPECT_EQ(driver_.counters().unmap - unmap_before, 4u);
    EXPECT_EQ(pool.availableGroups(), available_before + 4);
}

TEST_F(KvAllocatorTest, ExtensionPathUsesFusedCalls)
{
    auto config = smallConfig(PageGroup::k64KB);
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);

    const u64 access_before = driver_.counters().set_access;
    ASSERT_TRUE(allocator.growTo(0, 1).isOk());
    // vMemMap fuses the access grant: no cuMemSetAccess calls.
    EXPECT_EQ(driver_.counters().set_access, access_before);
    EXPECT_TRUE(device_.pageTable().isAccessible(
        allocator.kView(0, 0).baseVa(), 64 * KiB));
}

TEST_F(KvAllocatorTest, TensorSlicingLayout)
{
    auto config = smallConfig(PageGroup::k64KB, /*slicing=*/true);
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);

    const auto &geom = allocator.geometry();
    EXPECT_EQ(geom.numBuffers(), 2); // one K + one V tensor
    // Token bytes per buffer now include all layers: 2*2*8*2 = 64B.
    EXPECT_EQ(geom.tokenBytesPerBuffer(), 64u);
    EXPECT_EQ(geom.tokensPerGroup(), 1024);

    ASSERT_TRUE(allocator.growTo(0, 1).isOk());
    // One group backs the first 1024 tokens of BOTH layers.
    auto k_layer0 = allocator.kView(0, 0);
    auto k_layer1 = allocator.kView(1, 0);
    k_layer0.writeElem({5, 1, 2}, 1.5f);
    k_layer1.writeElem({5, 1, 2}, -1.5f);
    EXPECT_FLOAT_EQ(k_layer0.readElem({5, 1, 2}), 1.5f);
    EXPECT_FLOAT_EQ(k_layer1.readElem({5, 1, 2}), -1.5f);
    EXPECT_EQ(allocator.totalHandlesMapped(), 2); // K + V only
    EXPECT_TRUE(test::auditClean(allocator));
}

TEST_F(KvAllocatorTest, SlicedLayerViewsInterleaveInMemory)
{
    auto config = smallConfig(PageGroup::k64KB, /*slicing=*/true);
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(0, 1).isOk());

    // [B, L, N, H, D]: consecutive layers of one token are adjacent;
    // the distance between token t and t+1 of one layer is N*H*D.
    auto k_layer0 = allocator.kView(0, 0);
    const Addr t0 = k_layer0.elemVa({0, 0, 0});
    const Addr t1 = k_layer0.elemVa({1, 0, 0});
    EXPECT_EQ(t1 - t0, 2u * 2 * 8 * 2); // N*H*D*P bytes
    auto k_layer1 = allocator.kView(1, 0);
    EXPECT_EQ(k_layer1.elemVa({0, 0, 0}) - t0, 2u * 8 * 2); // H*D*P
}

// ---- Horizon differential: cached O(1) checks vs a per-buffer scan --

/** The per-buffer definition of needsGrowthForTokens: some buffer is
 *  below the frontier groupsForTokens(tokens). */
bool
scanNeedsGrowth(const KvAllocator &allocator, int slot, i64 tokens)
{
    const KvGeometry &geom = allocator.geometry();
    for (int b = 0; b < geom.numBuffers(); ++b) {
        if (allocator.bufferEnd(slot, b) < geom.groupsForTokens(tokens)) {
            return true;
        }
    }
    return false;
}

/** The per-buffer definition of needsEnsureTokens: growth, or a
 *  mapped lead group wholly behind its layer's window. */
bool
scanNeedsEnsure(const KvAllocator &allocator, int slot, i64 tokens)
{
    const KvGeometry &geom = allocator.geometry();
    for (int b = 0; b < geom.numBuffers(); ++b) {
        const int layer = geom.layerOfBuffer(b);
        const i64 end = allocator.bufferEnd(slot, b);
        if (end < geom.groupsForTokens(tokens) ||
            allocator.bufferLead(slot, b) <
                std::min(geom.deadLeadGroups(layer, tokens), end)) {
            return true;
        }
    }
    return false;
}

struct HorizonCase
{
    std::string name;
    Config config;
    i64 pool_groups; ///< page-groups the pool may hand out
};

/** 64KB groups, 128B/token/buffer (8 heads x dim 8 x fp16): 512
 *  tokens per group, 16 groups per buffer at 8K context. */
Config
horizonBase()
{
    Config config = smallConfig(PageGroup::k64KB);
    config.num_kv_heads = 8;
    return config;
}

std::vector<HorizonCase>
horizonCases()
{
    std::vector<HorizonCase> cases;

    // 1KB/token/buffer: 2,048 tokens per 2MB group, 8 per buffer.
    Config uniform_2mb = smallConfig(PageGroup::k2MB);
    uniform_2mb.num_kv_heads = 8;
    uniform_2mb.head_dim = 64;
    uniform_2mb.max_context_len = 16384;
    cases.push_back({"Uniform2MB", uniform_2mb, 48});

    cases.push_back({"Uniform64KB", horizonBase(), 80});

    // Mistral-style 1:1 full/sliding interleave; the 1,000-token
    // window is deliberately not group-aligned.
    Config mistral = horizonBase();
    mistral.num_layers = 4;
    mistral.layer_window_tokens = {0, 1000, 0, 1000};
    cases.push_back({"MistralInterleave", mistral, 160});

    // Every layer windowed (Mistral-7B v0.1 style): no full layer
    // pins the grow horizon at the slot's lowest frontier, so a
    // skipped dead lead (lead == end, nothing mapped) sets it alone.
    Config all_windows = horizonBase();
    all_windows.layer_window_tokens = {1000, 1000};
    cases.push_back({"AllSlidingWindow", all_windows, 40});

    // 6 heads: 96B/token does not divide the group (682 tokens per
    // 64KB group), so every frontier sits off a power-of-two boundary.
    Config unaligned = horizonBase();
    unaligned.num_layers = 4;
    unaligned.num_kv_heads = 6;
    cases.push_back({"UnalignedFootprint", unaligned, 160});

    // One K and one V buffer holding all 4 layers: 512B/token.
    Config sliced = smallConfig(PageGroup::k64KB, /*slicing=*/true);
    sliced.num_layers = 4;
    sliced.num_kv_heads = 4;
    cases.push_back({"TensorSlicing", sliced, 40});
    return cases;
}

/** gtest prints a failing case's parameter by its name. */
void
PrintTo(const HorizonCase &param, std::ostream *os)
{
    *os << param.name;
}

class KvHorizonDifferential
    : public KvAllocatorTest,
      public ::testing::WithParamInterface<HorizonCase>
{
};

/**
 * Seeded random op sequences over every slot mutator, with a pool
 * tight enough that growth hits kOutOfMemory (partial-row rollback).
 * After every op, the O(1) horizon checks must equal the per-buffer
 * scan at every token count that sits on or next to a group frontier
 * or window-trim boundary, plus random ones; the audit (which also
 * recomputes the cached horizons) must pass.
 */
TEST_P(KvHorizonDifferential, CachedChecksMatchPerBufferScan)
{
    const HorizonCase &param = GetParam();
    const Config &config = param.config;
    ASSERT_TRUE(config.validate().isOk());
    const int slots = config.max_batch_size;
    const i64 max_len = config.max_context_len;

    i64 oom = 0;
    i64 trim_only = 0;
    for (u64 seed = 1; seed <= 3; ++seed) {
        PagePool pool(driver_, config.page_group,
                      static_cast<u64>(param.pool_groups) *
                          bytes(config.page_group));
        KvAllocator allocator(driver_, config, pool);
        const KvGeometry &geom = allocator.geometry();
        std::mt19937_64 rng(seed);
        auto uniform = [&rng](i64 lo, i64 hi) {
            return std::uniform_int_distribution<i64>(lo, hi)(rng);
        };

        const i64 max_groups = geom.maxGroupsPerRequest();
        std::vector<i64> probes = {0, 1, max_len, max_len + 1};
        for (int b = 0; b < geom.numBuffers(); ++b) {
            const i64 window = geom.windowTokens(geom.layerOfBuffer(b));
            for (i64 k = 0; k <= max_groups + 1; ++k) {
                const i64 frontier = static_cast<i64>(
                    static_cast<u64>(k) * geom.groupBytes() /
                    geom.tokenBytesPerBuffer());
                const i64 trim = window + k * geom.tokensPerGroup();
                for (i64 delta = -1; delta <= 1; ++delta) {
                    probes.push_back(frontier + delta);
                    if (window > 0) {
                        probes.push_back(trim + delta);
                    }
                }
            }
        }
        for (int i = 0; i < 32; ++i) {
            probes.push_back(uniform(0, max_len));
        }
        std::sort(probes.begin(), probes.end());
        probes.erase(std::unique(probes.begin(), probes.end()),
                     probes.end());

        for (int op = 0; op < 400; ++op) {
            const int slot = static_cast<int>(uniform(0, slots - 1));
            const i64 tokens = uniform(0, max_len);
            std::string what;
            Status status;
            switch (uniform(0, 8)) {
            case 0:
                what = "ensureTokens";
                status = allocator.ensureTokens(slot, tokens);
                break;
            case 1:
                what = "growOneRowForTokens";
                status = allocator.growOneRowForTokens(slot, tokens);
                break;
            case 2:
                what = "growTo";
                status = allocator.growTo(slot, uniform(0, max_groups));
                break;
            case 3:
                what = "shrinkTail";
                status = allocator.shrinkTail(slot);
                break;
            case 4:
                what = "releaseAll";
                allocator.releaseAll(slot);
                break;
            case 5:
                what = "resetWindowTrimmed";
                allocator.resetWindowTrimmed(slot);
                break;
            case 6: {
                what = "aliasFrom";
                const int src = static_cast<int>(uniform(0, slots - 1));
                const i64 prefix = allocator.prefixGroupsMapped(src);
                if (src == slot || prefix == 0) {
                    break;
                }
                allocator.releaseAll(slot);
                status =
                    allocator.aliasFrom(slot, src, uniform(1, prefix));
                EXPECT_TRUE(status.isOk()) << status.message();
                break;
            }
            case 7:
                what = "privatizeFrom";
                allocator.privatizeFrom(
                    slot, uniform(0, allocator.groupsMapped(slot)));
                break;
            default: {
                // A swap-in: rebuild a released slot to the canonical
                // layout of a context (the shape a swap-out stashes).
                what = "growToLayout";
                allocator.releaseAll(slot);
                std::vector<i64> leads;
                std::vector<i64> ends;
                for (int b = 0; b < geom.numBuffers(); ++b) {
                    leads.push_back(geom.deadLeadGroups(
                        geom.layerOfBuffer(b), tokens));
                    ends.push_back(geom.groupsForTokens(tokens));
                }
                status = allocator.growToLayout(slot, leads, ends);
                if (!status.isOk()) {
                    allocator.releaseAll(slot);
                }
                break;
            }
            }
            if (status.code() == ErrorCode::kOutOfMemory) {
                ++oom;
            }
            SCOPED_TRACE("seed " + std::to_string(seed) + " op " +
                         std::to_string(op) + " " + what + " slot " +
                         std::to_string(slot));
            ASSERT_TRUE(test::auditClean(allocator));
            for (int s = 0; s < slots; ++s) {
                for (const i64 t : probes) {
                    const bool grow = scanNeedsGrowth(allocator, s, t);
                    const bool ensure = scanNeedsEnsure(allocator, s, t);
                    ASSERT_EQ(allocator.needsGrowthForTokens(s, t), grow)
                        << "slot " << s << " tokens " << t;
                    ASSERT_EQ(allocator.needsEnsureTokens(s, t), ensure)
                        << "slot " << s << " tokens " << t;
                    trim_only += ensure && !grow;
                }
            }
        }
    }
    // The op mix must reach pool exhaustion, and windowed configs
    // must reach contexts where only a trim is due.
    EXPECT_GT(oom, 0);
    if (KvGeometry(config).hasWindows()) {
        EXPECT_GT(trim_only, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, KvHorizonDifferential,
    ::testing::ValuesIn(horizonCases()),
    [](const ::testing::TestParamInfo<HorizonCase> &info) {
        return info.param.name;
    });

} // namespace
} // namespace vattn::core
