#include <gtest/gtest.h>

#include "core/kv_geometry.hh"
#include "perf/model_spec.hh"

namespace vattn::core
{
namespace
{

Config
configFor(const perf::ModelSpec &model, int tp, PageGroup group,
          bool slicing = false)
{
    Config config;
    config.num_layers = model.num_layers;
    config.num_kv_heads = model.kvHeadsPerWorker(tp);
    config.head_dim = model.head_dim;
    config.bytes_per_elem = 2;
    config.max_batch_size = 100;
    config.max_context_len = model.max_context_len;
    config.page_group = group;
    config.tensor_slicing = slicing;
    return config;
}

/** Bytes one token contributes across the whole KV cache, summed over
 *  every buffer (2*N*H*D*P). */
u64
tokenBytesTotal(const KvGeometry &geom)
{
    return static_cast<u64>(geom.numBuffers()) * geom.tokenBytesPerBuffer();
}

TEST(KvGeometry, PaperSection513Example)
{
    // §5.1.3: Yi-34B, FP16, TP-2 => N=60, H=4, D=128, P=2, L=200K:
    // S = 200MB per request per buffer; B=500 => 100GB buffers;
    // 120 buffers => 12TB of virtual memory.
    auto config = configFor(perf::ModelSpec::yi34B(), 2,
                            PageGroup::k2MB);
    config.max_batch_size = 500;
    KvGeometry geom(config);
    EXPECT_EQ(config.num_kv_heads, 4);
    EXPECT_EQ(geom.perRequestBytes(), 200ull * 1024 * 1024);
    EXPECT_EQ(geom.bufferBytes(), 500ull * 200 * 1024 * 1024);
    EXPECT_EQ(geom.numBuffers(), 120);
    // The paper's "12TB total" (120 x "100GB") in binary units:
    // 120 * 500 * 200MiB = 11.44 TiB.
    EXPECT_NEAR(static_cast<double>(geom.totalVirtualBytes()) /
                    static_cast<double>(TiB),
                11.44, 0.05);
}

TEST(KvGeometry, PerTokenKvBytesMatchesSection4)
{
    // §4: per-token KV footprint (all layers, K+V) is 64KB for Yi-6B,
    // 128KB for Llama-3-8B and 240KB for Yi-34B.
    KvGeometry yi6(configFor(perf::ModelSpec::yi6B(), 1,
                             PageGroup::k2MB));
    EXPECT_EQ(tokenBytesTotal(yi6), 64 * KiB);
    KvGeometry llama(configFor(perf::ModelSpec::llama3_8B(), 1,
                               PageGroup::k2MB));
    EXPECT_EQ(tokenBytesTotal(llama), 128 * KiB);
    KvGeometry yi34(configFor(perf::ModelSpec::yi34B(), 1,
                              PageGroup::k2MB));
    EXPECT_EQ(tokenBytesTotal(yi34), 240 * KiB);
}

TEST(KvGeometry, ShardedFootprintMatchesModelSpecAcrossTp)
{
    // The geometry built from a per-worker config (H = H_kv/tp) and
    // the ModelSpec's analytic kvBytesPerTokenPerWorker must agree for
    // every legal TP degree, including the GQA boundary tp ==
    // num_kv_heads — the two are computed in different layers, so this
    // pins their consistency.
    for (const perf::ModelSpec &model :
         {perf::ModelSpec::yi6B(), perf::ModelSpec::llama3_8B(),
          perf::ModelSpec::yi34B()}) {
        for (int tp = 1; tp <= model.num_kv_heads; tp *= 2) {
            if (model.num_kv_heads % tp != 0) {
                continue;
            }
            KvGeometry geom(configFor(model, tp, PageGroup::k2MB));
            EXPECT_EQ(tokenBytesTotal(geom),
                      model.kvBytesPerTokenPerWorker(tp))
                << model.name << " tp=" << tp;
            EXPECT_EQ(tokenBytesTotal(geom) * tp,
                      model.kvBytesPerToken())
                << model.name << " tp=" << tp;
        }
    }
}

/** Table 8: tokens per page-group ("block size") per model/TP/group. */
struct Table8Case
{
    const char *model;
    int tp;
    PageGroup group;
    i64 expect_tokens;
};

/**
 * Print a case by its fields. Without this gtest dumps the raw bytes,
 * which hold the address of `model` and padding, so the test names that
 * ctest derives from the printed value differ from build to build.
 */
void
PrintTo(const Table8Case &c, std::ostream *os)
{
    *os << c.model << " TP-" << c.tp << " " << toString(c.group);
}

class Table8Test : public ::testing::TestWithParam<Table8Case>
{
};

TEST_P(Table8Test, BlockSizeMatchesPaper)
{
    const auto param = GetParam();
    perf::ModelSpec model = perf::ModelSpec::yi6B();
    if (std::string(param.model) == "Llama-3-8B") {
        model = perf::ModelSpec::llama3_8B();
    } else if (std::string(param.model) == "Yi-34B") {
        model = perf::ModelSpec::yi34B();
    }
    KvGeometry geom(configFor(model, param.tp, param.group));
    EXPECT_EQ(geom.tokensPerGroup(), param.expect_tokens);
}

INSTANTIATE_TEST_SUITE_P(
    Table8, Table8Test,
    ::testing::Values(
        // Yi-6B row: 64/128/256/2048 at TP-1, doubled at TP-2.
        Table8Case{"Yi-6B", 1, PageGroup::k64KB, 64},
        Table8Case{"Yi-6B", 1, PageGroup::k128KB, 128},
        Table8Case{"Yi-6B", 1, PageGroup::k256KB, 256},
        Table8Case{"Yi-6B", 1, PageGroup::k2MB, 2048},
        Table8Case{"Yi-6B", 2, PageGroup::k64KB, 128},
        Table8Case{"Yi-6B", 2, PageGroup::k2MB, 4096},
        // Llama-3-8B row: 32/64/128/1024 at TP-1.
        Table8Case{"Llama-3-8B", 1, PageGroup::k64KB, 32},
        Table8Case{"Llama-3-8B", 1, PageGroup::k128KB, 64},
        Table8Case{"Llama-3-8B", 1, PageGroup::k256KB, 128},
        Table8Case{"Llama-3-8B", 1, PageGroup::k2MB, 1024},
        Table8Case{"Llama-3-8B", 2, PageGroup::k2MB, 2048},
        // Yi-34B row equals Llama-3-8B (same H*D*P per worker).
        Table8Case{"Yi-34B", 1, PageGroup::k64KB, 32},
        Table8Case{"Yi-34B", 1, PageGroup::k2MB, 1024},
        Table8Case{"Yi-34B", 2, PageGroup::k2MB, 2048}));

TEST(KvGeometry, Table10TensorSlicing)
{
    // Table 10: tensor slicing shrinks the 2MB block size by N.
    KvGeometry yi6(configFor(perf::ModelSpec::yi6B(), 1,
                             PageGroup::k2MB, true));
    EXPECT_EQ(yi6.numBuffers(), 2);
    EXPECT_EQ(yi6.tokensPerGroup(), 64); // 2048 / 32 layers
    KvGeometry llama(configFor(perf::ModelSpec::llama3_8B(), 1,
                               PageGroup::k2MB, true));
    EXPECT_EQ(llama.tokensPerGroup(), 32); // 1024 / 32
    KvGeometry llama2(configFor(perf::ModelSpec::llama3_8B(), 2,
                                PageGroup::k2MB, true));
    EXPECT_EQ(llama2.tokensPerGroup(), 64);
    // Yi-34B TP-1: 2MiB / (60*8*128*2) = 17 (paper rounds to 18).
    KvGeometry yi34(configFor(perf::ModelSpec::yi34B(), 1,
                              PageGroup::k2MB, true));
    EXPECT_EQ(yi34.tokensPerGroup(), 17);
}

TEST(KvGeometry, GroupsForTokens)
{
    KvGeometry geom(configFor(perf::ModelSpec::yi6B(), 1,
                              PageGroup::k2MB));
    // 2048 tokens per group.
    EXPECT_EQ(geom.groupsForTokens(0), 0);
    EXPECT_EQ(geom.groupsForTokens(1), 1);
    EXPECT_EQ(geom.groupsForTokens(2048), 1);
    EXPECT_EQ(geom.groupsForTokens(2049), 2);
    EXPECT_EQ(geom.maxGroupsPerRequest(), 100); // 200K / 2048
}

TEST(KvGeometry, WasteShrinksWithSmallerGroups)
{
    // Fragmentation for a 100-token request: 2MB groups waste nearly
    // 2 full groups per buffer; 64KB groups waste far less. This is
    // the Figure 15 mechanism.
    const auto model = perf::ModelSpec::llama3_8B();
    KvGeometry big(configFor(model, 1, PageGroup::k2MB));
    KvGeometry small(configFor(model, 1, PageGroup::k64KB));
    const i64 tokens = 100;
    EXPECT_GT(big.wasteBytesForTokens(tokens),
              10 * small.wasteBytesForTokens(tokens));
    // Exact: 64 buffers * (2MB - 100*2048B) vs 64 * (4*64KB - 100*2048B)
    EXPECT_EQ(big.physBytesForTokens(tokens), 64ull * 2 * MiB);
    EXPECT_EQ(small.physBytesForTokens(tokens), 64ull * 4 * 64 * KiB);
}

TEST(KvGeometry, AlignedPerRequestNeverSharesGroups)
{
    auto config = configFor(perf::ModelSpec::yi6B(), 1,
                            PageGroup::k2MB);
    config.max_context_len = 1000; // S = 1000*1KB, not 2MB aligned
    KvGeometry geom(config);
    EXPECT_EQ(geom.perRequestBytes(), 1000u * 1024);
    EXPECT_EQ(geom.perRequestBytesAligned(), 2 * MiB);
    EXPECT_EQ(geom.perRequestBytesAligned() % geom.groupBytes(), 0u);
}

TEST(ConfigValidation, CatchesBadSettings)
{
    auto config = configFor(perf::ModelSpec::yi6B(), 1,
                            PageGroup::k2MB);
    EXPECT_TRUE(config.validate().isOk());

    auto bad = config;
    bad.num_layers = 0;
    EXPECT_FALSE(bad.validate().isOk());

    bad = config;
    bad.bytes_per_elem = 3;
    EXPECT_FALSE(bad.validate().isOk());

    bad = config;
    bad.reclaim_low_watermark = 1.5;
    EXPECT_FALSE(bad.validate().isOk());
}

TEST(ConfigValidation, SlicingNeedsGroupBiggerThanToken)
{
    // Yi-34B sliced: token footprint 120KB per buffer; a 64KB group
    // cannot hold a single token -> invalid.
    auto config = configFor(perf::ModelSpec::yi34B(), 1,
                            PageGroup::k64KB, true);
    EXPECT_FALSE(config.validate().isOk());
    config.page_group = PageGroup::k2MB;
    EXPECT_TRUE(config.validate().isOk());
}

} // namespace
} // namespace vattn::core
