/**
 * @file
 * Sliding-window KV eviction on the vAttention runtime: dead leading
 * page-groups of windowed layers are unmapped as the context outgrows
 * the window, with the edge cases pinned — prompts shorter than the
 * window unmap nothing, a group the window straddles stays mapped,
 * swap round-trips exactly the live window, prefix-aliased leading
 * groups survive until the last sharer releases — plus a corruption
 * injection proving the auditor names a rogue window-tail mapping.
 */

#include <gtest/gtest.h>

#include "common/prefix_hash.hh"
#include "core/vattention.hh"
#include "test_util.hh"

namespace vattn::core
{
namespace
{

/** 2 layers, 2 heads, dim 8, fp16: 32B/token/buffer; 64KB group =
 *  2048 tokens; buffers 0/2 = K/V of the full layer 0, buffers 1/3 =
 *  K/V of the sliding layer 1 (window 3000, deliberately not
 *  group-aligned). */
constexpr i64 kWindow = 3000;

Config
windowConfig()
{
    Config config;
    config.num_layers = 2;
    config.num_kv_heads = 2;
    config.head_dim = 8;
    config.bytes_per_elem = 2;
    config.max_batch_size = 4;
    config.max_context_len = 16384;
    config.page_group = PageGroup::k64KB;
    config.eager_allocation = false;
    config.overlap_allocation = false;
    config.phys_budget_bytes = 16 * MiB;
    config.layer_window_tokens = {0, kWindow};
    return config;
}

class WindowEvictionTest : public ::testing::Test
{
  protected:
    WindowEvictionTest() : device_(makeConfig()), driver_(device_) {}

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

    /** mappedHandles re-derived from the runtime's per-buffer view. */
    static i64
    liveHandles(const VAttention &vattn, int req_id)
    {
        return vattn.mappedHandles(req_id);
    }

    gpu::GpuDevice device_;
    cuvmm::Driver driver_;
};

TEST_F(WindowEvictionTest, PromptShorterThanWindowUnmapsNothing)
{
    VAttention vattn(driver_, windowConfig());
    const int req = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(2500)).status.isOk());
    // 2 groups on every one of the 4 buffers; no dead lead anywhere.
    EXPECT_EQ(liveHandles(vattn, req), 8);
    for (int buffer = 0; buffer < 4; ++buffer) {
        EXPECT_NE(vattn.handleAt(req, buffer, 0), cuvmm::kInvalidHandle);
        EXPECT_NE(vattn.handleAt(req, buffer, 1), cuvmm::kInvalidHandle);
    }
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(WindowEvictionTest, StraddledLeadingGroupStaysMapped)
{
    VAttention vattn(driver_, windowConfig());
    const int req = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(5000)).status.isOk());
    // 5000 - 3000 = 2000 dead tokens: less than one group, so even
    // the windowed buffers keep group 0.
    EXPECT_EQ(liveHandles(vattn, req), 12);

    ASSERT_TRUE(vattn.step(lens(8192)).status.isOk());
    // floor((8192 - 3000) / 2048) = 2 dead groups on the windowed
    // buffers (1 and 3); group 2 is straddled by the window and must
    // stay. Full-attention buffers keep all 4 groups.
    EXPECT_EQ(vattn.handleAt(req, 1, 0), cuvmm::kInvalidHandle);
    EXPECT_EQ(vattn.handleAt(req, 1, 1), cuvmm::kInvalidHandle);
    EXPECT_NE(vattn.handleAt(req, 1, 2), cuvmm::kInvalidHandle);
    EXPECT_EQ(vattn.handleAt(req, 3, 0), cuvmm::kInvalidHandle);
    EXPECT_NE(vattn.handleAt(req, 0, 0), cuvmm::kInvalidHandle);
    EXPECT_EQ(liveHandles(vattn, req), 2 * 4 + 2 * 2);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(WindowEvictionTest, FreshLongPromptNeverMapsTheDeadRegion)
{
    VAttention vattn(driver_, windowConfig());
    const i64 pool_before = vattn.poolAvailableHandles();
    const int req = vattn.allocReqId().value();
    // Jumping straight to 8192 tokens must not map-then-unmap the
    // dead leading groups: only the 12 live mappings are created.
    ASSERT_TRUE(vattn.step(lens(8192)).status.isOk());
    EXPECT_EQ(liveHandles(vattn, req), 12);
    EXPECT_EQ(vattn.stats().sync_handles, 12);
    EXPECT_EQ(pool_before - vattn.poolAvailableHandles(), 12);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(WindowEvictionTest, SwapRoundTripsTheLiveWindowExactly)
{
    auto config = windowConfig();
    config.host_swap_bytes = 8 * MiB;
    VAttention vattn(driver_, config);
    const int req = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(8192)).status.isOk());
    ASSERT_EQ(liveHandles(vattn, req), 12);

    ASSERT_TRUE(vattn.canSwapOut(req));
    const auto out = vattn.swapOutReq(req);
    ASSERT_TRUE(out.status.isOk()) << out.status.message();
    // Only the live [lead, end) ranges cross PCIe: 12 page-groups,
    // not the 16-group frontier.
    EXPECT_EQ(out.handles, 12);
    EXPECT_EQ(out.bytes, static_cast<u64>(12) * 64 * KiB);
    EXPECT_EQ(vattn.hostGroupsInUse(), 12);
    EXPECT_EQ(liveHandles(vattn, req), 0);
    EXPECT_TRUE(test::auditClean(vattn));

    const auto in = vattn.swapInReq(req);
    ASSERT_TRUE(in.status.isOk()) << in.status.message();
    EXPECT_EQ(in.handles, 12);
    EXPECT_EQ(vattn.hostGroupsInUse(), 0);
    // The window layout is restored exactly: dead lead still dead,
    // straddled group live.
    EXPECT_EQ(vattn.handleAt(req, 1, 1), cuvmm::kInvalidHandle);
    EXPECT_NE(vattn.handleAt(req, 1, 2), cuvmm::kInvalidHandle);
    EXPECT_EQ(liveHandles(vattn, req), 12);
    // The runtime can keep stepping where it left off.
    ASSERT_TRUE(vattn.step(lens(8200)).status.isOk());
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(WindowEvictionTest, AliasedLeadingGroupsSurviveUntilLastSharer)
{
    auto config = windowConfig();
    config.prefix_caching = true;
    config.deferred_reclamation = false; // frees unmap immediately
    VAttention vattn(driver_, config);

    // Request A prefills 4096 tokens — still within lead 0 (the first
    // dead group needs 3000 + 2048 tokens) — and registers the prefix.
    std::vector<i32> ids(4096);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        ids[i] = static_cast<i32>(i % 32000);
    }
    const PrefixKey key{ids.data(), static_cast<i64>(ids.size())};

    const int req_a = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(4096)).status.isOk());
    vattn.registerPrefix(req_a, key, 4096);

    // Request B adopts the prefix: A's groups 0..1 are aliased into
    // B's virtual ranges on every buffer.
    auto req_b_result = vattn.allocReqIdWithPrefix(key, 4096);
    ASSERT_TRUE(req_b_result.isOk());
    const i64 cached = req_b_result.value().cached_tokens;
    const int req_b = req_b_result.value().slot;
    ASSERT_EQ(cached, 4096);
    ASSERT_EQ(vattn.handleAt(req_a, 1, 0), vattn.handleAt(req_b, 1, 0));

    const i64 pool_after_alias = vattn.poolAvailableHandles();

    // A's window now advances past its first two groups; A unmaps
    // them, but B still maps the same handles — they must survive.
    ASSERT_TRUE(vattn.step(lens(8192, 4096)).status.isOk());
    EXPECT_EQ(vattn.handleAt(req_a, 1, 0), cuvmm::kInvalidHandle);
    EXPECT_NE(vattn.handleAt(req_b, 1, 0), cuvmm::kInvalidHandle);
    EXPECT_TRUE(test::auditClean(vattn));
    // A's growth maps 8 fresh groups (frontier groups 2-3 on all four
    // buffers); dropping A's aliased windowed-lead mappings returns
    // NOTHING — B still holds references to those handles.
    EXPECT_EQ(vattn.poolAvailableHandles(), pool_after_alias - 8);

    // Only when the LAST sharer releases do the lead groups come
    // back: B's four windowed-buffer aliases (buffers 1/3, groups
    // 0-1) hit refcount zero; the full-buffer aliases stay live
    // under A.
    ASSERT_TRUE(vattn.freeReqId(req_b).isOk());
    EXPECT_EQ(vattn.poolAvailableHandles(), pool_after_alias - 4);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(WindowEvictionTest, RecycledWarmSlotStillSkipsTheDeadRegion)
{
    // Deferred reclamation hands a freed slot's mappings to the next
    // request (a "warm" slot). If every leftover group sits below the
    // new prompt's window, the lead must jump the whole dead region —
    // stopping at the old frontier would make growth map dead groups.
    auto config = windowConfig();
    config.deferred_reclamation = true;
    VAttention vattn(driver_, config);

    const int req1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(2500)).status.isOk()); // 2 groups warm
    ASSERT_TRUE(vattn.freeReqId(req1).isOk());

    const int req2 = vattn.allocReqId().value();
    EXPECT_EQ(req2, req1); // warm reuse, mappings intact
    // 12000 tokens: dead lead floor((12000-3000)/2048) = 4 on the
    // windowed buffers, frontier 6.
    ASSERT_TRUE(vattn.step(lens(12000)).status.isOk());
    for (const int buffer : {1, 3}) {
        EXPECT_EQ(vattn.handleAt(req2, buffer, 2), cuvmm::kInvalidHandle);
        EXPECT_EQ(vattn.handleAt(req2, buffer, 3), cuvmm::kInvalidHandle);
        EXPECT_NE(vattn.handleAt(req2, buffer, 4), cuvmm::kInvalidHandle);
    }
    // 2 full buffers x 6 groups + 2 windowed x 2 live groups.
    EXPECT_EQ(liveHandles(vattn, req2), 2 * 6 + 2 * 2);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(WindowEvictionTest, RogueWindowTailMappingIsCaughtAndNamed)
{
    VAttention vattn(driver_, windowConfig());
    const int req = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(8192)).status.isOk());
    ASSERT_TRUE(test::auditClean(vattn));

    // Injection: re-map a live handle at the window-dead VA of the
    // sliding layer's K tensor (group 0 of buffer 1) directly through
    // the driver — the stale mapping a buggy window-trim path would
    // leave behind.
    const Addr dead_va = vattn.kCache(1, req).baseVa();
    const cuvmm::MemHandle live = vattn.handleAt(req, 1, 2);
    ASSERT_EQ(driver_.vMemMap(dead_va, live), cuvmm::CuResult::kSuccess);

    audit::AuditReport report;
    vattn.auditInto(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.contains("rogue window-tail mapping"))
        << report.toString();

    // Repair: unmap the rogue VA; the stack audits clean again.
    ASSERT_EQ(driver_.vMemUnmap(dead_va), cuvmm::CuResult::kSuccess);
    EXPECT_TRUE(test::auditClean(vattn));
}

} // namespace
} // namespace vattn::core
