#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hh"
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
    return config;
}

class VAttentionTest : public ::testing::Test
{
  protected:
    VAttentionTest() : device_(makeConfig()), driver_(device_) {}

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

TEST_F(VAttentionTest, InitReturnsKvCacheTensors)
{
    auto config = smallConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);
    // Table 4: init returns one KV tensor pair per layer.
    EXPECT_EQ(vattn.kvCache().size(), 2u);
    // Physical handles pre-created at init; init latency recorded off
    // the critical path.
    EXPECT_EQ(vattn.poolFreeHandles(), 128); // 8MB / 64KB
    EXPECT_GT(vattn.stats().init_ns, 0u);
    EXPECT_EQ(vattn.stats().critical_ns, 0u);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(VAttentionTest, AlgorithmOneFlow)
{
    auto config = smallConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);

    // Schedule R1 with a 3000-token prompt (line 8 of Algorithm 1).
    auto req = vattn.allocReqId();
    ASSERT_TRUE(req.isOk());
    const int r1 = req.value();

    // step (line 13): 3000 tokens -> ceil(3000/2048) = 2 groups per
    // buffer, 4 buffers -> 8 handles.
    auto stats = vattn.step(lens(3000));
    ASSERT_TRUE(stats.status.isOk());
    EXPECT_EQ(stats.handles_mapped, 8);
    EXPECT_GT(stats.critical_ns, 0u);
    EXPECT_EQ(vattn.groupsMapped(r1), 2);

    // Decode iterations: no new group needed until 4096 tokens.
    for (i64 len = 3001; len < 3005; ++len) {
        stats = vattn.step(lens(len));
        ASSERT_TRUE(stats.status.isOk());
        EXPECT_EQ(stats.handles_mapped, 0);
        EXPECT_EQ(stats.critical_ns, 0u);
    }
    // Crossing the group boundary maps one more group per buffer.
    stats = vattn.step(lens(4097));
    ASSERT_TRUE(stats.status.isOk());
    EXPECT_EQ(stats.handles_mapped, 4);
    EXPECT_EQ(vattn.groupsMapped(r1), 3);

    // Completion (line 19).
    ASSERT_TRUE(vattn.freeReqId(r1).isOk());
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(VAttentionTest, StepValidatesInput)
{
    auto config = smallConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);

    // Wrong arity.
    EXPECT_EQ(vattn.step({1, 2}).status.code(),
              ErrorCode::kInvalidArgument);
    // Non-zero length for an inactive reqId.
    EXPECT_EQ(vattn.step(lens(100)).status.code(),
              ErrorCode::kInvalidArgument);
    // Beyond the model's max context.
    auto req = vattn.allocReqId();
    ASSERT_TRUE(req.isOk());
    EXPECT_EQ(vattn.step(lens(8193)).status.code(),
              ErrorCode::kInvalidArgument);
}

TEST_F(VAttentionTest, BWideStepFailsBeforeAnyDriverWork)
{
    // A bad entry at a high reqId used to fail only after the lower
    // reqIds had grown; the whole input is now checked first.
    auto config = smallConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);
    const int req = vattn.allocReqId().value();
    ASSERT_EQ(req, 0);
    const cuvmm::DriverCounters before = driver_.counters();
    EXPECT_EQ(vattn.step(lens(3000, 100)).status.code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(vattn.step(lens(3000, 0, 0, 8193)).status.code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(driver_.counters(), before);
    EXPECT_EQ(vattn.groupsMapped(req), 0);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(VAttentionTest, SparseStepRejectsBadEntriesWithoutDriverWork)
{
    auto config = smallConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);
    const int r0 = vattn.allocReqId().value();
    const int r1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step({{{r0, 100}, {r1, 100}}}).status.isOk());
    const i64 groups0 = vattn.groupsMapped(r0);
    const i64 groups1 = vattn.groupsMapped(r1);
    const cuvmm::DriverCounters before = driver_.counters();

    using Entries = std::vector<std::pair<int, i64>>;
    const Entries bad[] = {
        {{r0, 5000}, {2, 100}},          // listed inactive slot
        {{r0, 5000}, {r1, 5000}, {r0, 5000}}, // duplicate slot
        {{r0, 5000}, {4, 100}},          // out of range (B = 4)
        {{r0, 5000}, {-1, 100}},         // out of range (negative)
        {{r0, 5000}, {r1, 8193}},        // beyond max_context_len
    };
    for (const Entries &entries : bad) {
        EXPECT_EQ(vattn.step(entries).status.code(),
                  ErrorCode::kInvalidArgument);
        EXPECT_EQ(driver_.counters(), before);
        EXPECT_EQ(vattn.groupsMapped(r0), groups0);
        EXPECT_EQ(vattn.groupsMapped(r1), groups1);
    }
    // A rejected duplicate leaves no stale mark behind.
    EXPECT_TRUE(vattn.step({{{r1, 3000}, {r0, 5000}}}).status.isOk());
    EXPECT_GT(vattn.groupsMapped(r0), groups0);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(VAttentionTest, SparseAndBWideStepsAgreeOnASeededTrace)
{
    // Two runtimes on identical devices follow the same random trace
    // of admissions, growth, swap-outs/ins, frees and background
    // windows; one steps through the sparse form (entries shuffled,
    // swapped-out requests left out), the other through the B-wide
    // form. Every step must return the same stats and leave the same
    // driver per-API call counts.
    auto config = smallConfig();
    config.max_batch_size = 8;
    config.phys_budget_bytes = 6 * MiB;
    config.host_swap_bytes = 8 * MiB;
    config.eager_allocation = true;
    config.overlap_allocation = true;
    gpu::GpuDevice wide_device(makeConfig());
    cuvmm::Driver wide_driver(wide_device);
    VAttention sparse(driver_, config);
    VAttention wide(wide_driver, config);

    const auto B = static_cast<std::size_t>(config.max_batch_size);
    std::vector<i64> target(B, 0);
    std::vector<char> swapped(B, 0);
    std::vector<int> live;
    Rng rng(2024);
    int steps_checked = 0;
    int preemptions = 0;
    for (int op = 0; op < 3000; ++op) {
        const i64 dice = rng.uniformInt(0, 99);
        if (dice < 15) {
            auto a = sparse.allocReqId();
            auto b = wide.allocReqId();
            ASSERT_EQ(a.isOk(), b.isOk());
            if (a.isOk()) {
                ASSERT_EQ(a.value(), b.value());
                live.push_back(a.value());
                target[static_cast<std::size_t>(a.value())] =
                    rng.uniformInt(1, 3000);
            }
        } else if (dice < 25 && !live.empty()) {
            const auto pick = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<i64>(live.size()) - 1));
            const int slot = live[pick];
            ASSERT_TRUE(sparse.freeReqId(slot).isOk());
            ASSERT_TRUE(wide.freeReqId(slot).isOk());
            target[static_cast<std::size_t>(slot)] = 0;
            swapped[static_cast<std::size_t>(slot)] = 0;
            live.erase(live.begin() + static_cast<long>(pick));
        } else if (dice < 32 && !live.empty()) {
            const int slot = live[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<i64>(live.size()) - 1))];
            auto &is_swapped = swapped[static_cast<std::size_t>(slot)];
            const SwapStats a = is_swapped ? sparse.swapInReq(slot)
                                           : sparse.swapOutReq(slot);
            const SwapStats b = is_swapped ? wide.swapInReq(slot)
                                           : wide.swapOutReq(slot);
            ASSERT_EQ(a, b) << "op " << op;
            if (a.status.isOk()) {
                is_swapped = !is_swapped;
            }
        } else if (dice < 50) {
            const auto window =
                static_cast<TimeNs>(rng.uniformInt(0, 4)) * kMsec;
            sparse.computePhase(window);
            wide.computePhase(window);
        } else {
            std::vector<std::pair<int, i64>> entries;
            std::vector<i64> seq_lens(B, 0);
            for (int slot : live) {
                auto &len = target[static_cast<std::size_t>(slot)];
                len = std::min<i64>(config.max_context_len,
                                    len + rng.uniformInt(0, 600));
                if (!swapped[static_cast<std::size_t>(slot)]) {
                    entries.emplace_back(slot, len);
                    seq_lens[static_cast<std::size_t>(slot)] = len;
                }
            }
            for (std::size_t i = entries.size(); i > 1; --i) {
                std::swap(entries[i - 1],
                          entries[static_cast<std::size_t>(rng.uniformInt(
                              0, static_cast<i64>(i) - 1))]);
            }
            const StepStats a = sparse.step(entries);
            const StepStats b = wide.step(seq_lens);
            ASSERT_EQ(a, b) << "op " << op;
            ++steps_checked;
            if (!a.status.isOk()) {
                // Preempt the newest request, as an engine would.
                ASSERT_EQ(a.status.code(), ErrorCode::kOutOfMemory);
                ASSERT_FALSE(live.empty());
                ++preemptions;
                const int slot = live.back();
                ASSERT_TRUE(sparse.freeReqId(slot).isOk());
                ASSERT_TRUE(wide.freeReqId(slot).isOk());
                target[static_cast<std::size_t>(slot)] = 0;
                swapped[static_cast<std::size_t>(slot)] = 0;
                live.pop_back();
            }
        }
        ASSERT_EQ(driver_.counters(), wide_driver.counters())
            << "op " << op;
        ASSERT_TRUE(test::auditClean(sparse)) << "op " << op;
    }
    EXPECT_EQ(sparse.stats().steps, wide.stats().steps);
    EXPECT_EQ(sparse.stats().sync_handles, wide.stats().sync_handles);
    EXPECT_EQ(sparse.stats().background_handles,
              wide.stats().background_handles);
    EXPECT_GT(steps_checked, 1000);
    // The trace reached the interesting paths.
    EXPECT_GT(sparse.stats().swap_out_reqs, 0);
    EXPECT_GT(sparse.stats().swap_in_reqs, 0);
    EXPECT_GT(sparse.stats().reclaimed_handles, 0);
    EXPECT_GT(preemptions, 0);
}

TEST_F(VAttentionTest, KvWritesThroughSteppedTensors)
{
    auto config = smallConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);
    const int req = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(100)).status.isOk());

    auto view = vattn.requestView(1, req);
    float k_row[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    view.storeK(99, 1, k_row);
    float out[8] = {};
    view.loadK(99, 1, out);
    for (int i = 0; i < 8; ++i) {
        EXPECT_FLOAT_EQ(out[i], k_row[i]);
    }
}

TEST_F(VAttentionTest, DeferredReclamationReusesMappings)
{
    auto config = smallConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);

    // R1 runs with 3000 tokens, then completes.
    const int r1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(3000)).status.isOk());
    ASSERT_TRUE(vattn.freeReqId(r1).isOk());
    EXPECT_EQ(vattn.cachedHandles(), 8);

    // R2 arrives: gets R1's reqId with mappings intact (Figure 5 e);
    // a 2500-token prompt fits in the cached 2 groups -> ZERO driver
    // calls in step.
    const int r2 = vattn.allocReqId().value();
    EXPECT_EQ(r2, r1);
    EXPECT_EQ(vattn.stats().reused_cached_slots, 1u);
    auto stats = vattn.step(lens(2500));
    ASSERT_TRUE(stats.status.isOk());
    EXPECT_EQ(stats.handles_mapped, 0);
    EXPECT_EQ(stats.critical_ns, 0u);
}

TEST_F(VAttentionTest, ReclamationDisabledFreesEagerly)
{
    auto config = smallConfig();
    config.deferred_reclamation = false;
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);

    const int r1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(3000)).status.isOk());
    const i64 available_before = vattn.poolAvailableHandles();
    ASSERT_TRUE(vattn.freeReqId(r1).isOk());
    EXPECT_EQ(vattn.cachedHandles(), 0);
    EXPECT_EQ(vattn.physBytesMapped(), 0u);
    // All 8 handles became available again (the small-page path
    // destroys them; the budget slots reopen).
    EXPECT_EQ(vattn.poolAvailableHandles(), available_before + 8);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(VAttentionTest, OomTriggersStealFromCached)
{
    auto config = smallConfig();
    // Budget: exactly 12 handles = 3 group rows.
    config.phys_budget_bytes = 12 * 64 * KiB;
    VAttention vattn(driver_, config);

    // R1 uses 2 group rows (8 handles), completes, stays cached.
    const int r1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(3000)).status.isOk());
    ASSERT_TRUE(vattn.freeReqId(r1).isOk());

    // R2 gets R1's cached slot. R3 needs 2 rows but only 1 is free:
    // one row must be stolen from R2's... no wait, R2 is active.
    const int r2 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(3000, 0)).status.isOk());

    // R3: slot with nothing cached; needs 2 rows, 1 free in pool,
    // and NO cached slots remain -> OOM.
    const int r3 = vattn.allocReqId().value();
    ASSERT_NE(r3, r2);
    std::vector<i64> both(4, 0);
    both[static_cast<std::size_t>(r2)] = 3000;
    both[static_cast<std::size_t>(r3)] = 3000;
    auto stats = vattn.step(both);
    EXPECT_EQ(stats.status.code(), ErrorCode::kOutOfMemory);

    // Preempt R2 (engine behaviour) and retry: now R3 fits.
    ASSERT_TRUE(vattn.freeReqId(r2).isOk());
    std::vector<i64> only(4, 0);
    only[static_cast<std::size_t>(r3)] = 3000;
    stats = vattn.step(only);
    EXPECT_TRUE(stats.status.isOk());
    EXPECT_GT(stats.handles_stolen, 0);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(VAttentionTest, CanAllocateAccountsCachedAndPool)
{
    auto config = smallConfig();
    config.phys_budget_bytes = 8 * 64 * KiB; // 2 group rows
    VAttention vattn(driver_, config);

    EXPECT_TRUE(vattn.canAllocate(4096));   // 2 rows available
    EXPECT_FALSE(vattn.canAllocate(4097));  // would need 3 rows
    EXPECT_FALSE(vattn.canAllocate(99999)); // beyond max context

    const int r1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(2048)).status.isOk()); // 1 row used
    EXPECT_TRUE(vattn.canAllocate(2048));
    EXPECT_FALSE(vattn.canAllocate(4096));

    // Complete R1: its cached row makes a 4096 prompt feasible again
    // (reuse 1 cached row + 1 free row).
    ASSERT_TRUE(vattn.freeReqId(r1).isOk());
    EXPECT_TRUE(vattn.canAllocate(4096));
}

TEST_F(VAttentionTest, BatchFullRejectsAlloc)
{
    auto config = smallConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(vattn.allocReqId().isOk());
    }
    EXPECT_EQ(vattn.allocReqId().code(), ErrorCode::kOutOfMemory);
    EXPECT_FALSE(vattn.canAllocate(1));
}

TEST_F(VAttentionTest, FreeReqIdValidation)
{
    auto config = smallConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);
    EXPECT_FALSE(vattn.freeReqId(-1).isOk());
    EXPECT_FALSE(vattn.freeReqId(0).isOk()); // not active
    const int req = vattn.allocReqId().value();
    EXPECT_TRUE(vattn.freeReqId(req).isOk());
    EXPECT_FALSE(vattn.freeReqId(req).isOk()); // double free
}

TEST_F(VAttentionTest, OverlapHidesDecodeAllocation)
{
    auto config = smallConfig();
    config.overlap_allocation = true;
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);

    const int req = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(2040)).status.isOk()); // 1 group row

    // Iteration at 2048 tokens: the NEXT token (2049) needs a new
    // group. The background thread maps it during this iteration's
    // 50ms compute window...
    ASSERT_TRUE(vattn.step(lens(2048)).status.isOk());
    vattn.computePhase(50 * kMsec);
    EXPECT_EQ(vattn.groupsMapped(req), 2); // prefetched
    EXPECT_GT(vattn.stats().background_handles, 0);

    // ...so the step that actually crosses the boundary pays nothing.
    auto stats = vattn.step(lens(2049));
    ASSERT_TRUE(stats.status.isOk());
    EXPECT_EQ(stats.handles_mapped, 0);
    EXPECT_EQ(stats.critical_ns, 0u);
}

TEST_F(VAttentionTest, TinyWindowLeavesWorkForCriticalPath)
{
    auto config = smallConfig();
    config.overlap_allocation = true;
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);

    vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(2048)).status.isOk());
    // A 1us window cannot fit even one 8us map call.
    vattn.computePhase(1 * kUsec);

    auto stats = vattn.step(lens(2049));
    ASSERT_TRUE(stats.status.isOk());
    // All (or most) of the group row fell to the critical path.
    EXPECT_GT(stats.handles_mapped + stats.handles_stolen, 0);
    EXPECT_GT(stats.critical_ns, 0u);
}

TEST_F(VAttentionTest, EagerAllocationWarmsAFreeSlot)
{
    auto config = smallConfig();
    config.eager_allocation = true;
    config.eager_groups = 1;
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);

    vattn.computePhase(10 * kMsec);
    // A free slot was parked as cached with one group row mapped.
    EXPECT_EQ(vattn.slots().numCached(), 1);
    EXPECT_EQ(vattn.cachedHandles(), 4);

    // The next request starts on the warm slot: a prompt within one
    // group needs no driver calls.
    const int req = vattn.allocReqId().value();
    auto stats = vattn.step(lens(2000));
    (void)req;
    ASSERT_TRUE(stats.status.isOk());
    EXPECT_EQ(stats.handles_mapped, 0);
    EXPECT_EQ(stats.critical_ns, 0u);
}

TEST_F(VAttentionTest, WatermarkReclamationRefillsPool)
{
    auto config = smallConfig();
    config.reclaim_low_watermark = 0.5; // refill pool to 50%
    config.phys_budget_bytes = 8 * 64 * KiB; // 8 handles
    VAttention vattn(driver_, config);

    // Use everything, then cache it.
    const int r1 = vattn.allocReqId().value();
    ASSERT_TRUE(vattn.step(lens(4096)).status.isOk()); // all 8 handles
    ASSERT_TRUE(vattn.freeReqId(r1).isOk());
    EXPECT_EQ(vattn.poolFreeHandles(), 0);
    EXPECT_EQ(vattn.cachedHandles(), 8);

    // Background reclamation trims cached groups until the pool is
    // back above the watermark (4 handles).
    vattn.computePhase(100 * kMsec);
    EXPECT_GE(vattn.poolAvailableHandles(), 4);
    EXPECT_LT(vattn.cachedHandles(), 8);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(VAttentionTest, EagerGroupsClampedToRequestMaximum)
{
    // Regression (found by fuzzing): eager_groups larger than a
    // request's maximum group count must not panic growTo.
    auto config = smallConfig();
    config.eager_allocation = true;
    config.eager_groups = 100; // max per request is 4
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);
    vattn.computePhase(100 * kMsec);
    EXPECT_LE(vattn.cachedHandles(), 4 * 4);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(VAttentionTest, EagerKeepsExactlyOneWarmSlot)
{
    // Regression: eager allocation must not park a new warm slot on
    // every computePhase call (it once leaked the whole budget).
    auto config = smallConfig();
    config.eager_allocation = true;
    config.eager_groups = 1;
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);
    for (int i = 0; i < 50; ++i) {
        vattn.computePhase(10 * kMsec);
    }
    EXPECT_EQ(vattn.slots().numCached(), 1);
    EXPECT_EQ(vattn.cachedHandles(), 4); // one group row
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(VAttentionTest, StatsAccumulate)
{
    auto config = smallConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);
    vattn.allocReqId().value();
    vattn.step(lens(3000));
    vattn.step(lens(3001));
    EXPECT_EQ(vattn.stats().steps, 2u);
    EXPECT_EQ(vattn.stats().sync_handles, 8);
    EXPECT_GT(vattn.stats().critical_ns, 0u);
}

} // namespace
} // namespace vattn::core
