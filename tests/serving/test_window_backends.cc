/**
 * @file
 * Sliding-window geometries at the serving-backend level:
 * layer-grouped block pools on the paged backend, uniform billing on
 * vAttention, one window check shared by both backends, the paged
 * prefix-caching incompatibility and the paged step's ensure skip.
 * Per-layer slotPhysBytes, the freeing of dead leading pages and swap
 * round trips of windowed slots are part of the backend contract
 * suite.
 */

#include <gtest/gtest.h>

#include "common/audit.hh"
#include "common/rng.hh"
#include "serving/lockstep_backend.hh"
#include "test_util.hh"

namespace vattn::serving
{
namespace
{

constexpr i64 kWindow = 4096;

perf::ModelSpec
interleaved()
{
    return perf::ModelSpec::yi6B().withSlidingWindowInterleave(kWindow);
}

TEST(PagedWindowBackend, GroupsLayersByWindowClass)
{
    PagedBackend uniform(perf::ModelSpec::yi6B(), 1, 16, 1 * GiB);
    EXPECT_EQ(uniform.runtime().numLayerGroups(), 1);
    EXPECT_EQ(uniform.runtime().groupWindowTokens(0), 0);

    PagedBackend backend(interleaved(), 1, 16, 8 * GiB);
    ASSERT_EQ(backend.runtime().numLayerGroups(), 2);
    EXPECT_EQ(backend.runtime().groupWindowTokens(0), 0);
    EXPECT_EQ(backend.runtime().groupWindowTokens(1), kWindow);
    // The 1:1 interleave splits the budget pro rata: equal block
    // counts in both class pools.
    EXPECT_EQ(backend.runtime().groupManager(0).numBlocks(),
              backend.runtime().groupManager(1).numBlocks());
}

TEST(WindowedModel, BothBackendsAcceptTheSameWindows)
{
    // A window wider than the context is refused where the model is
    // built, so no backend gets to accept it while the other refuses.
    test::ScopedThrowErrors guard;
    perf::ModelSpec model = perf::ModelSpec::yi6B();
    model.max_context_len = 4096;
    EXPECT_THROW(model.withSlidingWindowInterleave(8192), SimError);

    // A window as wide as the context builds on both.
    const perf::ModelSpec widest = model.withSlidingWindowInterleave(4096);
    PagedBackend paged(widest, 1, 16, 1 * GiB);
    EXPECT_EQ(paged.runtime().groupWindowTokens(1), 4096);
    VAttentionBackend vattn(widest, 1, {}, 1 * GiB);
    EXPECT_EQ(vattn.runtime().geometry().windowTokens(1), 4096);
}

TEST(PagedWindowBackend, PrefixCachingRefusesSlidingLayers)
{
    // vLLM's hash-block prefix cache keys on immutable full blocks;
    // window eviction breaks that contract, so the combination is a
    // configuration error.
    test::ScopedThrowErrors guard;
    EXPECT_THROW(PagedBackend(interleaved(), 1, 16, 1 * GiB,
                              /*enable_prefix_caching=*/true),
                 SimError);
}

TEST(VAttnWindowBackend, UniformModelsKeepTheHistoricalBilling)
{
    VAttentionBackend backend(perf::ModelSpec::yi6B(), 1, {}, 4ULL * GiB);
    const int slot = backend.allocSlot().value();
    ASSERT_TRUE(backend.ensure({{slot, 4096}}).isOk());
    // 2 groups per buffer x 64 buffers.
    EXPECT_EQ(backend.slotPhysBytes(slot),
              static_cast<u64>(64 * 2) * 2 * MiB);
}

// ---- Paged ensure skip ------------------------------------------------
//
// The paged runtime's step skips a slot whose block lists already cover
// the context and whose window leads would not advance. These cases
// pin the predicate to exactly the calls that change nothing, under
// TP lockstep and on a sliding-window geometry.

constexpr i64 kSkipBlock = 16;
constexpr i64 kSkipWindow = 64;

struct SkipCase
{
    int tp;
    bool window;
};

class PagedEnsureSkip : public ::testing::TestWithParam<SkipCase>
{
  protected:
    static PagedBackend
    make()
    {
        const auto model =
            GetParam().window
                ? perf::ModelSpec::yi6B().withSlidingWindowInterleave(
                      kSkipWindow)
                : perf::ModelSpec::yi6B();
        // The per-worker checks below read every follower.
        const ReplicateFollowers replicate;
        return PagedBackend(model, GetParam().tp, kSkipBlock, 2 * GiB,
                            /*enable_prefix_caching=*/false,
                            /*host_swap_bytes=*/256 * MiB);
    }

    /** Every worker's free and evictable counts per group, then each
     *  slot's list size and lead per group. */
    static std::vector<i64>
    poolState(PagedBackend &backend, const std::vector<int> &slots)
    {
        std::vector<i64> state;
        for (int w = 0; w < backend.numWorkers(); ++w) {
            const auto &pool = backend.workerGroup().worker(w);
            for (int g = 0; g < pool.numLayerGroups(); ++g) {
                state.push_back(pool.groupManager(g).numFree());
                state.push_back(pool.groupManager(g).numEvictable());
            }
            for (int slot : slots) {
                for (int g = 0; g < pool.numLayerGroups(); ++g) {
                    const auto &list = pool.slotBlocks(slot, g);
                    state.push_back(
                        static_cast<i64>(list.blocks().size()));
                    state.push_back(list.lead());
                }
            }
        }
        return state;
    }

    /** The lead's skip verdict, checked equal on every follower. */
    static bool
    skips(PagedBackend &backend, int slot, i64 len)
    {
        const bool lead = backend.workerGroup().lead().ensureIsNoop(slot, len);
        for (int w = 1; w < backend.numWorkers(); ++w) {
            EXPECT_EQ(backend.workerGroup().worker(w).ensureIsNoop(slot, len),
                      lead)
                << "worker " << w;
        }
        return lead;
    }
};

TEST_P(PagedEnsureSkip, LeadCrossingWithoutANewBlockIsNotSkipped)
{
    PagedBackend backend = make();
    const int slot = backend.allocSlot().value();
    // 129 tokens: 9 blocks; a 64-token window kills (129-64)/16 = 4.
    ASSERT_TRUE(backend.ensure({{slot, 129}}).isOk());
    EXPECT_TRUE(skips(backend, slot, 129));
    const i64 full_free = backend.runtime().groupManager(0).numFree();

    // 144 tokens still fit in 9 blocks, but on a window geometry the
    // dead lead reaches 5: that call must run and free the block.
    if (GetParam().window) {
        const i64 window_free = backend.runtime().groupManager(1).numFree();
        EXPECT_FALSE(skips(backend, slot, 144));
        ASSERT_TRUE(backend.ensure({{slot, 144}}).isOk());
        EXPECT_EQ(backend.runtime().groupManager(1).numFree(), window_free + 1);
        for (int w = 0; w < backend.numWorkers(); ++w) {
            EXPECT_EQ(
                backend.workerGroup().worker(w).slotBlocks(slot, 1).lead(),
                5);
        }
    } else {
        EXPECT_TRUE(skips(backend, slot, 144));
        ASSERT_TRUE(backend.ensure({{slot, 144}}).isOk());
    }
    EXPECT_EQ(backend.runtime().groupManager(0).numFree(), full_free);
    EXPECT_TRUE(skips(backend, slot, 144));

    // One token past the block: a new block in every group.
    EXPECT_FALSE(skips(backend, slot, 145));
    ASSERT_TRUE(backend.ensure({{slot, 145}}).isOk());
    EXPECT_EQ(backend.runtime().groupManager(0).numFree(), full_free - 1);

    EXPECT_TRUE(test::auditClean(backend));
}

TEST_P(PagedEnsureSkip, SwappedOutSlotIsNotSkipped)
{
    PagedBackend backend = make();
    const int slot = backend.allocSlot().value();
    ASSERT_TRUE(backend.ensure({{slot, 129}}).isOk());
    ASSERT_TRUE(skips(backend, slot, 129));
    ASSERT_TRUE(backend.swapOut(slot).isOk());
    // The lists left with the blocks: the slot no longer covers its
    // context, so an ensure would have to run.
    EXPECT_FALSE(skips(backend, slot, 129));
    ASSERT_TRUE(backend.swapIn(slot).isOk());
    EXPECT_TRUE(skips(backend, slot, 129));

    // Unknown slots are never skipped: the call still panics.
    test::ScopedThrowErrors guard;
    EXPECT_FALSE(skips(backend, 99, 16));
    EXPECT_THROW((void)backend.ensure({{99, 16}}), SimError);
}

TEST_P(PagedEnsureSkip, AuditNetPanicsWhenASkipWouldHaveChangedTheSlot)
{
    // Audit builds re-run ensureSlot for every skipped slot through
    // checkSkippedEnsure; drive it directly here so every build
    // checks that it stays quiet on a true no-op and panics on a call
    // that grows the slot.
    PagedBackend backend = make();
    const int slot = backend.allocSlot().value();
    ASSERT_TRUE(backend.ensure({{slot, 129}}).isOk());
    for (int w = 0; w < backend.numWorkers(); ++w) {
        backend.workerGroup().worker(w).checkSkippedEnsure(slot, 129);
    }
    test::ScopedThrowErrors guard;
    EXPECT_THROW(backend.workerGroup().lead().checkSkippedEnsure(slot, 145),
                 SimError);
}

TEST_P(PagedEnsureSkip, RandomWalkMatchesABlockAtATimeReference)
{
    // The backend under test sees random jumps (often inside a block,
    // sometimes across several boundaries); the reference is ensured
    // at every token in between, so it crosses each block and lead
    // boundary on its own. Both must hold the same pool state after
    // every step, and a call is skipped exactly when it changes
    // nothing.
    PagedBackend backend = make();
    PagedBackend reference = make();
    constexpr int kSlots = 3;
    std::vector<int> slots;
    for (int i = 0; i < kSlots; ++i) {
        slots.push_back(backend.allocSlot().value());
        ASSERT_EQ(reference.allocSlot().value(), slots.back());
    }
    std::vector<i64> lens(kSlots, 0);
    Rng rng(2025);
    int skipped = 0;
    int ran = 0;
    for (int step = 0; step < 600; ++step) {
        const auto i = static_cast<std::size_t>(rng.uniformInt(0, 2));
        const int slot = slots[i];
        if (rng.uniformInt(0, 39) == 0 || lens[i] > 1500) {
            // Finish the request and lease the id again.
            backend.freeSlot(slot);
            reference.freeSlot(slot);
            ASSERT_EQ(backend.allocSlot().value(), slot);
            ASSERT_EQ(reference.allocSlot().value(), slot);
            lens[i] = 0;
        }
        const i64 len = lens[i] + (rng.uniformInt(0, 3) == 0
                                       ? rng.uniformInt(17, 80)
                                       : rng.uniformInt(0, 6));
        const auto before = poolState(backend, slots);
        const bool skip = skips(backend, slot, len);
        ASSERT_TRUE(backend.ensure({{slot, len}}).isOk());
        EXPECT_EQ(skip, poolState(backend, slots) == before)
            << "step " << step << ": slot " << slot << " to " << len;
        (skip ? skipped : ran) += 1;
        for (i64 t = lens[i] + 1; t <= len; ++t) {
            ASSERT_TRUE(reference.ensure({{slot, t}}).isOk());
        }
        lens[i] = len;
        ASSERT_EQ(poolState(backend, slots), poolState(reference, slots))
            << "step " << step;
    }
    EXPECT_GT(skipped, 100);
    EXPECT_GT(ran, 100);

    for (PagedBackend *b : {&backend, &reference}) {
        EXPECT_TRUE(test::auditClean(*b));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PagedEnsureSkip,
    ::testing::Values(SkipCase{1, false}, SkipCase{2, false},
                      SkipCase{1, true}, SkipCase{2, true}),
    [](const auto &info) {
        return "Tp" + std::to_string(info.param.tp) +
               (info.param.window ? "Window" : "Uniform");
    });

} // namespace
} // namespace vattn::serving
