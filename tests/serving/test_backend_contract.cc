/**
 * @file
 * The MemoryBackend contract, checked once on both implementations at
 * TP 1 and TP 2: a swap-out -> export -> import -> swap-in round trip
 * moves equal bytes, an image is adopted only by a backend that cuts
 * KV into the same pages (paged blocks cross TP degrees, vAttention
 * page-groups and the other family's images do not), a backend
 * without a host tier refuses swaps and imports, a prefix hit is
 * served at the backend's own granularity, a prefix-shared slot never
 * swaps out while its sharer runs, canSwapOut predicts every
 * swapOut refusal, a sliding-window slot holds, swaps and regrows
 * only its live window and frees its dead leading pages as it grows,
 * ensureSlack counts exactly the ensures that would do nothing,
 * a slot's lifecycle keeps the admission
 * watermark and the budget, and both refuse the same malformed window
 * lists. Every case ends with a clean audit, so the TP-2 cases also
 * check the cross-worker lockstep state. The paged fault-injection
 * tests at the end corrupt one TP worker and check that the audit
 * localizes it. Every backend here replicates fully
 * (ReplicateFollowers), so a TP-2 case has a real follower to check.
 */

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/layer_windows.hh"
#include "serving/lockstep_backend.hh"
#include "test_util.hh"

namespace vattn::serving::contract
{

struct Paged;
struct VAttn;

/** vLLM-style block pools (16-token blocks). */
struct Paged
{
    using Backend = PagedBackend;
    using Other = VAttn;
    /** A block holds block_size tokens at any TP degree. */
    static constexpr bool kImageCrossesTp = true;
    /** Context of the round-trip request. */
    static constexpr i64 kTokens = 1000;

    static std::unique_ptr<Backend>
    make(int tp, u64 host_swap_bytes, bool prefix_caching,
         const perf::ModelSpec &model = perf::ModelSpec::yi6B(),
         u64 budget_bytes = 64 * MiB)
    {
        const ReplicateFollowers replicate;
        return std::make_unique<Backend>(model, tp, 16, budget_bytes,
                                         prefix_caching, host_swap_bytes);
    }

    static i64 pageTokens(const Backend &backend)
    {
        return backend.runtime().blockSize();
    }

    /** Pages the pool holds. */
    static i64 poolPages(const Backend &backend)
    {
        return backend.runtime().groupManager(0).numBlocks();
    }
    /** Admission keeps one block of headroom per running request. */
    static constexpr i64 kHeadroomPagesPerSlot = 1;
    /** Blocks are CPU bookkeeping over a committed pool. */
    static constexpr bool kEnsurePaysDriverTime = false;
    /** A freed slot's blocks return to the pool. */
    static constexpr bool kFreeKeepsMapping = false;

    /** Four whole blocks: every one of them shareable. */
    static i64 sharedPromptTokens(const Backend &) { return 64; }

    /** A hit serves whole blocks and copies nothing. */
    static i64 servedTokens(const Backend &backend, i64 shared)
    {
        return shared / pageTokens(backend) * pageTokens(backend);
    }
    static constexpr bool kCopiesTail = false;

    /** One unit per window class, cut into blocks. */
    static void
    expectOwnImage(const Backend &backend, const SwappedKvImage &image)
    {
        EXPECT_EQ(static_cast<int>(image.units.size()),
                  backend.runtime().numLayerGroups());
        for (const SwappedKvImage::Unit &unit : image.units) {
            EXPECT_EQ(unit.layout.tokens_per_page, pageTokens(backend));
        }
    }
};

/** vAttention with 64KB page-groups and no background allocation, so
 *  every mapping the test sees was asked for. */
struct VAttn
{
    using Backend = VAttentionBackend;
    using Other = Paged;
    /** A page-group holds twice the tokens on a TP-2 worker's shard. */
    static constexpr bool kImageCrossesTp = false;
    static constexpr i64 kTokens = 4096;

    static std::unique_ptr<Backend>
    make(int tp, u64 host_swap_bytes, bool prefix_caching,
         const perf::ModelSpec &model = perf::ModelSpec::yi6B(),
         u64 budget_bytes = 512 * MiB)
    {
        VAttentionBackend::Options options;
        options.max_batch_size = 4;
        options.page_group = PageGroup::k64KB;
        options.eager_allocation = false;
        options.overlap_allocation = false;
        const ReplicateFollowers replicate;
        return std::make_unique<Backend>(model, tp, options, budget_bytes,
                                         prefix_caching, host_swap_bytes);
    }

    static i64 pageTokens(const Backend &backend)
    {
        return backend.runtime().geometry().tokensPerGroup();
    }

    /** Page-group rows (one group on every buffer) the pool holds. */
    static i64 poolPages(const Backend &backend)
    {
        return backend.runtime().poolAvailableHandles() /
               backend.runtime().geometry().numBuffers();
    }
    /** Admission reserves nothing beyond the prompt's page-groups. */
    static constexpr i64 kHeadroomPagesPerSlot = 0;
    /** Each new page-group is a driver map on the critical path. */
    static constexpr bool kEnsurePaysDriverTime = true;
    /** Deferred reclamation keeps a freed slot's groups mapped. */
    static constexpr bool kFreeKeepsMapping = true;

    /** One fully written page-group plus change. */
    static i64
    sharedPromptTokens(const Backend &backend)
    {
        return backend.runtime().geometry().tokensPerGroup() + 8;
    }

    /** A hit aliases the page-group and copies the partial tail. */
    static i64 servedTokens(const Backend &, i64 shared) { return shared; }
    static constexpr bool kCopiesTail = true;

    /** One unit per KV buffer, cut into page-groups. */
    static void
    expectOwnImage(const Backend &backend, const SwappedKvImage &image)
    {
        const core::KvGeometry &geometry = backend.runtime().geometry();
        EXPECT_EQ(static_cast<int>(image.units.size()),
                  geometry.numBuffers());
        for (const SwappedKvImage::Unit &unit : image.units) {
            EXPECT_EQ(unit.layout.tokens_per_page,
                      geometry.tokensPerGroup());
        }
    }
};

template <typename FamilyT, int kTp>
struct Case
{
    using Family = FamilyT;
    static constexpr int tp = kTp;
};

} // namespace vattn::serving::contract

// The cases live in the global namespace because CTest names each
// typed test after its type: BackendContract.<Test><PagedTp1>.
struct PagedTp1 : vattn::serving::contract::Case<
                      vattn::serving::contract::Paged, 1> {};
struct PagedTp2 : vattn::serving::contract::Case<
                      vattn::serving::contract::Paged, 2> {};
struct VAttentionTp1 : vattn::serving::contract::Case<
                           vattn::serving::contract::VAttn, 1> {};
struct VAttentionTp2 : vattn::serving::contract::Case<
                           vattn::serving::contract::VAttn, 2> {};

namespace vattn::serving::contract
{

template <typename T>
class BackendContract : public ::testing::Test
{
};

using Cases = ::testing::Types<PagedTp1, PagedTp2, VAttentionTp1,
                               VAttentionTp2>;
TYPED_TEST_SUITE(BackendContract, Cases);

TYPED_TEST(BackendContract, SwapExportImportRoundTripMovesEqualBytes)
{
    using Family = typename TypeParam::Family;
    auto donor = Family::make(TypeParam::tp, 1 * GiB, false);
    auto target = Family::make(TypeParam::tp, 1 * GiB, false);
    ASSERT_TRUE(donor->hasHostTier());
    ASSERT_TRUE(target->hasHostTier());

    auto slot = donor->allocSlot();
    ASSERT_TRUE(slot.isOk());
    ASSERT_TRUE(donor->ensure({{slot.value(), Family::kTokens}}).isOk());
    const u64 device_bytes = donor->bytesInUse();
    EXPECT_GT(device_bytes, 0u);
    EXPECT_EQ(donor->slotPhysBytes(slot.value()), device_bytes);

    auto out = donor->swapOut(slot.value());
    ASSERT_TRUE(out.isOk());
    EXPECT_EQ(out.value().bytes, device_bytes);
    EXPECT_GT(out.value().stall_ns, 0);
    EXPECT_EQ(donor->bytesInUse(), 0u);

    auto image = donor->exportSwapped(slot.value());
    ASSERT_TRUE(image.isOk());
    EXPECT_EQ(image.value().bytes, out.value().bytes);
    EXPECT_FALSE(image.value().empty());
    Family::expectOwnImage(*donor, image.value());
    EXPECT_TRUE(test::auditClean(*donor));

    ASSERT_TRUE(target->canImportSwapped(image.value()));
    auto imported = target->importSwapped(image.value());
    ASSERT_TRUE(imported.isOk());
    ASSERT_TRUE(target->canSwapIn(imported.value()));
    auto in = target->swapIn(imported.value());
    ASSERT_TRUE(in.isOk());
    EXPECT_EQ(in.value().bytes, out.value().bytes);
    // The same live ranges are resident on the target as the donor held.
    EXPECT_EQ(target->bytesInUse(), device_bytes);
    EXPECT_TRUE(test::auditClean(*target));
    target->freeSlot(imported.value());
    EXPECT_TRUE(test::auditClean(*target));
}

/** A swapped-out image of a @p tokens-token request on @p donor. */
template <typename Backend>
SwappedKvImage
swappedImage(Backend &donor, i64 tokens)
{
    const int slot = donor.allocSlot().value();
    donor.ensure({{slot, tokens}}).status().expectOk("donor ensure");
    donor.swapOut(slot).status().expectOk("donor swap-out");
    auto image = donor.exportSwapped(slot);
    image.status().expectOk("donor export");
    return image.value();
}

TYPED_TEST(BackendContract, ImageFromOtherTpDegreeOnlyWhenPagesMatch)
{
    // Replicas of one cluster may run different TP degrees. A paged
    // block holds block_size tokens at any TP, so its image migrates;
    // a vAttention page-group holds twice the tokens on a TP-2 shard,
    // so the image would revive with the wrong group count.
    using Family = typename TypeParam::Family;
    const int other_tp = TypeParam::tp == 1 ? 2 : 1;
    auto donor = Family::make(TypeParam::tp, 1 * GiB, false);
    auto target = Family::make(other_tp, 1 * GiB, false);
    const SwappedKvImage image = swappedImage(*donor, Family::kTokens);

    EXPECT_EQ(target->canImportSwapped(image), Family::kImageCrossesTp);
    auto imported = target->importSwapped(image);
    if (Family::kImageCrossesTp) {
        ASSERT_TRUE(imported.isOk());
        EXPECT_EQ(target->liveSlots(), 1);
        auto in = target->swapIn(imported.value());
        ASSERT_TRUE(in.isOk());
        EXPECT_GT(target->bytesInUse(), 0u);
        target->freeSlot(imported.value());
    } else {
        EXPECT_EQ(imported.code(), ErrorCode::kInvalidArgument);
        EXPECT_EQ(target->liveSlots(), 0);
    }
    EXPECT_TRUE(test::auditClean(*target));
}

TYPED_TEST(BackendContract, OtherFamilyImageRefused)
{
    using Family = typename TypeParam::Family;
    using Other = typename Family::Other;
    auto donor = Family::make(TypeParam::tp, 1 * GiB, false);
    auto target = Other::make(TypeParam::tp, 1 * GiB, false);
    const SwappedKvImage image = swappedImage(*donor, Family::kTokens);

    EXPECT_FALSE(target->canImportSwapped(image));
    EXPECT_EQ(target->importSwapped(image).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(target->liveSlots(), 0);
    EXPECT_TRUE(test::auditClean(*target));
    // The donor still takes its own image back.
    EXPECT_TRUE(donor->canImportSwapped(image));
}

TYPED_TEST(BackendContract, NoHostTierRefusesSwapAndImport)
{
    using Family = typename TypeParam::Family;
    auto no_tier = Family::make(TypeParam::tp, 0, false);
    EXPECT_FALSE(no_tier->hasHostTier());
    auto slot = no_tier->allocSlot();
    ASSERT_TRUE(slot.isOk());
    ASSERT_TRUE(
        no_tier->ensure({{slot.value(), Family::kTokens}}).isOk());
    EXPECT_FALSE(no_tier->canSwapOut(slot.value()));
    EXPECT_FALSE(no_tier->swapOut(slot.value()).isOk());
    EXPECT_FALSE(no_tier->exportSwapped(slot.value()).isOk());

    // A valid image from a donor with a tier is still refused.
    auto donor = Family::make(TypeParam::tp, 1 * GiB, false);
    auto donor_slot = donor->allocSlot();
    ASSERT_TRUE(donor_slot.isOk());
    ASSERT_TRUE(
        donor->ensure({{donor_slot.value(), Family::kTokens}}).isOk());
    ASSERT_TRUE(donor->swapOut(donor_slot.value()).isOk());
    auto image = donor->exportSwapped(donor_slot.value());
    ASSERT_TRUE(image.isOk());
    EXPECT_FALSE(no_tier->canImportSwapped(image.value()));
    EXPECT_FALSE(no_tier->importSwapped(image.value()).isOk());
    EXPECT_TRUE(test::auditClean(*no_tier));
}

TYPED_TEST(BackendContract, PrefixSharedSlotRefusesSwapOut)
{
    using Family = typename TypeParam::Family;
    auto backend = Family::make(TypeParam::tp, 64 * MiB, true);
    ASSERT_TRUE(backend->hasHostTier());
    ASSERT_TRUE(backend->prefixCachingEnabled());
    const i64 tokens = Family::sharedPromptTokens(*backend);
    std::vector<i32> prompt(static_cast<std::size_t>(tokens));
    std::iota(prompt.begin(), prompt.end(), 7);

    // Request a computes and registers the prompt; b then adopts it.
    PrefixHashCache cache_a;
    PrefixKey key_a{prompt.data(), tokens, &cache_a};
    auto a = backend->allocSlot(key_a, 0);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(backend->ensure({{a.value().slot, tokens}}).isOk());
    backend->registerPrefix(a.value().slot, key_a, tokens);
    PrefixHashCache cache_b;
    PrefixKey key_b{prompt.data(), tokens, &cache_b};
    EXPECT_GT(backend->matchPrefix(key_b), 0);
    auto b = backend->allocSlot(key_b, tokens - 1);
    ASSERT_TRUE(b.isOk());
    ASSERT_GT(b.value().cached_tokens, 0);
    EXPECT_GT(backend->prefixStats().aliased_bytes, 0u);

    // Both ends of the share are pinned to the device.
    EXPECT_FALSE(backend->canSwapOut(a.value().slot));
    EXPECT_FALSE(backend->canSwapOut(b.value().slot));
    EXPECT_EQ(backend->swapOut(a.value().slot).code(),
              ErrorCode::kFailedPrecondition);
    EXPECT_EQ(backend->swapOut(b.value().slot).code(),
              ErrorCode::kFailedPrecondition);
    EXPECT_TRUE(test::auditClean(*backend));

    // Releasing one side unpins the other: a finished sharer's KV is
    // only a prefix-cache entry, which the swap-out gives up.
    backend->freeSlot(b.value().slot);
    EXPECT_TRUE(backend->canSwapOut(a.value().slot));
    auto out = backend->swapOut(a.value().slot);
    ASSERT_TRUE(out.isOk());
    EXPECT_GT(out.value().bytes, 0u);
    EXPECT_GT(out.value().stall_ns, 0);
    EXPECT_EQ(backend->bytesInUse(), 0u);
    EXPECT_TRUE(test::auditClean(*backend));
}

TYPED_TEST(BackendContract, PrefixHitIsServedAndAudited)
{
    using Family = typename TypeParam::Family;
    // Free the sharer first, then the source, and the other way round.
    for (const bool free_source_first : {false, true}) {
        SCOPED_TRACE(free_source_first);
        auto backend = Family::make(TypeParam::tp, 0, true);
        const i64 shared = Family::sharedPromptTokens(*backend);
        std::vector<i32> prompt(static_cast<std::size_t>(shared) + 100);
        std::iota(prompt.begin(), prompt.end(), 3);
        PrefixHashCache cache_a;
        PrefixKey key_a{prompt.data(), shared, &cache_a};
        const int a = backend->allocSlot(key_a, 0).value().slot;
        ASSERT_TRUE(backend->ensure({{a, shared}}).isOk());
        backend->registerPrefix(a, key_a, shared);
        const BackendPrefixStats before = backend->prefixStats();

        // b's prompt extends a's: the registered prefix is served at
        // the backend's own granularity.
        PrefixHashCache cache_b;
        const i64 b_tokens = static_cast<i64>(prompt.size());
        PrefixKey key_b{prompt.data(), b_tokens, &cache_b};
        const i64 served = Family::servedTokens(*backend, shared);
        EXPECT_EQ(backend->matchPrefix(key_b), served);
        auto b = backend->allocSlot(key_b, b_tokens - 1);
        ASSERT_TRUE(b.isOk());
        EXPECT_GT(b.value().cached_tokens, 0);
        EXPECT_EQ(b.value().cached_tokens, served);
        const BackendPrefixStats after = backend->prefixStats();
        EXPECT_GT(after.aliased_bytes, before.aliased_bytes);
        EXPECT_EQ(after.copied_bytes > before.copied_bytes,
                  Family::kCopiesTail);
        ASSERT_TRUE(
            backend->ensure({{a, shared}, {b.value().slot, b_tokens}})
                .isOk());
        EXPECT_TRUE(test::auditClean(*backend));

        backend->freeSlot(free_source_first ? a : b.value().slot);
        EXPECT_TRUE(test::auditClean(*backend));
        backend->freeSlot(free_source_first ? b.value().slot : a);
        EXPECT_TRUE(test::auditClean(*backend));
    }
}

/** canSwapOut(@p slot) must say exactly whether swapOut(@p slot)
 *  succeeds; @p expected is the outcome the case sets up. */
void
expectSwapOutPredicted(MemoryBackend &backend, int slot, bool expected)
{
    const bool predicted = backend.canSwapOut(slot);
    EXPECT_EQ(predicted, expected) << "slot " << slot;
    const auto out = backend.swapOut(slot);
    EXPECT_EQ(out.isOk(), predicted)
        << "slot " << slot << ": " << out.status().message();
}

TYPED_TEST(BackendContract, CanSwapOutPredictsEverySwapOutRefusal)
{
    using Family = typename TypeParam::Family;
    // Size the host tier to hold one request's KV and not two.
    u64 slot_bytes = 0;
    {
        auto probe = Family::make(TypeParam::tp, 1 * GiB, false);
        const int slot = probe->allocSlot().value();
        ASSERT_TRUE(probe->ensure({{slot, Family::kTokens}}).isOk());
        slot_bytes = probe->slotPhysBytes(slot);
        ASSERT_GT(slot_bytes, 0u);
    }
    auto backend =
        Family::make(TypeParam::tp, slot_bytes + slot_bytes / 2, true);
    ASSERT_TRUE(backend->hasHostTier());

    // Unknown slot, and a leased slot that holds no KV yet.
    expectSwapOutPredicted(*backend, 3, false);
    const int empty = backend->allocSlot().value();
    expectSwapOutPredicted(*backend, empty, false);

    // The first request swaps out; a second attempt finds it swapped.
    ASSERT_TRUE(backend->ensure({{empty, Family::kTokens}}).isOk());
    expectSwapOutPredicted(*backend, empty, true);
    expectSwapOutPredicted(*backend, empty, false);

    // The host tier now lacks room for a second request's KV.
    const int second = backend->allocSlot().value();
    ASSERT_TRUE(backend->ensure({{second, Family::kTokens}}).isOk());
    expectSwapOutPredicted(*backend, second, false);
    backend->freeSlot(second);
    backend->freeSlot(empty);

    // Two live requests sharing a prefix: neither side may leave.
    const i64 tokens = Family::sharedPromptTokens(*backend);
    std::vector<i32> prompt(static_cast<std::size_t>(tokens));
    std::iota(prompt.begin(), prompt.end(), 11);
    PrefixHashCache cache_a;
    PrefixKey key_a{prompt.data(), tokens, &cache_a};
    const int a = backend->allocSlot(key_a, 0).value().slot;
    ASSERT_TRUE(backend->ensure({{a, tokens}}).isOk());
    backend->registerPrefix(a, key_a, tokens);
    PrefixHashCache cache_b;
    PrefixKey key_b{prompt.data(), tokens, &cache_b};
    auto b = backend->allocSlot(key_b, tokens - 1);
    ASSERT_TRUE(b.isOk());
    ASSERT_GT(b.value().cached_tokens, 0);
    expectSwapOutPredicted(*backend, a, false);
    expectSwapOutPredicted(*backend, b.value().slot, false);
    EXPECT_TRUE(test::auditClean(*backend));
}

TYPED_TEST(BackendContract, WindowedSlotHoldsSwapsAndRegrowsItsLiveWindow)
{
    // Yi-6B with a 1:1 full/4K-window interleave, against Yi-6B, at a
    // 64K-token context (page-aligned for blocks and page-groups).
    using Family = typename TypeParam::Family;
    constexpr i64 kContext = 64 * 1024;
    constexpr u64 kBudget = 8 * GiB;
    const perf::ModelSpec uniform_model = perf::ModelSpec::yi6B();

    auto uniform = Family::make(TypeParam::tp, 0, false, uniform_model,
                                kBudget);
    const int full = uniform->allocSlot().value();
    ASSERT_TRUE(uniform->ensure({{full, kContext}}).isOk());
    const u64 uniform_bytes = uniform->slotPhysBytes(full);
    const i64 page = Family::pageTokens(*uniform);
    ASSERT_TRUE(uniform->ensure({{full, kContext + page}}).isOk());
    const u64 uniform_page_bytes =
        uniform->slotPhysBytes(full) - uniform_bytes;
    ASSERT_GT(uniform_page_bytes, 0u);

    auto backend = Family::make(
        TypeParam::tp, 4 * GiB, false,
        uniform_model.withSlidingWindowInterleave(4096), kBudget);
    ASSERT_EQ(Family::pageTokens(*backend), page);
    const int slot = backend->allocSlot().value();
    ASSERT_TRUE(backend->ensure({{slot, kContext}}).isOk());
    // Each layer is billed for what it keeps: the full-attention half
    // the whole context, each sliding layer only its 4K live window
    // (billing every layer for the context would say uniform_bytes).
    const u64 resident = backend->slotPhysBytes(slot);
    EXPECT_EQ(resident,
              uniform_bytes / 2 + uniform_bytes / 2 / kContext * 4096);

    // Only the live window crosses PCIe, both ways.
    ASSERT_TRUE(backend->canSwapOut(slot));
    auto out = backend->swapOut(slot);
    ASSERT_TRUE(out.isOk());
    EXPECT_EQ(out.value().bytes, resident);
    EXPECT_EQ(backend->slotPhysBytes(slot), 0u);
    auto in = backend->swapIn(slot);
    ASSERT_TRUE(in.isOk());
    EXPECT_EQ(in.value().bytes, resident);
    EXPECT_EQ(backend->slotPhysBytes(slot), resident);

    // The request grows on from where it stopped: one more page on the
    // full-attention half of the layers, while each sliding layer
    // drops a dead page for the one it maps.
    ASSERT_TRUE(backend->ensure({{slot, kContext + page}}).isOk());
    EXPECT_EQ(backend->slotPhysBytes(slot),
              resident + uniform_page_bytes / 2);
    EXPECT_TRUE(test::auditClean(*backend));
}

TYPED_TEST(BackendContract, EnsureFreesDeadLeadingPages)
{
    // Yi-6B with a 1:1 full/4K-window interleave at a 64K-token
    // context: the full-attention half holds every page, each sliding
    // layer only the pages its window still reads, and no more than
    // that is billed to the pool.
    using Family = typename TypeParam::Family;
    constexpr i64 kContext = 64 * 1024;
    constexpr i64 kWindow = 4096;
    auto backend = Family::make(
        TypeParam::tp, 0, false,
        perf::ModelSpec::yi6B().withSlidingWindowInterleave(kWindow),
        8 * GiB);
    const i64 page = Family::pageTokens(*backend);
    // One page on one half of the layers.
    const u64 half_page_bytes =
        static_cast<u64>(page) *
        perf::ModelSpec::yi6B().kvBytesPerTokenPerWorker(TypeParam::tp) / 2;
    const int slot = backend->allocSlot().value();
    ASSERT_TRUE(backend->ensure({{slot, kContext}}).isOk());
    const u64 resident =
        static_cast<u64>(kContext / page + kWindow / page) * half_page_bytes;
    EXPECT_EQ(backend->slotPhysBytes(slot), resident);
    EXPECT_EQ(backend->bytesInUse(), resident);

    // Growth keeps trimming: one more page of context adds a page to
    // the full half and moves each sliding layer's dead lead by one.
    ASSERT_TRUE(backend->ensure({{slot, kContext + page}}).isOk());
    EXPECT_EQ(backend->slotPhysBytes(slot), resident + half_page_bytes);
    EXPECT_EQ(backend->bytesInUse(), resident + half_page_bytes);
    EXPECT_TRUE(test::auditClean(*backend));

    backend->freeSlot(slot);
    EXPECT_EQ(backend->bytesInUse(),
              Family::kFreeKeepsMapping ? resident + half_page_bytes : 0u);
    EXPECT_TRUE(test::auditClean(*backend));
}

TYPED_TEST(BackendContract, EnsureSlackCountsTheEnsuresThatDoNothing)
{
    // After a real ensure, ensureSlack says how many decode steps (each
    // length one longer) may skip ensure: each of them is a no-op the
    // audit net accepts, and the step after the last one has work.
    using Family = typename TypeParam::Family;
    auto backend = Family::make(TypeParam::tp, 0, false);
    const i64 page = Family::pageTokens(*backend);
    const int a = backend->allocSlot().value();
    const int b = backend->allocSlot().value();
    ActiveLens active{{a, 3 * page + 5}, {b, page - 3}};
    ASSERT_TRUE(backend->ensure(active).isOk());
    const i64 slack = backend->ensureSlack(active);
    // b is 3 tokens short of its page: it needs the next page at
    // page + 1 tokens, 4 decode steps on.
    EXPECT_EQ(slack, 3);
    EXPECT_EQ(backend->skipEnsure(), 0u);
    EXPECT_EQ(backend->lastStep(), StepStats{});
    const u64 bytes = backend->bytesInUse();
    for (i64 j = 1; j <= slack; ++j) {
        ActiveLens next = active;
        for (auto &[slot, len] : next) {
            len += j;
        }
        backend->checkSkippedEnsure(next);
    }
    EXPECT_EQ(backend->bytesInUse(), bytes);
    for (auto &[slot, len] : active) {
        len += slack + 1;
    }
    {
        test::ScopedThrowErrors guard;
        EXPECT_THROW(backend->checkSkippedEnsure(active), SimError);
    }
    ASSERT_TRUE(backend->ensure(active).isOk());
    EXPECT_GT(backend->bytesInUse(), bytes);
    // a, at 3 * page + 9 tokens, now reaches its next page first.
    EXPECT_EQ(backend->ensureSlack(active), page - 9);
    EXPECT_TRUE(test::auditClean(*backend));
}

TYPED_TEST(BackendContract, SlotLifecycleKeepsTheWatermarkAndTheBudget)
{
    using Family = typename TypeParam::Family;
    auto backend = Family::make(TypeParam::tp, 0, false);
    const i64 page = Family::pageTokens(*backend);
    // Every page holds its tokens on every layer of this worker.
    const u64 page_bytes =
        static_cast<u64>(page) *
        perf::ModelSpec::yi6B().kvBytesPerTokenPerWorker(TypeParam::tp);
    const i64 budget_pages =
        static_cast<i64>(backend->budgetBytes() / page_bytes);
    EXPECT_EQ(Family::poolPages(*backend), budget_pages);

    // An idle backend admits a prompt one page short of the budget and
    // refuses one a page longer than it.
    EXPECT_TRUE(backend->canAdmit((budget_pages - 1) * page));
    EXPECT_FALSE(backend->canAdmit((budget_pages + 1) * page));

    // Six pages and change occupy seven.
    auto slot = backend->allocSlot();
    ASSERT_TRUE(slot.isOk());
    EXPECT_EQ(backend->liveSlots(), 1);
    auto ensured = backend->ensure({{slot.value(), 6 * page + 4}});
    ASSERT_TRUE(ensured.isOk());
    EXPECT_EQ(ensured.value() > 0, Family::kEnsurePaysDriverTime);
    EXPECT_EQ(backend->bytesInUse(), 7 * page_bytes);
    EXPECT_EQ(backend->slotPhysBytes(slot.value()), 7 * page_bytes);

    // Admission now counts the pages held plus the headroom each
    // running request reserves.
    const i64 admissible =
        budget_pages - 7 - Family::kHeadroomPagesPerSlot;
    EXPECT_TRUE(backend->canAdmit(admissible * page));
    EXPECT_FALSE(backend->canAdmit((admissible + 1) * page));

    backend->freeSlot(slot.value());
    EXPECT_EQ(backend->liveSlots(), 0);
    EXPECT_EQ(backend->bytesInUse(),
              Family::kFreeKeepsMapping ? 7 * page_bytes : 0u);
    EXPECT_TRUE(test::auditClean(*backend));

    // Growth past the budget is kOutOfMemory, which the engine answers
    // by preempting; freeing the slot leaves a clean state.
    auto big = backend->allocSlot();
    ASSERT_TRUE(big.isOk());
    EXPECT_EQ(backend->ensure({{big.value(), (budget_pages + 1) * page}})
                  .code(),
              ErrorCode::kOutOfMemory);
    backend->freeSlot(big.value());
    EXPECT_EQ(backend->liveSlots(), 0);
    EXPECT_TRUE(test::auditClean(*backend));
}

TYPED_TEST(BackendContract, RefusesTheWindowListsTheRuntimeConfigRefuses)
{
    // A window list is checked where a runtime is built, by the rules
    // core::Config applies, so both families refuse the same lists
    // with the same message.
    using Family = typename TypeParam::Family;
    const perf::ModelSpec yi = perf::ModelSpec::yi6B();
    perf::ModelSpec negative = yi;
    negative.layer_window_tokens.assign(32, 0);
    negative.layer_window_tokens[1] = -5;
    perf::ModelSpec too_many = yi;
    too_many.layer_window_tokens.assign(40, 4096);
    perf::ModelSpec too_wide = yi;
    too_wide.layer_window_tokens.assign(32, 0);
    too_wide.layer_window_tokens[1] = yi.max_context_len + 1;

    test::ScopedThrowErrors guard;
    for (const perf::ModelSpec &model : {negative, too_many, too_wide}) {
        const Status refusal = validateLayerWindows(
            model.layer_window_tokens, model.num_layers,
            model.max_context_len);
        ASSERT_FALSE(refusal.isOk());
        SCOPED_TRACE(refusal.message());
        try {
            Family::make(TypeParam::tp, 0, false, model);
            ADD_FAILURE() << "the backend was built";
        } catch (const SimError &error) {
            EXPECT_NE(error.message.find(refusal.message()),
                      std::string::npos)
                << error.message;
        }
    }
}

// ---- Paged TP-2 audit: corruption of a single worker ---------------

class PagedBackendAudit : public ::testing::Test
{
  protected:
    PagedBackendAudit()
        : backend_(perf::ModelSpec::yi6B(), 2, 16, 64 * MiB)
    {
        slot_ = backend_.allocSlot().value();
        backend_.ensure({{slot_, 100}}).status().expectOk("ensure");
        EXPECT_TRUE(test::auditClean(backend_));
    }

    std::string
    auditText() const
    {
        audit::AuditReport report;
        backend_.auditInto(report);
        EXPECT_FALSE(report.ok());
        return report.toString();
    }

    /** Worker 1 is corrupted, so it must be built. */
    ReplicateFollowers replicate_;
    PagedBackend backend_;
    int slot_ = -1;
};

TEST_F(PagedBackendAudit, LocalizesInjectedWorkerDesync)
{
    // Worker 1 alone grows the slot past the group-agreed length.
    ASSERT_TRUE(
        backend_.workerGroup().worker(1).ensureSlot(slot_, 500).isOk());
    const std::string text = auditText();
    EXPECT_NE(text.find("worker 1 group 0 has"), std::string::npos)
        << text;
    EXPECT_NE(text.find("worker 1 slot " + std::to_string(slot_)),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("desynced"), std::string::npos) << text;
    EXPECT_EQ(text.find("worker 0 group"), std::string::npos) << text;
}

TEST_F(PagedBackendAudit, CatchesPerWorkerRefcountLeak)
{
    // A block reference taken outside every slot on worker 1: its
    // manager counts one more reference than the slots hold.
    auto &manager = backend_.workerGroup().worker(1).groupManager(0);
    ASSERT_TRUE(manager.allocBlock().isOk());
    const std::string text = auditText();
    EXPECT_NE(text.find("worker 1 group 0 slots hold"), std::string::npos)
        << text;
    EXPECT_NE(text.find("leaked outside the slots"), std::string::npos)
        << text;
    EXPECT_EQ(text.find("worker 0 group"), std::string::npos) << text;
}

TEST_F(PagedBackendAudit, CatchesLifecycleDesync)
{
    // Worker 1 frees the request while worker 0 keeps it live.
    ASSERT_TRUE(backend_.workerGroup().worker(1).freeReqId(slot_).isOk());
    const std::string text = auditText();
    EXPECT_NE(text.find("worker 1 is missing slot " +
                        std::to_string(slot_)),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("lockstep divergence"), std::string::npos)
        << text;
}

} // namespace vattn::serving::contract
