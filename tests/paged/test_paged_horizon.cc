/**
 * @file
 * The paged runtime's growth horizon, brute-forced: on seeded random
 * states (growth, frees and reuse of slot ids, prefix-aliased slots,
 * sliding-window classes whose dead lead advances), nextWorkLen(slot,
 * len) must equal the smallest length >= len at which the runtime's
 * own no-op predicate, ensureIsNoop, turns false. The engine skips
 * ensure() on that answer, so an off-by-one here is a missed block
 * allocation or a missed window eviction.
 */

#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "common/prefix_hash.hh"
#include "common/rng.hh"
#include "paged/paged_runtime.hh"
#include "test_util.hh"

namespace vattn::paged
{
namespace
{

constexpr i64 kBlock = 16;
constexpr i64 kMaxContext = 1024;
constexpr int kLayers = 4;

struct HorizonCase
{
    const char *name;
    /** Per-layer windows (empty: all full attention). */
    std::vector<i64> windows;
    bool prefix_caching;
};

/** Names the case in test listings (the default prints raw bytes,
 *  pointer and padding included, which differ between builds). */
void
PrintTo(const HorizonCase &c, std::ostream *os)
{
    *os << c.name;
}

PagedRuntime::Config
configFor(const HorizonCase &c)
{
    PagedRuntime::Config config;
    config.num_layers = kLayers;
    config.max_context_len = kMaxContext;
    config.layer_window_tokens = c.windows;
    config.block_size = kBlock;
    config.layer_block_bytes = 1024;
    // 400 blocks per window class: room for every slot at full length.
    config.budget_bytes = kLayers * config.layer_block_bytes * 400;
    config.prefix_caching = c.prefix_caching;
    return config;
}

/** The reference: scan upward from @p len for the first length whose
 *  ensure would do work. */
i64
bruteNextWorkLen(const PagedRuntime &runtime, int slot, i64 len)
{
    i64 at = len;
    while (runtime.ensureIsNoop(slot, at)) {
        ++at;
    }
    return at;
}

class PagedHorizon : public ::testing::TestWithParam<HorizonCase>
{
};

TEST_P(PagedHorizon, NextWorkLenIsTheFirstLengthThatIsNotANoop)
{
    PagedRuntime runtime(0, configFor(GetParam()));
    // One shared prompt: prefix-cached slots adopt its full blocks.
    std::vector<i32> prompt(300);
    for (std::size_t i = 0; i < prompt.size(); ++i) {
        prompt[i] = static_cast<i32>(i * 7 + 3);
    }
    const PrefixKey key{prompt.data(), static_cast<i64>(prompt.size())};

    constexpr int kSlots = 5;
    std::vector<int> slots;
    std::vector<i64> lens(kSlots, 0);
    for (int i = 0; i < kSlots; ++i) {
        slots.push_back(runtime.allocReqId().value());
    }
    Rng rng(4242);
    int aliased = 0;
    int checks = 0;
    for (int op = 0; op < 400; ++op) {
        const auto i = static_cast<std::size_t>(rng.uniformInt(0, kSlots - 1));
        const i64 roll = rng.uniformInt(0, 19);
        if (roll == 0 || lens[i] > kMaxContext - 100) {
            // Finish the request; its id is leased again, through the
            // prefix cache when it is on.
            ASSERT_TRUE(runtime.freeReqId(slots[i]).isOk());
            lens[i] = 0;
            if (GetParam().prefix_caching) {
                const SlotLease lease =
                    runtime.allocReqIdWithPrefix(key, key.size - 1).value();
                slots[i] = lease.slot;
                lens[i] = lease.cached_tokens;
                aliased += lease.cached_tokens > 0 ? 1 : 0;
            } else {
                slots[i] = runtime.allocReqId().value();
            }
        } else {
            // Grow: mostly a token or a few, sometimes a whole prompt.
            lens[i] += roll < 4 ? rng.uniformInt(20, 200)
                                : rng.uniformInt(0, 3);
            lens[i] = std::min(lens[i], kMaxContext);
            const std::pair<int, i64> active[] = {{slots[i], lens[i]}};
            ASSERT_TRUE(runtime.step(active).status.isOk());
            if (GetParam().prefix_caching) {
                runtime.registerPrefix(slots[i], key,
                                       std::min(lens[i], key.size));
            }
        }
        for (int s = 0; s < kSlots; ++s) {
            const int slot = slots[static_cast<std::size_t>(s)];
            const i64 base = lens[static_cast<std::size_t>(s)];
            for (const i64 len : {base, base + rng.uniformInt(0, 40),
                                  rng.uniformInt(0, kMaxContext)}) {
                ASSERT_EQ(runtime.nextWorkLen(slot, len),
                          bruteNextWorkLen(runtime, slot, len))
                    << "slot " << slot << " at " << len << " after op "
                    << op;
                ++checks;
            }
        }
    }
    EXPECT_GT(checks, 5000);
    if (GetParam().prefix_caching) {
        EXPECT_GT(aliased, 0) << "no slot ever adopted cached blocks";
    }
    EXPECT_TRUE(test::auditClean(runtime));
}

TEST_P(PagedHorizon, UnknownSlotHasWorkDueAtOnce)
{
    // An unknown slot must reach ensure(), which panics on it.
    PagedRuntime runtime(0, configFor(GetParam()));
    EXPECT_EQ(runtime.nextWorkLen(7, 123), 123);
    const int slot = runtime.allocReqId().value();
    EXPECT_EQ(runtime.nextWorkLen(slot, 0), 1); // no block yet
    ASSERT_TRUE(runtime.freeReqId(slot).isOk());
    EXPECT_EQ(runtime.nextWorkLen(slot, 5), 5);
}

TEST(PagedHorizonWindow, LeadAdvanceCanComeBeforeTheNextBlock)
{
    // One full and one sliding class (window 40, 16-token blocks).
    HorizonCase c{"window", {0, 40, 0, 40}, false};
    PagedRuntime runtime(0, configFor(c));
    const int slot = runtime.allocReqId().value();
    // 64 tokens: 4 blocks, sliding lead (64-40)/16 = 1. The next block
    // (65) comes before the next lead advance (40 + 2 * 16 = 72).
    const std::pair<int, i64> at64[] = {{slot, 64}};
    ASSERT_TRUE(runtime.step(at64).status.isOk());
    EXPECT_EQ(runtime.nextWorkLen(slot, 64), 65);
    // 70 tokens: 5 blocks, lead still 1. Now the lead advance at 72
    // comes before the next block (81).
    const std::pair<int, i64> at70[] = {{slot, 70}};
    ASSERT_TRUE(runtime.step(at70).status.isOk());
    EXPECT_EQ(runtime.slotBlocks(slot, 1).lead(), 1);
    EXPECT_EQ(runtime.nextWorkLen(slot, 70), 72);
    EXPECT_TRUE(runtime.ensureIsNoop(slot, 71));
    EXPECT_FALSE(runtime.ensureIsNoop(slot, 72));
}

INSTANTIATE_TEST_SUITE_P(
    States, PagedHorizon,
    ::testing::Values(HorizonCase{"uniform", {}, false},
                      HorizonCase{"window", {0, 40, 0, 100}, false},
                      HorizonCase{"prefix", {}, true}),
    [](const auto &info) { return info.param.name; });

} // namespace
} // namespace vattn::paged
