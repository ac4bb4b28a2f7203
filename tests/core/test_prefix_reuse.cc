#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/prefix_hash.hh"
#include "core/vattention.hh"
#include "test_util.hh"

namespace vattn::core
{
namespace
{

/** 2 layers, 2 heads, dim 8, fp16: 32B/token/buffer; 64KB group =
 *  2048 tokens; 4 buffers -> one "group row" = 4 handles = 256KB. */
constexpr i64 kTokensPerGroup = 2048;

Config
prefixConfig()
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
    config.deferred_reclamation = true;
    config.prefix_caching = true;
    return config;
}

class PrefixReuseTest : public ::testing::Test
{
  protected:
    PrefixReuseTest() : device_(makeConfig()), driver_(device_) {}

    static gpu::GpuDevice::Config
    makeConfig()
    {
        gpu::GpuDevice::Config config;
        config.mem_bytes = 64 * MiB;
        return config;
    }

    /** Token ids 0..n-1 offset by @p salt (same salt = same prefix). */
    static std::vector<i32>
    tokens(i64 n, i32 salt = 0)
    {
        std::vector<i32> ids(static_cast<std::size_t>(n));
        std::iota(ids.begin(), ids.end(), salt);
        return ids;
    }

    /** The engine's key over @p ids (the runtime hashes it at
     *  page-group granularity). The ids must outlive the key. */
    static PrefixKey
    keyFor(const std::vector<i32> &ids)
    {
        return PrefixKey{ids.data(), static_cast<i64>(ids.size())};
    }

    std::vector<i64>
    lens(i64 a, i64 b = 0, i64 c = 0, i64 d = 0)
    {
        return {a, b, c, d};
    }

    gpu::GpuDevice device_;
    cuvmm::Driver driver_;
};

TEST_F(PrefixReuseTest, CachedSlotReusedInPlaceOnFullMatch)
{
    auto config = prefixConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);

    const auto ids = tokens(5000);
    const auto key = keyFor(ids);

    auto r1 = vattn.allocReqId();
    ASSERT_TRUE(r1.isOk());
    ASSERT_TRUE(vattn.step(lens(5000)).status.isOk());
    vattn.registerPrefix(r1.value(), key, 5000);
    ASSERT_TRUE(vattn.freeReqId(r1.value()).isOk());
    EXPECT_EQ(vattn.slots().numCached(), 1);

    // Same prompt arrives: the cached slot is handed back with its
    // prefix KV intact — tail included (it is mapped in place).
    auto r2 = vattn.allocReqIdWithPrefix(key, 4999);
    ASSERT_TRUE(r2.isOk());
    const i64 cached = r2.value().cached_tokens;
    EXPECT_EQ(r2.value().slot, r1.value());
    // Capped at 4999: the full 2 aligned groups (4096 tokens) are
    // reusable; the 904-token tail would exceed the cap only if the
    // whole 5000 matched, so expect 4096 or the tail-trimmed value.
    EXPECT_EQ(cached, 4096);
    EXPECT_EQ(vattn.stats().prefix_hits, 1);
    EXPECT_EQ(vattn.stats().prefix_inplace_hits, 1);
    EXPECT_EQ(driver_.numMappings(vattn.handleAt(r2.value().slot, 0, 0)),
              1u);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(PrefixReuseTest, InPlaceReuseKeepsMatchedTailWithinCap)
{
    auto config = prefixConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);

    const auto ids = tokens(5000);
    const auto key = keyFor(ids);
    auto r1 = vattn.allocReqId();
    ASSERT_TRUE(r1.isOk());
    ASSERT_TRUE(vattn.step(lens(5000)).status.isOk());
    vattn.registerPrefix(r1.value(), key, 5000);
    ASSERT_TRUE(vattn.freeReqId(r1.value()).isOk());

    // A longer prompt sharing the whole 5000-token prefix: the match
    // includes the partial tail group, reused in place.
    auto longer = tokens(6000);
    const auto long_key = keyFor(longer);
    auto r2 = vattn.allocReqIdWithPrefix(long_key, 5999);
    ASSERT_TRUE(r2.isOk());
    const i64 cached = r2.value().cached_tokens;
    EXPECT_EQ(cached, 5000);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(PrefixReuseTest, ActiveSourceAliasesGroupsIntoFreeSlot)
{
    auto config = prefixConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);

    const auto ids = tokens(4096); // exactly 2 aligned groups
    const auto key = keyFor(ids);
    auto r1 = vattn.allocReqId();
    ASSERT_TRUE(r1.isOk());
    ASSERT_TRUE(vattn.step(lens(4096)).status.isOk());
    vattn.registerPrefix(r1.value(), key, 4096);

    // R1 is still ACTIVE (mid-decode): a second identical prompt must
    // alias, not steal, its groups.
    auto r2 = vattn.allocReqIdWithPrefix(key, 4095);
    ASSERT_TRUE(r2.isOk());
    const i64 cached = r2.value().cached_tokens;
    EXPECT_NE(r2.value().slot, r1.value());
    EXPECT_EQ(cached, 4096 - kTokensPerGroup); // capped below 4096
    EXPECT_EQ(vattn.groupsMapped(r2.value().slot), 1);

    // The §8.1 capability, observable at the driver: one physical
    // handle mapped at two virtual addresses.
    const auto handle = vattn.handleAt(r2.value().slot, 0, 0);
    EXPECT_EQ(handle, vattn.handleAt(r1.value(), 0, 0));
    EXPECT_EQ(driver_.numMappings(handle), 2u);
    EXPECT_GT(vattn.aliasedBytes(), 0u);
    EXPECT_TRUE(test::auditClean(vattn));

    // Both requests step; aliased groups serve both contexts.
    ASSERT_TRUE(vattn.step(lens(4097, 4096)).status.isOk());
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(PrefixReuseTest, AliasedTailCopyIsPrivate)
{
    auto config = prefixConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);

    const auto ids = tokens(5000); // 2 aligned groups + 904 tail
    const auto key = keyFor(ids);
    auto r1 = vattn.allocReqId();
    ASSERT_TRUE(r1.isOk());
    ASSERT_TRUE(vattn.step(lens(5000)).status.isOk());
    vattn.registerPrefix(r1.value(), key, 5000);

    auto longer = tokens(8000);
    const auto long_key = keyFor(longer);
    auto r2 = vattn.allocReqIdWithPrefix(long_key, 7999);
    ASSERT_TRUE(r2.isOk());
    const i64 cached = r2.value().cached_tokens;
    EXPECT_EQ(cached, 5000); // aligned groups aliased + tail copied
    EXPECT_EQ(vattn.groupsMapped(r2.value().slot), 3);
    // Aligned groups are shared; the tail group is a private copy.
    EXPECT_EQ(driver_.numMappings(vattn.handleAt(r2.value().slot, 0, 0)),
              2u);
    EXPECT_EQ(driver_.numMappings(vattn.handleAt(r2.value().slot, 0, 2)),
              1u);
    EXPECT_GT(vattn.stats().prefix_copied_handles, 0);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(PrefixReuseTest, StealFromCachedSourceWhilePrefixPinned)
{
    auto config = prefixConfig();
    // Pool of 32 groups (2MB / 64KB): R1 takes 8 (2 groups x 4
    // buffers), aliasing adds none.
    config.phys_budget_bytes = 2 * MiB;
    VAttention vattn(driver_, config);

    const auto ids = tokens(4096);
    const auto key = keyFor(ids);
    auto r1 = vattn.allocReqId();
    ASSERT_TRUE(r1.isOk());
    ASSERT_TRUE(vattn.step(lens(4096)).status.isOk());
    vattn.registerPrefix(r1.value(), key, 4096);
    ASSERT_TRUE(vattn.freeReqId(r1.value()).isOk()); // cached source

    // Alias the cached prefix from an ACTIVE sharer... by first
    // activating a request that hits it in place? In-place reuse
    // would consume the entry, so pin it via an aliasing sharer
    // instead: make the source active again through a hit, then
    // register and free to recreate the cached entry while the
    // sharer holds the aliased groups.
    auto sharer = vattn.allocReqIdWithPrefix(key, 4095);
    ASSERT_TRUE(sharer.isOk());
    const i64 cached = sharer.value().cached_tokens;
    ASSERT_EQ(sharer.value().slot, r1.value()); // in-place reuse
    // The 4095-token cap drops the second group: one group is reused.
    ASSERT_EQ(cached, kTokensPerGroup);
    ASSERT_TRUE(vattn.step(lens(4096)).status.isOk());
    vattn.registerPrefix(sharer.value().slot, key, 4096);

    // Second identical prompt aliases from the (now active) sharer.
    auto r2 = vattn.allocReqIdWithPrefix(key, 4095);
    ASSERT_TRUE(r2.isOk());
    const i64 cached2 = r2.value().cached_tokens;
    ASSERT_NE(r2.value().slot, sharer.value().slot);
    ASSERT_EQ(cached2, kTokensPerGroup);
    const auto pinned = vattn.handleAt(r2.value().slot, 0, 0);
    ASSERT_EQ(driver_.numMappings(pinned), 2u);

    // The original holder completes: its slot is cached with the
    // aliased group still pinned by r2.
    ASSERT_TRUE(vattn.freeReqId(sharer.value().slot).isOk());

    // Demand beyond the pool's free handles: the steal loop reclaims
    // the cached slot's groups, including the shared one. Stealing
    // the shared group only drops the VICTIM's mapping — the pinned
    // handle must survive with r2's mapping intact.
    ASSERT_TRUE(vattn.step(lens(0, 4096 * 4)).status.isOk());
    EXPECT_EQ(driver_.handleSize(pinned), 64 * KiB); // still live
    EXPECT_GE(driver_.numMappings(pinned), 1u);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(PrefixReuseTest, FreeReqIdOfSharingRequestKeepsSource)
{
    auto config = prefixConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);

    const auto ids = tokens(4096);
    const auto key = keyFor(ids);
    auto r1 = vattn.allocReqId();
    ASSERT_TRUE(r1.isOk());
    ASSERT_TRUE(vattn.step(lens(4096)).status.isOk());
    vattn.registerPrefix(r1.value(), key, 4096);

    auto r2 = vattn.allocReqIdWithPrefix(key, 4095);
    ASSERT_TRUE(r2.isOk());
    const i64 cached = r2.value().cached_tokens;
    EXPECT_EQ(cached, kTokensPerGroup); // capped below the second group
    const auto handle = vattn.handleAt(r2.value().slot, 0, 0);
    ASSERT_EQ(driver_.numMappings(handle), 2u);
    const u64 phys_before = driver_.physBytesInUse();

    // The sharer dies first (deferred reclamation caches its slot,
    // alias included). Source keeps its mapping and the physical
    // bytes are unchanged; invariants hold throughout.
    ASSERT_TRUE(vattn.freeReqId(r2.value().slot).isOk());
    EXPECT_EQ(driver_.physBytesInUse(), phys_before);
    EXPECT_GE(driver_.numMappings(handle), 1u);
    EXPECT_TRUE(test::auditClean(vattn));

    // Now the source dies too; everything still consistent.
    ASSERT_TRUE(vattn.freeReqId(r1.value()).isOk());
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(PrefixReuseTest, WatermarkRefillWithPinnedEntries)
{
    auto config = prefixConfig();
    config.phys_budget_bytes = 2 * MiB; // 32 groups
    config.reclaim_low_watermark = 0.9; // aggressive refill target
    VAttention vattn(driver_, config);

    const auto ids = tokens(4096);
    const auto key = keyFor(ids);
    auto r1 = vattn.allocReqId();
    ASSERT_TRUE(r1.isOk());
    ASSERT_TRUE(vattn.step(lens(4096)).status.isOk());
    vattn.registerPrefix(r1.value(), key, 4096);

    auto r2 = vattn.allocReqIdWithPrefix(key, 4095);
    ASSERT_TRUE(r2.isOk());
    const i64 cached = r2.value().cached_tokens;
    ASSERT_GT(cached, 0);

    // Cache the source; the background reclaimer then chews on it
    // while one group is pinned by r2's alias.
    ASSERT_TRUE(vattn.freeReqId(r1.value()).isOk());
    vattn.computePhase(1'000'000'000); // ample window
    // Reclamation must terminate, keep invariants, and never free
    // pinned physical memory out from under the sharer.
    EXPECT_TRUE(test::auditClean(vattn));
    EXPECT_GE(driver_.numMappings(vattn.handleAt(r2.value().slot, 0, 0)),
              1u);
    ASSERT_TRUE(vattn.step(lens(0, 4097)).status.isOk());
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(PrefixReuseTest, InPlaceReusePrivatizesStaleSharedGroups)
{
    auto config = prefixConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);

    // S holds 2 aligned groups; T aliases BOTH of them.
    const auto ids = tokens(4096);
    const auto key = keyFor(ids);
    auto s = vattn.allocReqId();
    ASSERT_TRUE(s.isOk());
    ASSERT_TRUE(vattn.step(lens(4096)).status.isOk());
    vattn.registerPrefix(s.value(), key, 4096);

    auto longer = tokens(6000);
    const auto long_key = keyFor(longer);
    auto t = vattn.allocReqIdWithPrefix(long_key, 5999);
    ASSERT_TRUE(t.isOk());
    const i64 cached = t.value().cached_tokens;
    ASSERT_EQ(cached, 4096);
    const auto shared1 = vattn.handleAt(t.value().slot, 0, 1);
    ASSERT_EQ(driver_.numMappings(shared1), 2u);

    // S completes and is cached; a prompt sharing only the FIRST
    // group reuses S in place. Its stale second group is still
    // aliased by T, so overwriting it would corrupt T's KV: the
    // runtime must remap it onto a private handle first.
    ASSERT_TRUE(vattn.freeReqId(s.value()).isOk());
    auto diverging = tokens(4096);
    for (std::size_t i = 2048; i < 4096; ++i) {
        diverging[i] += 500000;
    }
    const auto div_key = keyFor(diverging);
    auto u = vattn.allocReqIdWithPrefix(div_key, 4095);
    ASSERT_TRUE(u.isOk());
    const i64 cached2 = u.value().cached_tokens;
    EXPECT_EQ(u.value().slot, s.value()); // in-place reuse of S
    EXPECT_EQ(cached2, kTokensPerGroup);

    // T's aliased group-1 handle is now T's alone; U's group 1 is a
    // fresh private handle it may write into.
    EXPECT_EQ(driver_.numMappings(shared1), 1u);
    const auto replaced = vattn.handleAt(u.value().slot, 0, 1);
    EXPECT_NE(replaced, shared1);
    EXPECT_EQ(driver_.numMappings(replaced), 1u);
    // Group 0 stays legitimately shared (read-only prefix).
    EXPECT_EQ(driver_.numMappings(vattn.handleAt(u.value().slot, 0, 0)),
              2u);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_F(PrefixReuseTest, MissWithDifferentTokensAllocatesFresh)
{
    auto config = prefixConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);

    const auto ids = tokens(4096);
    const auto key = keyFor(ids);
    auto r1 = vattn.allocReqId();
    ASSERT_TRUE(r1.isOk());
    ASSERT_TRUE(vattn.step(lens(4096)).status.isOk());
    vattn.registerPrefix(r1.value(), key, 4096);
    ASSERT_TRUE(vattn.freeReqId(r1.value()).isOk());

    const auto other = tokens(4096, /*salt=*/100000);
    const auto other_key = keyFor(other);
    auto r2 = vattn.allocReqIdWithPrefix(other_key, 4095);
    ASSERT_TRUE(r2.isOk());
    const i64 cached = r2.value().cached_tokens;
    EXPECT_EQ(cached, 0);
    EXPECT_EQ(vattn.stats().prefix_hits, 0);
    EXPECT_TRUE(test::auditClean(vattn));
}

} // namespace
} // namespace vattn::core
