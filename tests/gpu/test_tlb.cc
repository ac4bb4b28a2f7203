#include <gtest/gtest.h>

#include "gpu/tlb.hh"

namespace vattn::gpu
{
namespace
{

TEST(TlbLevel, HitAfterFill)
{
    TlbLevel level(16, 4);
    EXPECT_FALSE(level.access(42)); // cold miss + fill
    EXPECT_TRUE(level.access(42));
    EXPECT_EQ(level.stats().hits, 1u);
    EXPECT_EQ(level.stats().misses, 1u);
}

TEST(TlbLevel, LruEvictionWithinSet)
{
    // 4 entries, 4-way => a single fully-associative set.
    TlbLevel level(4, 4);
    for (Addr key = 0; key < 4; ++key) {
        level.access(key);
    }
    for (Addr key = 0; key < 4; ++key) {
        EXPECT_TRUE(level.access(key));
    }
    level.access(100); // evicts LRU = key 0
    EXPECT_FALSE(level.access(0));
    EXPECT_TRUE(level.access(100));
}

TEST(TlbLevel, Flush)
{
    TlbLevel level(8, 2);
    level.access(1);
    level.flush();
    EXPECT_FALSE(level.access(1));
}

TEST(Tlb, SequentialWithinOnePageMostlyHits)
{
    Tlb tlb;
    // 1000 accesses within one 64KB page: 1 cold miss, 999 hits.
    for (int i = 0; i < 1000; ++i) {
        tlb.access(0x100000 + static_cast<Addr>(i) * 64,
                   PageSize::k64KB);
    }
    EXPECT_EQ(tlb.l1Stats(PageSize::k64KB).misses, 1u);
    EXPECT_EQ(tlb.l1Stats(PageSize::k64KB).hits, 999u);
    EXPECT_EQ(tlb.pageWalks(), 1u);
}

TEST(Tlb, PageSizeClassesAreIndependent)
{
    Tlb tlb;
    tlb.access(0x0, PageSize::k64KB);
    tlb.access(0x0, PageSize::k2MB);
    EXPECT_EQ(tlb.l1Stats(PageSize::k64KB).misses, 1u);
    EXPECT_EQ(tlb.l2Stats(PageSize::k2MB).misses, 1u);
    EXPECT_EQ(tlb.pageWalks(), 2u);
    // Second touch of each hits independently.
    EXPECT_EQ(tlb.access(0x0, PageSize::k64KB), 1);
    EXPECT_EQ(tlb.access(0x0, PageSize::k2MB), 1);
}

TEST(Tlb, L2CatchesL1Evictions)
{
    Tlb::Config config;
    config.l1_entries = 4;
    config.l1_assoc = 4;
    config.l2_entries = 256;
    config.l2_assoc = 16;
    Tlb tlb(config);
    // Touch 8 pages: all L1-capacity-miss on second pass but L2 holds
    // them.
    for (Addr p = 0; p < 8; ++p) {
        EXPECT_EQ(tlb.access(p * 64 * KiB, PageSize::k64KB), 0);
    }
    u64 walks_before = tlb.pageWalks();
    for (Addr p = 0; p < 8; ++p) {
        const int level = tlb.access(p * 64 * KiB, PageSize::k64KB);
        EXPECT_GE(level, 1); // never a full walk
    }
    EXPECT_EQ(tlb.pageWalks(), walks_before);
}

TEST(Tlb, CoverageAdvantageOfLargePages)
{
    // The §7.6.3 question, distilled: streaming over a 64MB region,
    // how many walks does each page size take? 2MB pages cover the
    // stream with 32 entries; 64KB pages need 1024 (cold) misses but
    // still no *re*-misses within the stream.
    Tlb tlb;
    const u64 span = 64 * MiB;
    for (Addr addr = 0; addr < span; addr += 32 * KiB) {
        tlb.access(addr, PageSize::k64KB);
    }
    const u64 small_walks = tlb.pageWalks();
    EXPECT_EQ(small_walks, span / (64 * KiB)); // compulsory only

    Tlb tlb2;
    for (Addr addr = 0; addr < span; addr += 32 * KiB) {
        tlb2.access(addr, PageSize::k2MB);
    }
    EXPECT_EQ(tlb2.pageWalks(), span / (2 * MiB));
    EXPECT_GT(small_walks, tlb2.pageWalks());
}

TEST(Tlb, FlushDropsEveryTranslationButKeepsTheStats)
{
    Tlb tlb;
    tlb.access(0x0, PageSize::k64KB);
    tlb.access(0x0, PageSize::k2MB);
    ASSERT_EQ(tlb.access(0x0, PageSize::k64KB), 1);
    ASSERT_EQ(tlb.pageWalks(), 2u);
    tlb.flush();
    // Both classes walk again: neither level kept an entry.
    EXPECT_EQ(tlb.access(0x0, PageSize::k64KB), 0);
    EXPECT_EQ(tlb.access(0x0, PageSize::k2MB), 0);
    EXPECT_EQ(tlb.pageWalks(), 4u);
    EXPECT_EQ(tlb.l1Stats(PageSize::k64KB).hits, 1u);
    EXPECT_EQ(tlb.l1Stats(PageSize::k64KB).misses, 2u);
}

TEST(Tlb, ResetStats)
{
    Tlb tlb;
    tlb.access(0, PageSize::k4KB);
    tlb.resetStats();
    EXPECT_EQ(tlb.pageWalks(), 0u);
    EXPECT_EQ(tlb.l1Stats(PageSize::k4KB).accesses(), 0u);
}

TEST(TlbStats, MissRate)
{
    TlbStats stats;
    EXPECT_EQ(stats.missRate(), 0.0);
    stats.hits = 3;
    stats.misses = 1;
    EXPECT_DOUBLE_EQ(stats.missRate(), 0.25);
}

} // namespace
} // namespace vattn::gpu
