#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "common/prefix_hash.hh"
#include "common/rng.hh"
#include "test_util.hh"

namespace vattn
{
namespace
{

std::vector<i32>
tokens(i64 n, i32 start = 0)
{
    std::vector<i32> ids(static_cast<std::size_t>(n));
    std::iota(ids.begin(), ids.end(), start);
    return ids;
}

TEST(PrefixHash, ChunkHashesAreDeterministicAndChunkCounted)
{
    const auto ids = tokens(100);
    const PrefixKey key{ids.data(), 100};
    const auto a = key.chunkHashes(16);
    const auto b = key.chunkHashes(16);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 6u); // floor(100 / 16) full chunks
    EXPECT_TRUE(key.chunkHashes(128).empty());
}

TEST(PrefixHash, EqualPrefixesShareHashChains)
{
    // Same first 64 tokens, different tails: chunk hashes agree
    // exactly up to the shared prefix.
    auto a_ids = tokens(96);
    auto b_ids = tokens(96);
    for (std::size_t i = 64; i < 96; ++i) {
        b_ids[i] += 1000;
    }
    const PrefixKey a{a_ids.data(), 96};
    const PrefixKey b{b_ids.data(), 96};
    const auto ha = a.chunkHashes(16);
    const auto hb = b.chunkHashes(16);
    ASSERT_EQ(ha.size(), 6u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(ha[i], hb[i]) << "chunk " << i;
    }
    EXPECT_NE(ha[4], hb[4]);
    // Chaining: a diverging chunk poisons everything after it.
    EXPECT_NE(ha[5], hb[5]);
}

TEST(PrefixHash, SingleTokenDifferenceFlipsTheChunkHash)
{
    auto a_ids = tokens(32);
    auto b_ids = tokens(32);
    b_ids[7] ^= 1;
    const PrefixKey a{a_ids.data(), 32};
    const PrefixKey b{b_ids.data(), 32};
    EXPECT_NE(a.chunkHashes(32)[0], b.chunkHashes(32)[0]);
}

TEST(PrefixHash, RangeHashChainsOntoPreviousChunk)
{
    const auto ids = tokens(40);
    const PrefixKey key{ids.data(), 40};
    const auto chunks = key.chunkHashes(16);
    ASSERT_EQ(chunks.size(), 2u);
    // A partial tail hash chained after chunk 1 commits to the whole
    // 40-token prefix: recomputing it from an equal key matches...
    const u64 tail = key.rangeHash(chunks[1], 32, 8);
    EXPECT_EQ(tail, key.rangeHash(chunks[1], 32, 8));
    // ...and differs from the same tail chained onto a different
    // history.
    EXPECT_NE(tail, key.rangeHash(kPrefixHashSeed, 32, 8));
}

TEST(PrefixHash, ChunkSplitDoesNotCollideWithWholeRange)
{
    const auto ids = tokens(32);
    // hash(all 32) != hash(hash(first 16), next 16): the length is
    // mixed into each link.
    const u64 whole = chainTokenHash(kPrefixHashSeed, ids.data(), 32);
    const u64 split = chainTokenHash(
        chainTokenHash(kPrefixHashSeed, ids.data(), 16), ids.data() + 16,
        16);
    EXPECT_NE(whole, split);
}

TEST(PrefixHash, SwappingTokensAcrossLanesChangesTheHash)
{
    // A round packs tokens (2k, 2k+1) into lane k. Every odd token is
    // the same id, so swapping two even tokens exchanges whole lane
    // words: a merge that treats the lanes alike, or a lane that sums
    // its words, would not see it.
    std::vector<i32> ids(32, 7);
    for (std::size_t i = 0; i < ids.size(); i += 2) {
        ids[i] = 100 + static_cast<i32>(i);
    }
    const u64 base = chainTokenHash(kPrefixHashSeed, ids.data(), 32);
    const std::pair<int, int> swaps[] = {
        {0, 2}, {0, 4}, {0, 6}, {2, 4}, {2, 6}, {4, 6}, // across lanes
        {0, 8}, {2, 18}, {6, 30},                       // across rounds
        {0, 1}};                                        // within a word
    for (const auto &[a, b] : swaps) {
        auto swapped = ids;
        std::swap(swapped[static_cast<std::size_t>(a)],
                  swapped[static_cast<std::size_t>(b)]);
        EXPECT_NE(chainTokenHash(kPrefixHashSeed, swapped.data(), 32),
                  base)
            << "swap " << a << " <-> " << b;
    }
}

TEST(PrefixHash, EveryLengthOfOneSequenceHashesDistinctly)
{
    // Lengths 0-40 cross the 8-token round boundary five times and
    // leave every remainder 0-7; at each length the last token, in a
    // round or in the remainder, changes the hash.
    const auto ids = tokens(40, 7);
    std::set<u64> seen;
    for (i64 n = 0; n <= 40; ++n) {
        const u64 hash = chainTokenHash(kPrefixHashSeed, ids.data(), n);
        seen.insert(hash);
        if (n > 0) {
            auto changed = ids;
            changed[static_cast<std::size_t>(n - 1)] += 1000;
            EXPECT_NE(chainTokenHash(kPrefixHashSeed, changed.data(), n),
                      hash)
                << "length " << n;
        }
    }
    EXPECT_EQ(seen.size(), 41u);
}

TEST(PrefixHash, SingleTokenPerturbationsOfALongPromptDoNotCollide)
{
    // Seeded perturbations of a 2,048-token prompt, each changing one
    // token to another id: every distinct perturbation hashes apart
    // from the others and from the original.
    constexpr i64 kPrompt = 2048;
    Rng rng(42);
    std::vector<i32> ids(static_cast<std::size_t>(kPrompt));
    for (i32 &id : ids) {
        id = static_cast<i32>(rng.uniformInt(0, 63999));
    }
    std::set<std::pair<i64, i32>> edits;
    std::set<u64> hashes{chainTokenHash(kPrefixHashSeed, ids.data(),
                                        kPrompt)};
    while (edits.size() < 4000) {
        const i64 pos = rng.uniformInt(0, kPrompt - 1);
        const auto at = static_cast<std::size_t>(pos);
        const i32 id = static_cast<i32>(rng.uniformInt(0, 63999));
        if (id == ids[at] || !edits.emplace(pos, id).second) {
            continue;
        }
        const i32 original = ids[at];
        ids[at] = id;
        hashes.insert(chainTokenHash(kPrefixHashSeed, ids.data(), kPrompt));
        ids[at] = original;
    }
    EXPECT_EQ(hashes.size(), edits.size() + 1);
}

} // namespace
} // namespace vattn
