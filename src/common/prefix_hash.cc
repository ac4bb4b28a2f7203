#include "common/prefix_hash.hh"

#include "common/logging.hh"

namespace vattn
{

namespace
{

/** splitmix64 finalizer: full-avalanche mixing of one 64-bit word. */
constexpr u64
mix64(u64 x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

// xxh64's primes: odd multipliers, so each lane step is a bijection of
// the word it absorbs.
constexpr u64 kPrime1 = 0x9e3779b185ebca87ULL;
constexpr u64 kPrime2 = 0xc2b2ae3d27d4eb4fULL;

constexpr u64
rotl(u64 x, int r)
{
    return (x << r) | (x >> (64 - r));
}

/** Two token ids packed into one word. */
inline u64
packPair(const i32 *tokens)
{
    return static_cast<u64>(static_cast<u32>(tokens[0])) |
           (static_cast<u64>(static_cast<u32>(tokens[1])) << 32);
}

/** One multiply-rotate lane step (xxh64's round). */
constexpr u64
absorb(u64 lane, u64 word)
{
    return rotl(lane + word * kPrime2, 31) * kPrime1;
}

} // namespace

u64
chainTokenHash(u64 prev, const i32 *tokens, i64 n)
{
    // Four independent lanes, seeded from prev, each absorbing one packed
    // token pair per round: eight tokens per round, with no dependency
    // between the lanes' multiplies.
    u64 lane0 = prev + kPrime1 + kPrime2;
    u64 lane1 = prev + kPrime2;
    u64 lane2 = prev;
    u64 lane3 = prev - kPrime1;
    i64 i = 0;
    for (; i + 8 <= n; i += 8) {
        lane0 = absorb(lane0, packPair(tokens + i));
        lane1 = absorb(lane1, packPair(tokens + i + 2));
        lane2 = absorb(lane2, packPair(tokens + i + 4));
        lane3 = absorb(lane3, packPair(tokens + i + 6));
    }
    // Distinct rotations keep the merge sensitive to which lane holds
    // what.
    u64 h = mix64(rotl(lane0, 1) + rotl(lane1, 7) + rotl(lane2, 12) +
                  rotl(lane3, 18));
    for (; i < n; ++i) {
        h = mix64(h ^ (static_cast<u64>(static_cast<u32>(tokens[i])) +
                       0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
    }
    // Mix the length in so a chunk of n tokens never collides with a
    // chain over the same tokens split differently.
    return mix64(h ^ static_cast<u64>(n));
}

std::vector<u64>
PrefixKey::chunkHashes(i64 chunk_tokens) const
{
    panic_if(chunk_tokens <= 0, "chunkHashes needs a positive chunk");
    if (empty()) {
        return {};
    }
    if (cache && cache->chunk_tokens == chunk_tokens &&
        !cache->hashes.empty()) {
        return cache->hashes;
    }
    std::vector<u64> hashes;
    const i64 full = size / chunk_tokens;
    hashes.reserve(static_cast<std::size_t>(full));
    u64 h = kPrefixHashSeed;
    for (i64 i = 0; i < full; ++i) {
        h = chainTokenHash(h, tokens + i * chunk_tokens, chunk_tokens);
        hashes.push_back(h);
    }
    if (cache) {
        cache->chunk_tokens = chunk_tokens;
        cache->hashes = hashes;
    }
    return hashes;
}

u64
PrefixKey::rangeHash(u64 prev, i64 start, i64 n) const
{
    panic_if(start < 0 || n < 0 || start + n > size,
             "rangeHash out of bounds");
    return chainTokenHash(prev, tokens + start, n);
}

} // namespace vattn
