/**
 * @file
 * Content hashing for KV-cache prefix reuse (§8.1 of the paper; the
 * vLLM hash-block scheme). A request's prompt token ids are hashed in
 * fixed-size chunks, with each chunk hash chained onto the previous
 * one, so equal hash chains imply equal token prefixes: chunk i's hash
 * commits to every token in chunks [0, i]. Both memory backends key
 * their prefix stores on these chained hashes — the paged backend at
 * block granularity, the vAttention backend at page-group granularity.
 *
 * Only hash equality is modeled: no modeled number depends on the hash
 * values, so the link function is picked for speed. It packs two token
 * ids per 64-bit word into four independent xxh64-style
 * multiply-rotate lanes (eight tokens a round) seeded from the previous
 * link, merges the lanes with the splitmix64 finalizer, mixes the last
 * n mod 8 tokens in one at a time, then the length.
 */

#ifndef VATTN_COMMON_PREFIX_HASH_HH
#define VATTN_COMMON_PREFIX_HASH_HH

#include <vector>

#include "common/types.hh"

namespace vattn
{

/** Seed of every hash chain (chunk 0 chains onto this). */
constexpr u64 kPrefixHashSeed = 0x9e3779b97f4a7c15ULL;

/** Chain @p n token ids onto @p prev (order-sensitive, avalanche
 *  mixed so single-token differences flip the whole hash; the lane
 *  scheme is in the file comment). */
u64 chainTokenHash(u64 prev, const i32 *tokens, i64 n);

/**
 * Memo for one token sequence's chunk-hash chain at one chunk size.
 * Token ids are immutable once a request is built, so the chain is
 * computed once and replayed by every admission check / prefix match
 * instead of rehashing the whole prompt each time.
 */
struct PrefixHashCache
{
    i64 chunk_tokens = 0; ///< granularity the memo was built at
    std::vector<u64> hashes;
};

/**
 * A non-owning view of one request's prompt token ids, with helpers to
 * derive the chained chunk hashes a backend's prefix store is keyed
 * on. The referenced tokens (and the optional cache) must outlive the
 * key (the serving engine builds one per Request on demand).
 */
struct PrefixKey
{
    const i32 *tokens = nullptr;
    i64 size = 0;
    /** Optional memo, filled on first chunkHashes() call. */
    PrefixHashCache *cache = nullptr;

    bool empty() const { return size <= 0; }

    /**
     * Chained hashes of the first floor(size / chunk_tokens) full
     * chunks: result[i] covers tokens [0, (i+1)*chunk_tokens).
     * Partial trailing tokens are not hashed here (see rangeHash).
     * Served from (and memoized into) @p cache when one is attached
     * and its chunk size matches.
     */
    std::vector<u64> chunkHashes(i64 chunk_tokens) const;

    /** Hash of tokens [start, start + n) chained onto @p prev (used
     *  for partial trailing chunks). Requires start + n <= size. */
    u64 rangeHash(u64 prev, i64 start, i64 n) const;
};

} // namespace vattn

#endif // VATTN_COMMON_PREFIX_HASH_HH
