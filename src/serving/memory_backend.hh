/**
 * @file
 * The memory-management interface the serving engine programs against:
 * a pure contract with exactly one implementation, the lockstep
 * adapter of serving/lockstep_backend.hh, instantiated over the two KV
 * runtimes whose comparison the paper reproduces:
 *
 *  - PagedBackend (paged::PagedRuntime): user-space block management
 *    (vLLM model; the whole KV region is committed up-front, blocks
 *    are CPU-side bookkeeping, so ensure() never pays driver latency).
 *  - VAttentionBackend (core::VAttention per TP worker): the paper's
 *    system — physical memory is committed page-group by page-group
 *    through the (simulated) CUDA VMM driver, with latency hidden by
 *    the §6.1 optimizations.
 *
 * Both runtimes implement every operation: slot lifecycle and
 * per-iteration ensure(), prefix caching (§8.1, a no-op unless
 * enabled), the host swap tier and cross-replica migration of swapped
 * KV (refused unless a host tier is configured, see hasHostTier()),
 * and the invariant audit. The adapter holds a lockstep group of the
 * runtime with one shard per TP worker (common/lockstep.hh; Release
 * serving builds only worker 0's); sizes and bytes below are per
 * worker.
 */

#ifndef VATTN_SERVING_MEMORY_BACKEND_HH
#define VATTN_SERVING_MEMORY_BACKEND_HH

#include <utility>
#include <vector>

#include "common/audit.hh"
#include "common/kv_image.hh"
#include "common/kv_results.hh"
#include "common/prefix_hash.hh"
#include "common/status.hh"
#include "common/types.hh"

namespace vattn::serving
{

/** (slot, context length) pairs for the active batch. */
using ActiveLens = std::vector<std::pair<int, i64>>;

/** KV memory manager abstraction used by the engine. */
class MemoryBackend
{
  public:
    virtual ~MemoryBackend() = default;

    /** Could a request needing @p uncached_tokens fresh prompt tokens
     *  of KV be admitted right now? (The engine discounts prefix-cache
     *  matches before asking.) */
    virtual bool canAdmit(i64 uncached_tokens) const = 0;

    /** Lease a slot for a new request. */
    virtual Result<int> allocSlot() = 0;

    // ---- Prefix caching (§8.1) ---------------------------------------

    /** Does this backend run with prefix caching enabled? Without it
     *  the prefix methods below cache and match nothing. */
    virtual bool prefixCachingEnabled() const = 0;

    /** Longest cached prefix (in tokens) matching @p key. */
    virtual i64 matchPrefix(const PrefixKey &key) const = 0;

    /** Prefix-aware allocSlot: reuse up to @p max_cached tokens of a
     *  cached matching prefix. */
    virtual Result<SlotLease> allocSlot(const PrefixKey &key,
                                        i64 max_cached) = 0;

    /**
     * Record that @p slot now holds the KV of the first @p tokens
     * tokens of @p key (called as prefill chunks complete, so
     * concurrent requests can share as early as possible).
     */
    virtual void registerPrefix(int slot, const PrefixKey &key,
                                i64 tokens) = 0;

    /** Cumulative sharing counters (reports/benches). */
    virtual BackendPrefixStats prefixStats() const = 0;

    // ---- Host tier: swap and cross-replica migration ------------------
    //
    // Preemption-by-swap: a victim's KV moves to host memory and back
    // instead of being recomputed. The slot stays leased for the whole
    // cycle (vAttention keeps the virtual layout mapped-out-but-intact;
    // paged keeps the slot's bookkeeping with CPU block ids), so
    // swap-in resumes the request exactly where it stopped.
    //
    // A swapped-out slot's host-tier KV image (common/kv_image.hh) can
    // be exported — detaching it from this backend and freeing the
    // slot — and imported into another backend that cuts its KV into
    // identical pages, which leases a fresh slot holding the image in
    // swapped state. The regular swapIn() then resumes the request on
    // the adopter.

    /** Is a host tier configured? Without one, swaps and imports are
     *  refused. */
    virtual bool hasHostTier() const = 0;

    /** Could swapOut(slot) succeed right now? False in particular
     *  while any of the slot's pages/blocks are shared with another
     *  request (prefix aliasing) — those must stay resident. */
    virtual bool canSwapOut(int slot) const = 0;

    /** Could swapIn(slot) succeed right now (device capacity)? */
    virtual bool canSwapIn(int slot) const = 0;

    /** Move the slot's KV to the host tier, freeing device memory. */
    virtual Result<SwapResult> swapOut(int slot) = 0;

    /** Bring a swapped-out slot's KV back to the device. */
    virtual Result<SwapResult> swapIn(int slot) = 0;

    /** Physical KV bytes a live slot currently occupies on the device
     *  (the cost model's estimate of what a swap would move). */
    virtual u64 slotPhysBytes(int slot) const = 0;

    /** Detach a swapped-out slot's host image and free the slot. */
    virtual Result<SwappedKvImage> exportSwapped(int slot) = 0;

    /** Could importSwapped(@p image) succeed right now (host tier,
     *  an image cut at this backend's page layout, free slot + host
     *  capacity on every worker)? */
    virtual bool canImportSwapped(const SwappedKvImage &image) const = 0;

    /** Adopt an exported image into a fresh slot (swapped state); an
     *  image cut at another layout is kInvalidArgument. */
    virtual Result<int> importSwapped(const SwappedKvImage &image) = 0;

    /** Release a slot (completion or preemption). */
    virtual void freeSlot(int slot) = 0;

    /**
     * Ensure KV backing for the given active lengths before an
     * iteration; returns the critical-path allocation latency.
     * kOutOfMemory means the engine must preempt and retry.
     */
    virtual Result<TimeNs> ensure(const ActiveLens &active) = 0;

    // ---- Growth horizon -----------------------------------------------
    //
    // A request needs new KV only at a block or page-group boundary
    // (or when a sliding window drops a block or group), so most
    // ensure() calls do nothing. After an ensure() succeeds the engine
    // asks how many decode iterations may follow without one, skips
    // ensure() for those, and forces a real one after anything else
    // touches the backend's slots (admission, preemption, swap,
    // migration, a dropped request).

    /**
     * The number of ensure() calls that may be skipped after one that
     * just succeeded for @p active: the largest k >= 0 such that, for
     * every j in [1, k], ensure() with each listed length raised by at
     * most j would do no work — no map, unmap, steal, trim or driver
     * time, and (vAttention) no change to what computeWindow()
     * prefetches. It holds while no listed length shrinks and no
     * other mutation reaches a listed slot; freeing another slot and
     * computeWindow() keep it. Worker 0 answers: per slot it is the
     * runtime's nextWorkLen(slot, len) - len - 1.
     */
    virtual i64 ensureSlack(const ActiveLens &active) const = 0;

    /**
     * Stand in for an ensure() the slack allows, calling no runtime:
     * lastStep() then reads a zero StepStats, and the result is the
     * time failed swaps banked for the next ensure() (0 in the common
     * case), as a real ensure() would return.
     */
    virtual TimeNs skipEnsure() = 0;

    /**
     * The audit net under a skipped ensure(): run the real step for
     * @p active on every built worker and panic if it mapped, stole,
     * trimmed or charged anything, or if a listed slot had work due
     * (vAttention's one-ahead prefetch included). VATTN_AUDIT engines
     * call it on every skip.
     */
    virtual void checkSkippedEnsure(const ActiveLens &active) = 0;

    /** Grant the backend the iteration's compute window for
     *  background work (no-op for the paged backend). */
    virtual void computeWindow(TimeNs window_ns) = 0;

    /** The most recent ensure()'s step (for iteration traces: the
     *  page-groups it mapped, always 0 for paged blocks). */
    virtual const StepStats &lastStep() const = 0;

    /** Physical KV bytes currently committed to live requests. */
    virtual u64 bytesInUse() const = 0;
    /** Total KV bytes this backend may use. */
    virtual u64 budgetBytes() const = 0;

    /**
     * Re-derive the backend's memory-accounting invariants from first
     * principles and record every violation (common/audit.hh). The
     * engine's VATTN_AUDIT builds call this once per iteration; tests
     * call it after injecting corruption.
     */
    virtual void auditInto(audit::AuditReport &report) const = 0;
};

} // namespace vattn::serving

#endif // VATTN_SERVING_MEMORY_BACKEND_HH
