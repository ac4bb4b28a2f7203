/**
 * @file
 * The results a KV runtime's operations return, in the one shape both
 * runtimes (core::VAttention, paged::PagedRuntime) produce and the
 * serving adapter over them consumes: a step's outcome, a swap's
 * outcome, a prefix-aware slot lease and the prefix-cache counters.
 * Every per-worker result compares with operator==, so lockstep
 * replication (common/lockstep.hh) can check that the TP workers
 * agreed.
 */

#ifndef VATTN_COMMON_KV_RESULTS_HH
#define VATTN_COMMON_KV_RESULTS_HH

#include "common/status.hh"
#include "common/types.hh"

namespace vattn
{

/** Outcome of one step() call. */
struct StepStats
{
    Status status;          ///< OK, or kOutOfMemory -> preempt & retry
    i64 handles_mapped = 0; ///< page-groups mapped synchronously
    i64 handles_stolen = 0; ///< groups reclaimed from cached slots
    TimeNs critical_ns = 0; ///< driver latency on the critical path

    bool operator==(const StepStats &) const = default;
};

/** Outcome of one swapOutReq / swapInReq call. */
struct SwapStats
{
    Status status;          ///< OK, or why the swap did not happen
    i64 handles = 0;        ///< pages copied (page-groups or blocks)
    u64 bytes = 0;          ///< KV bytes moved over PCIe
    TimeNs critical_ns = 0; ///< copy + map/unmap latency (synchronous)

    bool operator==(const SwapStats &) const = default;
};

/** Result of a prefix-aware slot allocation. */
struct SlotLease
{
    int slot = -1;
    /** Prompt tokens whose KV the request inherits from the prefix
     *  cache (prefill starts at this offset). */
    i64 cached_tokens = 0;
    /** Critical-path latency of establishing the reuse (aliasing
     *  driver calls; 0 for CPU-side block sharing). */
    TimeNs alloc_ns = 0;

    bool operator==(const SlotLease &) const = default;
};

/** Cumulative prefix-cache counters of one runtime. */
struct BackendPrefixStats
{
    /** Bytes mapped into more than one request's virtual range
     *  (vAttention aliasing) or shared via block refcounts (paged). */
    u64 aliased_bytes = 0;
    /** Bytes of partial trailing groups copied on hits. */
    u64 copied_bytes = 0;

    bool operator==(const BackendPrefixStats &) const = default;
};

/** Outcome of one slot swap (out or in) as the engine sees it. */
struct SwapResult
{
    /** KV bytes moved over PCIe. */
    u64 bytes = 0;
    /** Synchronous latency of the swap (copies plus any driver
     *  map/unmap work) — the engine's swap-stall time. */
    TimeNs stall_ns = 0;
};

} // namespace vattn

#endif // VATTN_COMMON_KV_RESULTS_HH
