/**
 * @file
 * Run reports: request-level latency distributions (Figure 10),
 * throughput aggregates (Figures 8-9, 11) and optional per-iteration
 * traces (Figure 12's latency-spike ablation).
 */

#ifndef VATTN_SERVING_METRICS_HH
#define VATTN_SERVING_METRICS_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "serving/request.hh"

namespace vattn::serving
{

/** One engine iteration, for ablation plots. Under hybrid batching an
 *  iteration may mix decode requests with prefill chunks; the
 *  prefill/decode split fields tell the composition apart. */
struct IterationRecord
{
    TimeNs start_ns = 0;
    TimeNs duration_ns = 0;
    /** Pure prefill iteration (no decodes rode along). */
    bool is_prefill = false;
    i64 batch = 0;
    TimeNs mem_critical_ns = 0; ///< synchronous allocation latency
    i64 groups_mapped = 0;
    i64 prefill_chunk_tokens = 0; ///< query tokens across prefill chunks
    i64 num_prefill_chunks = 0;
    i64 decode_batch = 0; ///< decode requests that emitted a token
    /** Interconnect time on this iteration's critical path (the
     *  all-reduce cost at TP > 1, minus any overlapped portion). */
    TimeNs comm_ns = 0;

    bool operator==(const IterationRecord &) const = default;
};

/** Result of one engine run. */
struct RunReport
{
    i64 num_requests = 0;
    TimeNs makespan_ns = 0;
    /** Virtual time spent inside iterations (makespan minus idle
     *  gaps waiting for arrivals). */
    TimeNs busy_ns = 0;
    i64 prompt_tokens = 0;
    i64 decode_tokens = 0;
    i64 decode_iterations = 0;
    i64 prefill_iterations = 0;
    /** Hybrid iterations carrying both decodes and prefill chunks
     *  (kStallFreeChunked only). */
    i64 mixed_iterations = 0;
    /** Preemption events during the run, counted when they happen
     *  (not via per-request totals: that would double-count, and
     *  would miss requests that never finish). Swap preemptions count
     *  here too (they are preemption events; swap_outs tells them
     *  apart from recomputations). */
    u64 preemptions = 0;
    i64 peak_batch = 0;
    /** Tensor-parallel interconnect time accumulated on iteration
     *  critical paths (2 all-reduces per layer at TP > 1; 0 at TP=1).
     *  A subset of busy_ns — the comm share of an engine's time is
     *  comm_ns / busy_ns. */
    TimeNs comm_ns = 0;

    // ---- Host-memory swap tier (all zero under kRecompute) ---------
    /** Preemptions resolved by swapping the victim's KV to host. */
    u64 swap_outs = 0;
    /** Swapped requests brought back to the device. */
    u64 swap_ins = 0;
    /** KV bytes moved device -> host. */
    u64 swap_out_bytes = 0;
    /** KV bytes moved host -> device. */
    u64 swap_in_bytes = 0;
    /** Synchronous time the engine stalled on swap traffic (copies
     *  plus remap/unmap driver work, both directions). */
    TimeNs swap_stall_ns = 0;
    /** Requests permanently rejected because their KV demand can
     *  never fit the budget (graceful per-request failure instead of
     *  an engine panic). Never counted in the request-level
     *  latency/TTFT/normalized percentiles; TBT samples a dropped
     *  request emitted before failing remain (they measured real
     *  served tokens). */
    i64 dropped_requests = 0;

    // ---- Online serving / SLOs (all zero for offline traces) ------
    /** Terminated requests that carried a TTFT or TBT deadline (the
     *  goodput denominator: finished, dropped and shed alike). */
    i64 slo_requests = 0;
    /** SLO-carrying requests that finished with every deadline met
     *  (the goodput numerator). */
    i64 slo_met_requests = 0;
    /** Finished requests whose first token missed its TTFT deadline. */
    i64 slo_violations_ttft = 0;
    /** Finished requests with at least one inter-token gap over the
     *  TBT deadline (user-visible gaps: swap stalls count). */
    i64 slo_violations_tbt = 0;
    /** Requests rejected at admission because their TTFT deadline was
     *  already impossible (deadline-aware shedding; disjoint from
     *  dropped_requests). */
    i64 shed_requests = 0;
    /** Requests this replica adopted from another replica. */
    u64 migrations_in = 0;
    /** Requests this replica handed off to another replica. */
    u64 migrations_out = 0;

    // ---- §8.1 prefix caching (all zero when disabled) --------------
    /** Slot allocations that consulted the prefix cache. */
    i64 prefix_lookups = 0;
    /** Allocations that inherited at least one cached token. */
    i64 prefix_hits = 0;
    /** Prompt tokens served from the cache instead of prefilled. */
    i64 prefill_tokens_saved = 0;
    /** Cumulative bytes shared across requests (aliased page-groups /
     *  refcounted blocks). */
    u64 prefix_aliased_bytes = 0;
    /** Cumulative bytes of partial trailing groups copied on hits. */
    u64 prefix_copied_bytes = 0;

    /** End-to-end request latency in seconds (arrival -> finish). */
    Percentiles latency_s;
    /** Time to first token in seconds. */
    Percentiles ttft_s;
    /** Time between consecutive output tokens in seconds, sampled at
     *  every token emission after a request's first (within one
     *  computation epoch: preemption restarts the chain). */
    Percentiles tbt_s;
    /** Per-request end-to-end latency divided by its decode tokens,
     *  in seconds per token (the paper's normalized latency). */
    Percentiles normalized_latency_s;

    /** Only filled when EngineConfig::record_iterations is set. */
    std::vector<IterationRecord> iterations;

    double requestsPerMinute() const;
    double decodeTokensPerSecond() const;
    double prefillTokensPerSecond() const;
    /** Prefix-cache hit rate over lookups (0 when caching is off). */
    double prefixHitRate() const;
    /** Fraction of prompt tokens served from the prefix cache. */
    double prefillSavedFraction() const;
    /** Fraction of SLO-carrying requests that met every deadline
     *  (0 when the trace carried no deadlines). */
    double goodput() const;

    /** Accumulate a finished request's timestamps. */
    void addRequest(const Request &request);
    /** Accumulate a request that terminated unserved (dropped or
     *  shed): it joins the goodput denominator but no percentile. */
    void addRejected(const Request &request);
};

} // namespace vattn::serving

#endif // VATTN_SERVING_METRICS_HH
