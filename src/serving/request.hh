/**
 * @file
 * Inference request lifecycle state shared by the scheduler, memory
 * back-ends and metrics.
 */

#ifndef VATTN_SERVING_REQUEST_HH
#define VATTN_SERVING_REQUEST_HH

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/prefix_hash.hh"
#include "common/status.hh"
#include "common/types.hh"

namespace vattn::serving
{

struct Request;

/**
 * Per-token streaming hooks for the online serving path. The struct
 * is owned by the submitter (it outlives the request) and attached to
 * a Request as a non-owning pointer, so installing callbacks adds no
 * per-request heap traffic and the engine hot loop stays
 * allocation-free: invoking a pre-built std::function allocates
 * nothing.
 *
 * on_finish fires at every terminal transition — finished, dropped
 * and shed alike; the request's state says which.
 */
struct StreamCallbacks
{
    std::function<void(const Request &)> on_first_token;
    std::function<void(const Request &)> on_token;
    std::function<void(const Request &)> on_finish;
};

/** One inference request flowing through the engine. */
struct Request
{
    enum class State : u8
    {
        kPending,  ///< not yet arrived (online traces)
        kWaiting,  ///< queued, no KV allocated
        kRunning,  ///< scheduled, holds a backend slot
        kSwapped,  ///< preempted to host memory; still holds its slot
        kFinished,
        /** Permanently rejected: the request's KV demand can never fit
         *  the budget (recorded in RunReport::dropped_requests, never
         *  in the latency percentiles). */
        kDropped,
        /** Rejected at admission because its TTFT deadline was already
         *  impossible to meet (SLO-aware shedding; counted in
         *  RunReport::shed_requests, separately from drops). */
        kShed,
        /** Moved to another replica (cross-replica migration). The
         *  donor keeps this husk only as a tombstone; the adopting
         *  engine owns the live copy. */
        kMigrated,
    };

    u64 id = 0;
    i64 prompt_tokens = 0;
    i64 max_new_tokens = 1;
    TimeNs arrival_ns = 0;
    /**
     * Prompt token ids (prefix caching needs real content; synthetic
     * length-only traces leave this empty and never hit the cache).
     * When non-empty, size() == prompt_tokens.
     */
    std::vector<i32> token_ids;

    // ---- Service-level objectives (0 = no deadline) -----------------
    /** Max acceptable time-to-first-token, relative to arrival. */
    TimeNs ttft_deadline_ns = 0;
    /** Max acceptable gap between consecutive output tokens. */
    TimeNs tbt_deadline_ns = 0;
    /** Streaming hooks (non-owning; null for offline runs). */
    const StreamCallbacks *stream = nullptr;

    // Mutable runtime state.
    State state = State::kPending;
    /** Prompt tokens whose KV has been computed (chunked prefill may
     *  spread the prompt over several iterations). Prefix-cache hits
     *  start this at the matched token count. */
    i64 prefilled_tokens = 0;
    i64 generated = 0;
    int slot = -1;
    u64 preemptions = 0;
    /** Latest prefix-cache match estimate for a waiting request
     *  (refreshed by the engine's admission check; 0 = no match or
     *  caching disabled). The batch composer discounts it when sizing
     *  prefill chunks; the real reuse is decided at slot allocation. */
    i64 prefix_hint = 0;

    // Timestamps for metrics.
    TimeNs first_scheduled_ns = 0;
    TimeNs prefill_done_ns = 0;
    /** Emission time of the newest output token (TBT bookkeeping);
     *  0 until the first token of the current computation epoch. */
    TimeNs last_token_ns = 0;
    /**
     * Emission time of the newest *user-visible* token. Unlike
     * last_token_ns this survives preemption epochs (swap-outs reset
     * last_token_ns so the percentile samples skip the stall, the
     * historical accounting), so SLO checking sees the gaps a client
     * would actually observe. 0 until the first token ever.
     */
    TimeNs last_emit_ns = 0;
    TimeNs finish_ns = 0;
    /** Deadline verdicts, latched at emission time (SLO fields). */
    bool ttft_violated = false;
    bool tbt_violated = false;

    /** Carries a TTFT or TBT deadline (participates in goodput). */
    bool hasSlo() const
    {
        return ttft_deadline_ns > 0 || tbt_deadline_ns > 0;
    }

    /** Tokens currently in the KV cache. */
    i64 contextLen() const { return prefilled_tokens + generated; }
    /** Final context length when the request completes. */
    i64 totalLen() const { return prompt_tokens + max_new_tokens; }

    /** The whole prompt is in the KV cache; decoding may proceed. */
    bool prefillComplete() const
    {
        return prefilled_tokens >= prompt_tokens;
    }

    bool hasTokenIds() const { return !token_ids.empty(); }

    /**
     * The shape every submission must have: at least one prompt token
     * and one token to generate, and token ids (when present) one per
     * prompt token. Submission is the system's untrusted edge, so
     * ServingCluster::submit and Engine::submitOnline return this
     * error instead of letting a malformed request panic mid-step.
     */
    Status
    validate() const
    {
        if (prompt_tokens < 1 || max_new_tokens < 1) {
            return errorStatus(
                ErrorCode::kInvalidArgument,
                "request " + std::to_string(id) + " has prompt_tokens " +
                    std::to_string(prompt_tokens) + " and max_new_tokens " +
                    std::to_string(max_new_tokens) +
                    "; both must be at least 1");
        }
        if (hasTokenIds() &&
            static_cast<i64>(token_ids.size()) != prompt_tokens) {
            return errorStatus(
                ErrorCode::kInvalidArgument,
                "request " + std::to_string(id) + " carries " +
                    std::to_string(token_ids.size()) +
                    " token ids for " + std::to_string(prompt_tokens) +
                    " prompt tokens");
        }
        return Status::ok();
    }

    /** Non-owning hash key over the prompt token ids. The attached
     *  memo makes repeated admission checks O(1) after the first
     *  full hashing pass (token ids never change). */
    PrefixKey
    prefixKey() const
    {
        return PrefixKey{token_ids.data(),
                         static_cast<i64>(token_ids.size()),
                         &prefix_hash_cache};
    }

    /** chunkHashes memo (content derived from token_ids). */
    mutable PrefixHashCache prefix_hash_cache;

    /**
     * Prompt tokens still to compute: actual prefill progress for
     * running requests, the prefix-cache hint for waiting ones. This
     * is what admission and chunk sizing budget against.
     */
    i64
    remainingPromptTokens() const
    {
        const i64 done = std::max(prefilled_tokens, prefix_hint);
        return std::max<i64>(0, prompt_tokens - done);
    }

    bool
    done() const
    {
        return generated >= max_new_tokens;
    }

    /** Drop all computed state (preemption with recomputation, or a
     *  queue drop): the request restarts from prompt token 0. */
    void
    resetComputedState()
    {
        prefilled_tokens = 0;
        generated = 0;
        slot = -1;
        last_token_ns = 0;
        prefix_hint = 0;
    }
};

} // namespace vattn::serving

#endif // VATTN_SERVING_REQUEST_HH
