/**
 * @file
 * Scheduling layer: the FCFS waiting queue (Scheduler) plus the
 * BatchComposer that turns queue + running set into an IterationPlan
 * for the engine. Two composition policies reproduce the paper's
 * serving harnesses:
 *
 *  - kPrefillPrioritized: the vLLM v0.2.7 policy (§7): prefills are
 *    prioritized whenever waiting requests fit in memory, multiple
 *    prompts share a monolithic prefill iteration up to a token
 *    budget, and decode iterations run the whole running set. Ongoing
 *    decodes therefore stall for entire prefill iterations.
 *  - kStallFreeChunked: Sarathi-style chunked-prefill hybrid batching
 *    (the harness of the paper's §7 serving evaluation): every
 *    iteration carries all ongoing decodes, and prompts are split
 *    into chunks that fill the leftover per-iteration token budget in
 *    FCFS order, so a long prompt never stalls running decodes.
 *
 * On OOM the engine preempts the most recently admitted request with
 * recomputation (both modes).
 */

#ifndef VATTN_SERVING_SCHEDULER_HH
#define VATTN_SERVING_SCHEDULER_HH

#include <functional>
#include <vector>

#include "common/ring_deque.hh"
#include "serving/request.hh"

namespace vattn::serving
{

/** Iteration-composition policy of the BatchComposer. */
enum class SchedulingMode : u8
{
    /** Monolithic prefill-only or decode-only iterations (vLLM
     *  v0.2.7); bit-for-bit the engine's historical behaviour. */
    kPrefillPrioritized,
    /** Chunked-prefill hybrid batching: decodes always ride along,
     *  prompts fill the leftover token budget in FCFS chunk order. */
    kStallFreeChunked,
};

const char *toString(SchedulingMode mode);

/** One prompt's share of an iteration's prefill work. */
struct PrefillChunk
{
    Request *request = nullptr;
    /** Query tokens this iteration (the chunk length). */
    i64 tokens = 0;
    /** First chunk of the prompt: the engine must allocate a slot. */
    bool first_chunk = false;
};

/**
 * What one engine iteration computes: a set of decode requests (one
 * token each) plus a set of prefill chunks, composed under the token
 * budget. Either side may be empty; kPrefillPrioritized never fills
 * both.
 */
struct IterationPlan
{
    std::vector<PrefillChunk> prefills;
    std::vector<Request *> decodes;

    bool empty() const { return prefills.empty() && decodes.empty(); }
    bool mixed() const { return !prefills.empty() && !decodes.empty(); }

    /** Empty the plan keeping vector capacity: the engine reuses one
     *  plan across iterations, so composition is allocation-free once
     *  the high-water batch shape has been seen. */
    void
    clear()
    {
        prefills.clear();
        decodes.clear();
    }
};

/** FCFS waiting-queue and admission policy. */
class Scheduler
{
  public:
    struct Config
    {
        /** Max concurrently running requests (vLLM max_num_seqs). */
        int max_num_seqs = 256;
        /** Prefill token budget per iteration
         *  (vLLM max_num_batched_tokens; single prompts larger than
         *  the budget still run alone). */
        i64 max_batched_tokens = 32768;
        /** Iteration-composition policy (see SchedulingMode). */
        SchedulingMode mode = SchedulingMode::kPrefillPrioritized;
        /** kStallFreeChunked per-iteration token budget shared by
         *  decodes (one token each) and prefill chunks — the Sarathi
         *  chunk budget. 0 falls back to max_batched_tokens. */
        i64 chunk_tokens = 2048;

        /** The token budget one iteration may compose under. */
        i64 iterationTokenBudget() const;
    };

    explicit Scheduler(Config config);

    /** Add an arrived request to the back of the FCFS queue. */
    void enqueue(Request *request);

    /** Put a preempted request back at the front. */
    void requeueFront(Request *request);

    bool hasWaiting() const { return !waiting_.empty(); }
    std::size_t numWaiting() const { return waiting_.size(); }
    /** Oldest waiting request (nullptr when the queue is empty). */
    Request *frontWaiting() const;
    /** Remove the head of the queue (the composer admitted it). */
    void popFrontWaiting();
    /** Newest waiting request (nullptr when the queue is empty) —
     *  migration steals from the tail, preserving FCFS for the
     *  requests that have waited longest. */
    Request *backWaiting() const;
    /** Remove the tail of the queue (it migrated away). */
    void popBackWaiting();

    // ---- Swapped queue ----------------------------------------------
    //
    // Requests preempted to the host tier. They still hold a backend
    // slot and their computed state, so they are not re-admitted
    // through the waiting queue: the engine swaps them back in — FCFS,
    // before any new admission — as soon as device memory allows.

    /** Park a swapped-out request (FCFS order). */
    void pushSwapped(Request *request);
    bool hasSwapped() const { return !swapped_.empty(); }
    std::size_t numSwapped() const { return swapped_.size(); }
    /** Oldest swapped request (nullptr when none). */
    Request *frontSwapped() const;
    /** Remove the head of the swapped queue (swap-in succeeded). */
    void popFrontSwapped();
    /** Newest swapped request (nullptr when none). */
    Request *backSwapped() const;
    /** Remove the tail of the swapped queue (it migrated away). */
    void popBackSwapped();
    /** Drop everything queued (microbenchmark teardown); dropped
     *  requests are reset to kPending with no computed state so they
     *  can be re-enqueued later without stale slot/progress fields. */
    void clearWaiting();

    /** The FCFS waiting queue, oldest first (audits/introspection). */
    const RingDeque<Request *> &waitingQueue() const
    {
        return waiting_;
    }
    /** The swapped-out queue, oldest first (audits/introspection). */
    const RingDeque<Request *> &swappedQueue() const
    {
        return swapped_;
    }

    /**
     * Memory-admission gate. Non-const: the engine's implementation
     * refreshes the request's prefix-cache hint as a side effect, so
     * the budgets below see prefix-discounted demand.
     */
    using CanAdmit = std::function<bool(Request &)>;

    /**
     * Pick the prompts for the next prefill iteration: FCFS order,
     * gated by @p can_admit (memory) and the token/seq budgets.
     * Picked requests are removed from the queue and appended to
     * @p picked (cleared first; capacity is reused so the per
     * iteration hot path allocates nothing in steady state).
     */
    void pickPrefillBatch(int num_running, const CanAdmit &can_admit,
                          std::vector<Request *> &picked);

    /** Convenience overload returning a fresh vector. */
    std::vector<Request *>
    pickPrefillBatch(int num_running, const CanAdmit &can_admit);

    const Config &config() const { return config_; }

  private:
    Config config_;
    RingDeque<Request *> waiting_;
    RingDeque<Request *> swapped_;
};

/**
 * Composes the next IterationPlan from the waiting queue and the
 * running set. Owns no policy state beyond the config (only reusable
 * scratch storage): all queue mutation happens through the Scheduler
 * it is given, so the engine's view of the queue stays authoritative.
 */
class BatchComposer
{
  public:
    explicit BatchComposer(Scheduler::Config config);

    /**
     * Build the next iteration's plan into @p plan (cleared first;
     * its vectors keep their capacity, so steady-state composition is
     * allocation-free). @p running is the engine's running set in
     * admission order (possibly mid-prefill requests included);
     * @p can_admit gates new admissions on memory. Picked waiting
     * requests are popped from @p scheduler. An empty plan means
     * nothing can run (idle, or head-of-line blocked).
     */
    void
    composeInto(IterationPlan &plan, Scheduler &scheduler,
                const std::vector<Request *> &running,
                const Scheduler::CanAdmit &can_admit);

    /** Convenience overload returning a fresh plan (tests). */
    IterationPlan
    compose(Scheduler &scheduler, const std::vector<Request *> &running,
            const Scheduler::CanAdmit &can_admit);

    const Scheduler::Config &config() const { return config_; }

  private:
    void
    composePrefillPrioritized(
        IterationPlan &plan, Scheduler &scheduler,
        const std::vector<Request *> &running,
        const Scheduler::CanAdmit &can_admit);
    void
    composeStallFreeChunked(
        IterationPlan &plan, Scheduler &scheduler,
        const std::vector<Request *> &running,
        const Scheduler::CanAdmit &can_admit) const;

    Scheduler::Config config_;
    /** pickPrefillBatch output, reused across iterations. */
    std::vector<Request *> pick_scratch_;
};

} // namespace vattn::serving

#endif // VATTN_SERVING_SCHEDULER_HH
