/**
 * @file
 * The serving engine: continuous-batching event loop over a virtual
 * clock, combining the memory backend (paged or vAttention), the
 * roofline kernel model and the CPU overhead model. One Engine models
 * one model replica (TP workers behave identically and advance in
 * lockstep, so a single simulated worker carries the per-worker state
 * while kernel times account for the TP split).
 *
 * Iteration composition lives outside the engine: every loop step
 * asks the scheduler layer's BatchComposer for an IterationPlan (a
 * set of decode requests plus prefill chunks) and executes it with
 * runIteration(), which runs five phases: admit (slot leases and
 * prefix hits), ensure (KV backing, preempting on OOM), price
 * (perf::priceIteration over the survivors), account (clock, report,
 * iteration record) and emit (tokens and finishes). The composer's
 * SchedulingMode decides whether prefills run as monolithic
 * prioritized iterations (vLLM v0.2.7) or as stall-free chunks riding
 * along with decodes (Sarathi-style hybrid batching, the paper's §7
 * serving harness).
 *
 * Growth horizon. A request needs new KV only when its length crosses
 * a block or page-group boundary or a sliding window drops a block or
 * group (for vAttention also one token early, so the §6.1.1 background
 * thread can map the next group in time). After each real ensure the
 * engine asks the backend for the slack, the number of decode
 * iterations before any running request reaches such a length
 * (MemoryBackend::ensureSlack), and skips ensure() for that many
 * decode-only iterations. Admission, a prefill chunk, preemption,
 * swap-in, a dropped request and migration force a real ensure().
 *
 * Decode runs. advanceTo(h) has stepRun()'s contract but, while
 * nothing is waiting, swapped or due to arrive, every running request
 * has finished its prefill and the slack lasts, it runs iterations as
 * a tight price -> account -> emit loop: no composer, no admission or
 * swap-in pass, and the pricer's per-request lengths kept in place
 * (finished requests drop out, the rest grow by one token). Engine::run
 * and ServingCluster drive replicas through advanceTo.
 */

#ifndef VATTN_SERVING_ENGINE_HH
#define VATTN_SERVING_ENGINE_HH

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/audit.hh"
#include "common/sim_clock.hh"
#include "sim/event_queue.hh"
#include "perf/backend_kind.hh"
#include "perf/gpu_spec.hh"
#include "perf/iteration_cost.hh"
#include "perf/kernel_model.hh"
#include "perf/model_spec.hh"
#include "perf/nccl_spec.hh"
#include "perf/overhead_model.hh"
#include "perf/pcie_spec.hh"
#include "serving/memory_backend.hh"
#include "serving/metrics.hh"
#include "serving/router.hh"
#include "serving/scheduler.hh"
#include "serving/lockstep_backend.hh"
#include "serving/workload.hh"

namespace vattn::serving
{

/**
 * How the engine resolves out-of-memory during an iteration
 * (which fate the preemption victim meets).
 */
enum class PreemptionPolicy : u8
{
    /** Free the victim's KV and recompute its prefill from token 0
     *  later (vLLM's recomputation preemption; the historical
     *  behaviour and the default). */
    kRecompute,
    /** Swap the victim's KV to host memory and copy it back when
     *  capacity returns; no prefill FLOPs are repeated. Falls back to
     *  recomputation when the victim cannot be swapped (prefix-aliased
     *  pages, host tier full). */
    kSwap,
    /** Per victim, compare the modeled recompute time (roofline
     *  prefill of its computed tokens) against the modeled PCIe round
     *  trip of its KV bytes and pick the cheaper. */
    kAuto,
};

const char *toString(PreemptionPolicy policy);

/** Which running request a preemption selects as the victim. */
enum class PreemptionVictim : u8
{
    /** Most recently admitted first (vLLM; the historical default). */
    kLifo,
    /** The request whose prefill is cheapest to redo (smallest modeled
     *  recompute cost); ties break toward most recently admitted. */
    kSmallestRecompute,
};

const char *toString(PreemptionVictim policy);

/** Everything needed to stand up one serving deployment. */
struct EngineConfig
{
    perf::ModelSpec model = perf::ModelSpec::yi6B();
    perf::GpuSpec gpu = perf::GpuSpec::a100();
    /** Tensor-parallel degree: the replica's KV is a lockstep group
     *  of num_kv_heads/tp shards, one per rank (§5.3; Release builds
     *  simulate rank 0 alone, see serving/lockstep_backend.hh);
     *  kernel times use the per-worker head counts and commTime adds
     *  the all-reduces. */
    int tp_degree = 1;
    perf::BackendKind backend = perf::BackendKind::kFa2VAttention;
    /** Interconnect collective cost model for TP all-reduces. The
     *  default (unset) resolves to NcclSpec::legacy(gpu.nvlink) — the
     *  historical flat α–β numbers, bit-for-bit. */
    perf::NcclSpec nccl = {};
    /** Overlap the per-iteration all-reduce time with attention +
     *  linear compute: only the exposed portion (comm beyond the
     *  compute it can hide behind) lengthens the iteration. Off by
     *  default — the historical fully-serialized accounting. */
    bool overlap_comm = false;

    /** vLLM-style memory split: KV gets util * mem - weights -
     *  activation reserve (per worker). */
    double gpu_mem_util = 0.90;
    u64 activation_reserve_bytes = 2 * GiB;
    /** Non-zero overrides the computed per-worker KV budget. */
    u64 kv_budget_override = 0;

    /** vAttention's page-group, layout and §6.1 policy; max_batch_size
     *  is raised to scheduler.max_num_seqs. Prefix caching, the host
     *  tier and the PCIe link are the fields below, which the engine
     *  passes to either backend alike. */
    VAttentionBackend::Options vattn = {};
    Scheduler::Config scheduler = {};
    bool record_iterations = false;
    /** §8.1 shared-prefix KV reuse, on whichever backend is chosen
     *  (hash-block caching for paged, page-group aliasing for
     *  vAttention). Only effective for traces carrying token ids. */
    bool enable_prefix_caching = false;

    // ---- Memory-pressure policy -------------------------------------
    /** What happens to preemption victims (default: recompute, the
     *  historical behaviour — runs are bit-for-bit unchanged). */
    PreemptionPolicy preemption_policy = PreemptionPolicy::kRecompute;
    /** Victim selection (default: LIFO, the historical behaviour). */
    PreemptionVictim preemption_victim = PreemptionVictim::kLifo;
    /** Per-worker host memory for the KV swap tier. Only committed
     *  when the policy can swap (kSwap/kAuto). */
    u64 host_swap_bytes = 16 * GiB;
    /** PCIe link pricing swap copies and the kAuto cost comparison. */
    perf::PcieSpec pcie = perf::PcieSpec::gen4x16();

    // ---- SLO-aware admission ----------------------------------------
    /** Shed waiting requests whose TTFT deadline is already impossible
     *  to meet (earliest possible first token past the deadline)
     *  instead of serving them late. Off by default — the historical
     *  serve-everything behaviour, bit-for-bit. */
    bool shed_on_ttft = false;

    /** Per-worker KV pool size implied by the settings above. */
    u64 kvBudgetPerWorker() const;
};

/** One model replica under simulation. */
class Engine
{
  public:
    explicit Engine(EngineConfig config);

    /** Serve a whole trace (offline or online per arrival times): a
     *  thin wrapper that opens an online session, submits the trace in
     *  arrival order (ties in trace order), closes it and steps the
     *  engine until every request terminated. */
    RunReport run(std::vector<Request> trace);

    // ---- Step API (event-driven drivers) ------------------------------
    //
    // Requests enter through an online session (below); stepRun()
    // performs exactly one scheduling step (pending admissions + one
    // iteration, or an idle jump to the next arrival) and endRun()
    // finalizes the report. A cluster interleaves many replicas by
    // stepping each one up to the next arrival instant.

    /** Requests still in flight (stepRun may be called)? */
    bool runActive() const { return run_finished_ < run_total_; }
    /**
     * Virtual time of the engine's next action: now() when work is
     * runnable immediately, the next arrival when idle, and
     * sim::kNoEventNs when the run is complete.
     */
    TimeNs nextEventNs() const;
    /** Execute one scheduling step (precondition: runActive()). */
    void stepRun();
    /**
     * Run until the engine's next event is at or past @p horizon
     * (sim::kNoEventNs: until the run completes). The same contract,
     * bit for bit, as
     *   while (runActive() && nextEventNs() < horizon) stepRun();
     * but stretches where every running request decodes and ensure()
     * is inside the growth horizon run as decode runs: price, account
     * and emit only, with no composer, admission or swap-in pass.
     */
    void advanceTo(TimeNs horizon);
    /** Finish the run and return the report. */
    RunReport endRun();

    // ---- Online submission (the one way requests enter) ---------------
    //
    // beginOnline() opens a session, submitOnline() adds one request
    // (arrival times must be non-decreasing — the driver dispatches
    // arrivals in virtual-time order), closeOnline() ends the stream.
    // Requests may be submitted mid-flight, between steps. The session
    // is driven by the nextEventNs()/stepRun() loop above and finalized
    // by endRun() once every submitted request terminated. Terminal
    // requests are garbage-collected off the front of the ownership
    // deque, so live memory is bounded by the in-flight set, not the
    // session length.

    /** Open an online session. @p expected_requests pre-sizes the
     *  report's sample stores (0 = grow on demand). */
    void beginOnline(std::size_t expected_requests = 0);
    /** Feed one request mid-flight. Errors — instead of panicking —
     *  when no session is open, arrivals go back in time or the
     *  request fails Request::validate(). */
    Status submitOnline(Request request);
    /** Declare the stream finished; drain via stepRun, then endRun. */
    void closeOnline();
    bool onlineOpen() const { return online_open_; }
    /** Requests currently owned by the session (bounded-memory
     *  checks: stays O(in-flight) as terminal requests are GC'd). */
    std::size_t ownedRequests() const { return owned_.size(); }

    // ---- Live load & cross-replica migration --------------------------

    /** Live state snapshot for SLO-aware routing (Router::routeLive). */
    Router::LiveLoad liveLoad() const;

    /**
     * Hand the newest waiting request to @p target. No KV moves — a
     * queued request holds none — so this is pure bookkeeping: the
     * donor keeps a kMigrated tombstone, the target enqueues a copy.
     * False when nothing is queued.
     */
    bool migrateQueuedTo(Engine &target);

    /**
     * Hand the newest swapped-out request to @p target over the host
     * tier: the KV image is exported here (freeing this replica's
     * slot and host pages) and imported there; the target's regular
     * swap-in then pays the HtoD copy. The whole lockstep TP group
     * migrates as a unit on both sides. False when there is no
     * movable request or the target cannot adopt the image (wrong
     * backend family or geometry, no free slot, host tier full) — the
     * donor re-imports its own image, so failure is side-effect-free.
     */
    bool migrateSwappedTo(Engine &target);

    // ---- Microbenchmark entry points ----------------------------------

    struct DecodeRun
    {
        double tokens_per_s = 0;
        double alloc_bytes_per_s = 0; ///< KV commit rate, all workers
        double mean_iter_ms = 0;
        /** Requests still running at the end; smaller than the asked
         *  batch when the KV budget forced preemptions (vLLM-style). */
        i64 effective_batch = 0;
        u64 preemptions = 0;
        Percentiles iter_ms;
        std::vector<IterationRecord> iterations;
    };

    /** Figure 4/8 style run: @p batch requests at @p initial_ctx
     *  context, timed for @p iterations decode steps (prefill is
     *  performed but not timed). */
    DecodeRun decodeOnly(int batch, i64 initial_ctx, int iterations);

    /** Same, with per-request initial contexts (Figure 12 staggers
     *  page-group boundary crossings across the batch). */
    DecodeRun decodeOnlyVaried(const std::vector<i64> &initial_ctx,
                               int iterations);

    struct PrefillRun
    {
        TimeNs total_ns = 0;
        TimeNs attention_ns = 0;
        TimeNs linear_ns = 0;
        TimeNs mem_ns = 0; ///< critical-path allocation
        TimeNs cpu_ns = 0;
        TimeNs comm_ns = 0;
    };

    /** Prefill a single fresh request of @p ctx tokens and release it
     *  (completion path honours deferred reclamation, so back-to-back
     *  calls reproduce the Figure 13 reuse behaviour). */
    PrefillRun prefillOnce(i64 ctx);

    // ---- Introspection -------------------------------------------------

    /**
     * One whole-stack audit sweep: serving containers + request states
     * (serving_audit.hh) and the memory backend's layers down to the
     * driver ledgers. Always compiled; VATTN_AUDIT builds additionally
     * run it after every engine iteration and panic on violations.
     */
    audit::AuditReport auditNow() const;

    /** Iterations advanceTo() has run as decode runs, over the
     *  engine's lifetime (tests check that the fast path ran). */
    u64 decodeRunIterations() const { return decode_run_iterations_; }

    const EngineConfig &config() const { return config_; }
    const perf::KernelModel &kernelModel() const { return kernel_; }
    MemoryBackend &backend() { return *backend_; }
    /** Non-null when the backend is vAttention. */
    VAttentionBackend *vattnBackend() { return vattn_backend_; }
    SimClock &clock() { return clock_; }

  private:
    /** Move every arrival due at the current clock into the queue. */
    void admitArrivals();
    /**
     * Prompt tokens the backend would actually have to back fresh,
     * refreshing the request's prefix-cache hint. The single source of
     * truth for admission: canAdmitRequest, the composer's budgets and
     * the starvation check all go through it, so they agree on
     * prefix-discounted demand.
     */
    i64 uncachedPromptTokens(Request &request) const;
    /** Memory admission gate (prefix-aware). */
    bool canAdmitRequest(Request &request) const;
    /** Per-request KV target lengths for this iteration: contextLen()
     *  for everything running, except prefill-chunk members whose
     *  target includes the chunk being computed. Fills and returns the
     *  reusable active_lens_ scratch (allocation-free steady state). */
    const ActiveLens &activeLens(const IterationPlan &plan);
    /** ensure() with preemption-on-OOM; returns critical ns (swap-out
     *  stalls included — they happen inside the iteration). A
     *  decode-only plan inside the growth horizon skips it. */
    TimeNs ensureWithPreemption(const IterationPlan &plan,
                                RunReport &report);
    /** One ensure() the slack allows skipping: 0 ns plus any banked
     *  swap time. VATTN_AUDIT builds run the real step for @p plan's
     *  lengths and panic if it did anything. */
    TimeNs skipEnsure(const IterationPlan &plan);
    /** stepRun() would compose a decode-only iteration over the whole
     *  running set and skip its ensure(): nothing waiting, swapped or
     *  due, no running request mid-prefill, slack left. O(1). */
    bool decodeRunnable() const;
    /** Decode-only iterations while decodeRunnable() and the clock is
     *  below @p horizon (advanceTo's inner loop). */
    void runDecodes(TimeNs horizon);
    /** Add @p request to the running set (forces the next ensure()). */
    void startRunning(Request *request);
    /** Remove @p request from the running set, if it is there. */
    void stopRunning(Request *request);
    /** The running request the configured victim policy selects. */
    Request *pickVictim();
    /** Modeled GPU time of prefilling @p tokens from scratch, comm
     *  included (recompute cost; shedding's first-token estimate). */
    TimeNs promptComputeNs(i64 tokens) const;
    /** Preempt one victim per the configured policy: swap it to host
     *  (stall added to @p swap_stall_ns) or free-and-requeue it for
     *  recomputation. */
    void preemptOne(RunReport &report, TimeNs *swap_stall_ns);
    /** Swap queued-out requests back in, FCFS, before any new
     *  admission; forced when the device is otherwise idle. */
    void swapInReady(RunReport &report);
    /** Permanently reject a request whose KV demand can never be met
     *  (graceful per-request failure; keeps serving). */
    void dropRequest(Request *request, RunReport &report);
    /** Shed queue heads whose TTFT deadline is already impossible
     *  (no-op unless EngineConfig::shed_on_ttft). */
    void shedHopeless(RunReport &report);
    void shedRequest(Request *request, RunReport &report);
    /** Pop terminal requests off the front of the ownership deque. */
    void gcOnline();
    /** Grow the report's sample stores geometrically at submission
     *  time so stepRun's sample adds never reallocate. */
    void reserveOnlineSamples(const Request &request);
    /** Take ownership of a migrated-in request and queue it. */
    void adoptMigrant(Request request, bool swapped);
    void finishRequest(Request *request, RunReport &report);
    /** TBT bookkeeping at every token emission. */
    void recordToken(Request *request, RunReport &report);
    /** Execute one composed iteration (decodes + prefill chunks). */
    void runIteration(const IterationPlan &plan, RunReport &report);
    /** Lease slots for first chunks; returns their allocation ns. */
    TimeNs admit(const IterationPlan &plan, RunReport &report);
    /** Gather the survivors into the iter_* scratch and price them. */
    perf::IterationCost price(const IterationPlan &plan);
    /** Advance the clock; account the iteration, planned with
     *  @p planned_prefills chunks and @p planned_decodes decodes, in
     *  @p report. */
    void account(i64 planned_prefills, i64 planned_decodes,
                 const perf::IterationCost &cost, TimeNs mem_ns,
                 RunReport &report);
    /** Emit the survivors' tokens and finish completed requests. */
    void emit(RunReport &report);
    /** Decode-only plan over the whole running set (microbenches);
     *  rebuilt into the reusable plan_ scratch. */
    const IterationPlan &decodePlan();

#if VATTN_AUDIT
    /** Per-iteration hook: serving-layer audit + state-machine
     *  reachability every iteration, full cross-layer backend audit
     *  on a warmup + stride schedule; panics on violation. */
    void auditTick();
    /** Unconditional full audit of the final state; panics. */
    void auditFinal() const;

    /** Full backend audits run every iteration this long... */
    static constexpr u64 kAuditWarmupIters = 64;
    /** ...then every Nth iteration (O(KV state) each, so every
     *  iteration on a long large-batch run is quadratic). */
    static constexpr u64 kAuditStride = 32;
#endif

    EngineConfig config_;
    perf::KernelModel kernel_;
    perf::OverheadModel overhead_;
    std::unique_ptr<MemoryBackend> backend_;
    VAttentionBackend *vattn_backend_ = nullptr; ///< owned by backend_
    Scheduler scheduler_;
    BatchComposer composer_;
    SimClock clock_;
    std::vector<Request *> running_; ///< admission order
    i64 block_size_ = 0;             ///< paged back-ends only
    /** Running requests whose prefill is incomplete (startRunning,
     *  stopRunning and emit keep it; decode runs need it at 0). */
    i64 running_prefills_ = 0;
    /** ensure() calls that may still be skipped: set from
     *  MemoryBackend::ensureSlack after each real ensure(), one less
     *  per skip, 0 after anything else touches the running slots. */
    i64 ensure_slack_ = 0;
    u64 decode_run_iterations_ = 0;

    // ---- Run state (stepRun/endRun) ----------------------------------
    sim::EventQueue<Request *> arrivals_;
    RunReport run_report_;
    std::size_t run_total_ = 0;
    std::size_t run_finished_ = 0;
    /** Admission gate handed to the composer; built once so the hot
     *  path never constructs a std::function. */
    Scheduler::CanAdmit can_admit_;

    // ---- Online-session state ----------------------------------------
    /** Requests owned by an online session: a deque for stable
     *  addresses (the arrival queue and scheduler hold pointers) with
     *  terminal requests popped off the front (bounded memory). */
    std::deque<Request> owned_;
    bool online_open_ = false;
    /** Newest submitted arrival time (monotone-submission contract). */
    TimeNs last_submit_ns_ = 0;
    /** Total TBT samples the submissions so far could emit (the
     *  online sample-store reservation target). */
    std::size_t online_tbt_target_ = 0;

    // ---- Reusable per-iteration scratch ------------------------------
    // clear()-not-reallocate: after the high-water batch shape has
    // been seen, a steady-state iteration performs no heap
    // allocations (asserted by the allocation-regression tests).
    IterationPlan plan_;
    ActiveLens active_lens_;
    std::vector<const PrefillChunk *> iter_prefills_;
    std::vector<perf::ChunkShape> iter_chunks_; ///< iter_prefills_' shapes
    std::vector<Request *> iter_decodes_;
    std::vector<i64> iter_kv_lens_;
    std::vector<Request *> iter_finished_;
#if VATTN_AUDIT
    /** Last audited state per request id (reachability tracking). */
    std::unordered_map<u64, Request::State> audit_last_state_;
    /** Iterations audited since the run started (stride schedule). */
    u64 audit_iter_ = 0;
#endif
};

} // namespace vattn::serving

#endif // VATTN_SERVING_ENGINE_HH
