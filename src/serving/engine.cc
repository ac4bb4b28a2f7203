#include "serving/engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "serving/paged_backend.hh"
#include "serving/serving_audit.hh"

namespace vattn::serving
{

namespace
{

/** KV blocks consumed by a context of @p tokens. */
i64
blocksFor(i64 tokens, i64 block_size)
{
    if (block_size <= 0 || tokens <= 0) {
        return 0;
    }
    return static_cast<i64>(ceilDiv(static_cast<u64>(tokens),
                                    static_cast<u64>(block_size)));
}

} // namespace

const char *
toString(PreemptionPolicy policy)
{
    switch (policy) {
      case PreemptionPolicy::kRecompute: return "recompute";
      case PreemptionPolicy::kSwap: return "swap";
      case PreemptionPolicy::kAuto: return "auto";
    }
    return "?";
}

const char *
toString(PreemptionVictim policy)
{
    switch (policy) {
      case PreemptionVictim::kLifo: return "lifo";
      case PreemptionVictim::kSmallestRecompute:
        return "smallest_recompute";
    }
    return "?";
}

u64
EngineConfig::kvBudgetPerWorker() const
{
    if (kv_budget_override != 0) {
        return kv_budget_override;
    }
    const double usable =
        gpu_mem_util * static_cast<double>(gpu.mem_bytes);
    const double weights =
        static_cast<double>(model.weightBytesPerWorker(tp_degree));
    const double budget = usable - weights -
                          static_cast<double>(activation_reserve_bytes);
    fatal_if(budget <= 0, "model ", model.name,
             " does not fit on ", tp_degree, "x ", gpu.name);
    return static_cast<u64>(budget);
}

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      kernel_(config_.gpu, config_.model, config_.tp_degree,
              config_.nccl),
      overhead_(),
      scheduler_(config_.scheduler),
      composer_(config_.scheduler),
      block_size_(perf::defaultBlockSize(config_.backend))
{
    const u64 budget = config_.kvBudgetPerWorker();
    // The host tier is only committed when the policy can swap, so the
    // default (kRecompute) build is bit-for-bit the historical one.
    const u64 host_bytes =
        config_.preemption_policy == PreemptionPolicy::kRecompute
            ? 0
            : config_.host_swap_bytes;
    if (perf::isPaged(config_.backend)) {
        // alloc-ok: engine construction, once per replica
        backend_ = std::make_unique<PagedBackend>(
            config_.model, config_.tp_degree, block_size_, budget,
            config_.enable_prefix_caching, host_bytes, config_.pcie);
    } else {
        auto options = config_.vattn;
        options.max_batch_size =
            std::max(options.max_batch_size,
                     config_.scheduler.max_num_seqs);
        options.enable_prefix_caching |= config_.enable_prefix_caching;
        options.host_swap_bytes =
            std::max(options.host_swap_bytes, host_bytes);
        // alloc-ok: engine construction, once per replica
        auto backend = std::make_unique<VAttentionBackend>(
            config_.model, config_.tp_degree, budget, options);
        vattn_backend_ = backend.get();
        vattn_backend_->setCopyModel(config_.pcie.toCopyModel());
        backend_ = std::move(backend);
    }
    // Single admission gate: the composer's budgets, the starvation
    // check and the backend all see prefix-discounted demand. Built
    // once here so composing an iteration never constructs a
    // std::function.
    can_admit_ = [this](Request &request) {
        return canAdmitRequest(request);
    };
}

i64
Engine::uncachedPromptTokens(Request &request) const
{
    request.prefix_hint = 0;
    if (backend_->prefixCachingEnabled() && request.hasTokenIds()) {
        // At least one prompt token is always computed: a full-prompt
        // hit still needs a 1-token prefill to produce the first
        // output token.
        request.prefix_hint =
            std::min(backend_->matchPrefix(request.prefixKey()),
                     request.prompt_tokens - 1);
    }
    return request.prompt_tokens - request.prefix_hint;
}

bool
Engine::canAdmitRequest(Request &request) const
{
    return backend_->canAdmit(uncachedPromptTokens(request));
}

void
Engine::admitArrivals()
{
    while (!arrivals_.empty() &&
           arrivals_.nextTimeNs() <= clock_.now()) {
        scheduler_.enqueue(arrivals_.pop());
    }
}

const ActiveLens &
Engine::activeLens(const IterationPlan &plan)
{
    ActiveLens &active = active_lens_;
    active.clear();
    for (const Request *request : running_) {
        i64 target = request->contextLen();
        // A prefill chunk's KV is written this iteration: reserve it.
        for (const PrefillChunk &chunk : plan.prefills) {
            if (chunk.request == request) {
                target = request->prefilled_tokens + chunk.tokens;
                break;
            }
        }
        active.emplace_back(request->slot, target);
    }
    return active;
}

TimeNs
Engine::recomputeCostNs(const Request *request) const
{
    const i64 ctx = request->contextLen();
    if (ctx <= 0) {
        return 0;
    }
    // What evicting this request throws away: the prefill FLOPs of
    // every token already in its KV cache (decoded tokens included —
    // recomputation replays them as prompt). Sliding-window layers
    // recompute only their banded score matrix.
    return kernel_.chunkedPrefillAttentionWindowed(config_.backend,
                                                   ctx, ctx) +
           kernel_.prefillLinear(ctx) + kernel_.commTime(ctx);
}

Request *
Engine::pickVictim()
{
    panic_if(running_.empty(), "preemption with nothing running");
    if (config_.preemption_victim == PreemptionVictim::kLifo) {
        // vLLM preempts the most recently admitted request.
        return running_.back();
    }
    // Smallest recompute cost, scanning newest-first so ties keep the
    // LIFO choice.
    Request *best = running_.back();
    TimeNs best_cost = recomputeCostNs(best);
    for (auto it = std::next(running_.rbegin());
         it != running_.rend(); ++it) {
        const TimeNs cost = recomputeCostNs(*it);
        if (cost < best_cost) {
            best = *it;
            best_cost = cost;
        }
    }
    return best;
}

void
Engine::preemptOne(RunReport &report, TimeNs *swap_stall_ns)
{
    Request *victim = pickVictim();
    bool try_swap = false;
    switch (config_.preemption_policy) {
      case PreemptionPolicy::kRecompute:
        break;
      case PreemptionPolicy::kSwap:
        try_swap = true;
        break;
      case PreemptionPolicy::kAuto: {
        // Swap iff the PCIe round trip undercuts replaying the
        // victim's prefill.
        const u64 bytes = backend_->slotPhysBytes(victim->slot);
        try_swap = bytes > 0 && config_.pcie.roundTripNs(bytes) <
                                    recomputeCostNs(victim);
        break;
      }
    }
    // Only decode-phase victims swap. A mid-prefill victim would come
    // back only to compose the same too-big prefill iteration and be
    // preempted again (swap-in bypasses the memory-gated admission
    // path that breaks that cycle for recomputation), so it restarts
    // from token 0 through the waiting queue instead.
    if (try_swap && victim->prefillComplete() &&
        backend_->canSwapOut(victim->slot)) {
        auto result = backend_->swapOut(victim->slot);
        if (result.isOk()) {
            running_.erase(
                std::find(running_.begin(), running_.end(), victim));
            ++victim->preemptions;
            // Computed state survives: the victim resumes where it
            // stopped, recomputing nothing. The TBT chain restarts
            // like recompute preemption's does, so the parked wait is
            // charged to swap_stall_ns/latency — not sampled as one
            // giant inter-token gap that the recompute policy's
            // resetComputedState would have hidden.
            victim->last_token_ns = 0;
            scheduler_.pushSwapped(victim);
            ++report.swap_outs;
            report.swap_out_bytes += result.value().bytes;
            report.swap_stall_ns += result.value().stall_ns;
            if (swap_stall_ns) {
                *swap_stall_ns += result.value().stall_ns;
            }
            return;
        }
    }
    // Recompute (also the fallback when the victim cannot be swapped:
    // prefix-aliased pages, host tier full): free the KV and restart
    // from prompt token 0 later (a half-prefilled victim included).
    running_.erase(std::find(running_.begin(), running_.end(), victim));
    backend_->freeSlot(victim->slot);
    victim->resetComputedState();
    ++victim->preemptions;
    scheduler_.requeueFront(victim);
}

void
Engine::dropRequest(Request *request, RunReport &report)
{
    auto it = std::find(running_.begin(), running_.end(), request);
    if (it != running_.end()) {
        running_.erase(it);
    }
    if (request->slot >= 0) {
        backend_->freeSlot(request->slot);
    }
    request->resetComputedState();
    request->state = Request::State::kDropped;
    request->finish_ns = clock_.now();
    ++report.dropped_requests;
    report.addRejected(*request);
    if (request->stream != nullptr && request->stream->on_finish) {
        request->stream->on_finish(*request);
    }
}

TimeNs
Engine::prefillCostNs(const Request *request) const
{
    const i64 tokens = request->remainingPromptTokens();
    if (tokens <= 0) {
        return 0;
    }
    return kernel_.chunkedPrefillAttentionWindowed(config_.backend,
                                                   tokens, tokens) +
           kernel_.prefillLinear(tokens) + kernel_.commTime(tokens);
}

void
Engine::shedRequest(Request *request, RunReport &report)
{
    request->state = Request::State::kShed;
    request->finish_ns = clock_.now();
    ++report.shed_requests;
    report.addRejected(*request);
    if (request->stream != nullptr && request->stream->on_finish) {
        request->stream->on_finish(*request);
    }
}

void
Engine::shedHopeless(RunReport &report)
{
    if (!config_.shed_on_ttft) {
        return;
    }
    // Head-of-queue only: under FCFS the head starts next, so its
    // earliest possible first token is now + its own prefill — a
    // certain miss at that bound is a certain miss, full stop.
    // Requests further back would need the whole queue's prefill sum
    // (an estimate that degrades with depth), and they get the same
    // exact check when they reach the head.
    while (scheduler_.hasWaiting()) {
        Request *head = scheduler_.frontWaiting();
        if (head->ttft_deadline_ns <= 0) {
            break; // FCFS: an undeadlined head is served, not skipped
        }
        const TimeNs deadline =
            head->arrival_ns + head->ttft_deadline_ns;
        if (clock_.now() + prefillCostNs(head) <= deadline) {
            break;
        }
        scheduler_.popFrontWaiting();
        shedRequest(head, report);
    }
}

TimeNs
Engine::ensureWithPreemption(const IterationPlan &plan,
                             RunReport &report)
{
    TimeNs swap_ns = 0;
    while (true) {
        auto result = backend_->ensure(activeLens(plan));
        if (result.isOk()) {
            return result.value() + swap_ns;
        }
        panic_if(result.code() != ErrorCode::kOutOfMemory,
                 "backend ensure failed: ", result.status().message());
        panic_if(running_.empty(), "ensure OOM with nothing running");
        if (running_.size() == 1) {
            // Nothing left to preempt: this one request's demand
            // exceeds the whole KV budget (even after reclaiming every
            // cached group). Fail it gracefully and keep serving
            // instead of panicking.
            dropRequest(running_.back(), report);
            continue;
        }
        preemptOne(report, &swap_ns);
        ++report.preemptions;
    }
}

void
Engine::swapInReady(RunReport &report)
{
    while (scheduler_.hasSwapped()) {
        Request *request = scheduler_.frontSwapped();
        // FCFS, gated on capacity headroom — except when nothing is
        // running: the device is idle, so force the attempt (progress
        // guarantee; a swapped request always fits an empty device).
        if (!running_.empty() && !backend_->canSwapIn(request->slot)) {
            break;
        }
        auto result = backend_->swapIn(request->slot);
        if (!result.isOk()) {
            panic_if(running_.empty(),
                     "swap-in stuck with an idle device: ",
                     result.status().message());
            break;
        }
        scheduler_.popFrontSwapped();
        request->state = Request::State::kRunning;
        running_.push_back(request);
        ++report.swap_ins;
        report.swap_in_bytes += result.value().bytes;
        report.swap_stall_ns += result.value().stall_ns;
        report.busy_ns += result.value().stall_ns;
        clock_.advance(result.value().stall_ns);
    }
}

void
Engine::finishRequest(Request *request, RunReport &report)
{
    backend_->freeSlot(request->slot);
    request->slot = -1;
    request->state = Request::State::kFinished;
    request->finish_ns = clock_.now();
    report.addRequest(*request);
    running_.erase(std::find(running_.begin(), running_.end(), request));
    if (request->stream != nullptr && request->stream->on_finish) {
        request->stream->on_finish(*request);
    }
}

void
Engine::recordToken(Request *request, RunReport &report)
{
    const TimeNs now = clock_.now();
    if (request->last_token_ns != 0) {
        report.tbt_s.add(SimClock::toSeconds(now -
                                             request->last_token_ns));
    }
    request->last_token_ns = now;
    // ---- SLO verdicts + streaming (inert for offline requests) -----
    // last_emit_ns survives preemption epochs (last_token_ns does
    // not), so these see the token gaps a client would observe.
    const bool first = request->last_emit_ns == 0;
    if (first) {
        if (request->ttft_deadline_ns > 0 &&
            now > request->arrival_ns + request->ttft_deadline_ns) {
            request->ttft_violated = true;
        }
    } else if (request->tbt_deadline_ns > 0 &&
               now - request->last_emit_ns >
                   request->tbt_deadline_ns) {
        request->tbt_violated = true;
    }
    request->last_emit_ns = now;
    if (request->stream != nullptr) {
        if (first && request->stream->on_first_token) {
            request->stream->on_first_token(*request);
        }
        if (request->stream->on_token) {
            request->stream->on_token(*request);
        }
    }
}

i64
Engine::maxBlocksIn(const std::vector<Request *> &requests,
                    i64 block_size)
{
    i64 max_blocks = 0;
    for (const Request *request : requests) {
        max_blocks = std::max(
            max_blocks, blocksFor(request->contextLen(), block_size));
    }
    return max_blocks;
}

i64
Engine::totalBlocksIn(const std::vector<Request *> &requests,
                      i64 block_size)
{
    i64 total = 0;
    for (const Request *request : requests) {
        total += blocksFor(request->contextLen(), block_size);
    }
    return total;
}

const IterationPlan &
Engine::decodePlan()
{
    plan_.clear();
    plan_.decodes.assign(running_.begin(), running_.end());
    return plan_;
}

void
Engine::runIteration(const IterationPlan &plan, RunReport &report)
{
    if (plan.empty()) {
        return; // nothing to run (drained decodeOnly batch)
    }

    // ---- Admission: first chunks lease a backend slot --------------
    // Prefix-aware: a cached prefix match starts the request's prefill
    // at the matched offset (the backend aliased or shared the KV).
    TimeNs prefix_alloc_ns = 0;
    for (const PrefillChunk &chunk : plan.prefills) {
        if (!chunk.first_chunk) {
            continue;
        }
        Request *request = chunk.request;
        auto lease = backend_->allocSlot(request->prefixKey(),
                                         request->prefix_hint);
        panic_if(!lease.isOk(), "allocSlot failed after canAdmit");
        request->slot = lease.value().slot;
        if (backend_->prefixCachingEnabled() &&
            request->hasTokenIds()) {
            ++report.prefix_lookups;
            if (lease.value().cached_tokens > 0) {
                ++report.prefix_hits;
                report.prefill_tokens_saved +=
                    lease.value().cached_tokens;
                request->prefilled_tokens = lease.value().cached_tokens;
            }
            // The hint served its purpose; from here on actual prefill
            // progress is the truth (the hit may have under-delivered
            // if the matched entry was sacrificed meanwhile).
            request->prefix_hint = lease.value().cached_tokens;
        }
        prefix_alloc_ns += lease.value().alloc_ns;
        request->state = Request::State::kRunning;
        if (request->first_scheduled_ns == 0) {
            request->first_scheduled_ns = clock_.now();
        }
        running_.push_back(request);
    }

    const TimeNs mem_ns =
        prefix_alloc_ns + ensureWithPreemption(plan, report);

    // ---- Survivors (ensure may have preempted plan members) --------
    std::vector<const PrefillChunk *> &prefills = iter_prefills_;
    prefills.clear();
    for (const PrefillChunk &chunk : plan.prefills) {
        if (chunk.request->state == Request::State::kRunning) {
            prefills.push_back(&chunk);
        }
    }
    std::vector<Request *> &decodes = iter_decodes_;
    decodes.clear();
    for (Request *request : plan.decodes) {
        if (request->state == Request::State::kRunning) {
            decodes.push_back(request);
        }
    }
    const i64 decode_batch = static_cast<i64>(decodes.size());
    if (plan.prefills.empty() && decode_batch == 0) {
        return; // everything got preempted (pathological budget)
    }

    // ---- GPU time --------------------------------------------------
    i64 prefill_tokens = 0;
    TimeNs attn_ns = 0;
    i64 new_blocks = 0;
    for (const PrefillChunk *chunk : prefills) {
        const Request *request = chunk->request;
        const i64 kv_len = request->prefilled_tokens + chunk->tokens;
        prefill_tokens += chunk->tokens;
        attn_ns += kernel_.chunkedPrefillAttentionWindowed(
            config_.backend, chunk->tokens, kv_len);
        new_blocks += blocksFor(kv_len, block_size_) -
                      blocksFor(request->prefilled_tokens, block_size_);
    }
    // Per-request KV lengths: sliding-window layers stream only
    // min(kv, window) tokens each (the sum is enough for uniform
    // models, where decodeAttentionWindowed degenerates to the
    // historical total-token path).
    std::vector<i64> &decode_kv_lens = iter_kv_lens_;
    decode_kv_lens.clear();
    for (const Request *request : decodes) {
        decode_kv_lens.push_back(request->contextLen());
    }
    attn_ns += kernel_.decodeAttentionWindowed(config_.backend,
                                               decode_kv_lens);

    // The linear operators and the all-reduce see one flat token
    // batch: chunk tokens plus one token per decode.
    const i64 token_units = prefill_tokens + decode_batch;
    const TimeNs linear_ns = prefill_tokens > 0
                                 ? kernel_.prefillLinear(token_units)
                                 : kernel_.decodeLinear(decode_batch);
    // All-reduce cost of the flat token batch. With overlap enabled,
    // comm hides behind attention + linear and only the exposed
    // remainder lengthens the iteration (the accounting below reports
    // that exposed portion — what the replica actually paid).
    TimeNs comm_ns = kernel_.commTime(token_units);
    if (config_.overlap_comm) {
        const TimeNs hideable = attn_ns + linear_ns;
        comm_ns = comm_ns > hideable ? comm_ns - hideable : 0;
    }
    const TimeNs gpu_ns = attn_ns + linear_ns + comm_ns;

    // ---- CPU time --------------------------------------------------
    TimeNs cpu_ns = 0;
    if (plan.decodes.empty()) {
        cpu_ns = overhead_.prefillCpu(
            config_.backend, static_cast<i64>(plan.prefills.size()),
            new_blocks);
    } else if (plan.prefills.empty()) {
        cpu_ns = overhead_.decodeCpu(config_.backend, decode_batch,
                                     maxBlocksIn(decodes, block_size_),
                                     totalBlocksIn(decodes, block_size_));
    } else {
        cpu_ns = overhead_.hybridCpu(
            config_.backend, static_cast<i64>(plan.prefills.size()),
            new_blocks, decode_batch,
            maxBlocksIn(decodes, block_size_),
            totalBlocksIn(decodes, block_size_));
    }

    backend_->computeWindow(gpu_ns);

    // ---- Advance the clock and account the iteration ---------------
    const TimeNs start = clock_.now();
    clock_.advance(mem_ns + gpu_ns + cpu_ns);
    report.busy_ns += mem_ns + gpu_ns + cpu_ns;
    report.comm_ns += comm_ns;
    const bool pure_prefill = plan.decodes.empty();
    if (pure_prefill) {
        ++report.prefill_iterations;
    } else if (plan.prefills.empty()) {
        ++report.decode_iterations;
    } else {
        ++report.mixed_iterations;
    }
    report.peak_batch =
        std::max(report.peak_batch, static_cast<i64>(running_.size()));
    if (config_.record_iterations) {
        i64 groups = 0;
        if (vattn_backend_ && !pure_prefill) {
            groups = vattn_backend_->lastStep().handles_mapped;
        }
        const i64 batch =
            pure_prefill ? static_cast<i64>(plan.prefills.size())
                         : decode_batch +
                               static_cast<i64>(prefills.size());
        report.iterations.push_back(IterationRecord{
            start, clock_.now() - start, pure_prefill, batch, mem_ns,
            groups, prefill_tokens, static_cast<i64>(prefills.size()),
            decode_batch, comm_ns});
    }

    // ---- Token emission --------------------------------------------
    // A chunk advances prefill progress; the chunk that completes the
    // prompt emits the request's first output token.
    for (const PrefillChunk *chunk : prefills) {
        Request *request = chunk->request;
        // min(): a prefix-cache hit at allocation may already have
        // advanced prefilled_tokens past what the plan assumed.
        request->prefilled_tokens +=
            std::min(chunk->tokens,
                     request->prompt_tokens - request->prefilled_tokens);
        if (backend_->prefixCachingEnabled() &&
            request->hasTokenIds()) {
            backend_->registerPrefix(
                request->slot, request->prefixKey(),
                std::min(request->prefilled_tokens,
                         request->prompt_tokens));
        }
        if (!request->prefillComplete()) {
            continue;
        }
        request->prefill_done_ns = clock_.now();
        request->generated = 1;
        recordToken(request, report);
        if (request->done() ||
            request->contextLen() >= config_.model.max_context_len) {
            finishRequest(request, report);
        }
    }
    // Each decode request produced one token.
    std::vector<Request *> &finished = iter_finished_;
    finished.clear();
    for (Request *request : decodes) {
        ++request->generated;
        recordToken(request, report);
        if (request->done() ||
            request->contextLen() >= config_.model.max_context_len) {
            finished.push_back(request);
        }
    }
    for (Request *request : finished) {
        finishRequest(request, report);
    }
}

audit::AuditReport
Engine::auditNow() const
{
    audit::AuditReport report;
    auditServingState(running_, scheduler_, report);
    backend_->auditInto(report);
    return report;
}

#if VATTN_AUDIT
void
Engine::auditTick()
{
    ++audit_iter_;
    audit::AuditReport report;
    auditServingState(running_, scheduler_, report);
    const auto observe = [this, &report](const Request *request) {
        if (request == nullptr) {
            return;
        }
        const auto it = audit_last_state_.find(request->id);
        if (it != audit_last_state_.end() &&
            !isReachableState(it->second, request->state)) {
            report.fail("serving: request ", request->id, " went ",
                        toString(it->second), " -> ",
                        toString(request->state),
                        " with no legal transition path");
        }
        audit_last_state_[request->id] = request->state;
    };
    for (const Request *request : running_) {
        observe(request);
    }
    for (const Request *request : scheduler_.waitingQueue()) {
        observe(request);
    }
    for (const Request *request : scheduler_.swappedQueue()) {
        observe(request);
    }
    // The serving-layer checks above are O(requests) and run every
    // iteration. The cross-layer backend audit is O(KV state), so on
    // long runs it audits every iteration while the state is being
    // stood up, then on a stride — accounting drift persists once
    // introduced, so a sampled audit still catches it (only the exact
    // iteration is localized more coarsely). run()/decodeOnlyVaried()
    // audit the final state unconditionally.
    if (audit_iter_ <= kAuditWarmupIters ||
        audit_iter_ % kAuditStride == 0) {
        backend_->auditInto(report);
    }
    panic_if(!report.ok(),
             "per-iteration audit failed\n", report.toString());
}

void
Engine::auditFinal() const
{
    const audit::AuditReport report = auditNow();
    panic_if(!report.ok(),
             "end-of-run audit failed\n", report.toString());
}
#endif

TimeNs
Engine::nextEventNs() const
{
    if (!runActive()) {
        return sim::kNoEventNs;
    }
    if (!running_.empty() || scheduler_.hasWaiting() ||
        scheduler_.hasSwapped()) {
        return clock_.now(); // runnable work right now
    }
    panic_if(arrivals_.empty(), "engine idle with unfinished requests");
    return arrivals_.nextTimeNs();
}

void
Engine::stepRun()
{
    panic_if(!runActive(), "stepRun on an inactive engine");
    const i64 shed_before = run_report_.shed_requests;
    admitArrivals();
    // Swapped requests come back before new admissions (they hold
    // slots and finished prefill work; serving them first frees
    // capacity soonest and preserves FCFS fairness).
    swapInReady(run_report_);
    // Deadline-aware admission: certain TTFT misses are shed before
    // they consume prefill capacity (no-op unless configured).
    shedHopeless(run_report_);

    if (running_.empty() && !scheduler_.hasWaiting()) {
        panic_if(scheduler_.hasSwapped(),
                 "swapped requests stranded on an idle engine");
        run_finished_ += static_cast<std::size_t>(
            run_report_.shed_requests - shed_before);
        if (arrivals_.empty()) {
            // Only reachable when shedding just retired the last
            // in-flight requests (accounted above).
            panic_if(runActive(),
                     "engine idle with unfinished requests");
            return;
        }
        clock_.advanceTo(arrivals_.nextTimeNs());
        return;
    }

    const i64 finished_before = run_report_.num_requests;
    const i64 dropped_before = run_report_.dropped_requests;

    composer_.composeInto(plan_, scheduler_, running_, can_admit_);
    if (plan_.empty()) {
        // Nothing runs and the head of the queue cannot be admitted
        // with the device otherwise empty: its prompt exceeds the KV
        // budget and never will fit. Fail that one request and keep
        // serving.
        panic_if(!running_.empty(), "empty plan with requests running");
        Request *head = scheduler_.frontWaiting();
        panic_if(!head, "empty plan with nothing waiting");
        scheduler_.popFrontWaiting();
        dropRequest(head, run_report_);
    } else {
        runIteration(plan_, run_report_);
    }
    run_finished_ += static_cast<std::size_t>(
        (run_report_.num_requests - finished_before) +
        (run_report_.dropped_requests - dropped_before) +
        (run_report_.shed_requests - shed_before));
#if VATTN_AUDIT
    auditTick();
#endif
}

RunReport
Engine::endRun()
{
    panic_if(runActive(), "endRun with requests still in flight");
    panic_if(online_open_,
             "endRun with the online session still open");
    owned_.clear();
    last_submit_ns_ = 0;
    online_tbt_target_ = 0;
    if (run_total_ == 0) {
        return RunReport{}; // an empty session never starts the clock
    }
#if VATTN_AUDIT
    auditFinal();
#endif
    run_report_.makespan_ns = clock_.now();
    const auto prefix_stats = backend_->prefixStats();
    run_report_.prefix_aliased_bytes = prefix_stats.aliased_bytes;
    run_report_.prefix_copied_bytes = prefix_stats.copied_bytes;
    run_total_ = 0;
    run_finished_ = 0;
    return std::move(run_report_);
}

void
Engine::beginOnline(std::size_t expected_requests)
{
    panic_if(runActive() || online_open_,
             "beginOnline while a run is active");
#if VATTN_AUDIT
    audit_last_state_.clear();
    audit_iter_ = 0;
#endif
    owned_.clear();
    arrivals_.clear();
    run_report_ = RunReport{};
    run_total_ = 0;
    run_finished_ = 0;
    last_submit_ns_ = 0;
    online_tbt_target_ = 0;
    online_open_ = true;
    if (expected_requests > 0) {
        // Head start for the per-submission geometric reservation
        // (reserveOnlineSamples); TBT pre-sizes there too, from the
        // submitted decode budgets.
        run_report_.latency_s.reserve(expected_requests);
        run_report_.ttft_s.reserve(expected_requests);
        run_report_.normalized_latency_s.reserve(expected_requests);
    }
}

void
Engine::gcOnline()
{
    const auto terminal = [](const Request &request) {
        switch (request.state) {
          case Request::State::kFinished:
          case Request::State::kDropped:
          case Request::State::kShed:
          case Request::State::kMigrated:
            return true;
          default:
            return false;
        }
    };
    while (!owned_.empty() && terminal(owned_.front())) {
        owned_.pop_front();
    }
}

Status
Engine::submitOnline(Request request)
{
    if (!online_open_) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "no online session open (call beginOnline "
                           "before submitting)");
    }
    if (request.arrival_ns < last_submit_ns_) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "online arrivals must be time-ordered");
    }
    last_submit_ns_ = request.arrival_ns;
    gcOnline();
    reserveOnlineSamples(request);
    request.state = Request::State::kPending;
    // alloc-ok: one deque node per submission, off the iteration path
    owned_.push_back(std::move(request));
    arrivals_.push(owned_.back().arrival_ns, &owned_.back());
    ++run_total_;
    return Status::ok();
}

void
Engine::closeOnline()
{
    panic_if(!online_open_, "closeOnline without an open session");
    online_open_ = false;
}

Router::LiveLoad
Engine::liveLoad() const
{
    Router::LiveLoad load;
    load.queued = static_cast<i64>(scheduler_.numWaiting() +
                                   scheduler_.numSwapped());
    load.running = static_cast<i64>(running_.size());
    // Prompt tokens admitted but not yet prefilled: what a new arrival
    // must wait out before its own prefill can start.
    for (const Request *request : scheduler_.waitingQueue()) {
        load.prefill_debt_tokens += request->remainingPromptTokens();
    }
    for (const Request *request : running_) {
        load.prefill_debt_tokens += request->remainingPromptTokens();
    }
    const u64 budget = backend_->budgetBytes();
    load.kv_pressure =
        budget > 0 ? static_cast<double>(backend_->bytesInUse()) /
                         static_cast<double>(budget)
                   : 1.0;
    load.comm_share =
        run_report_.busy_ns > 0
            ? static_cast<double>(run_report_.comm_ns) /
                  static_cast<double>(run_report_.busy_ns)
            : 0.0;
    load.kv_saturated = !backend_->canAdmit(1);
    return load;
}

void
Engine::reserveOnlineSamples(const Request &request)
{
    // Per-request samples: one latency/TTFT/normalized each, up to
    // max_new_tokens TBT gaps. Growth is geometric (doubling), so the
    // amortized cost per submission is O(1) and stepRun's adds stay
    // reallocation-free.
    const auto grow = [](Percentiles &samples, std::size_t target) {
        if (samples.capacity() < target) {
            // alloc-ok: geometric sample-store growth at submission
            samples.reserve(std::max(target, 2 * samples.capacity()));
        }
    };
    const std::size_t requests = run_total_ + 1;
    grow(run_report_.latency_s, requests);
    grow(run_report_.ttft_s, requests);
    grow(run_report_.normalized_latency_s, requests);
    online_tbt_target_ +=
        static_cast<std::size_t>(request.max_new_tokens);
    grow(run_report_.tbt_s, online_tbt_target_);
}

void
Engine::adoptMigrant(Request request, bool swapped)
{
    reserveOnlineSamples(request);
    // alloc-ok: one deque node per migration, an explicit rebalancing
    // action off the iteration path
    owned_.push_back(std::move(request));
    Request *adopted = &owned_.back();
    ++run_total_;
    ++run_report_.migrations_in;
    if (swapped) {
        adopted->state = Request::State::kSwapped;
        scheduler_.pushSwapped(adopted);
    } else {
        scheduler_.enqueue(adopted);
    }
}

bool
Engine::migrateQueuedTo(Engine &target)
{
    Request *victim = scheduler_.backWaiting();
    if (victim == nullptr) {
        return false;
    }
    // The tail of the queue migrates: the requests that waited longest
    // keep their position here (FCFS-fair), and the mover starts fresh
    // on the target (a queued request holds no KV anywhere).
    Request moved = *victim;
    moved.slot = -1;
    moved.prefix_hint = 0; // the target's prefix cache is its own
    scheduler_.popBackWaiting();
    victim->state = Request::State::kMigrated;
    victim->finish_ns = clock_.now();
    ++run_finished_;
    ++run_report_.migrations_out;
    target.adoptMigrant(std::move(moved), /*swapped=*/false);
    return true;
}

bool
Engine::migrateSwappedTo(Engine &target)
{
    if (!backend_->supportsKvExport() ||
        !target.backend_->supportsKvExport()) {
        return false;
    }
    Request *victim = scheduler_.backSwapped();
    if (victim == nullptr) {
        return false;
    }
    auto image = backend_->exportSwapped(victim->slot);
    if (!image.isOk()) {
        return false;
    }
    if (!target.backend_->canImportSwapped(image.value())) {
        // Roll back: the donor just released these exact resources,
        // so re-importing its own image cannot fail. The victim never
        // left its queue slot — the attempt is side-effect-free.
        auto slot = backend_->importSwapped(image.value());
        slot.status().expectOk("donor re-import after refused migration");
        victim->slot = slot.value();
        return false;
    }
    auto slot = target.backend_->importSwapped(image.value());
    slot.status().expectOk("importSwapped after canImportSwapped");
    scheduler_.popBackSwapped();
    // The target owns a live copy holding the imported slot; the
    // donor's object stays behind as a tombstone. Computed state
    // travels with the copy — the KV image preserves it, so nothing
    // is recomputed (the target's swap-in pays only the HtoD copy).
    Request moved = *victim;
    moved.slot = slot.value();
    victim->state = Request::State::kMigrated;
    victim->slot = -1;
    victim->finish_ns = clock_.now();
    ++run_finished_;
    ++run_report_.migrations_out;
    target.adoptMigrant(std::move(moved), /*swapped=*/true);
    return true;
}

RunReport
Engine::run(std::vector<Request> trace)
{
    // Submit in time order, ties in trace order: the arrival queue then
    // pops same-instant arrivals in trace order.
    std::stable_sort(trace.begin(), trace.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival_ns < b.arrival_ns;
                     });
    beginOnline(trace.size());
    for (Request &request : trace) {
        submitOnline(std::move(request)).expectOk("Engine::run submit");
    }
    closeOnline();
    while (runActive()) {
        stepRun();
    }
    return endRun();
}

Engine::DecodeRun
Engine::decodeOnly(int batch, i64 initial_ctx, int iterations)
{
    return decodeOnlyVaried(
        std::vector<i64>(static_cast<std::size_t>(batch), initial_ctx),
        iterations);
}

Engine::DecodeRun
Engine::decodeOnlyVaried(const std::vector<i64> &initial_ctx,
                         int iterations)
{
    RunReport scratch;
#if VATTN_AUDIT
    audit_last_state_.clear();
    audit_iter_ = 0;
#endif
    const int batch = static_cast<int>(initial_ctx.size());
    // Stand the batch up (untimed setup).
    std::vector<Request> requests(static_cast<std::size_t>(batch));
    for (int i = 0; i < batch; ++i) {
        auto &request = requests[static_cast<std::size_t>(i)];
        request.id = static_cast<u64>(i);
        request.prompt_tokens = initial_ctx[static_cast<std::size_t>(i)];
        request.prefilled_tokens = request.prompt_tokens;
        request.max_new_tokens = iterations + 2;
        auto slot = backend_->allocSlot();
        panic_if(!slot.isOk(), "decodeOnly: batch does not fit: ",
                 slot.status().message());
        request.slot = slot.value();
        request.state = Request::State::kRunning;
        request.generated = 1;
        running_.push_back(&request);
    }
    // Untimed prefill backing; preempts (drops) tail requests if the
    // whole batch cannot fit, exactly like the serving loop would.
    ensureWithPreemption(decodePlan(), scratch);

    DecodeRun result;
    const TimeNs t0 = clock_.now();
    const u64 bytes0 = backend_->bytesInUse();
    const bool record = config_.record_iterations;
    i64 tokens = 0;
    for (int i = 0; i < iterations; ++i) {
        const TimeNs iter_start = clock_.now();
        runIteration(decodePlan(), scratch);
#if VATTN_AUDIT
        auditTick();
#endif
        tokens += static_cast<i64>(running_.size());
        const double ms =
            SimClock::toMillis(clock_.now() - iter_start);
        result.iter_ms.add(ms);
        if (record && !scratch.iterations.empty()) {
            result.iterations.push_back(scratch.iterations.back());
        }
    }
#if VATTN_AUDIT
    auditFinal();
#endif
    const double elapsed_s = SimClock::toSeconds(clock_.now() - t0);
    // Zero iterations leave the clock untouched; report 0, not 0/0.
    result.tokens_per_s =
        elapsed_s > 0 ? static_cast<double>(tokens) / elapsed_s : 0.0;
    const u64 bytes1 = backend_->bytesInUse();
    result.alloc_bytes_per_s =
        bytes1 > bytes0 && elapsed_s > 0
            ? static_cast<double>(bytes1 - bytes0) * config_.tp_degree /
                  elapsed_s
            : 0.0;
    result.mean_iter_ms = result.iter_ms.mean();
    result.effective_batch = static_cast<i64>(running_.size());
    result.preemptions = scratch.preemptions;

    // Tear the batch down; drop any requests preemption pushed back
    // into the queue or onto the host tier (they point into this
    // frame's storage). freeSlot on a swapped slot discards its stash.
    while (!running_.empty()) {
        Request *request = running_.back();
        running_.pop_back();
        backend_->freeSlot(request->slot);
    }
    while (scheduler_.hasSwapped()) {
        Request *request = scheduler_.frontSwapped();
        scheduler_.popFrontSwapped();
        backend_->freeSlot(request->slot);
    }
    scheduler_.clearWaiting();
    return result;
}

Engine::PrefillRun
Engine::prefillOnce(i64 ctx)
{
    auto slot = backend_->allocSlot();
    panic_if(!slot.isOk(), "prefillOnce: no slot available");

    PrefillRun result;
    ActiveLens active{{slot.value(), ctx}};
    auto mem = backend_->ensure(active);
    panic_if(!mem.isOk(), "prefillOnce: prompt does not fit");
    result.mem_ns = mem.value();
    result.attention_ns =
        kernel_.chunkedPrefillAttentionWindowed(config_.backend, ctx,
                                                ctx);
    result.linear_ns = kernel_.prefillLinear(ctx);
    result.comm_ns = kernel_.commTime(ctx);
    const i64 new_blocks = blocksFor(ctx, block_size_);
    result.cpu_ns = overhead_.prefillCpu(config_.backend, 1, new_blocks);
    result.total_ns = result.mem_ns + result.attention_ns +
                      result.linear_ns + result.comm_ns + result.cpu_ns;

    backend_->computeWindow(result.attention_ns + result.linear_ns);
    clock_.advance(result.total_ns);
    backend_->freeSlot(slot.value());
    return result;
}

} // namespace vattn::serving
