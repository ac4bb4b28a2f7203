#include "serving/engine.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "serving/serving_audit.hh"

namespace vattn::serving
{

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
      block_size_(perf::defaultBlockSize(config_.backend)),
      decode_batch_(kernel_, block_size_)
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
        // alloc-ok: engine construction, once per replica
        auto backend = std::make_unique<VAttentionBackend>(
            config_.model, config_.tp_degree, options, budget,
            config_.enable_prefix_caching, host_bytes, config_.pcie);
        vattn_backend_ = backend.get();
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
Engine::promptComputeNs(i64 tokens) const
{
    if (tokens <= 0) {
        return 0;
    }
    // Sliding-window layers compute only their banded score matrix.
    // The all-reduce counts in full, hidden or not.
    const perf::ChunkShape prompt{tokens, 0};
    const perf::IterationCost cost = perf::priceIteration(
        kernel_, overhead_, config_.backend, block_size_,
        config_.overlap_comm, {{&prompt, 1}, {}, 1, 0});
    return cost.attention_ns + cost.linear_ns + cost.commNs();
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
    TimeNs best_cost = promptComputeNs(best->contextLen());
    for (auto it = std::next(running_.rbegin());
         it != running_.rend(); ++it) {
        const TimeNs cost = promptComputeNs((*it)->contextLen());
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
        // victim's prefill: every token already in its KV cache,
        // decoded tokens included (recomputation replays them as
        // prompt).
        const u64 bytes = backend_->slotPhysBytes(victim->slot);
        try_swap = bytes > 0 &&
                   config_.pcie.roundTripNs(bytes) <
                       promptComputeNs(victim->contextLen());
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
        // canSwapOut is exact: the swap cannot be refused now.
        const SwapResult swap = backend_->swapOut(victim->slot).value();
        stopRunning(victim);
        ++victim->preemptions;
        // Computed state survives: the victim resumes where it
        // stopped, recomputing nothing. The TBT chain restarts like
        // recompute preemption's does, so the parked wait is charged
        // to swap_stall_ns/latency — not sampled as one giant
        // inter-token gap that the recompute policy's
        // resetComputedState would have hidden.
        victim->last_token_ns = 0;
        scheduler_.pushSwapped(victim);
        ++report.swap_outs;
        report.swap_out_bytes += swap.bytes;
        report.swap_stall_ns += swap.stall_ns;
        if (swap_stall_ns) {
            *swap_stall_ns += swap.stall_ns;
        }
        return;
    }
    // Recompute (also the fallback when the victim cannot be swapped:
    // prefix-aliased pages, host tier full): free the KV and restart
    // from prompt token 0 later (a half-prefilled victim included).
    stopRunning(victim);
    backend_->freeSlot(victim->slot);
    victim->resetComputedState();
    ++victim->preemptions;
    scheduler_.requeueFront(victim);
}

void
Engine::dropRequest(Request *request, RunReport &report)
{
    stopRunning(request);
    ensure_slack_ = 0;
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
        if (clock_.now() + promptComputeNs(head->remainingPromptTokens()) <=
            deadline) {
            break;
        }
        scheduler_.popFrontWaiting();
        shedRequest(head, report);
    }
}

TimeNs
Engine::skipEnsure(const IterationPlan &plan)
{
    --ensure_slack_;
#if VATTN_AUDIT
    backend_->checkSkippedEnsure(activeLens(plan));
#else
    (void)plan;
#endif
    return backend_->skipEnsure();
}

TimeNs
Engine::ensureWithPreemption(const IterationPlan &plan,
                             RunReport &report)
{
    // Decode-only iterations inside the growth horizon need no KV: no
    // length reached a block or page-group boundary since the last
    // real ensure.
    if (plan.prefills.empty() && ensure_slack_ > 0) {
        return skipEnsure(plan);
    }
    TimeNs swap_ns = 0;
    while (true) {
        auto result = backend_->ensure(activeLens(plan));
        if (result.isOk()) {
            ensure_slack_ = backend_->ensureSlack(active_lens_);
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
        startRunning(request);
        ++report.swap_ins;
        report.swap_in_bytes += result.value().bytes;
        report.swap_stall_ns += result.value().stall_ns;
        report.busy_ns += result.value().stall_ns;
        clock_.advance(result.value().stall_ns);
    }
}

void
Engine::startRunning(Request *request)
{
    running_.push_back(request);
    running_prefills_ += request->prefillComplete() ? 0 : 1;
    // A new member's KV was never checked against the slack.
    ensure_slack_ = 0;
}

void
Engine::stopRunning(Request *request)
{
    const auto it = std::find(running_.begin(), running_.end(), request);
    if (it == running_.end()) {
        return;
    }
    running_.erase(it);
    running_prefills_ -= request->prefillComplete() ? 0 : 1;
}

void
Engine::finishRequest(Request *request, RunReport &report)
{
    backend_->freeSlot(request->slot);
    request->slot = -1;
    request->state = Request::State::kFinished;
    request->finish_ns = clock_.now();
    report.addRequest(*request);
    stopRunning(request);
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
    TimeNs mem_ns = admit(plan, report);
    mem_ns += ensureWithPreemption(plan, report);
    completeIteration(plan, mem_ns, report);
}

void
Engine::completeIteration(const IterationPlan &plan, TimeNs mem_ns,
                          RunReport &report)
{
    const perf::IterationCost cost = price(plan);
    if (plan.prefills.empty() && iter_decodes_.empty()) {
        return; // everything got preempted (pathological budget)
    }
    account(static_cast<i64>(plan.prefills.size()),
            static_cast<i64>(plan.decodes.size()), cost, mem_ns, report);
    emit(report);
}

TimeNs
Engine::admit(const IterationPlan &plan, RunReport &report)
{
    // Prefix-aware: a cached prefix match starts the request's prefill
    // at the matched offset (the backend aliased or shared the KV).
    TimeNs alloc_ns = 0;
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
        alloc_ns += lease.value().alloc_ns;
        request->state = Request::State::kRunning;
        if (request->first_scheduled_ns == 0) {
            request->first_scheduled_ns = clock_.now();
        }
        startRunning(request);
    }
    return alloc_ns;
}

perf::IterationCost
Engine::price(const IterationPlan &plan)
{
    // Only survivors run: ensure may have preempted plan members.
    iter_prefills_.clear();
    iter_chunks_.clear();
    for (const PrefillChunk &chunk : plan.prefills) {
        if (chunk.request->state == Request::State::kRunning) {
            iter_prefills_.push_back(&chunk);
            iter_chunks_.push_back(
                {chunk.tokens, chunk.request->prefilled_tokens});
        }
    }
    iter_decodes_.clear();
    iter_kv_lens_.clear();
    for (Request *request : plan.decodes) {
        if (request->state == Request::State::kRunning) {
            iter_decodes_.push_back(request);
            iter_kv_lens_.push_back(request->contextLen());
        }
    }
    return perf::priceIteration(
        kernel_, overhead_, config_.backend, block_size_,
        config_.overlap_comm,
        {iter_chunks_, iter_kv_lens_,
         static_cast<i64>(plan.prefills.size()),
         static_cast<i64>(plan.decodes.size())});
}

void
Engine::account(i64 planned_prefills, i64 planned_decodes,
                const perf::IterationCost &cost, TimeNs mem_ns,
                RunReport &report)
{
    const TimeNs gpu_ns = cost.gpuNs();
    backend_->computeWindow(gpu_ns);

    const TimeNs start = clock_.now();
    clock_.advance(mem_ns + gpu_ns + cost.cpu_ns);
    report.busy_ns += mem_ns + gpu_ns + cost.cpu_ns;
    report.comm_ns += cost.comm_exposed_ns;
    const bool pure_prefill = planned_decodes == 0;
    if (pure_prefill) {
        ++report.prefill_iterations;
    } else if (planned_prefills == 0) {
        ++report.decode_iterations;
    } else {
        ++report.mixed_iterations;
    }
    report.peak_batch =
        std::max(report.peak_batch, static_cast<i64>(running_.size()));
    if (!config_.record_iterations) {
        return;
    }
    const i64 groups =
        pure_prefill ? 0 : backend_->lastStep().handles_mapped;
    i64 prefill_tokens = 0;
    for (const perf::ChunkShape &chunk : iter_chunks_) {
        prefill_tokens += chunk.tokens;
    }
    const i64 num_chunks = static_cast<i64>(iter_chunks_.size());
    const i64 decode_batch = static_cast<i64>(iter_decodes_.size());
    const i64 batch =
        pure_prefill ? planned_prefills : decode_batch + num_chunks;
    report.iterations.push_back(IterationRecord{
        start, clock_.now() - start, pure_prefill, batch, mem_ns, groups,
        prefill_tokens, num_chunks, decode_batch,
        cost.comm_exposed_ns});
}

bool
Engine::complete(const Request *request) const
{
    return request->done() ||
           request->contextLen() >= config_.model.max_context_len;
}

void
Engine::emit(RunReport &report)
{
    // A chunk advances prefill progress; the chunk that completes the
    // prompt emits the request's first output token.
    for (const PrefillChunk *chunk : iter_prefills_) {
        Request *request = chunk->request;
        // min(): a prefix-cache hit at allocation may already have
        // advanced prefilled_tokens past what the plan assumed.
        const bool was_prefilling = !request->prefillComplete();
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
        running_prefills_ -= was_prefilling ? 1 : 0;
        request->prefill_done_ns = clock_.now();
        request->generated = 1;
        recordToken(request, report);
        if (complete(request)) {
            finishRequest(request, report);
        }
    }
    // Each decode request produced one token.
    for (Request *request : iter_decodes_) {
        ++request->generated;
        recordToken(request, report);
    }
    finishCompletedDecodes(report);
}

void
Engine::finishCompletedDecodes(RunReport &report)
{
    std::vector<Request *> &finished = iter_finished_;
    finished.clear();
    for (Request *request : iter_decodes_) {
        if (complete(request)) {
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
    const auto prefilling = std::count_if(
        running_.begin(), running_.end(),
        [](const Request *request) { return !request->prefillComplete(); });
    report.check(prefilling == running_prefills_, "serving: ", prefilling,
                 " running requests are mid-prefill but the engine counts ",
                 running_prefills_);
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

bool
Engine::decodeRunnable() const
{
    // Exactly the state in which stepRun() would swap in and shed
    // nothing and compose "every running request decodes".
    if (running_.empty() || running_prefills_ != 0 ||
        scheduler_.hasSwapped()) {
        return false;
    }
    const bool arrival_due =
        !arrivals_.empty() && arrivals_.nextTimeNs() <= clock_.now();
    if (!scheduler_.hasWaiting() && !arrival_due) {
        return true;
    }
    // Requests wait, but at a full sequence cap neither composer admits
    // (both check the cap before asking can_admit, and no swapped
    // request holds a seat), and without shedding nothing else reads
    // the queue: stepRun() would only move the arrivals into it.
    return !config_.shed_on_ttft &&
           static_cast<i64>(running_.size()) >=
               config_.scheduler.max_num_seqs;
}

void
Engine::resetRun()
{
    decode_batch_.clear();
    run_finish_left_ = std::numeric_limits<i64>::max();
    run_min_tbt_deadline_ns_ = std::numeric_limits<TimeNs>::max();
    const TimeNs last =
        iter_decodes_.empty() ? 0 : iter_decodes_.front()->last_token_ns;
    bool uniform = last != 0;
    for (const Request *request : iter_decodes_) {
        const i64 generated = request->generated + run_pending_;
        const i64 len = request->prefilled_tokens + generated;
        decode_batch_.add(len);
        run_finish_left_ = std::min(
            {run_finish_left_, request->max_new_tokens - generated,
             config_.model.max_context_len - len});
        if (request->tbt_deadline_ns > 0 && !request->tbt_violated) {
            run_min_tbt_deadline_ns_ =
                std::min(run_min_tbt_deadline_ns_, request->tbt_deadline_ns);
        }
        uniform = uniform && request->last_token_ns == last &&
                  request->last_emit_ns == last &&
                  (request->stream == nullptr || !request->stream->on_token);
    }
    // Pending tokens exist only while uniform, which nothing inside a
    // run undoes; the survivors' fields are exact only when flushed.
    if (run_pending_ == 0) {
        run_uniform_ = uniform;
        run_last_ns_ = last;
    }
}

void
Engine::flushRun()
{
    if (run_pending_ == 0) {
        return;
    }
    for (Request *request : iter_decodes_) {
        request->generated += run_pending_;
        request->last_token_ns = run_last_ns_;
        request->last_emit_ns = run_last_ns_;
    }
    run_pending_ = 0;
}

void
Engine::emitRun()
{
    const i64 finished_before = run_report_.num_requests;
    if (!run_uniform_) {
        // Survivors whose last tokens differ, or a stream that wants
        // every token: the per-request path (nothing is pending).
        emit(run_report_);
    } else {
        // Every survivor emitted its newest token at run_last_ns_, so
        // each one's gap is the same: one TBT run for the batch.
        const TimeNs now = clock_.now();
        const TimeNs gap = now - run_last_ns_;
        run_report_.tbt_s.add(SimClock::toSeconds(gap),
                              static_cast<u64>(iter_decodes_.size()));
        if (gap > run_min_tbt_deadline_ns_) {
            run_min_tbt_deadline_ns_ = std::numeric_limits<TimeNs>::max();
            for (Request *request : iter_decodes_) {
                if (request->tbt_deadline_ns == 0) {
                    continue;
                }
                request->tbt_violated =
                    request->tbt_violated || gap > request->tbt_deadline_ns;
                if (!request->tbt_violated) {
                    run_min_tbt_deadline_ns_ = std::min(
                        run_min_tbt_deadline_ns_, request->tbt_deadline_ns);
                }
            }
        }
        ++run_pending_;
        run_last_ns_ = now;
        if (--run_finish_left_ > 0) {
            if (!decode_batch_.grow()) {
                resetRun(); // a window edge or block boundary
            }
            return;
        }
        // The first finisher: write back, then finish as emit() does.
        flushRun();
        finishCompletedDecodes(run_report_);
    }
    std::erase_if(iter_decodes_, [](const Request *request) {
        return request->state != Request::State::kRunning;
    });
    resetRun();
    run_finished_ +=
        static_cast<std::size_t>(run_report_.num_requests - finished_before);
}

#if VATTN_AUDIT
void
Engine::auditRun(const perf::IterationCost &cost)
{
    // The eager shadow of the kept decode-run state: every sum the
    // run prices and emits from, recomputed from the survivors.
    panic_if(iter_decodes_ != running_,
             "decode run: survivors are not the running set");
    iter_kv_lens_.clear();
    i64 finish_left = std::numeric_limits<i64>::max();
    TimeNs min_deadline = std::numeric_limits<TimeNs>::max();
    for (const Request *request : iter_decodes_) {
        const i64 generated = request->generated + run_pending_;
        const i64 len = request->prefilled_tokens + generated;
        iter_kv_lens_.push_back(len);
        finish_left = std::min({finish_left,
                                request->max_new_tokens - generated,
                                config_.model.max_context_len - len});
        if (request->tbt_deadline_ns > 0 && !request->tbt_violated) {
            min_deadline = std::min(min_deadline, request->tbt_deadline_ns);
        }
        if (run_uniform_ && run_pending_ == 0) {
            panic_if(request->last_token_ns != run_last_ns_ ||
                         request->last_emit_ns != run_last_ns_,
                     "decode run: request ", request->id,
                     " last emitted at ", request->last_emit_ns,
                     " (TBT chain ", request->last_token_ns,
                     "), the run at ", run_last_ns_);
            panic_if(request->stream != nullptr &&
                         request->stream->on_token,
                     "decode run: a streamed request went lazy");
        }
    }
    const perf::IterationCost want = perf::priceIteration(
        kernel_, overhead_, config_.backend, block_size_,
        config_.overlap_comm,
        {iter_chunks_, iter_kv_lens_, 0,
         static_cast<i64>(iter_kv_lens_.size())});
    panic_if(want.attention_ns != cost.attention_ns ||
                 want.linear_ns != cost.linear_ns ||
                 want.comm_exposed_ns != cost.comm_exposed_ns ||
                 want.comm_hidden_ns != cost.comm_hidden_ns ||
                 want.cpu_ns != cost.cpu_ns,
             "decode run: kept sums price attention ", cost.attention_ns,
             " cpu ", cost.cpu_ns, ", the lengths price ", want.attention_ns,
             " and ", want.cpu_ns);
    panic_if(finish_left != run_finish_left_,
             "decode run: first finisher in ", finish_left,
             " iterations, kept ", run_finish_left_);
    panic_if(min_deadline != run_min_tbt_deadline_ns_,
             "decode run: smallest unviolated TBT deadline ", min_deadline,
             ", kept ", run_min_tbt_deadline_ns_);
}
#endif

void
Engine::runDecodes(TimeNs horizon)
{
    // The survivors of every iteration are the running set in order.
    // Everything an iteration reads from them is kept as batch-wide
    // sums (decode_batch_, the first finisher, the smallest unviolated
    // TBT deadline), rebuilt in O(batch) only at a crossing: a
    // finisher, a window edge or a block boundary. Once every survivor
    // emitted at the same instant, per-request token state is kept
    // lazily (run_pending_) and written back by flushRun() before
    // anything reads it.
    plan_.clear();
    iter_prefills_.clear();
    iter_chunks_.clear();
    iter_decodes_.assign(running_.begin(), running_.end());
    run_pending_ = 0;
    resetRun();
    while (decodeRunnable() && clock_.now() < horizon) {
        admitArrivals(); // only at a full cap can one be due
        const std::size_t batch = running_.size();
        const i64 finished_before = run_report_.num_requests;
        const i64 dropped_before = run_report_.dropped_requests;
        if (ensure_slack_ == 0) {
            // The slack ran out: the real ensure stepRun() would run,
            // over the plan it would compose.
            flushRun();
            decodePlan();
        }
        const TimeNs mem_ns = ensureWithPreemption(plan_, run_report_);
        if (running_.size() != batch) {
            // It preempted, dropped or swapped: finish the iteration as
            // stepRun() does and end the run.
            completeIteration(plan_, mem_ns, run_report_);
            ++decode_run_iterations_;
            run_finished_ += static_cast<std::size_t>(
                (run_report_.num_requests - finished_before) +
                (run_report_.dropped_requests - dropped_before));
#if VATTN_AUDIT
            auditTick();
#endif
            return;
        }
        const perf::IterationCost cost =
            perf::priceDecodes(kernel_, overhead_, config_.backend,
                               config_.overlap_comm, decode_batch_);
#if VATTN_AUDIT
        auditRun(cost);
#endif
        account(0, decode_batch_.size(), cost, mem_ns, run_report_);
        ++decode_run_iterations_;
        emitRun();
#if VATTN_AUDIT
        flushRun();
        auditTick();
#endif
    }
    flushRun();
}

void
Engine::advanceTo(TimeNs horizon)
{
    while (runActive() && nextEventNs() < horizon) {
        if (decodeRunnable()) {
            runDecodes(horizon);
        } else {
            stepRun();
        }
    }
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
    if (Status status = request.validate(); !status.isOk()) {
        return status;
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
    ensure_slack_ = 0;
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
    if (!backend_->hasHostTier() || !target.backend_->hasHostTier()) {
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
    ensure_slack_ = 0;
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
    advanceTo(sim::kNoEventNs);
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
        startRunning(&request);
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
        stopRunning(request);
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
    ensure_slack_ = 0; // this ensure bypasses the running set
    auto mem = backend_->ensure(active);
    panic_if(!mem.isOk(), "prefillOnce: prompt does not fit");
    result.mem_ns = mem.value();
    // The microbenchmark serializes the all-reduce whatever
    // overlap_comm says.
    const perf::ChunkShape prompt{ctx, 0};
    const perf::IterationCost cost = perf::priceIteration(
        kernel_, overhead_, config_.backend, block_size_,
        /*overlap_comm=*/false, {{&prompt, 1}, {}, 1, 0});
    result.attention_ns = cost.attention_ns;
    result.linear_ns = cost.linear_ns;
    result.comm_ns = cost.commNs();
    result.cpu_ns = cost.cpu_ns;
    result.total_ns = result.mem_ns + result.attention_ns +
                      result.linear_ns + result.comm_ns + result.cpu_ns;

    backend_->computeWindow(result.attention_ns + result.linear_ns);
    clock_.advance(result.total_ns);
    backend_->freeSlot(slot.value());
    return result;
}

} // namespace vattn::serving
