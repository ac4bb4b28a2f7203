#include "serving/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vattn::serving
{

const char *
toString(SchedulingMode mode)
{
    switch (mode) {
      case SchedulingMode::kPrefillPrioritized:
        return "prefill_prioritized";
      case SchedulingMode::kStallFreeChunked:
        return "stall_free_chunked";
    }
    return "?";
}

i64
Scheduler::Config::iterationTokenBudget() const
{
    if (mode == SchedulingMode::kStallFreeChunked && chunk_tokens > 0) {
        return chunk_tokens;
    }
    return max_batched_tokens;
}

Scheduler::Scheduler(Config config)
    : config_(config)
{
    fatal_if(config_.max_num_seqs <= 0, "max_num_seqs must be positive");
    fatal_if(config_.max_batched_tokens <= 0,
             "max_batched_tokens must be positive");
    fatal_if(config_.chunk_tokens < 0,
             "chunk_tokens must be non-negative");
}

void
Scheduler::enqueue(Request *request)
{
    panic_if(!request, "enqueue null request");
    request->state = Request::State::kWaiting;
    waiting_.push_back(request);
}

void
Scheduler::requeueFront(Request *request)
{
    panic_if(!request, "requeue null request");
    request->state = Request::State::kWaiting;
    waiting_.push_front(request);
}

Request *
Scheduler::frontWaiting() const
{
    return waiting_.empty() ? nullptr : waiting_.front();
}

void
Scheduler::popFrontWaiting()
{
    panic_if(waiting_.empty(), "popFrontWaiting on an empty queue");
    waiting_.pop_front();
}

Request *
Scheduler::backWaiting() const
{
    return waiting_.empty() ? nullptr : waiting_.back();
}

void
Scheduler::popBackWaiting()
{
    panic_if(waiting_.empty(), "popBackWaiting on an empty queue");
    waiting_.pop_back();
}

void
Scheduler::pushSwapped(Request *request)
{
    panic_if(!request, "pushSwapped null request");
    panic_if(request->slot < 0,
             "swapped request must keep its backend slot");
    request->state = Request::State::kSwapped;
    swapped_.push_back(request);
}

Request *
Scheduler::frontSwapped() const
{
    return swapped_.empty() ? nullptr : swapped_.front();
}

void
Scheduler::popFrontSwapped()
{
    panic_if(swapped_.empty(), "popFrontSwapped on an empty queue");
    swapped_.pop_front();
}

Request *
Scheduler::backSwapped() const
{
    return swapped_.empty() ? nullptr : swapped_.back();
}

void
Scheduler::popBackSwapped()
{
    panic_if(swapped_.empty(), "popBackSwapped on an empty queue");
    swapped_.pop_back();
}

void
Scheduler::clearWaiting()
{
    // Dropped requests must not keep kWaiting state or stale
    // slot/progress fields: a later enqueue (or inspection by the
    // caller) would see a request that claims to be queued and
    // half-computed when it is neither.
    for (Request *request : waiting_) {
        request->resetComputedState();
        request->state = Request::State::kPending;
    }
    waiting_.clear();
}

void
Scheduler::pickPrefillBatch(int num_running, const CanAdmit &can_admit,
                            std::vector<Request *> &picked)
{
    picked.clear();
    i64 batched_tokens = 0;
    while (!waiting_.empty()) {
        Request *request = waiting_.front();
        // Swapped-out requests count against the sequence cap: they
        // hold backend slots and will rejoin the running set.
        const int total_running =
            num_running + static_cast<int>(picked.size()) +
            static_cast<int>(swapped_.size());
        if (total_running >= config_.max_num_seqs) {
            break;
        }
        // FCFS: if the head cannot be admitted, nothing behind it may
        // jump the queue (no head-of-line bypass in vLLM v0.2.7).
        // can_admit also refreshes the request's prefix-cache hint,
        // which the token budget below discounts.
        if (!can_admit(*request)) {
            break;
        }
        // Token budget: the first prompt always fits (alone if huge);
        // further prompts must not push the batch over the budget.
        if (!picked.empty() &&
            batched_tokens + request->remainingPromptTokens() >
                config_.max_batched_tokens) {
            break;
        }
        waiting_.pop_front();
        batched_tokens += request->remainingPromptTokens();
        picked.push_back(request);
    }
}

std::vector<Request *>
Scheduler::pickPrefillBatch(int num_running, const CanAdmit &can_admit)
{
    std::vector<Request *> picked;
    pickPrefillBatch(num_running, can_admit, picked);
    return picked;
}

BatchComposer::BatchComposer(Scheduler::Config config)
    : config_(config)
{
}

void
BatchComposer::composeInto(
    IterationPlan &plan, Scheduler &scheduler,
    const std::vector<Request *> &running,
    const Scheduler::CanAdmit &can_admit)
{
    plan.clear();
    if (config_.mode == SchedulingMode::kStallFreeChunked) {
        composeStallFreeChunked(plan, scheduler, running, can_admit);
        return;
    }
    composePrefillPrioritized(plan, scheduler, running, can_admit);
}

IterationPlan
BatchComposer::compose(
    Scheduler &scheduler, const std::vector<Request *> &running,
    const Scheduler::CanAdmit &can_admit)
{
    IterationPlan plan;
    composeInto(plan, scheduler, running, can_admit);
    return plan;
}

void
BatchComposer::composePrefillPrioritized(
    IterationPlan &plan, Scheduler &scheduler,
    const std::vector<Request *> &running,
    const Scheduler::CanAdmit &can_admit)
{
    scheduler.pickPrefillBatch(static_cast<int>(running.size()),
                               can_admit, pick_scratch_);
    if (!pick_scratch_.empty()) {
        for (Request *request : pick_scratch_) {
            // Prefix-cache hits prefill only the uncached suffix.
            plan.prefills.push_back(PrefillChunk{
                request, request->remainingPromptTokens(), true});
        }
        return;
    }
    // A running request can be mid-prefill only when a prefix-cache
    // hit delivered fewer tokens than its admission hint promised (the
    // matched entry was sacrificed in between): finish its prompt in a
    // dedicated prefill iteration rather than miscounting it as a
    // decode. Without prefix caching every running request is past
    // prefill and this composes the historical decode iteration.
    for (Request *request : running) {
        if (!request->prefillComplete()) {
            plan.prefills.push_back(PrefillChunk{
                request, request->remainingPromptTokens(), false});
        }
    }
    if (!plan.prefills.empty()) {
        return;
    }
    plan.decodes.assign(running.begin(), running.end());
}

void
BatchComposer::composeStallFreeChunked(
    IterationPlan &plan, Scheduler &scheduler,
    const std::vector<Request *> &running,
    const Scheduler::CanAdmit &can_admit) const
{
    i64 budget = config_.iterationTokenBudget();

    // Decodes always ride along: one token of budget each.
    for (Request *request : running) {
        if (request->prefillComplete()) {
            plan.decodes.push_back(request);
            budget -= 1;
        }
    }

    // Ongoing (already admitted) prompts continue first, in admission
    // order: finishing started prefills frees their first token
    // soonest and keeps the running set small.
    for (Request *request : running) {
        if (request->prefillComplete() || budget <= 0) {
            continue;
        }
        const i64 chunk =
            std::min(budget,
                     request->prompt_tokens - request->prefilled_tokens);
        plan.prefills.push_back(PrefillChunk{request, chunk, false});
        budget -= chunk;
    }

    // Waiting prompts fill the leftover budget in FCFS chunk order.
    // The queue head gates admission (no head-of-line bypass), and a
    // new prompt is only admitted when it gets at least one token.
    // A prefix-cache hit (hint refreshed by can_admit) shrinks the
    // prompt's chunk demand to its uncached suffix. Swapped-out
    // requests keep their seats under the sequence cap.
    int num_running = static_cast<int>(running.size()) +
                      static_cast<int>(scheduler.numSwapped());
    while (budget > 0 && num_running < config_.max_num_seqs) {
        Request *head = scheduler.frontWaiting();
        if (!head || !can_admit(*head)) {
            break;
        }
        scheduler.popFrontWaiting();
        const i64 chunk =
            std::min(budget, head->remainingPromptTokens());
        plan.prefills.push_back(PrefillChunk{head, chunk, true});
        budget -= chunk;
        ++num_running;
    }
}

} // namespace vattn::serving
