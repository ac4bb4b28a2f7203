/**
 * @file
 * Allocation-count regression tests for the serving hot path. This TU
 * counts every heap allocation through alloc_counter.hh's global
 * operator new/delete shim, then asserts the clear()-not-reallocate
 * contract:
 *
 *  - steady-state decode iterations perform zero heap allocations
 *    once the high-water batch shape has been seen (a long window of
 *    allocation-free stepRun() calls must exist in every run), under
 *    both scheduling modes and on both KV backends (vAttention and
 *    paged), for a uniform and a sliding-window model, and for
 *    vAttention at TP 2 with its default 256-slot table;
 *  - decode runs (Engine::advanceTo, which run() drives) perform zero
 *    heap allocations end to end once a first session has seen the
 *    batch shape, on both backends and in both scheduling modes, also
 *    at a full sequence cap with requests waiting;
 *  - BatchComposer::composeInto is allocation-free on the second
 *    composition of an identical shape, for both the prefill and the
 *    decode side of both modes.
 *
 * The counter is the regression tripwire: any new per-iteration
 * vector, map node or std::function rebuild in the engine, composer
 * or allocator shows up here as a shrunken zero-alloc window.
 */

#include <gtest/gtest.h>

#include "alloc_counter.hh"
#include "serving/engine.hh"
#include "serving/lockstep_backend.hh"

// ---- The regression tests ------------------------------------------

namespace vattn::serving
{
namespace
{

EngineConfig
steadyConfig(SchedulingMode mode, perf::BackendKind backend)
{
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.backend = backend;
    config.kv_budget_override = 2 * GiB;
    config.scheduler.max_num_seqs = 4;
    config.scheduler.mode = mode;
    config.vattn.max_batch_size = 4;
    return config;
}

/** Offline batch sized so the whole decode phase stays inside the
 *  initially mapped page groups: after the prefills, hundreds of
 *  decode iterations run with no KV growth at all (on the paged
 *  backend, 256-token blocks grow twice per request). */
std::vector<Request>
steadyTrace(std::size_t n = 4)
{
    std::vector<Request> trace(n);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].id = static_cast<u64>(i);
        trace[i].prompt_tokens = 128;
        trace[i].max_new_tokens = 512;
    }
    assignOfflineArrivals(trace);
    return trace;
}

/** Longest run of consecutive allocation-free stepRun() calls. */
int
longestZeroAllocWindow(Engine &engine)
{
    int streak = 0;
    int best = 0;
    while (engine.runActive()) {
        const long long before = allocCount();
        engine.stepRun();
        if (allocCount() == before) {
            streak += 1;
            best = std::max(best, streak);
        } else {
            streak = 0;
        }
    }
    return best;
}

/** Parameterized on the scheduling mode; kBackend is the KV backend
 *  (the paged variant below pins the skipped-ensure path), and
 *  kWindowed swaps in a sliding-window interleave of the same model
 *  (per-layer geometries on vAttention, window-class pricing on
 *  both). */
template <perf::BackendKind kBackend, bool kWindowed = false>
class SteadyStateDecodeOn
    : public ::testing::TestWithParam<SchedulingMode>
{
  protected:
    void
    SetUp() override
    {
#if VATTN_AUDIT
        GTEST_SKIP() << "audit builds run per-iteration audits, which "
                        "allocate by design";
#endif
    }

    static EngineConfig
    config()
    {
        EngineConfig config = steadyConfig(GetParam(), kBackend);
        if (kWindowed) {
            config.model = config.model.withSlidingWindowInterleave(1024);
        }
        return config;
    }
};

using SteadyStateDecode =
    SteadyStateDecodeOn<perf::BackendKind::kFa2VAttention>;
using PagedSteadyStateDecode =
    SteadyStateDecodeOn<perf::BackendKind::kFa2Paged>;
using WindowedSteadyStateDecode =
    SteadyStateDecodeOn<perf::BackendKind::kFa2VAttention, true>;
using WindowedPagedSteadyStateDecode =
    SteadyStateDecodeOn<perf::BackendKind::kFa2Paged, true>;

void
expectAllocationFreeDecode(const EngineConfig &config)
{
    Engine engine(config);
    const auto trace = steadyTrace();
    engine.beginOnline(trace.size());
    for (const auto &request : trace) {
        ASSERT_TRUE(engine.submitOnline(request).isOk());
    }
    engine.closeOnline();
    const int window = longestZeroAllocWindow(engine);
    const RunReport report = engine.endRun();
    EXPECT_EQ(report.num_requests, 4);
    // Hundreds of decode steps run with no growth; a shrinking window
    // means something on the per-iteration path started allocating
    // (plan vectors, scratch, std::function rebuilds, ...).
    EXPECT_GE(window, 16) << "under " << toString(config.scheduler.mode)
                          << " on " << toString(config.backend);
}

void
expectAllocationFreeStreaming(const EngineConfig &config)
{
    // The online analogue with per-token streaming callbacks
    // installed: submission may allocate (deque nodes, sample-store
    // reservations), but the step loop that follows must not — token
    // emission invokes pre-built std::functions without heap traffic.
    Engine engine(config);
    long long events = 0;
    StreamCallbacks callbacks; // built once, like a real client
    callbacks.on_first_token = [&events](const Request &) {
        ++events;
    };
    callbacks.on_token = [&events](const Request &) { ++events; };
    callbacks.on_finish = [&events](const Request &) { ++events; };

    auto trace = steadyTrace();
    engine.beginOnline(trace.size());
    for (auto &request : trace) {
        request.stream = &callbacks;
        ASSERT_TRUE(engine.submitOnline(request).isOk());
    }
    engine.closeOnline();
    const int window = longestZeroAllocWindow(engine);
    const RunReport report = engine.endRun();
    EXPECT_EQ(report.num_requests, 4);
    EXPECT_GT(events, 0);
    EXPECT_GE(window, 16) << "under " << toString(config.scheduler.mode)
                          << " on " << toString(config.backend);
}

void
expectAllocationFreeDecodeRuns(const EngineConfig &config)
{
    Engine engine(config);
    const auto trace = steadyTrace();
    // A first session through run() (itself advanceTo) reaches the
    // high-water shape: slot tables, block lists and scratch.
    ASSERT_EQ(engine.run(trace).num_requests, 4);
    const u64 runs_before = engine.decodeRunIterations();
    ASSERT_GT(runs_before, 100u) << "run() never ran a decode run";

    // The second session: submission and the prefills may allocate
    // (sample-store reservations); once every request decodes, the
    // drain through advanceTo must not.
    engine.beginOnline(trace.size());
    for (const auto &request : trace) {
        ASSERT_TRUE(engine.submitOnline(request).isOk());
    }
    engine.closeOnline();
    while (engine.runActive() && engine.decodeRunIterations() == runs_before) {
        engine.stepRun();
        engine.advanceTo(engine.clock().now() + 1);
    }
    const long long before = allocCount();
    engine.advanceTo(sim::kNoEventNs);
    EXPECT_EQ(allocCount(), before)
        << "decode runs allocated under "
        << toString(config.scheduler.mode) << " on "
        << toString(config.backend);
    EXPECT_GT(engine.decodeRunIterations() - runs_before, 100u);
    EXPECT_EQ(engine.endRun().num_requests, 4);

    // Six requests at the cap of four: two wait while the first four
    // decode. After a run() of that shape, a session advanced one
    // iteration at a time must not allocate in any decode-run
    // iteration that starts and ends with the same requests waiting
    // (no admission in between).
    const auto capped = steadyTrace(6);
    ASSERT_EQ(engine.run(capped).num_requests, 6);
    engine.beginOnline(capped.size());
    for (const auto &request : capped) {
        ASSERT_TRUE(engine.submitOnline(request).isOk());
    }
    engine.closeOnline();
    u64 waiting_runs = 0;
    while (engine.runActive()) {
        const i64 queued = engine.liveLoad().queued;
        const u64 runs = engine.decodeRunIterations();
        const long long allocs = allocCount();
        engine.advanceTo(
            std::max(engine.clock().now(), engine.nextEventNs()) + 1);
        if (queued > 0 && engine.liveLoad().queued == queued &&
            engine.decodeRunIterations() > runs) {
            EXPECT_EQ(allocCount(), allocs)
                << "a cap-full decode run allocated under "
                << toString(config.scheduler.mode) << " on "
                << toString(config.backend);
            waiting_runs += engine.decodeRunIterations() - runs;
        }
    }
    EXPECT_EQ(engine.endRun().num_requests, 6);
    EXPECT_GT(waiting_runs, 100u);
}

TEST_P(SteadyStateDecode, IterationsAreAllocationFree)
{
    expectAllocationFreeDecode(config());
}

TEST_P(SteadyStateDecode, OnlineStreamingIterationsAreAllocationFree)
{
    expectAllocationFreeStreaming(config());
}

TEST_P(SteadyStateDecode, TensorParallelAtDefaultBatchSizeIsAllocationFree)
{
    // A TP-2 replica with the slot table left at its default size
    // (B = max_num_seqs = 256) serving four requests: every iteration
    // passes the engine's sparse lengths through Lockstep to both
    // workers and walks a mostly-empty slot bitset.
    EngineConfig config = this->config();
    config.tp_degree = 2;
    config.scheduler.max_num_seqs = Scheduler::Config{}.max_num_seqs;
    config.vattn.max_batch_size =
        VAttentionBackend::Options{}.max_batch_size;
    ASSERT_EQ(config.scheduler.max_num_seqs, 256);
    ASSERT_EQ(config.vattn.max_batch_size, 256);
    expectAllocationFreeDecode(config);
}

TEST_P(SteadyStateDecode, DecodeRunsAreAllocationFree)
{
    expectAllocationFreeDecodeRuns(config());
}

TEST_P(PagedSteadyStateDecode, DecodeRunsAreAllocationFree)
{
    expectAllocationFreeDecodeRuns(config());
}

TEST_P(PagedSteadyStateDecode, IterationsAreAllocationFree)
{
    expectAllocationFreeDecode(config());
}

TEST_P(PagedSteadyStateDecode, OnlineStreamingIterationsAreAllocationFree)
{
    expectAllocationFreeStreaming(config());
}

TEST_P(WindowedSteadyStateDecode, IterationsAreAllocationFree)
{
    expectAllocationFreeDecode(config());
}

TEST_P(WindowedPagedSteadyStateDecode, IterationsAreAllocationFree)
{
    expectAllocationFreeDecode(config());
}

const auto kModes =
    ::testing::Values(SchedulingMode::kPrefillPrioritized,
                      SchedulingMode::kStallFreeChunked);
const auto kModeName = [](const auto &info) {
    return toString(info.param);
};

INSTANTIATE_TEST_SUITE_P(Modes, SteadyStateDecode, kModes, kModeName);
INSTANTIATE_TEST_SUITE_P(Modes, PagedSteadyStateDecode, kModes,
                         kModeName);
INSTANTIATE_TEST_SUITE_P(Modes, WindowedSteadyStateDecode, kModes,
                         kModeName);
INSTANTIATE_TEST_SUITE_P(Modes, WindowedPagedSteadyStateDecode, kModes,
                         kModeName);

class ComposerAlloc : public ::testing::TestWithParam<SchedulingMode>
{
};

TEST_P(ComposerAlloc, SecondPrefillCompositionIsAllocationFree)
{
    Scheduler::Config config;
    config.max_num_seqs = 8;
    config.mode = GetParam();
    Scheduler scheduler(config);
    BatchComposer composer(config);
    // Built once, like the engine does: rebuilding a std::function
    // per iteration is itself an allocation regression.
    const Scheduler::CanAdmit can_admit = [](Request &) {
        return true;
    };
    const std::vector<Request *> running;
    IterationPlan plan;

    std::vector<Request> storage(4);
    for (std::size_t i = 0; i < storage.size(); ++i) {
        storage[i].id = static_cast<u64>(i);
        storage[i].prompt_tokens = 256;
        storage[i].arrival_ns = 0;
    }

    // Warm pass establishes the high-water shape.
    for (Request &request : storage) {
        scheduler.enqueue(&request);
    }
    composer.composeInto(plan, scheduler, running, can_admit);
    ASSERT_EQ(plan.prefills.size(), storage.size());

    // Identical shape again: composition must not touch the heap.
    for (Request &request : storage) {
        request.resetComputedState();
        scheduler.enqueue(&request);
    }
    const long long before = allocCount();
    composer.composeInto(plan, scheduler, running, can_admit);
    EXPECT_EQ(allocCount(), before)
        << "prefill composition allocated under "
        << toString(GetParam());
    EXPECT_EQ(plan.prefills.size(), storage.size());
}

TEST_P(ComposerAlloc, SecondDecodeCompositionIsAllocationFree)
{
    Scheduler::Config config;
    config.max_num_seqs = 8;
    config.mode = GetParam();
    Scheduler scheduler(config);
    BatchComposer composer(config);
    const Scheduler::CanAdmit can_admit = [](Request &) {
        return false; // nothing waiting may be admitted
    };
    IterationPlan plan;

    std::vector<Request> storage(4);
    std::vector<Request *> running;
    running.reserve(storage.size());
    for (std::size_t i = 0; i < storage.size(); ++i) {
        storage[i].id = static_cast<u64>(i);
        storage[i].prompt_tokens = 256;
        storage[i].prefilled_tokens = 256; // prefill already done
        storage[i].max_new_tokens = 64;
        storage[i].state = Request::State::kRunning;
        running.push_back(&storage[i]);
    }

    composer.composeInto(plan, scheduler, running, can_admit);
    ASSERT_EQ(plan.decodes.size(), storage.size());

    const long long before = allocCount();
    composer.composeInto(plan, scheduler, running, can_admit);
    EXPECT_EQ(allocCount(), before)
        << "decode composition allocated under "
        << toString(GetParam());
    EXPECT_EQ(plan.decodes.size(), storage.size());
    EXPECT_TRUE(plan.prefills.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ComposerAlloc,
    ::testing::Values(SchedulingMode::kPrefillPrioritized,
                      SchedulingMode::kStallFreeChunked),
    [](const auto &info) { return toString(info.param); });

TEST(AllocHarness, CounterSeesHeapTraffic)
{
    // Sanity-check the shim itself: a vector growth must be counted.
    const long long before = allocCount();
    std::vector<int> v;
    v.reserve(64);
    EXPECT_GT(allocCount(), before);
}

} // namespace
} // namespace vattn::serving
