/**
 * @file
 * Long-running soak of the online serving path: one engine streams
 * through a million-request session (smoke: 20K) submitted
 * incrementally, with per-token streaming callbacks installed, while
 * a counting operator-new shim watches the heap.
 *
 * What the soak demonstrates (and asserts):
 *   - bounded memory: terminal requests are garbage-collected as the
 *     stream advances, so the live-request high-water mark stays a
 *     tiny fraction of the session size;
 *   - zero-allocation steady state at soak scale: after a warmup
 *     prefix, the step loop (everything except submitOnline, which
 *     legitimately reserves sample stores and deque nodes) performs
 *     no heap allocations at all, streaming callbacks included;
 *   - sustained throughput: the whole session completes, with the
 *     simulated token rate on stdout and the wall-clock rate on
 *     stderr (host-dependent, so stdout stays byte-comparable).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_util.hh"

#include "serving/engine.hh"

// ---- Counting operator new/delete (same harness as -----------------
// test_alloc_regression: every replaceable variant funnels through
// malloc/free with one relaxed counter bump).

namespace
{

std::atomic<long long> g_allocs{0};

long long
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
countedAllocAligned(std::size_t size, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t alignment = static_cast<std::size_t>(align);
    if (alignment < sizeof(void *)) {
        alignment = sizeof(void *);
    }
    void *ptr = nullptr;
    if (posix_memalign(&ptr, alignment, size ? size : 1) != 0) {
        return nullptr;
    }
    return ptr;
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *ptr = countedAlloc(size)) {
        return ptr;
    }
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    if (void *ptr = countedAlloc(size)) {
        return ptr;
    }
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (void *ptr = countedAllocAligned(size, align)) {
        return ptr;
    }
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    if (void *ptr = countedAllocAligned(size, align)) {
        return ptr;
    }
    throw std::bad_alloc();
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

using namespace vattn;
using namespace vattn::bench;

int
main()
{
    const i64 total = smokeN(1'000'000, 20'000);
    banner("Soak: long-running online session",
           std::to_string(total) +
               " requests streamed through one Yi-6B replica; "
               "bounded live-request memory, allocation-free steady "
               "state with streaming callbacks installed");
    JsonReport json("soak_longrun");

    serving::EngineConfig config =
        makeEngineConfig({perf::ModelSpec::yi6B(), 1},
                         perf::BackendKind::kFa2VAttention);
    // Generous enough that every slot's warm page-group mappings fit
    // at once (64 slots x one 128 MiB group row): past warmup,
    // deferred reclamation goes quiescent and admission reuses cached
    // slots without a single driver (un)map call.
    config.kv_budget_override = 12 * GiB;
    config.scheduler.max_num_seqs = 64;
    config.scheduler.max_batched_tokens = 8192;
    config.vattn.max_batch_size = 64;
    serving::Engine engine(config);

    long long token_events = 0;
    serving::StreamCallbacks callbacks; // pre-built, reused throughout
    callbacks.on_token = [&token_events](const serving::Request &) {
        ++token_events;
    };

    // Small requests at a fixed inter-arrival gap the engine can
    // sustain: the session reaches a steady state where admission,
    // decode and retirement all recur at the high-water shape.
    constexpr i64 kPromptTokens = 32;
    constexpr i64 kDecodeTokens = 4;
    constexpr TimeNs kGapNs = 5'000'000; // 200 QPS offered
    const i64 warmup = total / 10;

    std::size_t owned_high_water = 0;
    long long steady_allocs = 0;
    long long steady_steps = 0;
    const auto wall_start = std::chrono::steady_clock::now();

    engine.beginOnline(static_cast<std::size_t>(total));
    TimeNs arrival = 0;
    for (i64 i = 0; i < total; ++i, arrival += kGapNs) {
        serving::Request request;
        request.id = static_cast<u64>(i);
        request.prompt_tokens = kPromptTokens;
        request.max_new_tokens = kDecodeTokens;
        request.arrival_ns = arrival;
        request.stream = &callbacks;
        engine.submitOnline(std::move(request))
            .expectOk("soak submit");
        owned_high_water =
            std::max(owned_high_water, engine.ownedRequests());
        // Pump the engine up to the next arrival instant — the step
        // loop a live server would run between submissions. Past the
        // warmup prefix this loop must never touch the heap.
        const long long before = allocCount();
        long long steps = 0;
        while (engine.runActive() &&
               engine.nextEventNs() < arrival + kGapNs) {
            engine.stepRun();
            ++steps;
        }
        if (i >= warmup) {
            steady_allocs += allocCount() - before;
            steady_steps += steps;
        }
    }
    engine.closeOnline();
    {
        const long long before = allocCount();
        while (engine.runActive()) {
            engine.stepRun();
            ++steady_steps;
        }
        steady_allocs += allocCount() - before;
    }
    const auto report = engine.endRun();
    const double wall_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    // Modeled and counted results only: stdout and the JSON report
    // stay byte-identical across runs. The host-dependent wall-clock
    // figures go to stderr.
    Table table({"requests", "owned high-water", "steady steps",
                 "steady allocs", "decode tok/s (sim)"});
    table.addRow({std::to_string(report.num_requests),
                  std::to_string(owned_high_water),
                  std::to_string(steady_steps),
                  std::to_string(steady_allocs),
                  Table::num(report.decodeTokensPerSecond(), 0)});
    json.printTable("soak session", table);
    std::fprintf(stderr, "soak wall clock: %.1f s, %.0f req/s\n", wall_s,
                 static_cast<double>(total) / wall_s);

    json.metric("requests", report.num_requests);
    json.metric("owned_high_water",
                static_cast<i64>(owned_high_water));
    json.metric("steady_state_allocs",
                static_cast<i64>(steady_allocs));
    json.metric("steady_state_steps",
                static_cast<i64>(steady_steps));
    json.metric("decode_tokens_per_s_sim",
                report.decodeTokensPerSecond());

    int failures = 0;
    const auto expect = [&failures](bool ok, const char *what) {
        std::printf("  %-6s %s\n", ok ? "[ok]" : "[FAIL]", what);
        if (!ok) {
            ++failures;
        }
    };
    expect(report.num_requests == total,
           "every submitted request was served");
    expect(token_events ==
               static_cast<long long>(total) * kDecodeTokens,
           "streaming callbacks saw every emitted token");
    expect(owned_high_water <
               static_cast<std::size_t>(total) / 100 + 256,
           "live-request memory stays bounded (high-water << "
           "session size)");
#if VATTN_AUDIT
    std::printf("  [skip] zero-allocation steady state (audit builds "
                "allocate per iteration by design)\n");
#else
    expect(steady_allocs == 0,
           "steady-state step loop performed zero heap allocations");
#endif

    if (failures > 0) {
        std::printf("\n%d soak assertion(s) FAILED\n", failures);
        return 1;
    }
    return 0;
}
