/**
 * @file
 * Corruption-injection tests for the cross-layer invariant auditor:
 * each test drives the stack into a healthy state, injects one class
 * of corruption through public APIs (a leaked pool reference, a
 * driver mapping created behind the allocator, a page-table extent
 * created behind the driver, an extent whose phys disagrees with its
 * handle, a request parked in two scheduler queues, a physical
 * allocation bypassing the pool, a stale KV horizon cache, a moved
 * lead on a window-free buffer) and asserts the audit reports it with
 * an actionable message.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/audit.hh"
#include "core/vattention.hh"
#include "serving/engine.hh"
#include "serving/serving_audit.hh"
#include "test_util.hh"

namespace vattn
{
namespace core
{

/** Reaches KvAllocator's private horizon cache to inject staleness. */
struct KvAllocatorTestPeer
{
    static KvAllocator::Horizon &
    horizon(KvAllocator &allocator, int slot)
    {
        return allocator.slots_[static_cast<std::size_t>(slot)].horizon;
    }

    static i64 &
    mapped(KvAllocator &allocator, int slot)
    {
        return allocator.slots_[static_cast<std::size_t>(slot)].mapped;
    }

    static i64 &
    lead(KvAllocator &allocator, int slot, int buffer)
    {
        return allocator.slots_[static_cast<std::size_t>(slot)]
            .buffers[static_cast<std::size_t>(buffer)]
            .lead;
    }
};

} // namespace core

namespace
{

using core::Config;
using core::PagePool;
using core::KvAllocator;
using core::VAttention;
using serving::Request;

/** 2 layers, 2 heads, dim 8, fp16: 32B/token/buffer; 64KB group =
 *  2048 tokens. */
Config
smallConfig()
{
    Config config;
    config.num_layers = 2;
    config.num_kv_heads = 2;
    config.head_dim = 8;
    config.bytes_per_elem = 2;
    config.max_batch_size = 4;
    config.max_context_len = 8192;
    config.page_group = PageGroup::k64KB;
    config.eager_allocation = false;
    config.overlap_allocation = false;
    return config;
}

class AuditInjectionTest : public ::testing::Test
{
  protected:
    AuditInjectionTest() : device_(makeConfig()), driver_(device_) {}

    static gpu::GpuDevice::Config
    makeConfig()
    {
        gpu::GpuDevice::Config config;
        config.mem_bytes = 64 * MiB;
        return config;
    }

    gpu::GpuDevice device_;
    cuvmm::Driver driver_;
};

TEST(AuditReport, AccumulatesAndFormatsViolations)
{
    audit::AuditReport report;
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.toString(), "audit: all invariants hold");
    EXPECT_TRUE(report.check(true, "never recorded"));
    EXPECT_TRUE(report.ok());
    EXPECT_FALSE(report.check(1 + 1 == 3, "math: ", 1, "+", 1,
                              " != ", 3));
    report.fail("layer: second problem");
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.numViolations(), 2u);
    EXPECT_TRUE(report.contains("math: 1+1 != 3"));
    EXPECT_TRUE(report.contains("second problem"));
    EXPECT_FALSE(report.contains("never recorded"));
    const std::string text = report.toString();
    EXPECT_NE(text.find("2 invariant violations"), std::string::npos);
    EXPECT_NE(text.find("math"), std::string::npos);
}

TEST_F(AuditInjectionTest, HealthyStackPassesEveryLayer)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(0, 2).isOk());
    ASSERT_TRUE(allocator.growTo(1, 1).isOk());

    audit::AuditReport report;
    driver_.auditInto(report);
    pool.auditInto(report);
    allocator.auditInto(report);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST_F(AuditInjectionTest, LeakedPoolReferenceIsReported)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(0, 2).isOk());

    // Injection: take a pool reference with no matching mapping — the
    // kind of leak a buggy prefix-sharing path would produce.
    const cuvmm::MemHandle handle = allocator.handleAt(0, 0, 0);
    pool.addRef(handle);

    audit::AuditReport report;
    allocator.auditInto(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.contains("reference")) << report.toString();
    EXPECT_TRUE(report.contains("pool holds 2")) << report.toString();

    // Repair and re-audit: clean.
    pool.dropShared(handle);
    audit::AuditReport clean;
    allocator.auditInto(clean);
    EXPECT_TRUE(clean.ok()) << clean.toString();
}

TEST_F(AuditInjectionTest, DanglingAliasMappingIsReported)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(0, 1).isOk());

    // Injection: map a KV handle at a second VA directly through the
    // driver, bypassing the allocator's alias bookkeeping (what a
    // missed unmap on the §8.1 sharing path would leave behind).
    const cuvmm::MemHandle handle = allocator.handleAt(0, 0, 0);
    Addr rogue_va = 0;
    ASSERT_EQ(driver_.vMemReserve(&rogue_va, bytes(config.page_group)),
              cuvmm::CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemMap(rogue_va, handle),
              cuvmm::CuResult::kSuccess);

    audit::AuditReport report;
    allocator.auditInto(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.contains("behind the allocator"))
        << report.toString();

    // Repair: remove the rogue mapping; the stack audits clean again.
    ASSERT_EQ(driver_.vMemUnmap(rogue_va), cuvmm::CuResult::kSuccess);
    audit::AuditReport clean;
    driver_.auditInto(clean);
    allocator.auditInto(clean);
    EXPECT_TRUE(clean.ok()) << clean.toString();
}

TEST_F(AuditInjectionTest, RogueExtentBehindTheDriverIsReported)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(0, 1).isOk());

    // Injection: install an extent straight into the device page
    // table, so no handle owns it and no driver ledger knows it.
    Addr rogue_va = 0;
    ASSERT_EQ(driver_.vMemReserve(&rogue_va, 64 * KiB),
              cuvmm::CuResult::kSuccess);
    const auto phys = device_.physAllocator().alloc(64 * KiB);
    ASSERT_TRUE(phys.isOk());
    ASSERT_TRUE(device_.pageTable()
                    .map(rogue_va, phys.value(), 64 * KiB,
                         PageSize::k64KB, gpu::Access::kReadWrite)
                    .isOk());

    audit::AuditReport report;
    driver_.auditInto(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.contains("mapped behind the driver"))
        << report.toString();

    // Repair: remove the rogue extent; the stack audits clean again.
    ASSERT_TRUE(device_.pageTable().unmap(rogue_va, 64 * KiB).isOk());
    ASSERT_TRUE(
        device_.physAllocator().free(phys.value(), 64 * KiB).isOk());
    audit::AuditReport clean;
    driver_.auditInto(clean);
    pool.auditInto(clean);
    allocator.auditInto(clean);
    EXPECT_TRUE(clean.ok()) << clean.toString();
}

TEST_F(AuditInjectionTest, ExtentPhysDisagreeingWithItsHandleIsReported)
{
    Addr va = 0;
    cuvmm::MemHandle handle = cuvmm::kInvalidHandle;
    ASSERT_EQ(driver_.vMemReserve(&va, 64 * KiB),
              cuvmm::CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemCreate(&handle, PageGroup::k64KB),
              cuvmm::CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemMap(va, handle), cuvmm::CuResult::kSuccess);
    const PhysAddr good = device_.pageTable().translate(va).value().phys;

    // Injection: re-point the handle's extent at other physical
    // memory behind the driver, keeping the handle's tag on it.
    gpu::PageTable &table = device_.pageTable();
    const auto stray = device_.physAllocator().alloc(64 * KiB);
    ASSERT_TRUE(stray.isOk());
    ASSERT_TRUE(table.unmap(va, 64 * KiB).isOk());
    ASSERT_TRUE(table
                    .map(va, stray.value(), 64 * KiB, PageSize::k64KB,
                         gpu::Access::kReadWrite, handle)
                    .isOk());

    audit::AuditReport report;
    driver_.auditInto(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.contains("but handle " + std::to_string(handle) +
                                " holds 65536 bytes"))
        << report.toString();

    // Repair: restore the handle's phys; the driver audits clean and
    // tears the mapping down normally.
    ASSERT_TRUE(table.unmap(va, 64 * KiB).isOk());
    ASSERT_TRUE(table
                    .map(va, good, 64 * KiB, PageSize::k64KB,
                         gpu::Access::kReadWrite, handle)
                    .isOk());
    ASSERT_TRUE(
        device_.physAllocator().free(stray.value(), 64 * KiB).isOk());
    audit::AuditReport clean;
    driver_.auditInto(clean);
    EXPECT_TRUE(clean.ok()) << clean.toString();
    EXPECT_EQ(driver_.vMemRelease(handle), cuvmm::CuResult::kSuccess);
    EXPECT_EQ(table.numExtents(), 0u);
}

TEST_F(AuditInjectionTest, StaleGrowHorizonIsReported)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(1, 2).isOk());
    EXPECT_FALSE(allocator.needsGrowthForTokens(1, 4096));

    // Injection: a growth that skipped the refresh would leave the
    // cache one group behind; the O(1) check then reports growth that
    // the buffers do not need.
    auto &horizon = core::KvAllocatorTestPeer::horizon(allocator, 1);
    const i64 fresh = horizon.grow;
    horizon.grow = 2048;
    EXPECT_TRUE(allocator.needsGrowthForTokens(1, 4096));

    audit::AuditReport report;
    allocator.auditInto(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.contains("slot 1 caches grow horizon 2048 but "
                                "its buffers give 4096"))
        << report.toString();

    horizon.grow = fresh;
    EXPECT_TRUE(test::auditClean(allocator));
}

TEST_F(AuditInjectionTest, StaleTrimHorizonIsReported)
{
    auto config = smallConfig();
    config.layer_window_tokens = {0, 3000};
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    // Four groups per buffer back 8,192 tokens; the first
    // window-layer group dies earlier, at 3000 + 2048 tokens.
    ASSERT_TRUE(allocator.growTo(0, 4).isOk());
    EXPECT_FALSE(allocator.needsEnsureTokens(0, 4096));
    EXPECT_TRUE(allocator.needsEnsureTokens(0, 5048));

    // Injection: a trim horizon left at "never" hides the due trim.
    auto &horizon = core::KvAllocatorTestPeer::horizon(allocator, 0);
    const i64 fresh = horizon.trim;
    horizon.trim = std::numeric_limits<i64>::max();
    EXPECT_FALSE(allocator.needsEnsureTokens(0, 5048));

    audit::AuditReport report;
    allocator.auditInto(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.contains("slot 0 caches trim horizon"))
        << report.toString();
    EXPECT_TRUE(report.contains("its buffers give 5048"))
        << report.toString();

    horizon.trim = fresh;
    EXPECT_TRUE(test::auditClean(allocator));
}

TEST_F(AuditInjectionTest, StaleMappedHandleCountIsReported)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(1, 2).isOk());
    const i64 fresh = allocator.mappedHandles(1);
    ASSERT_GT(fresh, 0);

    // Injection: a range change that skipped the refresh would leave
    // the O(1) count behind the buffers (a warm slot then looks cold
    // to VAttention's reuse scan).
    i64 &mapped = core::KvAllocatorTestPeer::mapped(allocator, 1);
    mapped = fresh - 1;
    EXPECT_EQ(allocator.mappedHandles(1), fresh - 1);

    audit::AuditReport report;
    allocator.auditInto(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.contains(
        "slot 1 caches " + std::to_string(fresh - 1) +
        " mapped handles but its buffers hold " + std::to_string(fresh)))
        << report.toString();
    // The total-mapped ledger recounts from the buffers, not the
    // cache, so it stays quiet.
    EXPECT_FALSE(report.contains("total-mapped ledger"))
        << report.toString();

    mapped = fresh;
    EXPECT_TRUE(test::auditClean(allocator));
}

TEST_F(AuditInjectionTest, LeadOnWindowFreeHeterogeneousBufferIsReported)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.ensureTokens(0, 4096).isOk());
    EXPECT_TRUE(test::auditClean(allocator));

    // Injection: without sliding windows no lead may move.
    i64 &lead = core::KvAllocatorTestPeer::lead(allocator, 0, 0);
    lead = 1;

    audit::AuditReport report;
    allocator.auditInto(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.contains("slot 0 buffer 0 has lead 1 but only "
                                "sliding windows trim leads"))
        << report.toString();

    lead = 0;
    EXPECT_TRUE(test::auditClean(allocator));
}

TEST_F(AuditInjectionTest, PhysBytesDriftBehindThePoolIsReported)
{
    auto config = smallConfig();
    config.phys_budget_bytes = 8 * MiB;
    VAttention vattn(driver_, config);
    ASSERT_TRUE(test::auditClean(vattn));

    // Injection: a rogue physical allocation on the runtime's driver
    // that the page pool knows nothing about — the driver's ledger is
    // self-consistent, so only the pool/driver cross-check can see it.
    cuvmm::MemHandle rogue = cuvmm::kInvalidHandle;
    ASSERT_EQ(driver_.cuMemCreate(&rogue, 2 * MiB),
              cuvmm::CuResult::kSuccess);

    audit::AuditReport report;
    vattn.auditInto(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.contains("bypassed the pool"))
        << report.toString();

    ASSERT_EQ(driver_.cuMemRelease(rogue), cuvmm::CuResult::kSuccess);
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST(ServingAudit, RequestInTwoQueuesIsReported)
{
    serving::Scheduler scheduler(serving::Scheduler::Config{});
    Request request;
    request.id = 42;
    request.prompt_tokens = 16;
    scheduler.enqueue(&request);

    // Injection: park the queued request on the swapped queue too (a
    // preemption path that forgot to pop it from waiting).
    request.slot = 3;
    scheduler.pushSwapped(&request);

    audit::AuditReport report;
    serving::auditServingState({}, scheduler, report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.contains("waiting and swapped at once"))
        << report.toString();
}

TEST(ServingAudit, StateAndSlotShapeMismatchesAreReported)
{
    serving::Scheduler scheduler(serving::Scheduler::Config{});
    Request waiting_with_slot;
    waiting_with_slot.id = 1;
    scheduler.enqueue(&waiting_with_slot);
    waiting_with_slot.slot = 7; // waiting requests hold no slot

    Request not_running;
    not_running.id = 2;
    not_running.state = Request::State::kFinished;
    not_running.slot = 0;
    std::vector<Request *> running = {&not_running};

    Request also_slot_7;
    also_slot_7.id = 3;
    also_slot_7.state = Request::State::kRunning;
    also_slot_7.slot = 7;
    running.push_back(&also_slot_7);

    audit::AuditReport report;
    serving::auditServingState(running, scheduler, report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.contains("still holds slot 7"))
        << report.toString();
    EXPECT_TRUE(report.contains("state is Finished"))
        << report.toString();
    EXPECT_TRUE(report.contains("both hold slot 7"))
        << report.toString();
}

TEST(ServingAudit, TransitionTableMatchesTheLifecycle)
{
    using State = Request::State;
    using serving::isLegalTransition;
    EXPECT_TRUE(isLegalTransition(State::kPending, State::kWaiting));
    EXPECT_TRUE(isLegalTransition(State::kWaiting, State::kRunning));
    EXPECT_TRUE(isLegalTransition(State::kWaiting, State::kDropped));
    EXPECT_TRUE(isLegalTransition(State::kWaiting, State::kPending));
    EXPECT_TRUE(isLegalTransition(State::kRunning, State::kWaiting));
    EXPECT_TRUE(isLegalTransition(State::kRunning, State::kSwapped));
    EXPECT_TRUE(isLegalTransition(State::kRunning, State::kFinished));
    EXPECT_TRUE(isLegalTransition(State::kRunning, State::kDropped));
    EXPECT_TRUE(isLegalTransition(State::kSwapped, State::kRunning));
    // Illegal edges.
    EXPECT_FALSE(isLegalTransition(State::kPending, State::kRunning));
    EXPECT_FALSE(isLegalTransition(State::kSwapped, State::kWaiting));
    EXPECT_FALSE(isLegalTransition(State::kFinished, State::kRunning));
    EXPECT_FALSE(isLegalTransition(State::kDropped, State::kWaiting));
    EXPECT_FALSE(isLegalTransition(State::kRunning, State::kRunning));
}

TEST(ServingAudit, ReachabilityCoversMultiHopObservations)
{
    using State = Request::State;
    using serving::isReachableState;
    // Same state: trivially reachable (no transition happened).
    EXPECT_TRUE(isReachableState(State::kRunning, State::kRunning));
    // Admit + preempt-to-swap within one iteration.
    EXPECT_TRUE(isReachableState(State::kWaiting, State::kSwapped));
    // Swap-in + preempt-to-recompute within one iteration.
    EXPECT_TRUE(isReachableState(State::kSwapped, State::kWaiting));
    EXPECT_TRUE(isReachableState(State::kPending, State::kFinished));
    // Terminal states lead nowhere.
    EXPECT_FALSE(isReachableState(State::kFinished, State::kRunning));
    EXPECT_FALSE(isReachableState(State::kDropped, State::kPending));
}

TEST(EngineAudit, WholeStackAuditsCleanOnBothBackends)
{
    for (const auto backend : {perf::BackendKind::kFa2VAttention,
                               perf::BackendKind::kFa2Paged}) {
        serving::EngineConfig config;
        config.backend = backend;
        config.kv_budget_override = 1 * GiB;
        config.vattn.max_batch_size = 8;
        config.scheduler.max_num_seqs = 8;
        serving::Engine engine(config);

        std::vector<Request> trace;
        for (int i = 0; i < 6; ++i) {
            Request request;
            request.id = static_cast<u64>(i);
            request.prompt_tokens = 512 + 128 * i;
            request.max_new_tokens = 32;
            trace.push_back(request);
        }
        const auto report = engine.run(std::move(trace));
        EXPECT_EQ(report.num_requests, 6);

        const auto audit = engine.auditNow();
        EXPECT_TRUE(audit.ok())
            << toString(backend) << ": " << audit.toString();
    }
}

} // namespace
} // namespace vattn
