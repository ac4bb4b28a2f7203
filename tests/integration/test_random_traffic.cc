/**
 * @file
 * Randomized property tests ("fuzzing with invariants"):
 *
 *  - VAttention under random serving traffic — alloc/free/step/
 *    computePhase in random order with random lengths — must never
 *    violate its accounting invariants, leak page-groups, or leave a
 *    slot inconsistent, and must end with everything reclaimable.
 *
 *  - The VMM driver under random API sequences must agree with a
 *    simple reference model of reservation/handle/mapping state.
 */

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/vattention.hh"
#include "cuvmm/driver.hh"
#include "test_util.hh"

namespace vattn
{
namespace
{

class RandomTrafficTest : public ::testing::TestWithParam<PageGroup>
{
};

TEST_P(RandomTrafficTest, VattnInvariantsHoldUnderChaos)
{
    const PageGroup group = GetParam();
    gpu::GpuDevice::Config dev_config;
    dev_config.mem_bytes = 256 * MiB;
    gpu::GpuDevice device(dev_config);
    cuvmm::Driver driver(device);

    core::Config config;
    config.num_layers = 2;
    config.num_kv_heads = 2;
    config.head_dim = 8;
    config.max_batch_size = 6;
    config.max_context_len = 4096;
    config.page_group = group;
    // Deliberately tight: forces OOM paths, stealing, preemption.
    config.phys_budget_bytes = 24 * bytes(group);
    core::VAttention vattn(driver, config);

    Rng rng(0x7'ea5e + static_cast<u64>(group));
    std::map<int, i64> active; // reqId -> current length
    const i64 max_len = config.max_context_len;

    for (int step = 0; step < 1500; ++step) {
        const double dice = rng.uniform();
        if (dice < 0.25) {
            // New request with a random prompt.
            const i64 prompt = rng.uniformInt(1, max_len / 2);
            const bool can = vattn.canAllocate(prompt);
            auto id = vattn.allocReqId();
            if (!id.isOk()) {
                EXPECT_FALSE(can);
            } else if (active.count(id.value())) {
                ADD_FAILURE() << "duplicate reqId " << id.value();
            } else {
                active[id.value()] = prompt;
            }
        } else if (dice < 0.40 && !active.empty()) {
            // Complete a random request.
            auto it = active.begin();
            std::advance(it, rng.uniformInt(
                                 0, static_cast<i64>(active.size()) -
                                        1));
            EXPECT_TRUE(vattn.freeReqId(it->first).isOk());
            active.erase(it);
        } else if (dice < 0.55 && !active.empty()) {
            // Grow a random request (decode burst).
            auto it = active.begin();
            std::advance(it, rng.uniformInt(
                                 0, static_cast<i64>(active.size()) -
                                        1));
            it->second =
                std::min<i64>(max_len, it->second +
                                           rng.uniformInt(1, 300));
        } else if (dice < 0.70) {
            vattn.computePhase(
                static_cast<TimeNs>(rng.uniformInt(0, 20)) * kMsec);
        } else {
            // An iteration: step over the current lengths.
            std::vector<i64> lens(6, 0);
            for (const auto &[id, len] : active) {
                lens[static_cast<std::size_t>(id)] = len;
            }
            auto result = vattn.step(lens);
            if (!result.status.isOk()) {
                ASSERT_EQ(result.status.code(),
                          ErrorCode::kOutOfMemory);
                // Preempt the request with the longest context.
                int victim = -1;
                i64 longest = -1;
                for (const auto &[id, len] : active) {
                    if (len > longest) {
                        longest = len;
                        victim = id;
                    }
                }
                ASSERT_GE(victim, 0);
                EXPECT_TRUE(vattn.freeReqId(victim).isOk());
                active.erase(victim);
            }
        }
        ASSERT_TRUE(test::auditClean(vattn)) << "step " << step;
    }

    // Drain: free everything; all memory must be reclaimable.
    for (const auto &[id, len] : active) {
        EXPECT_TRUE(vattn.freeReqId(id).isOk());
    }
    EXPECT_TRUE(test::auditClean(vattn));
    // Every mapped group is now cached (stealable), so a request
    // using the whole budget must be admissible.
    const i64 budget_tokens =
        std::min<i64>(config.max_context_len,
                      24 / vattn.geometry().numBuffers() *
                          vattn.geometry().tokensPerGroup());
    EXPECT_TRUE(vattn.canAllocate(budget_tokens));
}

INSTANTIATE_TEST_SUITE_P(PageGroups, RandomTrafficTest,
                         ::testing::Values(PageGroup::k64KB,
                                           PageGroup::k256KB,
                                           PageGroup::k2MB));

TEST(DriverFuzz, AgreesWithReferenceModel)
{
    gpu::GpuDevice::Config dev_config;
    dev_config.mem_bytes = 64 * MiB;
    gpu::GpuDevice device(dev_config);
    cuvmm::Driver driver(device);
    Rng rng(0xd21e);

    struct RefHandle
    {
        u64 size;
        std::set<Addr> mappings;
    };
    std::map<Addr, u64> reservations; // va -> size
    std::map<cuvmm::MemHandle, RefHandle> handles;
    u64 phys = 0;

    for (int step = 0; step < 4000; ++step) {
        switch (rng.uniformInt(0, 5)) {
          case 0: { // reserve
            Addr va = 0;
            const u64 size =
                static_cast<u64>(rng.uniformInt(1, 8)) * 64 * KiB;
            if (driver.vMemReserve(&va, size) ==
                cuvmm::CuResult::kSuccess) {
                reservations[va] = size;
            }
            break;
          }
          case 1: { // create
            const PageGroup group =
                kAllPageGroups[rng.uniformInt(0, 3)];
            cuvmm::MemHandle handle = cuvmm::kInvalidHandle;
            const auto r = driver.vMemCreate(&handle, group);
            if (phys + bytes(group) > 64 * MiB) {
                // Over capacity must fail; under capacity may still
                // fail on (rare) buddy fragmentation.
                EXPECT_NE(r, cuvmm::CuResult::kSuccess);
            }
            if (r == cuvmm::CuResult::kSuccess) {
                handles[handle] = RefHandle{bytes(group), {}};
                phys += bytes(group);
            }
            break;
          }
          case 2: { // map a random handle into a random reservation
            if (handles.empty() || reservations.empty()) {
                break;
            }
            auto hit = handles.begin();
            std::advance(hit,
                         rng.uniformInt(0, static_cast<i64>(
                                               handles.size()) -
                                               1));
            auto rit = reservations.begin();
            std::advance(rit,
                         rng.uniformInt(0, static_cast<i64>(
                                               reservations.size()) -
                                               1));
            if (rit->second < hit->second.size) {
                break;
            }
            const Addr va = rit->first;
            const auto r = driver.vMemMap(va, hit->first);
            // Backing page size dictates the VA alignment: 2MB
            // multiples use 2MB pages, everything else 64KB pages.
            const u64 align = hit->second.size % (2 * MiB) == 0
                                  ? 2 * MiB
                                  : 64 * KiB;
            if (hit->second.size > rit->second || va % align != 0) {
                EXPECT_NE(r, cuvmm::CuResult::kSuccess);
            }
            if (r == cuvmm::CuResult::kSuccess) {
                hit->second.mappings.insert(va);
            }
            break;
          }
          case 3: { // release a random handle (unmaps aliases too)
            if (handles.empty()) {
                break;
            }
            auto hit = handles.begin();
            std::advance(hit,
                         rng.uniformInt(0, static_cast<i64>(
                                               handles.size()) -
                                               1));
            ASSERT_EQ(driver.vMemRelease(hit->first),
                      cuvmm::CuResult::kSuccess);
            phys -= hit->second.size;
            handles.erase(hit);
            break;
          }
          case 4: { // free an empty reservation
            if (reservations.empty()) {
                break;
            }
            auto rit = reservations.begin();
            std::advance(rit,
                         rng.uniformInt(0, static_cast<i64>(
                                               reservations.size()) -
                                               1));
            bool mapped = false;
            for (const auto &[h, ref] : handles) {
                for (Addr va : ref.mappings) {
                    if (va >= rit->first &&
                        va < rit->first + rit->second) {
                        mapped = true;
                    }
                }
            }
            const auto r = driver.vMemFree(rit->first, rit->second);
            EXPECT_EQ(r == cuvmm::CuResult::kSuccess, !mapped);
            if (r == cuvmm::CuResult::kSuccess) {
                reservations.erase(rit);
            }
            break;
          }
          default: { // cross-check aggregate state
            EXPECT_EQ(driver.physBytesInUse(), phys);
            EXPECT_EQ(driver.numLiveHandles(), handles.size());
            u64 mapped_bytes = 0;
            for (const auto &[h, ref] : handles) {
                EXPECT_EQ(driver.numMappings(h), ref.mappings.size());
                mapped_bytes += ref.size * ref.mappings.size();
            }
            EXPECT_EQ(device.pageTable().mappedBytes(), mapped_bytes);
            break;
          }
        }
    }

    // Teardown: release everything; the device must come back whole.
    for (const auto &[h, ref] : handles) {
        EXPECT_EQ(driver.vMemRelease(h), cuvmm::CuResult::kSuccess);
    }
    for (const auto &[va, size] : reservations) {
        EXPECT_EQ(driver.vMemFree(va, size), cuvmm::CuResult::kSuccess);
    }
    EXPECT_EQ(driver.physBytesInUse(), 0u);
    EXPECT_EQ(device.freePhysBytes(), 64 * MiB);
    EXPECT_EQ(device.pageTable().numExtents(), 0u);
}

} // namespace
} // namespace vattn
