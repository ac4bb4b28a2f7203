#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hh"
#include "core/worker_group.hh"
#include "test_util.hh"

namespace vattn::core
{
namespace
{

/** The (reqId, length) pairs of a B-wide length vector's non-zero
 *  entries: the sparse step() input. */
std::vector<std::pair<int, i64>>
listed(const std::vector<i64> &lens)
{
    std::vector<std::pair<int, i64>> out;
    for (std::size_t slot = 0; slot < lens.size(); ++slot) {
        if (lens[slot] != 0) {
            out.emplace_back(static_cast<int>(slot), lens[slot]);
        }
    }
    return out;
}

// Each op runs on every worker through the group's one lockstep entry
// point, as VAttentionBackend drives it.

Result<int>
allocReqId(WorkerGroup &group)
{
    return group.apply("allocReqId",
                       [](VAttention &w) { return w.allocReqId(); });
}

Status
freeReqId(WorkerGroup &group, int req_id)
{
    return group.apply("freeReqId",
                       [&](VAttention &w) { return w.freeReqId(req_id); });
}

StepStats
step(WorkerGroup &group, const std::vector<i64> &lens)
{
    const auto active = listed(lens);
    return group.apply("step",
                       [&](VAttention &w) { return w.step(active); });
}

void
computePhase(WorkerGroup &group, TimeNs window_ns)
{
    group.apply("computePhase",
                [&](VAttention &w) { w.computePhase(window_ns); });
}

SwapStats
swapOutReq(WorkerGroup &group, int req_id)
{
    return group.apply("swapOutReq",
                       [&](VAttention &w) { return w.swapOutReq(req_id); });
}

SwapStats
swapInReq(WorkerGroup &group, int req_id)
{
    return group.apply("swapInReq",
                       [&](VAttention &w) { return w.swapInReq(req_id); });
}

/** Physical KV bytes mapped across ALL workers. */
u64
physBytesMappedTotal(WorkerGroup &group)
{
    u64 total = 0;
    for (int w = 0; w < group.numWorkers(); ++w) {
        total += group.worker(w).physBytesMapped();
    }
    return total;
}

Config
tpConfig()
{
    // Per-worker shape for a 2-way split of a 4-KV-head model.
    Config config;
    config.num_layers = 2;
    config.num_kv_heads = 2; // 4 heads / TP-2
    config.head_dim = 8;
    config.max_batch_size = 4;
    config.max_context_len = 8192;
    config.page_group = PageGroup::k64KB;
    config.phys_budget_bytes = 8 * MiB;
    return config;
}

TEST(WorkerGroup, LockstepThroughBasicLifecycle)
{
    WorkerGroup group(2, tpConfig(), 64 * MiB);
    ASSERT_EQ(group.numWorkers(), 2);
    EXPECT_TRUE(test::auditClean(group));

    auto req = allocReqId(group);
    ASSERT_TRUE(req.isOk());
    std::vector<i64> lens(4, 0);
    lens[static_cast<std::size_t>(req.value())] = 3000;
    auto stats = step(group, lens);
    ASSERT_TRUE(stats.status.isOk());
    EXPECT_EQ(stats.handles_mapped, 8); // per worker: 2 groups x 4 buf
    EXPECT_TRUE(test::auditClean(group));

    // Aggregate physical bytes = workers x per-worker bytes.
    EXPECT_EQ(physBytesMappedTotal(group),
              2 * group.worker(0).physBytesMapped());

    computePhase(group, 20 * kMsec);
    EXPECT_TRUE(test::auditClean(group));
    ASSERT_TRUE(freeReqId(group, req.value()).isOk());
    EXPECT_TRUE(test::auditClean(group));
}

TEST(WorkerGroup, LockstepUnderRandomTraffic)
{
    WorkerGroup group(4, tpConfig(), 64 * MiB);
    Rng rng(808);
    std::vector<i64> lens(4, 0);
    std::vector<int> active;

    for (int round = 0; round < 300; ++round) {
        const double dice = rng.uniform();
        if (dice < 0.3 && active.size() < 3) {
            auto req = allocReqId(group);
            if (req.isOk()) {
                active.push_back(req.value());
                lens[static_cast<std::size_t>(req.value())] =
                    rng.uniformInt(1, 4000);
            }
        } else if (dice < 0.45 && !active.empty()) {
            const auto pick = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<i64>(active.size()) - 1));
            lens[static_cast<std::size_t>(active[pick])] = 0;
            ASSERT_TRUE(freeReqId(group, active[pick]).isOk());
            active.erase(active.begin() + static_cast<long>(pick));
        } else if (dice < 0.7) {
            computePhase(group, 
                static_cast<TimeNs>(rng.uniformInt(0, 15)) * kMsec);
        } else {
            for (int id : active) {
                lens[static_cast<std::size_t>(id)] = std::min<i64>(
                    8192, lens[static_cast<std::size_t>(id)] +
                              rng.uniformInt(0, 100));
            }
            auto stats = step(group, lens);
            if (!stats.status.isOk() && !active.empty()) {
                lens[static_cast<std::size_t>(active.back())] = 0;
                freeReqId(group, active.back()).expectOk("preempt");
                active.pop_back();
            }
        }
        ASSERT_TRUE(test::auditClean(group)) << "round " << round;
    }
}

TEST(WorkerGroup, AggregateAllocationBandwidthScalesWithTp)
{
    // Table 9's TP scaling, measured rather than asserted: each
    // worker pays the same critical-path latency but the group maps
    // TP x the bytes in that window.
    auto measure = [&](int tp) {
        WorkerGroup group(tp, tpConfig(), 64 * MiB);
        auto req = allocReqId(group);
        std::vector<i64> lens(4, 0);
        lens[static_cast<std::size_t>(req.value())] = 8000;
        const auto stats = step(group, lens);
        stats.status.expectOk("bandwidth step");
        return static_cast<double>(physBytesMappedTotal(group)) /
               (static_cast<double>(stats.critical_ns) / 1e9);
    };
    const double bw1 = measure(1);
    const double bw2 = measure(2);
    EXPECT_NEAR(bw2 / bw1, 2.0, 0.01);
}

TEST(WorkerGroup, PerWorkerDevicesAreIsolated)
{
    WorkerGroup group(2, tpConfig(), 64 * MiB);
    auto req = allocReqId(group);
    std::vector<i64> lens(4, 0);
    lens[static_cast<std::size_t>(req.value())] = 100;
    ASSERT_TRUE(step(group, lens).status.isOk());

    // Each worker holds its own shard: writing K on worker 0 must not
    // appear on worker 1 (different GPUs).
    auto view0 = group.worker(0).requestView(0, req.value());
    auto view1 = group.worker(1).requestView(0, req.value());
    float row[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    view0.storeK(0, 0, row);
    float out[8] = {};
    view1.loadK(0, 0, out);
    for (int c = 0; c < 8; ++c) {
        EXPECT_FLOAT_EQ(out[c], 0.0f);
    }
    view0.loadK(0, 0, out);
    EXPECT_FLOAT_EQ(out[3], 4.0f);
}

TEST(WorkerGroup, InvalidConfigRejected)
{
    test::ScopedThrowErrors guard;
    auto config = tpConfig();
    config.num_layers = 0;
    EXPECT_THROW(WorkerGroup(2, config, 64 * MiB), SimError);
    EXPECT_THROW(WorkerGroup(0, tpConfig(), 64 * MiB), SimError);
}

TEST(WorkerGroup, LockstepAcrossPreemptionCycles)
{
    // The serving engine's recomputation preemption as the runtime
    // sees it: freeReqId mid-flight (half-grown KV), then re-admission
    // that hands back the SAME reqId (the cached slot with the most
    // retained groups) on every worker simultaneously.
    WorkerGroup group(2, tpConfig(), 64 * MiB);
    const int r1 = allocReqId(group).value();
    std::vector<i64> lens(4, 0);
    lens[static_cast<std::size_t>(r1)] = 3000;
    ASSERT_TRUE(step(group, lens).status.isOk());

    // Preempt mid-flight: mappings are retained (deferred
    // reclamation), every worker parks the same cached slot.
    ASSERT_TRUE(freeReqId(group, r1).isOk());
    EXPECT_TRUE(test::auditClean(group));
    EXPECT_GT(group.worker(0).cachedHandles(), 0);

    // Re-admission reuses the same reqId on all workers (the group
    // panics on divergence, so allocReqId returning at all proves
    // agreement) and the retained groups serve the new prompt without
    // fresh mapping work.
    const auto again = allocReqId(group);
    ASSERT_TRUE(again.isOk());
    EXPECT_EQ(again.value(), r1);
    auto stats = step(group, lens);
    ASSERT_TRUE(stats.status.isOk());
    EXPECT_EQ(stats.handles_mapped, 0);
    EXPECT_TRUE(test::auditClean(group));
}

TEST(WorkerGroup, LockstepAcrossSwapCycles)
{
    auto config = tpConfig();
    config.host_swap_bytes = 8 * MiB;
    WorkerGroup group(2, config, 64 * MiB);
    const int r1 = allocReqId(group).value();
    const int r2 = allocReqId(group).value();
    std::vector<i64> lens(4, 0);
    lens[static_cast<std::size_t>(r1)] = 3000;
    lens[static_cast<std::size_t>(r2)] = 2000;
    ASSERT_TRUE(step(group, lens).status.isOk());

    // Swap r1 to each worker's host tier; every worker stashes its own
    // shard and the device shares must agree.
    const auto out = swapOutReq(group, r1);
    ASSERT_TRUE(out.status.isOk()) << out.status.message();
    EXPECT_EQ(out.handles, 8); // per worker: 2 groups x 4 buffers
    EXPECT_TRUE(test::auditClean(group));
    EXPECT_EQ(group.worker(0).groupsMapped(r1), 0);
    EXPECT_EQ(group.worker(1).swappedGroups(r1), 2);

    // r2 keeps decoding while r1 sits on the host (freeReqId mid-
    // flight of a *different* request must not disturb the stash).
    lens[static_cast<std::size_t>(r2)] = 2500;
    ASSERT_TRUE(step(group, lens).status.isOk());
    ASSERT_TRUE(freeReqId(group, r2).isOk());
    EXPECT_TRUE(test::auditClean(group));

    // Swap back in and resume: same reqId, same virtual layout, no
    // divergence.
    const auto in = swapInReq(group, r1);
    ASSERT_TRUE(in.status.isOk()) << in.status.message();
    EXPECT_EQ(in.handles, 8);
    lens[static_cast<std::size_t>(r2)] = 0;
    lens[static_cast<std::size_t>(r1)] = 3001;
    ASSERT_TRUE(step(group, lens).status.isOk());
    EXPECT_TRUE(test::auditClean(group));
    ASSERT_TRUE(freeReqId(group, r1).isOk());
    EXPECT_TRUE(test::auditClean(group));
}

TEST(WorkerGroup, AuditPassesOnHealthyGroup)
{
    WorkerGroup group(2, tpConfig(), 64 * MiB);
    const int r1 = allocReqId(group).value();
    std::vector<i64> lens(4, 0);
    lens[static_cast<std::size_t>(r1)] = 3000;
    ASSERT_TRUE(step(group, lens).status.isOk());

    EXPECT_TRUE(test::auditClean(group));
}

TEST(WorkerGroup, AuditLocalizesInjectedWorkerDesync)
{
    // Corruption injection: drive ONE worker's runtime directly —
    // exactly the bug class the lockstep design must catch — by
    // growing worker 1's sequence past the group-agreed length. The
    // audit must fail, name the diverging worker/slot and describe the
    // drift actionably (not just "mismatch").
    WorkerGroup group(2, tpConfig(), 64 * MiB);
    const int r1 = allocReqId(group).value();
    std::vector<i64> lens(4, 0);
    lens[static_cast<std::size_t>(r1)] = 1000;
    ASSERT_TRUE(step(group, lens).status.isOk());
    EXPECT_TRUE(test::auditClean(group));

    // Worker 1 silently steps ahead: its slot maps more groups and
    // more physical bytes than worker 0's.
    std::vector<i64> ahead = lens;
    ahead[static_cast<std::size_t>(r1)] = 5000;
    ASSERT_TRUE(group.worker(1).step(ahead).status.isOk());

    audit::AuditReport report;
    group.auditInto(report);
    ASSERT_FALSE(report.ok());
    const std::string text = report.toString();
    EXPECT_NE(text.find("worker 1"), std::string::npos) << text;
    EXPECT_NE(text.find("desynced"), std::string::npos) << text;
    EXPECT_NE(text.find("slot " + std::to_string(r1)),
              std::string::npos)
        << text;
}

TEST(WorkerGroup, AuditCatchesLifecycleDesync)
{
    // A second injection flavour: one worker frees the request while
    // the others keep it live (a lost/duplicated control message).
    WorkerGroup group(3, tpConfig(), 64 * MiB);
    const int r1 = allocReqId(group).value();
    std::vector<i64> lens(4, 0);
    lens[static_cast<std::size_t>(r1)] = 500;
    ASSERT_TRUE(step(group, lens).status.isOk());

    ASSERT_TRUE(group.worker(2).freeReqId(r1).isOk());

    audit::AuditReport report;
    group.auditInto(report);
    ASSERT_FALSE(report.ok());
    const std::string text = report.toString();
    EXPECT_NE(text.find("worker 2"), std::string::npos) << text;
    EXPECT_NE(text.find("lockstep divergence"), std::string::npos)
        << text;
}

} // namespace
} // namespace vattn::core
