/**
 * @file
 * Cross-replica KV migration: backend-level export/import of swapped
 * KV images (both backend families, TP lockstep, rollback), the
 * engine-level migrateQueuedTo/migrateSwappedTo transactions, and the
 * cluster-level migration accounting that ties them together.
 */

#include <gtest/gtest.h>

#include "serving/cluster.hh"
#include "serving/engine.hh"
#include "serving/lockstep_backend.hh"
#include "serving/workload.hh"
#include "test_util.hh"

namespace vattn::serving
{
namespace
{

u64
kvBytes(i64 tokens)
{
    return perf::ModelSpec::yi6B().kvBytesPerTokenPerWorker(1) *
           static_cast<u64>(tokens);
}

VAttentionBackend::Options
swapOptions()
{
    VAttentionBackend::Options options;
    options.max_batch_size = 4;
    options.eager_allocation = false;
    options.overlap_allocation = false;
    return options;
}

// ---- Backend level: export / import of swapped KV images ------------

// The swap -> export -> import -> swap-in round trip of both backend
// families at TP 1 and 2 lives in test_backend_contract.cc.

TEST(KvExportImportTest, DonorCanAlwaysReimportOwnExport)
{
    // The rollback primitive behind a refused migration: exporting
    // frees the donor's host pages, so re-importing the same image
    // into the donor cannot fail.
    VAttentionBackend donor(perf::ModelSpec::yi6B(), 1, swapOptions(),
                            512 * MiB, false, 1 * GiB);
    auto slot = donor.allocSlot();
    ASSERT_TRUE(slot.isOk());
    ASSERT_TRUE(donor.ensure({{slot.value(), 4096}}).isOk());
    ASSERT_TRUE(donor.swapOut(slot.value()).isOk());
    auto image = donor.exportSwapped(slot.value());
    ASSERT_TRUE(image.isOk());

    ASSERT_TRUE(donor.canImportSwapped(image.value()));
    auto back = donor.importSwapped(image.value());
    ASSERT_TRUE(back.isOk());
    auto in = donor.swapIn(back.value());
    ASSERT_TRUE(in.isOk());
    EXPECT_EQ(in.value().bytes, image.value().bytes);
}

TEST(KvExportImportTest, RefusalsAndGeometryMismatch)
{
    VAttentionBackend donor(perf::ModelSpec::yi6B(), 1, swapOptions(),
                            512 * MiB, false, 1 * GiB);
    auto slot = donor.allocSlot();
    ASSERT_TRUE(slot.isOk());
    ASSERT_TRUE(donor.ensure({{slot.value(), 4096}}).isOk());
    ASSERT_TRUE(donor.swapOut(slot.value()).isOk());
    auto image = donor.exportSwapped(slot.value());
    ASSERT_TRUE(image.isOk());

    // No swap tier at all: no host tier, import refused.
    VAttentionBackend no_tier(perf::ModelSpec::yi6B(), 1, swapOptions(),
                              512 * MiB, false, 0);
    EXPECT_FALSE(no_tier.hasHostTier());
    EXPECT_FALSE(no_tier.canImportSwapped(image.value()));

    // Host tier too small for the image: refused, not an error.
    VAttentionBackend tiny(perf::ModelSpec::yi6B(), 1, swapOptions(),
                           512 * MiB, false, 2 * MiB);
    EXPECT_FALSE(tiny.canImportSwapped(image.value()));

    // Different model: different buffer geometry, refused.
    VAttentionBackend other_model(perf::ModelSpec::yi34B(), 1,
                                  swapOptions(), 512 * MiB, false, 1 * GiB);
    EXPECT_FALSE(other_model.canImportSwapped(image.value()));

    // Wrong backend family: a vAttention image never imports into a
    // paged pool (and vice versa), and the error is graceful.
    PagedBackend paged(perf::ModelSpec::yi6B(), 1, 16, 64 * MiB,
                       false, 1 * GiB);
    EXPECT_FALSE(paged.canImportSwapped(image.value()));
    auto cross = paged.importSwapped(image.value());
    EXPECT_EQ(cross.code(), ErrorCode::kInvalidArgument);

    SwappedKvImage empty;
    EXPECT_FALSE(donor.canImportSwapped(empty));
    EXPECT_FALSE(paged.canImportSwapped(empty));
}

TEST(KvExportImportTest, TensorParallelLockstepRoundTrip)
{
    // TP-2 shards export/import in lockstep; the image carries one
    // worker's shard bytes (half the TP-1 footprint per worker).
    VAttentionBackend tp1(perf::ModelSpec::yi6B(), 1, swapOptions(),
                          512 * MiB, false, 1 * GiB);
    VAttentionBackend donor(perf::ModelSpec::yi6B(), 2, swapOptions(),
                            512 * MiB, false, 1 * GiB);
    VAttentionBackend target(perf::ModelSpec::yi6B(), 2, swapOptions(),
                             512 * MiB, false, 1 * GiB);

    auto ref_slot = tp1.allocSlot();
    ASSERT_TRUE(ref_slot.isOk());
    ASSERT_TRUE(tp1.ensure({{ref_slot.value(), 4096}}).isOk());
    ASSERT_TRUE(tp1.swapOut(ref_slot.value()).isOk());
    auto ref_image = tp1.exportSwapped(ref_slot.value());
    ASSERT_TRUE(ref_image.isOk());

    auto slot = donor.allocSlot();
    ASSERT_TRUE(slot.isOk());
    ASSERT_TRUE(donor.ensure({{slot.value(), 4096}}).isOk());
    ASSERT_TRUE(donor.swapOut(slot.value()).isOk());
    auto image = donor.exportSwapped(slot.value());
    ASSERT_TRUE(image.isOk());
    EXPECT_EQ(image.value().bytes * 2, ref_image.value().bytes);

    ASSERT_TRUE(target.canImportSwapped(image.value()));
    auto imported = target.importSwapped(image.value());
    ASSERT_TRUE(imported.isOk());
    auto in = target.swapIn(imported.value());
    ASSERT_TRUE(in.isOk());
    EXPECT_EQ(in.value().bytes, image.value().bytes);
}

// ---- Engine level: the migration transactions -----------------------

EngineConfig
migrationConfig(perf::BackendKind kind)
{
    EngineConfig config;
    config.model = perf::ModelSpec::yi6B();
    config.gpu = perf::GpuSpec::a100();
    config.backend = kind;
    config.kv_budget_override = kvBytes(9600);
    config.scheduler.max_num_seqs = 8;
    config.scheduler.max_batched_tokens = 8192;
    config.vattn.max_batch_size = 8;
    config.preemption_policy = PreemptionPolicy::kSwap;
    config.record_iterations = true;
    return config;
}

Request
heavyRequest(u64 id, i64 prompt, i64 decode)
{
    Request request;
    request.id = id;
    request.prompt_tokens = prompt;
    request.max_new_tokens = decode;
    request.arrival_ns = 0;
    return request;
}

class MigrationEngineTest
    : public ::testing::TestWithParam<perf::BackendKind>
{
};

TEST_P(MigrationEngineTest, MigrateQueuedMovesWaitingRequest)
{
    auto config = migrationConfig(GetParam());
    config.scheduler.max_num_seqs = 2;
    config.kv_budget_override = kvBytes(40000);
    Engine donor(config);
    Engine target(config);
    donor.beginOnline(4);
    target.beginOnline(4);
    for (u64 i = 0; i < 4; ++i) {
        ASSERT_TRUE(
            donor.submitOnline(heavyRequest(i, 512, 16)).isOk());
    }

    // One step admits the arrivals: 2 run, 2 wait. The back of the
    // waiting queue (FCFS-fairness: the youngest) migrates.
    donor.stepRun();
    ASSERT_TRUE(donor.migrateQueuedTo(target));

    while (donor.runActive()) {
        donor.stepRun();
    }
    while (target.runActive()) {
        target.stepRun();
    }
    donor.closeOnline();
    target.closeOnline();
    auto donor_report = donor.endRun();
    auto target_report = target.endRun();

    EXPECT_EQ(donor_report.migrations_out, 1u);
    EXPECT_EQ(donor_report.migrations_in, 0u);
    EXPECT_EQ(target_report.migrations_in, 1u);
    EXPECT_EQ(donor_report.num_requests, 3);
    EXPECT_EQ(target_report.num_requests, 1);
    EXPECT_EQ(donor_report.decode_tokens + target_report.decode_tokens,
              4 * 16);
}

TEST_P(MigrationEngineTest, MigrateSwappedPreservesComputedKv)
{
    // The donor overcommits (4 x 2600-token contexts vs a 9600-token
    // budget) and preempts by swap; a swapped victim then migrates to
    // an uncontended replica through the host tier. The migrant's
    // prefilled KV travels with it: summed prefill-chunk tokens
    // across both engines equal the trace's prompt tokens exactly —
    // nothing was re-prefilled after the hand-off.
    Engine donor(migrationConfig(GetParam()));
    auto roomy = migrationConfig(GetParam());
    roomy.kv_budget_override = kvBytes(40000);
    Engine target(roomy);
    donor.beginOnline(4);
    target.beginOnline(4);
    for (u64 i = 0; i < 4; ++i) {
        ASSERT_TRUE(
            donor.submitOnline(heavyRequest(i, 2000, 600)).isOk());
    }

    bool migrated = false;
    while (donor.runActive()) {
        if (!migrated) {
            migrated = donor.migrateSwappedTo(target);
        }
        if (donor.runActive()) {
            donor.stepRun();
        }
    }
    while (target.runActive()) {
        target.stepRun();
    }
    donor.closeOnline();
    target.closeOnline();
    auto donor_report = donor.endRun();
    auto target_report = target.endRun();

    ASSERT_TRUE(migrated);
    EXPECT_GT(donor_report.swap_outs, 0u);
    EXPECT_EQ(donor_report.migrations_out, 1u);
    EXPECT_EQ(target_report.migrations_in, 1u);
    EXPECT_GE(target_report.swap_ins, 1u);
    EXPECT_EQ(donor_report.num_requests, 3);
    EXPECT_EQ(target_report.num_requests, 1);
    EXPECT_EQ(donor_report.decode_tokens + target_report.decode_tokens,
              4 * 600);

    i64 prefill_tokens = 0;
    for (const auto &it : donor_report.iterations) {
        prefill_tokens += it.prefill_chunk_tokens;
    }
    for (const auto &it : target_report.iterations) {
        prefill_tokens += it.prefill_chunk_tokens;
    }
    EXPECT_EQ(prefill_tokens, 4 * 2000);
}

TEST_P(MigrationEngineTest, RefusedMigrationLeavesDonorIntact)
{
    // A target whose host tier cannot hold the image refuses the
    // import; the donor re-imports its own export and the run
    // completes as if nothing happened.
    Engine donor(migrationConfig(GetParam()));
    auto cramped = migrationConfig(GetParam());
    cramped.host_swap_bytes = 2 * MiB;
    Engine target(cramped);
    donor.beginOnline(4);
    target.beginOnline(0);
    for (u64 i = 0; i < 4; ++i) {
        ASSERT_TRUE(
            donor.submitOnline(heavyRequest(i, 2000, 600)).isOk());
    }

    bool migrated = false;
    while (donor.runActive()) {
        migrated = donor.migrateSwappedTo(target) || migrated;
        if (donor.runActive()) {
            donor.stepRun();
        }
    }
    donor.closeOnline();
    target.closeOnline();
    auto donor_report = donor.endRun();
    auto target_report = target.endRun();

    EXPECT_FALSE(migrated);
    EXPECT_EQ(donor_report.migrations_out, 0u);
    EXPECT_EQ(target_report.migrations_in, 0u);
    EXPECT_GT(donor_report.swap_outs, 0u);
    EXPECT_EQ(donor_report.num_requests, 4);
    EXPECT_EQ(donor_report.decode_tokens, 4 * 600);
    EXPECT_EQ(target_report.num_requests, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, MigrationEngineTest,
    ::testing::Values(perf::BackendKind::kFa2VAttention,
                      perf::BackendKind::kFa2Paged));

// ---- Cluster level: migration accounting ----------------------------

TEST(ClusterMigrationTest, OvercommittedReplicaShedsLoadToIdlePeer)
{
    // Heterogeneous pair: replica 0 has a quarter of replica 1's KV
    // budget but round-robin still hands it every other request.
    // With migration enabled the saturated replica hands queued or
    // swapped work to its idle peer at arrival instants.
    // Three 2048-token page-group rows: two 2200-token contexts
    // overcommit it (4 rows), one fits — preemption, never a drop.
    auto small = migrationConfig(perf::BackendKind::kFa2VAttention);
    small.kv_budget_override = kvBytes(6144);
    small.scheduler.max_num_seqs = 2;
    auto large = small;
    large.kv_budget_override = kvBytes(40000);

    ServingCluster::Config config;
    config.replicas = {small, large};
    config.policy = RoutingPolicy::kRoundRobin;
    ServingCluster cluster(config);

    OnlineOptions options;
    options.routing = RoutingMode::kStatic;
    options.migration = true;
    options.expected_requests = 8;
    cluster.start(options);
    for (u64 i = 0; i < 8; ++i) {
        auto request = heavyRequest(i, 2000, 200);
        request.arrival_ns = static_cast<TimeNs>(i) * 50'000'000;
        ASSERT_TRUE(cluster.submit(request).isOk());
    }
    auto report = cluster.shutdown();

    EXPECT_GE(report.merged.migrations_out, 1u);
    EXPECT_EQ(report.merged.migrations_out,
              report.merged.migrations_in);
    EXPECT_EQ(report.merged.num_requests, 8);
    EXPECT_EQ(report.merged.decode_tokens, 8 * 200);
    EXPECT_EQ(report.merged.dropped_requests, 0);
    // The load moved toward the roomy replica.
    EXPECT_GE(report.replicas[1].migrations_in, 1u);
}

} // namespace
} // namespace vattn::serving
