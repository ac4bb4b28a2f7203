#include <gtest/gtest.h>

#include "perf/kernel_model.hh"
#include "perf/overhead_model.hh"
#include "test_util.hh"

namespace vattn::perf
{
namespace
{

TEST(ModelSpec, ParameterCountsMatchNames)
{
    EXPECT_NEAR(ModelSpec::yi6B().numParams() / 1e9, 6.06, 0.15);
    EXPECT_NEAR(ModelSpec::llama3_8B().numParams() / 1e9, 8.03, 0.2);
    EXPECT_NEAR(ModelSpec::yi34B().numParams() / 1e9, 34.4, 0.8);
    EXPECT_NEAR(ModelSpec::llama3_70B().numParams() / 1e9, 70.0, 3.0);
    EXPECT_NEAR(ModelSpec::gpt3_175B().numParams() / 1e9, 175.0, 10.0);
}

TEST(ModelSpec, PerTokenKvBytesSection4)
{
    // §4: 64KB / 128KB / 240KB per token.
    EXPECT_EQ(ModelSpec::yi6B().kvBytesPerToken(), 64 * KiB);
    EXPECT_EQ(ModelSpec::llama3_8B().kvBytesPerToken(), 128 * KiB);
    EXPECT_EQ(ModelSpec::yi34B().kvBytesPerToken(), 240 * KiB);
}

TEST(ModelSpec, TensorParallelSplits)
{
    const auto yi34 = ModelSpec::yi34B();
    EXPECT_EQ(yi34.kvHeadsPerWorker(2), 4); // §5.1.3 example
    EXPECT_EQ(yi34.qHeadsPerWorker(2), 28);
    EXPECT_EQ(yi34.kvBytesPerTokenPerWorker(2), 120 * KiB);
    test::ScopedThrowErrors guard;
    EXPECT_THROW(yi34.kvHeadsPerWorker(3), SimError);
}

TEST(ModelSpec, WeightBytes)
{
    const auto yi6 = ModelSpec::yi6B();
    EXPECT_NEAR(static_cast<double>(yi6.weightBytesPerWorker(1)) /
                    static_cast<double>(GiB),
                11.3, 0.5); // ~6B params * 2 bytes
    EXPECT_EQ(yi6.weightBytesPerWorker(2),
              yi6.weightBytesPerWorker(1) / 2);
}

TEST(GpuSpec, Presets)
{
    const auto a100 = GpuSpec::a100();
    EXPECT_EQ(a100.mem_bytes, 80 * GiB);
    EXPECT_NEAR(a100.fp16_flops / 1e12, 312, 1);
    const auto h100 = GpuSpec::h100();
    EXPECT_GT(h100.fp16_flops, 2 * a100.fp16_flops);
    EXPECT_GT(h100.hbm_bytes_per_s, a100.hbm_bytes_per_s);
}

// ---------------------------------------------------------------
// Calibration anchors from the paper's measurements.
// ---------------------------------------------------------------

TEST(KernelModel, Table6PrefillAttentionAnchors)
{
    // Table 6 (vAttention columns, attention time in seconds).
    const i64 kCtx = 192 * 1024;
    {
        KernelModel model(GpuSpec::a100(), ModelSpec::yi6B(), 1);
        const double t = static_cast<double>(model.prefillAttention(
                             BackendKind::kFa2VAttention, kCtx, kCtx)) /
                         1e9;
        EXPECT_NEAR(t, 53.6, 8.0); // paper: 53.6s
    }
    {
        KernelModel model(GpuSpec::a100(), ModelSpec::llama3_8B(), 2);
        const double t = static_cast<double>(model.prefillAttention(
                             BackendKind::kFa2VAttention, kCtx, kCtx)) /
                         1e9;
        EXPECT_NEAR(t, 26.9, 4.0); // paper: 26.9s
    }
    {
        KernelModel model(GpuSpec::a100(), ModelSpec::yi34B(), 2);
        const double t = static_cast<double>(model.prefillAttention(
                             BackendKind::kFa2VAttention, kCtx, kCtx)) /
                         1e9;
        EXPECT_NEAR(t, 98.8, 15.0); // paper: 98.8s
    }
}

TEST(KernelModel, Table6TotalPrefillAnchors)
{
    KernelModel model(GpuSpec::a100(), ModelSpec::yi6B(), 1);
    const double total =
        static_cast<double>(
            model.prefillAttention(BackendKind::kFa2VAttention,
                                   192 * 1024, 192 * 1024) +
            model.prefillLinear(192 * 1024)) /
        1e9;
    EXPECT_NEAR(total, 64.6, 9.0); // paper: 64.6s
}

TEST(KernelModel, Table7DecodeAttentionAnchors)
{
    // Table 7: attention latency per decode iteration, 16K ctx.
    struct Anchor
    {
        ModelSpec model;
        int tp;
        i64 batch;
        double fa2_ms;
        double vllm_ms;
    };
    const Anchor anchors[] = {
        {ModelSpec::yi6B(), 1, 16, 11.3, 32.3},
        {ModelSpec::yi6B(), 1, 32, 25.3, 64.1},
        {ModelSpec::llama3_8B(), 2, 16, 11.8, 17.8},
        {ModelSpec::llama3_8B(), 2, 32, 25.3, 35.3},
        {ModelSpec::yi34B(), 2, 16, 21.8, 55.1},
    };
    for (const auto &anchor : anchors) {
        KernelModel model(GpuSpec::a100(), anchor.model, anchor.tp);
        const i64 total_kv = anchor.batch * 16 * 1024;
        const double fa2 =
            static_cast<double>(model.decodeAttention(
                BackendKind::kFa2VAttention, {&total_kv, 1})) /
            1e6;
        EXPECT_NEAR(fa2, anchor.fa2_ms, anchor.fa2_ms * 0.25)
            << anchor.model.name << " bs=" << anchor.batch;
        const double vllm = static_cast<double>(model.decodeAttention(
                                BackendKind::kVllmPaged, {&total_kv, 1})) /
                            1e6;
        EXPECT_NEAR(vllm, anchor.vllm_ms, anchor.vllm_ms * 0.25)
            << anchor.model.name << " bs=" << anchor.batch;
    }
}

TEST(KernelModel, Figure2PagedPrefillOverheads)
{
    KernelModel model(GpuSpec::a100(), ModelSpec::llama3_8B(), 1);
    // FA2 overhead grows with context: 1.07x @1K ... 1.37x @32K.
    EXPECT_NEAR(model.prefillPagedOverhead(KernelFamily::kFa2, 1024),
                1.07, 0.01);
    EXPECT_NEAR(model.prefillPagedOverhead(KernelFamily::kFa2, 32768),
                1.37, 0.01);
    // FI overhead peaks at short context (1.42x @1K).
    EXPECT_NEAR(model.prefillPagedOverhead(KernelFamily::kFi, 1024),
                1.42, 0.01);
    EXPECT_NEAR(model.prefillPagedOverhead(KernelFamily::kFi, 16384),
                1.25, 0.01);
    // Paged prefill is strictly slower than non-paged everywhere.
    for (i64 ctx = 1024; ctx <= 192 * 1024; ctx *= 2) {
        EXPECT_GT(model.prefillAttention(BackendKind::kFa2Paged, ctx,
                                         ctx),
                  model.prefillAttention(BackendKind::kFa2VAttention,
                                         ctx, ctx));
        EXPECT_GT(model.prefillAttention(BackendKind::kFiPaged, ctx,
                                         ctx),
                  model.prefillAttention(BackendKind::kFiVAttention,
                                         ctx, ctx));
    }
}

TEST(KernelModel, Figure3BlockSizeSensitivity)
{
    KernelModel model(GpuSpec::a100(), ModelSpec::llama3_8B(), 1);
    const i64 tokens = 4 * 16 * 1024;
    EXPECT_DOUBLE_EQ(model.vllmBlockSizeFactor(16, tokens), 1.0);
    EXPECT_NEAR(model.vllmBlockSizeFactor(32, tokens), 1.04, 0.01);
    EXPECT_NEAR(model.vllmBlockSizeFactor(64, tokens), 1.45, 0.01);
    EXPECT_NEAR(model.vllmBlockSizeFactor(128, tokens), 1.90, 0.01);
    // The paper's headline: changing block size changes latency by
    // up to 1.9x.
    const auto t16 =
        model.decodeAttention(BackendKind::kVllmPaged, {&tokens, 1}, 16);
    const auto t128 =
        model.decodeAttention(BackendKind::kVllmPaged, {&tokens, 1}, 128);
    EXPECT_NEAR(static_cast<double>(t128) / static_cast<double>(t16),
                1.9, 0.05);
}

TEST(KernelModel, GqaRatioDrivesVllmGap)
{
    // Table 7: vLLM's kernel disadvantage tracks the GQA ratio:
    // 2.8x (Yi-6B, ratio 8), ~1.45x (Llama-3-8B, ratio 4).
    KernelModel yi6(GpuSpec::a100(), ModelSpec::yi6B(), 1);
    KernelModel llama(GpuSpec::a100(), ModelSpec::llama3_8B(), 1);
    EXPECT_NEAR(yi6.decodeBackendFactor(BackendKind::kVllmPaged), 2.8,
                0.1);
    EXPECT_NEAR(llama.decodeBackendFactor(BackendKind::kVllmPaged),
                1.45, 0.1);
    // FA2 paged decode is nearly free (§7.2).
    EXPECT_NEAR(yi6.decodeBackendFactor(BackendKind::kFa2Paged), 1.02,
                0.01);
    EXPECT_DOUBLE_EQ(
        yi6.decodeBackendFactor(BackendKind::kFa2VAttention), 1.0);
}

TEST(KernelModel, Fa3RequiresHopperAndIsFaster)
{
    test::ScopedThrowErrors guard;
    KernelModel a100(GpuSpec::a100(), ModelSpec::yi6B(), 1);
    EXPECT_THROW(a100.prefillAttention(BackendKind::kFa3VAttention,
                                       16 * 1024, 16 * 1024),
                 SimError);
    KernelModel h100(GpuSpec::h100(), ModelSpec::yi6B(), 1);
    const i64 ctx = 64 * 1024;
    const auto fa3 =
        h100.prefillAttention(BackendKind::kFa3VAttention, ctx, ctx);
    const auto fa2 =
        h100.prefillAttention(BackendKind::kFa2VAttention, ctx, ctx);
    const double speedup =
        static_cast<double>(fa2) / static_cast<double>(fa3);
    EXPECT_GT(speedup, 1.2); // §7.5: FA3 1.26-1.5x end to end
    EXPECT_LT(speedup, 1.6);
}

TEST(KernelModel, DecodeThroughputSaturates)
{
    // Figure 4a: tokens/s = B/iter flattens at large batch.
    KernelModel model(GpuSpec::a100(), ModelSpec::yi6B(), 1);
    OverheadModel overhead;
    auto tput = [&](i64 batch) {
        const i64 total_kv = batch * 1024;
        const TimeNs iter =
            model.decodeLinear(batch) +
            model.decodeAttention(BackendKind::kFa2VAttention,
                                  {&total_kv, 1}) +
            overhead.decodeCpu(BackendKind::kFa2VAttention, batch, 0,
                               0);
        return static_cast<double>(batch) /
               (static_cast<double>(iter) / 1e9);
    };
    const double t1 = tput(1);
    const double t64 = tput(64);
    const double t256 = tput(256);
    const double t320 = tput(320);
    EXPECT_GT(t64, 10 * t1);          // near-linear at small batch
    EXPECT_LT(t320 / t256, 1.10);     // saturated at large batch
    EXPECT_NEAR(t256, 6000, 2500);    // Figure 4a scale (~5-6K tok/s)
}

TEST(KernelModel, CommTimeOnlyWithTp)
{
    KernelModel tp1(GpuSpec::a100(), ModelSpec::llama3_8B(), 1);
    KernelModel tp2(GpuSpec::a100(), ModelSpec::llama3_8B(), 2);
    EXPECT_EQ(tp1.commTime(1000), 0u);
    EXPECT_GT(tp2.commTime(1000), 0u);
    EXPECT_GT(tp2.commTime(100000), tp2.commTime(1000));
}

TEST(KernelModel, TlbPenaltyIsTiny)
{
    // §7.6.3: 64KB pages add no measurable kernel slowdown. 1000
    // page walks cost ~0.1ms against multi-ms kernels.
    EXPECT_EQ(KernelModel::tlbWalkPenalty(1000), 100'000u);
}

TEST(OverheadModel, PaddedBlockTableCost)
{
    OverheadModel overhead;
    // vLLM: batch 32, longest request 1000 blocks -> 32K entries at
    // 100ns ~ 3.2ms, the "up to 10%" CPU overhead of §3.3.2.
    const TimeNs vllm =
        overhead.decodeCpu(BackendKind::kVllmPaged, 32, 1000, 4000);
    const TimeNs vattn = overhead.decodeCpu(
        BackendKind::kFa2VAttention, 32, 0, 0);
    EXPECT_GT(vllm, vattn + 3 * kMsec);
    // FlashInfer's CSR is cheaper than padded but pays object churn.
    const TimeNs fi =
        overhead.decodeCpu(BackendKind::kFiPaged, 32, 1000, 4000);
    EXPECT_LT(fi, vllm);
    EXPECT_GT(fi, vattn);
}

TEST(OverheadModel, PrefillAppendCosts)
{
    OverheadModel overhead;
    // Paged append is per-block; vAttention is one tensor copy (§7.1).
    const TimeNs paged =
        overhead.prefillCpu(BackendKind::kFiPaged, 1, 1024);
    const TimeNs vattn =
        overhead.prefillCpu(BackendKind::kFiVAttention, 1, 0);
    EXPECT_GT(paged, vattn);
}

TEST(BackendKind, Predicates)
{
    EXPECT_TRUE(isPaged(BackendKind::kVllmPaged));
    EXPECT_TRUE(isPaged(BackendKind::kFa2Paged));
    EXPECT_FALSE(isPaged(BackendKind::kFa2VAttention));
    EXPECT_EQ(kernelFamily(BackendKind::kFiPaged), KernelFamily::kFi);
    EXPECT_EQ(defaultBlockSize(BackendKind::kVllmPaged), 16);
    EXPECT_EQ(defaultBlockSize(BackendKind::kFa2Paged), 256);
    EXPECT_EQ(defaultBlockSize(BackendKind::kFa2VAttention), 0);
    EXPECT_STREQ(toString(BackendKind::kFa2VAttention),
                 "FA2_vAttention");
}

} // namespace
} // namespace vattn::perf
