/**
 * @file
 * Sliding-window attention in the performance model: the banded
 * trapezoid attended-unit formula, the one attention path reproducing
 * the uniform closed forms bit for bit on one-class models, the cost
 * reduction on interleaved models, and the ModelSpec window-class
 * bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "perf/kernel_model.hh"
#include "test_util.hh"

namespace vattn::perf
{
namespace
{

TEST(ModelSpecWindows, InterleaveMarksOddLayers)
{
    const auto base = ModelSpec::yi6B();
    EXPECT_TRUE(base.layer_window_tokens.empty());
    EXPECT_EQ(base.windowClasses().size(), 1u);
    EXPECT_EQ(base.windowClasses()[0].layers, base.num_layers);

    const auto swa = base.withSlidingWindowInterleave(4096);
    ASSERT_EQ(static_cast<int>(swa.layer_window_tokens.size()),
              swa.num_layers);
    EXPECT_EQ(swa.name, base.name + "-swa4096");
    // Every period-th layer keeps full attention; the rest slide.
    EXPECT_EQ(swa.layer_window_tokens[0], 0);
    EXPECT_EQ(swa.layer_window_tokens[1], 4096);
    EXPECT_EQ(swa.layer_window_tokens[2], 0);
    EXPECT_EQ(swa.layer_window_tokens[3], 4096);

    const auto classes = swa.windowClasses();
    ASSERT_EQ(classes.size(), 2u);
    // Full-attention class first, then the 4K window class; the 1:1
    // interleave splits the layers evenly.
    EXPECT_EQ(classes[0].window_tokens, 0);
    EXPECT_EQ(classes[1].window_tokens, 4096);
    EXPECT_EQ(classes[0].layers + classes[1].layers, swa.num_layers);
    EXPECT_EQ(classes[1].layers, swa.num_layers / 2);
}

TEST(ModelSpecWindows, InterleaveRejectsBadArguments)
{
    test::ScopedThrowErrors guard;
    EXPECT_THROW(ModelSpec::yi6B().withSlidingWindowInterleave(0),
                 SimError);
    EXPECT_THROW(ModelSpec::yi6B().withSlidingWindowInterleave(4096, 1),
                 SimError);
}

TEST(WindowedAttendedUnits, MatchesClosedForms)
{
    using KM = KernelModel;
    // Full attention (w = 0) and contexts inside the window reproduce
    // the causal trapezoid (kv - q/2) * q.
    EXPECT_DOUBLE_EQ(KM::windowedAttendedUnits(100, 100, 0),
                     (100 - 50.0) * 100);
    EXPECT_DOUBLE_EQ(KM::windowedAttendedUnits(100, 300, 1000),
                     (300 - 50.0) * 100);
    // Chunk entirely past the window: every query attends w keys.
    EXPECT_DOUBLE_EQ(KM::windowedAttendedUnits(64, 5000, 256),
                     64.0 * 256);
    // Straddling chunk: kv0 = 0, kv = 300, w = 200 -> the first 200
    // queries ramp 1..200, the last 100 attend 200 each.
    // Model's continuous band: w^2/2 + (kv - w) * w = 40000.
    EXPECT_DOUBLE_EQ(KM::windowedAttendedUnits(300, 300, 200),
                     200.0 * 200 / 2 + 100.0 * 200);
    // Monotonic in kv, bounded by q * w.
    EXPECT_LE(KM::windowedAttendedUnits(64, 100000, 256), 64.0 * 256);
}

// The pre-window-class uniform formulas, written out as the closed-form
// reference a one-class (uniform) model must reproduce bit for bit.
constexpr TimeNs kLaunchNsPerLayer = 3000;
constexpr double kDecodeMemEff = 0.72;

TimeNs
uniformPrefillReference(const KernelModel &model, BackendKind kind,
                        i64 q_len, i64 kv_len)
{
    const ModelSpec &spec = model.model();
    const double q_heads = spec.qHeadsPerWorker(model.tp());
    const double flops = (4.0 * static_cast<double>(kv_len) -
                          2.0 * static_cast<double>(q_len)) *
                         static_cast<double>(q_len) * q_heads *
                         spec.head_dim * spec.num_layers;
    const KernelFamily family = kernelFamily(kind);
    double seconds =
        flops / (model.gpu().fp16_flops * model.prefillEfficiency(family));
    const double ramp = static_cast<double>(q_len) /
                        (static_cast<double>(q_len) + 1024.0);
    seconds /= ramp;
    if (isPaged(kind)) {
        seconds *= model.prefillPagedOverhead(family, kv_len);
    }
    return static_cast<TimeNs>(seconds * 1e9) +
           kLaunchNsPerLayer * static_cast<u64>(spec.num_layers);
}

TimeNs
uniformDecodeReference(const KernelModel &model, BackendKind kind,
                       const std::vector<i64> &kv_lens, int block_size)
{
    const ModelSpec &spec = model.model();
    i64 total = 0;
    for (i64 kv : kv_lens) {
        total += std::max<i64>(kv, 0);
    }
    if (total <= 0) {
        return 0;
    }
    const double bytes =
        static_cast<double>(total) *
        static_cast<double>(spec.kvBytesPerTokenPerWorker(model.tp()));
    double seconds = bytes / (model.gpu().hbm_bytes_per_s * kDecodeMemEff);
    seconds *= model.decodeBackendFactor(kind);
    if (kind == BackendKind::kVllmPaged) {
        const int bs = block_size > 0 ? block_size
                                      : defaultBlockSize(kind);
        seconds *= model.vllmBlockSizeFactor(bs, total);
    }
    return static_cast<TimeNs>(seconds * 1e9) +
           kLaunchNsPerLayer * static_cast<u64>(spec.num_layers);
}

TEST(WindowedKernelPaths, DelegateVerbatimOnUniformModels)
{
    // A uniform model is the one-window-class case of the single
    // attention path: seeded sweep over every ModelSpec preset, legal TP
    // degree and back-end (FA3 on Hopper), against the closed forms.
    std::mt19937_64 rng(20240501);
    const auto uniform = [&rng](i64 lo, i64 hi) {
        return std::uniform_int_distribution<i64>(lo, hi)(rng);
    };
    const int vllm_blocks[] = {0, 16, 32, 64, 128};
    struct Target
    {
        GpuSpec gpu;
        BackendKind kind;
    };
    const Target targets[] = {
        {GpuSpec::a100(), BackendKind::kVllmPaged},
        {GpuSpec::a100(), BackendKind::kFa2Paged},
        {GpuSpec::a100(), BackendKind::kFiPaged},
        {GpuSpec::a100(), BackendKind::kFa2VAttention},
        {GpuSpec::a100(), BackendKind::kFiVAttention},
        {GpuSpec::h100(), BackendKind::kFa3VAttention},
    };
    int combos = 0;
    for (const ModelSpec &spec :
         {ModelSpec::yi6B(), ModelSpec::llama3_8B(), ModelSpec::yi34B(),
          ModelSpec::llama3_70B(), ModelSpec::gpt3_175B()}) {
        for (int tp : {1, 2, 4, 8}) {
            if (spec.num_kv_heads % tp != 0 ||
                spec.num_q_heads % tp != 0) {
                continue;
            }
            for (const Target &target : targets) {
                const KernelModel model(target.gpu, spec, tp);
                ++combos;
                for (int i = 0; i < 400; ++i) {
                    const i64 q_len = uniform(1, 128 * 1024);
                    const i64 kv_len = q_len + uniform(0, 128 * 1024);
                    EXPECT_EQ(model.prefillAttention(target.kind, q_len,
                                                     kv_len),
                              uniformPrefillReference(model, target.kind,
                                                      q_len, kv_len))
                        << spec.name << " tp=" << tp << " "
                        << toString(target.kind) << " q=" << q_len
                        << " kv=" << kv_len;

                    std::vector<i64> kv_lens(
                        static_cast<std::size_t>(uniform(0, 48)));
                    for (i64 &kv : kv_lens) {
                        kv = uniform(0, 64 * 1024);
                    }
                    const int block =
                        target.kind == BackendKind::kVllmPaged
                            ? vllm_blocks[uniform(0, 4)]
                            : 0;
                    EXPECT_EQ(model.decodeAttention(target.kind, kv_lens,
                                                    block),
                              uniformDecodeReference(model, target.kind,
                                                     kv_lens, block))
                        << spec.name << " tp=" << tp << " "
                        << toString(target.kind)
                        << " batch=" << kv_lens.size();
                }
            }
        }
    }
    // Every preset runs at TP-1 at least.
    EXPECT_GE(combos, 5 * 6);
}

TEST(WindowedKernelPaths, InterleaveCutsLongContextCost)
{
    const auto swa = ModelSpec::yi6B().withSlidingWindowInterleave(4096);
    const KernelModel uniform(GpuSpec::a100(), ModelSpec::yi6B(), 1);
    const KernelModel windowed(GpuSpec::a100(), swa, 1);
    const auto kind = BackendKind::kFa2VAttention;

    // 64K-token decode batch: windowed layers stream min(kv, 4096),
    // so the interleaved model reads well under the uniform bytes.
    const std::vector<i64> kv_lens = {64 * 1024};
    EXPECT_LT(windowed.decodeAttention(kind, kv_lens),
              uniform.decodeAttention(kind, kv_lens));

    // Prefill chunk deep into a long context: half the layers run the
    // banded kernel, so attention time drops but stays above half the
    // uniform cost (the full layers still pay in full).
    const TimeNs uni = uniform.prefillAttention(kind, 2048, 64 * 1024);
    const TimeNs win = windowed.prefillAttention(kind, 2048, 64 * 1024);
    EXPECT_LT(win, uni);
    EXPECT_GT(win, uni / 2);

    // Short contexts inside the window cost the same.
    EXPECT_EQ(windowed.prefillAttention(kind, 1024, 1024),
              uniform.prefillAttention(kind, 1024, 1024));
}

} // namespace
} // namespace vattn::perf
