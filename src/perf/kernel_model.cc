#include "perf/kernel_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace vattn::perf
{

namespace
{

/** Piecewise-linear interpolation over log2(ctx). */
double
interpLogCtx(const double *ctx_points, const double *values, int n,
             i64 ctx)
{
    const double x = std::log2(static_cast<double>(std::max<i64>(ctx, 1)));
    if (x <= ctx_points[0]) {
        return values[0];
    }
    if (x >= ctx_points[n - 1]) {
        return values[n - 1];
    }
    for (int i = 1; i < n; ++i) {
        if (x <= ctx_points[i]) {
            const double t =
                (x - ctx_points[i - 1]) / (ctx_points[i] - ctx_points[i - 1]);
            return values[i - 1] + t * (values[i] - values[i - 1]);
        }
    }
    return values[n - 1];
}

// Figure 2 + Table 6 calibration: paged-over-non-paged prefill kernel
// ratio vs context length (log2 of tokens).
constexpr double kOverheadCtx[] = {10, 11, 12, 13, 14, 15, 16, 17, 17.6};
constexpr double kFa2PagedOverhead[] = {
    1.07, 1.11, 1.26, 1.30, 1.36, 1.37, 1.34, 1.32, 1.31,
};
constexpr double kFiPagedOverhead[] = {
    1.42, 1.25, 1.28, 1.25, 1.25, 1.26, 1.11, 1.09, 1.09,
};
constexpr int kNumOverheadPoints =
    static_cast<int>(sizeof(kOverheadCtx) / sizeof(kOverheadCtx[0]));

/** Kernel launch overhead per layer. */
constexpr TimeNs kLaunchNsPerLayer = 3000;

/** Fraction of peak HBM bandwidth decode attention sustains. */
constexpr double kDecodeMemEff = 0.72;
/** Fraction of peak HBM bandwidth weight streaming sustains. */
constexpr double kWeightMemEff = 0.85;
/** GEMM efficiency of the linear operators. */
constexpr double kLinearEff = 0.65;

} // namespace

KernelModel::KernelModel(GpuSpec gpu, ModelSpec model, int tp,
                         NcclSpec nccl)
    : gpu_(std::move(gpu)), model_(std::move(model)), tp_(tp),
      nccl_(std::move(nccl)), classes_(model_.windowClasses()),
      num_params_(model_.numParams())
{
    fatal_if(tp_ <= 0, "tensor parallel degree must be positive");
    worker_weight_bytes_ = model_.weightBytesPerWorker(tp_);
    if (!nccl_.enabled()) {
        // Unset spec: the historical hardcoded constants, derived from
        // this GPU's NVLink bandwidth (keeps default-config goldens
        // byte-identical).
        nccl_ = NcclSpec::legacy(gpu_.nvlink_bytes_per_s);
    }
}

bool
KernelModel::isHopper() const
{
    return gpu_.name.rfind("H100", 0) == 0;
}

double
KernelModel::prefillEfficiency(KernelFamily family) const
{
    if (family == KernelFamily::kFa3) {
        fatal_if(!isHopper(), "FA3 requires the Hopper architecture");
        return 0.62; // warp-specialized / TMA pipeline (§7.5)
    }
    // FA2/FI are tuned for Ampere; on Hopper they leave the new
    // hardware idle, which is exactly why FA3 wins in Figure 11.
    return isHopper() ? 0.46 : 0.60;
}

double
KernelModel::prefillPagedOverhead(KernelFamily family, i64 ctx) const
{
    switch (family) {
      case KernelFamily::kFa2:
        return interpLogCtx(kOverheadCtx, kFa2PagedOverhead,
                            kNumOverheadPoints, ctx);
      case KernelFamily::kFi:
        return interpLogCtx(kOverheadCtx, kFiPagedOverhead,
                            kNumOverheadPoints, ctx);
      case KernelFamily::kVllm:
        // vLLM has no paged prefill kernel (§7.2); it falls back to a
        // non-paged prefill (xformers-style), modelled as FA2-like.
        return interpLogCtx(kOverheadCtx, kFa2PagedOverhead,
                            kNumOverheadPoints, ctx);
      case KernelFamily::kFa3:
        panic("FA3 has no paged kernel (that is the point, §7.5)");
    }
    return 1.0;
}

double
KernelModel::vllmBlockSizeFactor(int block_size,
                                 i64 total_kv_tokens) const
{
    // Figure 3: larger blocks hurt L1 efficiency badly. The single-
    // sequence case (<=16K tokens) shows a flatter curve at 64 but the
    // same 1.9x cliff at 128.
    const bool single_seq = total_kv_tokens <= 16 * 1024;
    switch (block_size) {
      case 16: return 1.0;
      case 32: return single_seq ? 1.13 : 1.04;
      case 64: return single_seq ? 1.26 : 1.45;
      case 128: return 1.90;
      default:
        fatal("unsupported vLLM block size ", block_size);
    }
    return 1.0;
}

double
KernelModel::decodeBackendFactor(BackendKind kind) const
{
    const double gqa = static_cast<double>(model_.num_q_heads) /
                       static_cast<double>(model_.num_kv_heads);
    switch (kernelFamily(kind)) {
      case KernelFamily::kVllm:
        // vLLM's kernel predates the GQA optimizations of
        // FlashDecoding: it re-reads KV per query-head group, so its
        // disadvantage grows with the GQA ratio (Table 7: 2.8x for
        // Yi-6B [ratio 8], 1.5x for Llama-3-8B [ratio 4]).
        return std::max(1.0, 0.10 + 0.3375 * gqa);
      case KernelFamily::kFi:
        return isPaged(kind) ? std::max(1.0, 1.0 + 0.08 * (gqa - 4.0))
                             : 1.0;
      case KernelFamily::kFa2:
        // FA2's paged decode kernel is nearly as fast as non-paged
        // (§7.2: decode attention is memory bound, the extra paging
        // arithmetic hides under memory stalls).
        return isPaged(kind) ? 1.02 : 1.0;
      case KernelFamily::kFa3:
        return 0.95; // slightly better decode pipelining on Hopper
    }
    return 1.0;
}

double
KernelModel::windowedAttendedUnits(i64 q_len, i64 kv_len,
                                   i64 window_tokens)
{
    const double q = static_cast<double>(q_len);
    const double kv = static_cast<double>(kv_len);
    const double w = static_cast<double>(window_tokens);
    const double kv0 = kv - q; // committed tokens before the chunk
    if (window_tokens <= 0 || kv_len <= window_tokens) {
        // Full causal trapezoid: the q query rows attend the kv - q
        // committed tokens plus the lower triangle of the chunk.
        return (kv - q / 2.0) * q;
    }
    if (kv0 >= w) {
        // The whole chunk is past the ramp: every query row attends
        // exactly w keys.
        return q * w;
    }
    // The chunk straddles the ramp: rows up to position w attend
    // p + 1 keys (integral (w^2 - kv0^2) / 2), the rest attend w.
    return (w * w - kv0 * kv0) / 2.0 + (kv - w) * w;
}

TimeNs
KernelModel::prefillAttention(BackendKind kind, i64 q_len,
                              i64 kv_len) const
{
    panic_if(q_len <= 0, "prefillAttention with no query tokens");
    panic_if(kv_len < q_len,
             "chunk KV context shorter than the query chunk");
    const double q_heads = model_.qHeadsPerWorker(tp_);
    // QK^T and PV matmuls, 2 FLOPs per MAC: 4 FLOPs per attended
    // key-token unit per head-dim unit per layer. A full-attention
    // class pays (4*kv - 2*q) * q; q_len == kv_len == ctx is the
    // monolithic prefill's 4 * ctx^2 / 2.
    double flops = 0.0;
    for (const ModelSpec::WindowClass &cls : classes_) {
        flops += 4.0 *
                 windowedAttendedUnits(q_len, kv_len,
                                       cls.window_tokens) *
                 q_heads * model_.head_dim * cls.layers;
    }
    const KernelFamily family = kernelFamily(kind);
    const double eff = prefillEfficiency(family);
    double seconds = flops / (gpu_.fp16_flops * eff);

    // Short query chunks cannot fill the GPU; ramp efficiency down.
    const double ramp = static_cast<double>(q_len) /
                        (static_cast<double>(q_len) + 1024.0);
    seconds /= ramp;

    if (isPaged(kind)) {
        seconds *= prefillPagedOverhead(family, kv_len);
    }
    return static_cast<TimeNs>(seconds * 1e9) +
           kLaunchNsPerLayer * static_cast<u64>(model_.num_layers);
}

TimeNs
KernelModel::decodeAttention(BackendKind kind,
                             std::span<const i64> kv_lens,
                             int block_size) const
{
    i64 total = 0;
    for (i64 kv : kv_lens) {
        total += std::max<i64>(kv, 0);
    }
    if (total <= 0) {
        return 0;
    }
    // Decode attention streams the attended KV once per iteration:
    // memory bound (§7.2, "memory bound nature of decode attention").
    // Every layer reads K and V of kv_heads * head_dim * P bytes per
    // attended token. A full-attention class attends the whole total;
    // only window classes walk the batch again to clamp each request.
    const double layer_token_bytes =
        2.0 * model_.kvHeadsPerWorker(tp_) * model_.head_dim *
        model_.bytes_per_elem;
    double bytes = 0.0;
    for (const ModelSpec::WindowClass &cls : classes_) {
        i64 attended = total;
        if (cls.window_tokens > 0) {
            attended = 0;
            for (i64 kv : kv_lens) {
                attended += std::min(std::max<i64>(kv, 0),
                                     cls.window_tokens);
            }
        }
        bytes += static_cast<double>(attended) * layer_token_bytes *
                 cls.layers;
    }
    double seconds = bytes / (gpu_.hbm_bytes_per_s * kDecodeMemEff);

    seconds *= decodeBackendFactor(kind);
    if (kind == BackendKind::kVllmPaged) {
        const int bs = block_size > 0 ? block_size
                                      : defaultBlockSize(kind);
        seconds *= vllmBlockSizeFactor(bs, total);
    }
    return static_cast<TimeNs>(seconds * 1e9) +
           kLaunchNsPerLayer * static_cast<u64>(model_.num_layers);
}

TimeNs
KernelModel::prefillLinear(i64 tokens) const
{
    if (tokens <= 0) {
        return 0;
    }
    const double flops =
        2.0 * num_params_ / tp_ * static_cast<double>(tokens);
    const double compute_s = flops / (gpu_.fp16_flops * kLinearEff);
    const double memory_s =
        static_cast<double>(worker_weight_bytes_) /
        (gpu_.hbm_bytes_per_s * kWeightMemEff);
    return static_cast<TimeNs>(std::max(compute_s, memory_s) * 1e9);
}

TimeNs
KernelModel::decodeLinear(i64 batch) const
{
    if (batch <= 0) {
        return 0;
    }
    const double flops =
        2.0 * num_params_ / tp_ * static_cast<double>(batch);
    const double compute_s = flops / (gpu_.fp16_flops * kLinearEff);
    // Every iteration re-streams the weights; this floor is what makes
    // small-batch decode memory bound and throughput saturate with
    // batch size (Figure 4).
    const double memory_s =
        static_cast<double>(worker_weight_bytes_) /
        (gpu_.hbm_bytes_per_s * kWeightMemEff);
    return static_cast<TimeNs>(std::max(compute_s, memory_s) * 1e9);
}

TimeNs
KernelModel::commTime(i64 tokens) const
{
    if (tp_ <= 1 || tokens <= 0) {
        return 0;
    }
    // Two all-reduces per layer (attention out + MLP out) over the
    // iteration's activation tensor. The spec prices one collective in
    // seconds; the single nanosecond cast happens here, exactly where
    // the historical formula cast it, so the legacy default spec is
    // bit-identical to the old hardcoded arithmetic.
    const double payload_bytes = static_cast<double>(tokens) *
                                 model_.hidden_size *
                                 model_.bytes_per_elem;
    const double per_allreduce_s =
        nccl_.allReduceSeconds(payload_bytes, tp_);
    return static_cast<TimeNs>(per_allreduce_s * 2.0 *
                               model_.num_layers * 1e9);
}

TimeNs
KernelModel::tlbWalkPenalty(u64 page_walks)
{
    // GPU page walks overlap aggressively with other warps' memory
    // traffic; the residual exposed cost per walk is tiny. This is the
    // mechanism behind the §7.6.3 finding that 64KB pages do not slow
    // attention kernels down.
    return page_walks * 100; // 100ns exposed per walk
}

} // namespace vattn::perf
