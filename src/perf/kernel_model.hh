/**
 * @file
 * Analytic GPU kernel timing model: roofline (compute-bound prefill
 * attention and linear ops, bandwidth-bound decode attention and
 * weight streaming) plus per-back-end paging-overhead curves calibrated
 * from the paper's own kernel measurements (Figures 2-3, Tables 6-7).
 *
 * The functional CPU kernels in attn/ prove the memory layouts work;
 * this model plays the role of the A100/H100 silicon so end-to-end
 * experiments reproduce the paper's *relative* behaviour at full scale.
 * Calibration anchors are asserted in tests/perf/test_model_kernel.cc.
 *
 * Attention is priced through one prefill and one decode path over the
 * model's window classes; a uniform model is the one-window-class case,
 * not a separate formula.
 */

#ifndef VATTN_PERF_KERNEL_MODEL_HH
#define VATTN_PERF_KERNEL_MODEL_HH

#include <span>
#include <vector>

#include "common/types.hh"
#include "perf/backend_kind.hh"
#include "perf/gpu_spec.hh"
#include "perf/model_spec.hh"
#include "perf/nccl_spec.hh"

namespace vattn::perf
{

/** Per-worker kernel latency model for one (GPU, model, TP) triple. */
class KernelModel
{
  public:
    /**
     * @param nccl collective cost model pricing the TP all-reduces; an
     *        unset spec (the default) resolves to NcclSpec::legacy over
     *        the GPU's NVLink bandwidth — bit-for-bit the historical
     *        hardcoded commTime constants.
     */
    KernelModel(GpuSpec gpu, ModelSpec model, int tp,
                NcclSpec nccl = {});

    const GpuSpec &gpu() const { return gpu_; }
    const ModelSpec &model() const { return model_; }
    int tp() const { return tp_; }
    const NcclSpec &nccl() const { return nccl_; }

    // ---- Attention ---------------------------------------------------
    // Every model is priced as a set of window classes (layers sharing
    // one attention window, ModelSpec::windowClasses()): a uniform
    // model is the one-class case {full attention, all layers}, and a
    // sliding-window layer attends over min(kv, window) tokens, so an
    // interleaved model streams less KV (decode) and runs a banded
    // score matrix (prefill).

    /**
     * Prefill attention of a @p q_len-token query chunk attending
     * causally over a @p kv_len-token context (the chunk itself plus
     * everything prefilled before it, so q_len <= kv_len; q_len ==
     * kv_len is a whole prompt). Each window class pays the banded
     * causal trapezoid at 4 FLOPs per attended key-token unit — for
     * full attention 4*q*kv - 2*q^2 per head-dim unit. Includes the
     * paged-kernel overhead for paged back-ends.
     */
    TimeNs prefillAttention(BackendKind kind, i64 q_len,
                            i64 kv_len) const;

    /**
     * Decode attention for one iteration over a batch of KV lengths:
     * each window class streams sum over requests of min(kv, window)
     * tokens of KV. @p block_size overrides the back-end default block
     * size (vLLM block-size sensitivity, Figure 3). For a uniform
     * model only the total matters, so a one-element span holding the
     * batch's summed length prices the same batch.
     */
    TimeNs decodeAttention(BackendKind kind,
                           std::span<const i64> kv_lens,
                           int block_size = 0) const;

    /**
     * The same price from the batch's sums: @p total_kv is the summed
     * KV length and @p attended[c] the tokens window class c attends
     * (windowClasses() order: total_kv for full attention, the sum of
     * min(kv, window) for a window class). Both overloads evaluate one
     * expression, so the same integers give the same time.
     */
    TimeNs decodeAttention(BackendKind kind, i64 total_kv,
                           std::span<const i64> attended,
                           int block_size = 0) const;

    /** The model's window classes, resolved once (full class first). */
    const std::vector<ModelSpec::WindowClass> &
    windowClasses() const
    {
        return classes_;
    }

    /** Attended key-token units of one window class for a chunk
     *  (q_len == kv_len is a whole prompt); exposed for tests. */
    static double windowedAttendedUnits(i64 q_len, i64 kv_len,
                                        i64 window_tokens);

    // ---- Non-attention operators ---------------------------------------

    /** Linear/positionwise operators for @p tokens prefill tokens. */
    TimeNs prefillLinear(i64 tokens) const;

    /** Linear operators for one decode iteration of @p batch requests. */
    TimeNs decodeLinear(i64 batch) const;

    /** Tensor-parallel all-reduce time for one iteration moving
     *  @p tokens activations (0 when TP=1). */
    TimeNs commTime(i64 tokens) const;

    // ---- Calibrated factors (exposed for tests/benches) -----------------

    /** Paged/non-paged prefill kernel ratio (Figure 2 / Table 6). */
    double prefillPagedOverhead(KernelFamily family, i64 ctx) const;

    /** vLLM decode latency multiplier vs its block-16 config
     *  (Figure 3); depends weakly on the total token count. */
    double vllmBlockSizeFactor(int block_size, i64 total_kv_tokens) const;

    /** Decode kernel multiplier of a back-end vs the non-paged FA2
     *  kernel (Table 7: vLLM up to 2.8x, driven by the GQA ratio). */
    double decodeBackendFactor(BackendKind kind) const;

    /** Compute efficiency of a kernel family's prefill kernel. */
    double prefillEfficiency(KernelFamily family) const;

    /** Extra kernel time due to TLB misses (page-size study §7.6.3);
     *  walks overlap with memory latency almost entirely. */
    static TimeNs tlbWalkPenalty(u64 page_walks);

  private:
    bool isHopper() const;
    /** Decode attention time once each class's attended tokens are
     *  known: @p attended(c) gives class c's count. */
    template <typename Attended>
    TimeNs decodeAttentionOver(BackendKind kind, i64 total_kv,
                               Attended attended, int block_size) const;

    GpuSpec gpu_;
    ModelSpec model_;
    int tp_;
    NcclSpec nccl_;
    /** model_.windowClasses(), resolved once (full class first). */
    std::vector<ModelSpec::WindowClass> classes_;
    /** model_.numParams() and model_.weightBytesPerWorker(tp_),
     *  constant for the model's life and read every iteration by the
     *  linear-operator prices. */
    double num_params_;
    u64 worker_weight_bytes_ = 0;
};

} // namespace vattn::perf

#endif // VATTN_PERF_KERNEL_MODEL_HH
