/**
 * @file
 * vAttention configuration: the init() parameters of Table 4 (N, B, L,
 * H, D, P and the preferred page-group size), which fix one per-token
 * KV footprint for every layer, each layer's sliding window, and
 * switches for each of the paper's optimizations so the ablations of
 * §7.6 can toggle them.
 */

#ifndef VATTN_CORE_CONFIG_HH
#define VATTN_CORE_CONFIG_HH

#include <vector>

#include "common/status.hh"
#include "common/types.hh"
#include "tensor/dtype.hh"

namespace vattn::core
{

/** Serving-worker configuration for the vAttention runtime. */
struct Config
{
    // ---- Model/worker shape (Table 2 notation) ---------------------
    int num_layers = 0;        ///< N: layers hosted by this worker
    int num_kv_heads = 0;      ///< H: KV heads on this worker
    int head_dim = 0;          ///< D
    int bytes_per_elem = 2;    ///< P (2 = FP16/BF16)
    int max_batch_size = 0;    ///< B
    i64 max_context_len = 0;   ///< L

    /**
     * Sliding-window width of each layer in tokens, 0 for a
     * full-attention layer (perf::ModelSpec::layer_window_tokens, the
     * same shape). Empty (the default) means every layer attends to
     * the whole context. A non-empty list has exactly num_layers
     * entries. Every layer shares the one per-token footprint above;
     * the window only decides how much of it stays mapped.
     */
    std::vector<i64> layer_window_tokens;

    // ---- Allocation policy ------------------------------------------
    /** Physical allocation granularity (§6.2). It also picks the
     *  driver path: 2MB groups use the stock cuMem* calls, smaller
     *  ones the vMem* extension, which exists only for them. */
    PageGroup page_group = PageGroup::k2MB;
    /** §8.2 layout: one [B, L, N, H, D] tensor per K/V instead of 2N
     *  per-layer tensors; shrinks the per-group token footprint N-fold. */
    bool tensor_slicing = false;

    // ---- §6.1 optimizations ------------------------------------------
    /** Keep completed requests' page-groups mapped for reuse. */
    bool deferred_reclamation = true;
    /** Keep one free reqId pre-mapped with a few groups. */
    bool eager_allocation = true;
    /** Overlap allocation with the previous iteration's compute. */
    bool overlap_allocation = true;
    /** Page-groups eagerly mapped per tensor on the warm slot. */
    i64 eager_groups = 4;
    /**
     * §8.1 KV de-duplication: keep per-slot prefix hash chains and
     * serve matching prompts by aliasing the prefix's physical
     * page-groups into the new request's virtual range (or by reusing
     * a matching cached slot in place). Also biases allocReqId toward
     * free slots so cached prefix entries survive longer.
     */
    bool prefix_caching = false;

    // ---- Capacity -----------------------------------------------------
    /** Physical bytes this worker may commit for KV (0 = all device
     *  memory still free when the runtime initializes). */
    u64 phys_budget_bytes = 0;
    /**
     * Pinned host bytes this worker may commit to the KV swap tier
     * (swapOutReq/swapInReq). 0 disables swapping: the framework must
     * preempt with recomputation, the paper's §5.3.3 baseline.
     */
    u64 host_swap_bytes = 0;
    /** Background reclamation refills the pool to this fraction of the
     *  budget (§6.1.2: "e.g. less than 10% of GPU memory"). */
    double reclaim_low_watermark = 0.10;

    /** Storage dtype implied by bytes_per_elem. */
    tensor::DType dtype() const;

    /** Validate user-provided parameters. */
    Status validate() const;
};

} // namespace vattn::core

#endif // VATTN_CORE_CONFIG_HH
