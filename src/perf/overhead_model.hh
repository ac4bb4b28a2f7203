/**
 * @file
 * CPU-side serving overhead model (§3.3.2): the per-iteration work the
 * Python/C++ serving layer performs before launching kernels. The
 * PagedAttention-specific part is Block-Table preparation — vLLM's
 * padded 2D table costs O(batch x max_num_blocks) and once contributed
 * 30% of decode latency (10% after the fix we model); FlashInfer
 * rebuilds compressed Block-Table objects every iteration. vAttention
 * needs none of this.
 */

#ifndef VATTN_PERF_OVERHEAD_MODEL_HH
#define VATTN_PERF_OVERHEAD_MODEL_HH

#include "common/types.hh"
#include "perf/backend_kind.hh"

namespace vattn::perf
{

/** Per-iteration CPU overheads of the serving framework. */
class OverheadModel
{
  public:
    /**
     * CPU time of one decode iteration.
     * @param batch running batch size
     * @param max_blocks KV blocks of the longest request (paded table)
     * @param total_blocks sum of blocks over the batch (CSR table)
     */
    TimeNs decodeCpu(BackendKind kind, i64 batch, i64 max_blocks,
                     i64 total_blocks) const;

    /**
     * CPU time of one prefill iteration.
     * @param num_prompts prompts batched in this iteration
     * @param new_blocks KV blocks appended (paged back-ends copy
     *        K/V into the cache block-by-block; vAttention appends
     *        with a single contiguous tensor copy, §7.1)
     */
    TimeNs prefillCpu(BackendKind kind, i64 num_prompts,
                      i64 new_blocks) const;

    // Calibration constants (exposed for tests).
    static constexpr TimeNs kBaseIterNs = 4 * kMsec;   ///< scheduler+python
    static constexpr TimeNs kPerRequestNs = 30 * kUsec; ///< sample/detok
    static constexpr TimeNs kPaddedEntryNs = 100;      ///< vLLM table slot
    static constexpr TimeNs kCsrEntryNs = 25;          ///< FI index copy
    static constexpr TimeNs kFiObjectChurnNs = 1200 * kUsec;
    static constexpr TimeNs kPagedAppendPerBlockNs = 2 * kUsec;
    static constexpr TimeNs kContiguousAppendNs = 50 * kUsec;
};

} // namespace vattn::perf

#endif // VATTN_PERF_OVERHEAD_MODEL_HH
