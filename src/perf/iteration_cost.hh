/**
 * @file
 * The one place an iteration's modeled time is composed from the
 * kernel and CPU-overhead models (Figure 12 splits an iteration into
 * this compute and the allocation on its critical path).
 */

#ifndef VATTN_PERF_ITERATION_COST_HH
#define VATTN_PERF_ITERATION_COST_HH

#include <span>
#include <vector>

#include "perf/kernel_model.hh"
#include "perf/overhead_model.hh"

namespace vattn::perf
{

/** A prefill chunk of @p tokens appended after @p kv_before tokens. */
struct ChunkShape
{
    i64 tokens = 0;
    i64 kv_before = 0;
};

/** What one iteration computes: the prefill chunks and decodes that
 *  survived preemption, and the planned counts, which pick the CPU
 *  cost shape (the planned chunk count is the CPU prompt count). */
struct IterationShape
{
    std::span<const ChunkShape> prefills;
    std::span<const i64> decode_kv_lens;
    i64 planned_prefills = 0;
    i64 planned_decodes = 0;
};

struct IterationCost
{
    TimeNs attention_ns = 0;
    TimeNs linear_ns = 0;
    TimeNs comm_exposed_ns = 0; ///< all-reduce on the critical path
    TimeNs comm_hidden_ns = 0;  ///< all-reduce overlapped with compute
    TimeNs cpu_ns = 0;

    TimeNs gpuNs() const { return attention_ns + linear_ns + comm_exposed_ns; }
    TimeNs commNs() const { return comm_exposed_ns + comm_hidden_ns; }
};

/** Price @p shape on back-end @p kind with paged blocks of
 *  @p block_size tokens (0: vAttention). With @p overlap_comm the
 *  all-reduce hides behind attention + linear. */
IterationCost priceIteration(const KernelModel &kernel,
                             const OverheadModel &overhead,
                             BackendKind kind, i64 block_size,
                             bool overlap_comm,
                             const IterationShape &shape);

/**
 * The sums a decode-only iteration's price depends on — batch size,
 * total KV, each window class's clamped KV and the paged Block-Table
 * sizes — kept incrementally while every request of the batch grows by
 * one token per iteration. Built with clear() and one add() per
 * request; grow() then costs O(window classes) until some request
 * reaches a window edge or a block boundary, where it returns false
 * and the caller rebuilds from the grown lengths.
 */
class DecodeBatch
{
  public:
    /** @p block_size: paged block tokens (0: vAttention). */
    DecodeBatch(const KernelModel &kernel, i64 block_size);

    void clear();
    /** One request of @p kv_len (> 0) KV tokens. */
    void add(i64 kv_len);
    /** Every request grew by one token. False (sums untouched) when
     *  that crosses a window edge or block boundary: rebuild. */
    bool grow();

    i64 size() const { return batch_; }
    i64 totalKv() const { return total_kv_; }
    std::span<const i64> attended() const { return attended_; }
    i64 maxBlocks() const { return max_blocks_; }
    i64 totalBlocks() const { return total_blocks_; }

  private:
    i64 block_size_;
    std::vector<i64> window_tokens_; ///< per window class, 0 = full
    std::vector<i64> attended_;
    /** Per class: requests still below the window (grow one each). */
    std::vector<i64> growing_;
    i64 batch_ = 0;
    i64 total_kv_ = 0;
    i64 max_blocks_ = 0;
    i64 total_blocks_ = 0;
    /** grow() calls the sums stay exact for. */
    i64 steps_left_ = 0;
};

/** priceIteration of a decode-only iteration in which every planned
 *  decode survived, from @p batch's sums: the same bits as pricing
 *  its KV lengths, in O(window classes). */
IterationCost priceDecodes(const KernelModel &kernel,
                           const OverheadModel &overhead, BackendKind kind,
                           bool overlap_comm, const DecodeBatch &batch);

} // namespace vattn::perf

#endif // VATTN_PERF_ITERATION_COST_HH
