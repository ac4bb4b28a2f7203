/**
 * @file
 * The one place an iteration's modeled time is composed from the
 * kernel and CPU-overhead models (Figure 12 splits an iteration into
 * this compute and the allocation on its critical path).
 */

#ifndef VATTN_PERF_ITERATION_COST_HH
#define VATTN_PERF_ITERATION_COST_HH

#include <span>

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

} // namespace vattn::perf

#endif // VATTN_PERF_ITERATION_COST_HH
