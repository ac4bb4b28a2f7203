#include "perf/iteration_cost.hh"

#include <algorithm>

namespace vattn::perf
{

IterationCost
priceIteration(const KernelModel &kernel, const OverheadModel &overhead,
               BackendKind kind, i64 block_size, bool overlap_comm,
               const IterationShape &shape)
{
    // KV blocks consumed by a context of `tokens`.
    const auto blocksFor = [block_size](i64 tokens) -> i64 {
        return block_size > 0 && tokens > 0
                   ? static_cast<i64>(ceilDiv(static_cast<u64>(tokens),
                                              static_cast<u64>(block_size)))
                   : 0;
    };
    IterationCost cost;
    i64 prefill_tokens = 0;
    i64 new_blocks = 0;
    for (const ChunkShape &chunk : shape.prefills) {
        const i64 kv_len = chunk.kv_before + chunk.tokens;
        prefill_tokens += chunk.tokens;
        cost.attention_ns +=
            kernel.prefillAttention(kind, chunk.tokens, kv_len);
        new_blocks += blocksFor(kv_len) - blocksFor(chunk.kv_before);
    }
    cost.attention_ns += kernel.decodeAttention(kind, shape.decode_kv_lens);

    // The linear operators and the all-reduce see one flat token
    // batch: chunk tokens plus one token per decode.
    const auto decode_batch = static_cast<i64>(shape.decode_kv_lens.size());
    const i64 token_units = prefill_tokens + decode_batch;
    cost.linear_ns = prefill_tokens > 0 ? kernel.prefillLinear(token_units)
                                        : kernel.decodeLinear(decode_batch);
    const TimeNs comm_ns = kernel.commTime(token_units);
    const TimeNs hideable =
        overlap_comm ? cost.attention_ns + cost.linear_ns : 0;
    cost.comm_hidden_ns = std::min(comm_ns, hideable);
    cost.comm_exposed_ns = comm_ns - cost.comm_hidden_ns;

    // Block-Table sizes: the longest decode (padded) and the sum (CSR).
    i64 max_blocks = 0;
    i64 total_blocks = 0;
    for (const i64 kv : shape.decode_kv_lens) {
        max_blocks = std::max(max_blocks, blocksFor(kv));
        total_blocks += blocksFor(kv);
    }
    // Each side's CPU work; a hybrid iteration pays the scheduler base
    // once.
    if (shape.planned_prefills > 0 || shape.planned_decodes == 0) {
        cost.cpu_ns =
            overhead.prefillCpu(kind, shape.planned_prefills, new_blocks);
    }
    if (shape.planned_decodes > 0) {
        cost.cpu_ns += overhead.decodeCpu(kind, decode_batch, max_blocks,
                                          total_blocks);
        if (shape.planned_prefills > 0) {
            cost.cpu_ns -= OverheadModel::kBaseIterNs;
        }
    }
    return cost;
}

} // namespace vattn::perf
