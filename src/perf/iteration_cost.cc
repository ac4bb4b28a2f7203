#include "perf/iteration_cost.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace vattn::perf
{

namespace
{

/** KV blocks of @p block_size tokens consumed by a context of
 *  @p tokens (0 without blocks). */
i64
blocksFor(i64 tokens, i64 block_size)
{
    return block_size > 0 && tokens > 0
               ? static_cast<i64>(ceilDiv(static_cast<u64>(tokens),
                                          static_cast<u64>(block_size)))
               : 0;
}

/** Everything but attention, once the batch shape is known. */
struct BatchTotals
{
    i64 prefill_tokens = 0;
    i64 new_blocks = 0;
    i64 decode_batch = 0;
    /** Block-Table sizes: the longest decode (padded) and the sum. */
    i64 max_blocks = 0;
    i64 total_blocks = 0;
    i64 planned_prefills = 0;
    i64 planned_decodes = 0;
};

void
addNonAttention(const KernelModel &kernel, const OverheadModel &overhead,
                BackendKind kind, bool overlap_comm, const BatchTotals &t,
                IterationCost &cost)
{
    // The linear operators and the all-reduce see one flat token
    // batch: chunk tokens plus one token per decode.
    const i64 token_units = t.prefill_tokens + t.decode_batch;
    cost.linear_ns = t.prefill_tokens > 0
                         ? kernel.prefillLinear(token_units)
                         : kernel.decodeLinear(t.decode_batch);
    const TimeNs comm_ns = kernel.commTime(token_units);
    const TimeNs hideable =
        overlap_comm ? cost.attention_ns + cost.linear_ns : 0;
    cost.comm_hidden_ns = std::min(comm_ns, hideable);
    cost.comm_exposed_ns = comm_ns - cost.comm_hidden_ns;

    // Each side's CPU work; a hybrid iteration pays the scheduler base
    // once.
    if (t.planned_prefills > 0 || t.planned_decodes == 0) {
        cost.cpu_ns =
            overhead.prefillCpu(kind, t.planned_prefills, t.new_blocks);
    }
    if (t.planned_decodes > 0) {
        cost.cpu_ns += overhead.decodeCpu(kind, t.decode_batch,
                                          t.max_blocks, t.total_blocks);
        if (t.planned_prefills > 0) {
            cost.cpu_ns -= OverheadModel::kBaseIterNs;
        }
    }
}

} // namespace

IterationCost
priceIteration(const KernelModel &kernel, const OverheadModel &overhead,
               BackendKind kind, i64 block_size, bool overlap_comm,
               const IterationShape &shape)
{
    IterationCost cost;
    BatchTotals totals;
    for (const ChunkShape &chunk : shape.prefills) {
        const i64 kv_len = chunk.kv_before + chunk.tokens;
        totals.prefill_tokens += chunk.tokens;
        cost.attention_ns +=
            kernel.prefillAttention(kind, chunk.tokens, kv_len);
        totals.new_blocks += blocksFor(kv_len, block_size) -
                             blocksFor(chunk.kv_before, block_size);
    }
    cost.attention_ns += kernel.decodeAttention(kind, shape.decode_kv_lens);
    totals.decode_batch = static_cast<i64>(shape.decode_kv_lens.size());
    for (const i64 kv : shape.decode_kv_lens) {
        totals.max_blocks =
            std::max(totals.max_blocks, blocksFor(kv, block_size));
        totals.total_blocks += blocksFor(kv, block_size);
    }
    totals.planned_prefills = shape.planned_prefills;
    totals.planned_decodes = shape.planned_decodes;
    addNonAttention(kernel, overhead, kind, overlap_comm, totals, cost);
    return cost;
}

DecodeBatch::DecodeBatch(const KernelModel &kernel, i64 block_size)
    : block_size_(block_size)
{
    for (const ModelSpec::WindowClass &cls : kernel.windowClasses()) {
        window_tokens_.push_back(cls.window_tokens);
    }
    attended_.resize(window_tokens_.size());
    growing_.resize(window_tokens_.size());
}

void
DecodeBatch::clear()
{
    std::fill(attended_.begin(), attended_.end(), 0);
    std::fill(growing_.begin(), growing_.end(), 0);
    batch_ = 0;
    total_kv_ = 0;
    max_blocks_ = 0;
    total_blocks_ = 0;
    steps_left_ = std::numeric_limits<i64>::max();
}

void
DecodeBatch::add(i64 kv_len)
{
    panic_if(kv_len <= 0, "DecodeBatch::add of an empty context");
    ++batch_;
    total_kv_ += kv_len;
    for (std::size_t c = 0; c < window_tokens_.size(); ++c) {
        const i64 window = window_tokens_[c];
        if (window <= 0 || kv_len < window) {
            // Attends every token, and keeps doing so for the next
            // window - kv_len tokens.
            attended_[c] += kv_len;
            ++growing_[c];
            if (window > 0) {
                steps_left_ = std::min(steps_left_, window - kv_len);
            }
        } else {
            attended_[c] += window;
        }
    }
    if (block_size_ > 0) {
        const i64 blocks = blocksFor(kv_len, block_size_);
        max_blocks_ = std::max(max_blocks_, blocks);
        total_blocks_ += blocks;
        // The same block count until the last block is full.
        steps_left_ =
            std::min(steps_left_, blocks * block_size_ - kv_len);
    }
}

bool
DecodeBatch::grow()
{
    if (steps_left_ == 0) {
        return false;
    }
    --steps_left_;
    total_kv_ += batch_;
    for (std::size_t c = 0; c < attended_.size(); ++c) {
        attended_[c] += growing_[c];
    }
    return true;
}

IterationCost
priceDecodes(const KernelModel &kernel, const OverheadModel &overhead,
             BackendKind kind, bool overlap_comm, const DecodeBatch &batch)
{
    IterationCost cost;
    cost.attention_ns =
        kernel.decodeAttention(kind, batch.totalKv(), batch.attended());
    BatchTotals totals;
    totals.decode_batch = batch.size();
    totals.max_blocks = batch.maxBlocks();
    totals.total_blocks = batch.totalBlocks();
    totals.planned_decodes = batch.size();
    addNonAttention(kernel, overhead, kind, overlap_comm, totals, cost);
    return cost;
}

} // namespace vattn::perf
