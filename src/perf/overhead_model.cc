#include "perf/overhead_model.hh"

namespace vattn::perf
{

TimeNs
OverheadModel::decodeCpu(BackendKind kind, i64 batch, i64 max_blocks,
                         i64 total_blocks) const
{
    TimeNs t = kBaseIterNs + kPerRequestNs * static_cast<u64>(batch);
    switch (kind) {
      case BackendKind::kVllmPaged:
      case BackendKind::kFa2Paged:
        // Padded 2D Block-Table: every request is padded to the
        // longest one (§3.3.2).
        t += kPaddedEntryNs *
             static_cast<u64>(batch * max_blocks);
        break;
      case BackendKind::kFiPaged:
        // Compressed table is cheap to fill but FlashInfer creates
        // and destroys wrapper objects every iteration (§7.1).
        t += kFiObjectChurnNs +
             kCsrEntryNs * static_cast<u64>(total_blocks);
        break;
      case BackendKind::kFa2VAttention:
      case BackendKind::kFiVAttention:
      case BackendKind::kFa3VAttention:
        // Virtually contiguous KV: no Block-Table at all.
        break;
    }
    return t;
}

TimeNs
OverheadModel::prefillCpu(BackendKind kind, i64 num_prompts,
                          i64 new_blocks) const
{
    TimeNs t = kBaseIterNs + kPerRequestNs * static_cast<u64>(num_prompts);
    switch (kind) {
      case BackendKind::kVllmPaged:
      case BackendKind::kFa2Paged:
        t += kPagedAppendPerBlockNs * static_cast<u64>(new_blocks);
        break;
      case BackendKind::kFiPaged:
        t += kFiObjectChurnNs +
             kPagedAppendPerBlockNs * static_cast<u64>(new_blocks);
        break;
      case BackendKind::kFa2VAttention:
      case BackendKind::kFiVAttention:
      case BackendKind::kFa3VAttention:
        // One contiguous K/V append per prompt (§7.1).
        t += kContiguousAppendNs * static_cast<u64>(num_prompts);
        break;
    }
    return t;
}

} // namespace vattn::perf
