#include "serving/vattn_backend.hh"

#include "common/logging.hh"

namespace vattn::serving
{

namespace
{

/** One worker's runtime configuration: a num_kv_heads/tp shard. */
core::Config
workerConfig(const perf::ModelSpec &model, int tp,
             const VAttentionBackend::Options &options, u64 budget_bytes,
             bool enable_prefix_caching, u64 host_swap_bytes)
{
    core::Config config;
    config.num_layers = model.num_layers;
    config.num_kv_heads = model.kvHeadsPerWorker(tp);
    config.head_dim = model.head_dim;
    config.bytes_per_elem = model.bytes_per_elem;
    config.max_batch_size = options.max_batch_size;
    config.max_context_len = model.max_context_len;
    config.layer_window_tokens = model.layer_window_tokens;
    config.page_group = options.page_group;
    config.tensor_slicing = options.tensor_slicing;
    config.deferred_reclamation = options.deferred_reclamation;
    config.eager_allocation = options.eager_allocation;
    config.overlap_allocation = options.overlap_allocation;
    config.prefix_caching = enable_prefix_caching;
    config.phys_budget_bytes = budget_bytes;
    config.host_swap_bytes = host_swap_bytes;
    config.validate().expectOk("vAttention backend config");
    return config;
}

} // namespace

VAttentionBackend::VAttentionBackend(const perf::ModelSpec &model,
                                     int tp, Options options,
                                     u64 budget_bytes,
                                     bool enable_prefix_caching,
                                     u64 host_swap_bytes,
                                     perf::PcieSpec pcie)
    : group_(tp,
             workerConfig(model, tp, options, budget_bytes,
                          enable_prefix_caching, host_swap_bytes),
             // Each device needs room for its worker's KV shard
             // budget; weights/activations are modelled by the budget
             // split in the engine, not materialized.
             roundUp(budget_bytes + 64 * MiB, 2 * MiB))
{
    for (int w = 0; w < group_.numWorkers(); ++w) {
        group_.driver(w).latency().setCopyModel(pcie.toCopyModel());
    }
}

Result<int>
VAttentionBackend::allocSlot()
{
    return group_.apply("allocReqId", [](core::VAttention &worker) {
        return worker.allocReqId();
    });
}

Result<SlotLease>
VAttentionBackend::allocSlot(const PrefixKey &key, i64 max_cached)
{
    // Each worker aliases its own shard of the cached prefix, so the
    // workers must agree on the slot, the tokens the cache served and
    // the aliasing latency. Without prefix caching or a key this is a
    // plain allocation.
    return group_.apply(
        "allocReqIdWithPrefix",
        [&](core::VAttention &worker) -> Result<SlotLease> {
            i64 cached = 0;
            auto slot = worker.allocReqIdWithPrefix(key, max_cached, &cached);
            if (!slot.isOk()) {
                return Result<SlotLease>(slot.status());
            }
            return SlotLease{slot.value(), cached,
                             worker.lastPrefixAllocNs()};
        });
}

void
VAttentionBackend::registerPrefix(int slot, const PrefixKey &key,
                                  i64 tokens)
{
    group_.apply("registerPrefix", [&](core::VAttention &worker) {
        worker.registerPrefix(slot, key, tokens);
    });
}

BackendPrefixStats
VAttentionBackend::prefixStats() const
{
    const auto &stats = runtime().stats();
    const u64 group_bytes = runtime().geometry().groupBytes();
    return BackendPrefixStats{
        static_cast<u64>(stats.prefix_aliased_handles) * group_bytes,
        static_cast<u64>(stats.prefix_copied_handles) * group_bytes,
    };
}

void
VAttentionBackend::freeSlot(int slot)
{
    group_.apply("freeReqId", [&](core::VAttention &worker) {
        return worker.freeReqId(slot);
    }).expectOk("freeReqId");
}

Result<TimeNs>
VAttentionBackend::ensure(const ActiveLens &active)
{
    // Workers allocate their shards concurrently, so the group's
    // critical path is one worker's (the stats are worker 0's, with
    // divergence panics inside apply).
    last_step_ = group_.apply("step", [&](core::VAttention &worker) {
        return worker.step(active);
    });
    if (!last_step_.status.isOk()) {
        return Result<TimeNs>(last_step_.status);
    }
    // Driver time banked by failed swap-in attempts rides the next
    // iteration's critical path (0 in the common case).
    const TimeNs failed_swap = failed_swap_ns_;
    failed_swap_ns_ = 0;
    return last_step_.critical_ns + failed_swap;
}

void
VAttentionBackend::computeWindow(TimeNs window_ns)
{
    group_.apply("computePhase", [&](core::VAttention &worker) {
        worker.computePhase(window_ns);
    });
}

Result<SwapResult>
VAttentionBackend::swapOut(int slot)
{
    // Each worker stashes its own shard; the copies run concurrently,
    // so the group's swap latency is one worker's.
    const auto stats = group_.apply(
        "swapOutReq",
        [&](core::VAttention &worker) { return worker.swapOutReq(slot); });
    if (!stats.status.isOk()) {
        return Result<SwapResult>(stats.status);
    }
    return SwapResult{stats.bytes, stats.critical_ns};
}

Result<SwapResult>
VAttentionBackend::swapIn(int slot)
{
    const auto stats = group_.apply(
        "swapInReq",
        [&](core::VAttention &worker) { return worker.swapInReq(slot); });
    if (!stats.status.isOk()) {
        // The failed attempt still did modeled driver work (cached
        // steals, partial remap + rollback). An error result carries
        // no time, so bank it and charge the next ensure().
        failed_swap_ns_ += stats.critical_ns;
        return Result<SwapResult>(stats.status);
    }
    return SwapResult{stats.bytes, stats.critical_ns};
}

Result<SwappedKvImage>
VAttentionBackend::exportSwapped(int slot)
{
    // Lockstep makes every worker's image identical (per-worker shard
    // bytes, the convention SwapResult::bytes uses), so worker 0's
    // describes the group: an adopter rebuilds one shard per worker.
    return group_.apply("exportSwapped", [&](core::VAttention &worker) {
        return worker.exportSwapped(slot);
    });
}

Result<int>
VAttentionBackend::importSwapped(const SwappedKvImage &image)
{
    return group_.apply("importSwapped", [&](core::VAttention &worker) {
        return worker.importSwapped(image);
    });
}

u64
VAttentionBackend::slotPhysBytes(int slot) const
{
    // mappedHandles counts each buffer's live [lead, end) range:
    // groupsMapped * numBuffers would over-state window-trimmed slots
    // (the frontier includes unmapped dead leads).
    return static_cast<u64>(runtime().mappedHandles(slot)) *
           runtime().geometry().groupBytes();
}

} // namespace vattn::serving
