#include "serving/vattn_backend.hh"

#include "common/logging.hh"

namespace vattn::serving
{

VAttentionBackend::VAttentionBackend(const perf::ModelSpec &model,
                                     int tp, Options options,
                                     u64 budget_bytes,
                                     bool enable_prefix_caching,
                                     u64 host_swap_bytes,
                                     perf::PcieSpec pcie)
{
    core::Config config;
    config.num_layers = model.num_layers;
    config.num_kv_heads = model.kvHeadsPerWorker(tp);
    config.head_dim = model.head_dim;
    config.bytes_per_elem = model.bytes_per_elem;
    config.max_batch_size = options.max_batch_size;
    config.max_context_len = model.max_context_len;
    config.page_group = options.page_group;
    config.tensor_slicing = options.tensor_slicing;
    config.deferred_reclamation = options.deferred_reclamation;
    config.eager_allocation = options.eager_allocation;
    config.overlap_allocation = options.overlap_allocation;
    config.prefix_caching = enable_prefix_caching;
    config.phys_budget_bytes = budget_bytes;
    config.host_swap_bytes = host_swap_bytes;
    if (model.hasSlidingLayers()) {
        // Per-layer geometries: sliding-window layers only keep the
        // live window of KV mapped. Uniform models leave the list
        // empty — the historical single-shape path, byte for byte.
        config.layers.resize(
            static_cast<std::size_t>(model.num_layers));
        for (int layer = 0; layer < model.num_layers; ++layer) {
            const i64 window = model.windowTokensOf(layer);
            auto &spec =
                config.layers[static_cast<std::size_t>(layer)];
            if (window > 0) {
                spec.kind = core::AttentionKind::kSlidingWindow;
                spec.window_tokens = window;
            }
        }
    }
    config.validate().expectOk("vAttention backend config");

    // Each device needs room for its worker's KV shard budget;
    // weights/activations are modelled by the budget split in the
    // engine, not materialized.
    const u64 device_mem_bytes =
        roundUp(budget_bytes + 64 * MiB, 2 * MiB);
    // alloc-ok: backend construction, once per engine
    group_ = std::make_unique<core::WorkerGroup>(tp, config,
                                                 device_mem_bytes);
    for (int w = 0; w < group_->numWorkers(); ++w) {
        group_->driver(w).latency().setCopyModel(pcie.toCopyModel());
    }
}

bool
VAttentionBackend::canAdmit(i64 uncached_tokens) const
{
    return group_->canAllocate(uncached_tokens);
}

Result<int>
VAttentionBackend::allocSlot()
{
    return group_->allocReqId();
}

core::PrefixQuery
VAttentionBackend::buildQuery(const PrefixKey &key) const
{
    core::PrefixQuery query;
    query.total_tokens = key.size;
    const i64 tpg = group_->geometry().tokensPerGroup();
    query.group_hashes = key.chunkHashes(tpg);
    query.tail_hash = [key, tpg](u64 prev, i64 groups, i64 n) {
        return key.rangeHash(prev, groups * tpg, n);
    };
    return query;
}

i64
VAttentionBackend::matchPrefix(const PrefixKey &key) const
{
    if (!prefixCachingEnabled() || key.empty()) {
        return 0;
    }
    return group_->matchPrefix(buildQuery(key)).tokens;
}

Result<SlotLease>
VAttentionBackend::allocSlot(const PrefixKey &key, i64 max_cached)
{
    if (!prefixCachingEnabled() || key.empty()) {
        auto slot = group_->allocReqId();
        if (!slot.isOk()) {
            return Result<SlotLease>(slot.status());
        }
        return SlotLease{slot.value(), 0, 0};
    }
    i64 cached = 0;
    auto slot = group_->allocReqIdWithPrefix(buildQuery(key),
                                             max_cached, &cached);
    if (!slot.isOk()) {
        return Result<SlotLease>(slot.status());
    }
    return SlotLease{slot.value(), cached,
                     group_->lastPrefixAllocNs()};
}

void
VAttentionBackend::registerPrefix(int slot, const PrefixKey &key,
                                  i64 tokens)
{
    if (!prefixCachingEnabled() || key.empty()) {
        return;
    }
    group_->registerPrefix(slot, buildQuery(key), tokens);
}

BackendPrefixStats
VAttentionBackend::prefixStats() const
{
    const auto &stats = group_->stats();
    const u64 group_bytes = group_->geometry().groupBytes();
    return BackendPrefixStats{
        static_cast<u64>(stats.prefix_aliased_handles) * group_bytes,
        static_cast<u64>(stats.prefix_copied_handles) * group_bytes,
    };
}

void
VAttentionBackend::freeSlot(int slot)
{
    group_->freeReqId(slot).expectOk("freeReqId");
}

Result<TimeNs>
VAttentionBackend::ensure(const ActiveLens &active)
{
    // Workers allocate their shards concurrently, so the group's
    // critical path is one worker's (the stats are worker 0's, with
    // divergence panics inside the group).
    last_step_ = group_->step(active);
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
    group_->computePhase(window_ns);
}

bool
VAttentionBackend::hasHostTier() const
{
    return group_->hostSwapBudgetBytes() > 0;
}

bool
VAttentionBackend::canSwapOut(int slot) const
{
    return group_->canSwapOut(slot);
}

bool
VAttentionBackend::canSwapIn(int slot) const
{
    return group_->canSwapIn(slot);
}

Result<SwapResult>
VAttentionBackend::swapOut(int slot)
{
    const auto stats = group_->swapOutReq(slot);
    if (!stats.status.isOk()) {
        return Result<SwapResult>(stats.status);
    }
    return SwapResult{stats.bytes, stats.critical_ns};
}

Result<SwapResult>
VAttentionBackend::swapIn(int slot)
{
    const auto stats = group_->swapInReq(slot);
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
    auto image = group_->exportSwapped(slot);
    if (!image.isOk()) {
        return Result<SwappedKvImage>(image.status());
    }
    const auto &core_image = image.value();
    SwappedKvImage out;
    // Per-worker shard bytes, the same convention SwapResult::bytes
    // uses (each worker stashed its own shard of identical shape).
    out.bytes = core_image.bytes;
    out.buffer_leads = core_image.buffer_leads;
    out.buffer_sizes = core_image.buffer_sizes;
    out.group_frontier = core_image.groups;
    out.handles = core_image.handles;
    return out;
}

bool
VAttentionBackend::canImportSwapped(const SwappedKvImage &image) const
{
    if (!hasHostTier() || image.buffer_leads.empty() ||
        image.buffer_sizes.size() != image.buffer_leads.size()) {
        return false;
    }
    if (static_cast<i64>(image.buffer_leads.size()) !=
        group_->geometry().numBuffers()) {
        return false;
    }
    return group_->canImportSwapped(image.handles);
}

Result<int>
VAttentionBackend::importSwapped(const SwappedKvImage &image)
{
    if (image.buffer_leads.empty()) {
        return Result<int>(ErrorCode::kInvalidArgument,
                           "not a vAttention-backend image");
    }
    core::VAttention::HostKvImage core_image;
    core_image.buffer_leads = image.buffer_leads;
    core_image.buffer_sizes = image.buffer_sizes;
    core_image.groups = image.group_frontier;
    core_image.handles = image.handles;
    core_image.bytes = image.bytes;
    return group_->importSwapped(core_image);
}

u64
VAttentionBackend::slotPhysBytes(int slot) const
{
    // mappedHandles counts each buffer's live [lead, end) range:
    // groupsMapped * numBuffers would over-state window-trimmed slots
    // (the frontier includes unmapped dead leads).
    return static_cast<u64>(group_->mappedHandles(slot)) *
           group_->geometry().groupBytes();
}

u64
VAttentionBackend::bytesInUse() const
{
    // Per-worker shard bytes (workers are symmetric): the engine's
    // budget and admission math are per worker throughout.
    return group_->physBytesMappedPerWorker();
}

u64
VAttentionBackend::budgetBytes() const
{
    return group_->budgetBytesPerWorker();
}

} // namespace vattn::serving
