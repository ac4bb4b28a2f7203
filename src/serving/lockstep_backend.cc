#include "serving/lockstep_backend.hh"

#include <utility>

#include "common/logging.hh"

namespace vattn::serving
{

namespace
{

/** Is a ReplicateFollowers alive on this thread? */
thread_local bool replicate_followers = false;

} // namespace

ReplicateFollowers::ReplicateFollowers()
    : outer_(std::exchange(replicate_followers, true))
{
}

ReplicateFollowers::~ReplicateFollowers()
{
    replicate_followers = outer_;
}

Replication
ReplicateFollowers::current()
{
#if VATTN_AUDIT
    return Replication::kFull;
#else
    return replicate_followers ? Replication::kFull
                               : Replication::kLeadOnly;
#endif
}

LockstepTraits<paged::PagedRuntime>::Workers
LockstepTraits<paged::PagedRuntime>::make(
    const perf::ModelSpec &model, int tp, Options block_size,
    u64 budget_bytes, bool enable_prefix_caching, u64 host_swap_bytes,
    const perf::PcieSpec &pcie, Replication replication)
{
    fatal_if(tp <= 0, "PagedBackend needs tp >= 1");
    paged::PagedRuntime::Config config;
    config.num_layers = model.num_layers;
    config.max_context_len = model.max_context_len;
    config.layer_window_tokens = model.layer_window_tokens;
    config.block_size = block_size;
    // One layer's K and V on one worker; a class of n layers holds n
    // of these per block.
    config.layer_block_bytes =
        2ULL * static_cast<u64>(model.num_kv_heads) *
        static_cast<u64>(model.head_dim) *
        static_cast<u64>(model.bytes_per_elem) / static_cast<u64>(tp) *
        static_cast<u64>(block_size);
    config.budget_bytes = budget_bytes;
    config.prefix_caching = enable_prefix_caching;
    config.host_swap_bytes = host_swap_bytes;
    config.copy = pcie.toCopyModel();
    return Workers(std::in_place, replication, tp, config);
}

LockstepTraits<core::TpWorker>::Workers
LockstepTraits<core::TpWorker>::make(
    const perf::ModelSpec &model, int tp, const Options &options,
    u64 budget_bytes, bool enable_prefix_caching, u64 host_swap_bytes,
    const perf::PcieSpec &pcie, Replication replication)
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
    // Each device needs room for its worker's KV shard budget;
    // weights/activations are modelled by the budget split in the
    // engine, not materialized.
    Workers group(tp, config, roundUp(budget_bytes + 64 * MiB, 2 * MiB),
                  replication);
    group.apply("setCopyModel", [&](core::TpWorker &worker) {
        worker.driver().latency().setCopyModel(pcie.toCopyModel());
    });
    return group;
}

template class LockstepBackend<paged::PagedRuntime>;
template class LockstepBackend<core::TpWorker>;

} // namespace vattn::serving
