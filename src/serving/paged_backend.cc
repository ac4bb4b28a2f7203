#include "serving/paged_backend.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace vattn::serving
{

PagedBackend::PagedBackend(const perf::ModelSpec &model, int tp,
                           i64 block_size, u64 budget_bytes,
                           bool enable_prefix_caching,
                           u64 host_swap_bytes, perf::PcieSpec pcie)
    : budget_bytes_(budget_bytes), pcie_(std::move(pcie)),
      workers_(makeWorkers(model, tp, block_size, budget_bytes,
                           enable_prefix_caching, host_swap_bytes))
{
}

std::vector<PagedBackend::WorkerPool>
PagedBackend::makeWorkers(const perf::ModelSpec &model, int tp,
                          i64 block_size, u64 budget_bytes,
                          bool enable_prefix_caching,
                          u64 host_swap_bytes)
{
    fatal_if(tp <= 0, "PagedBackend needs tp >= 1");
    fatal_if(model.hasSlidingLayers() && enable_prefix_caching,
             "paged prefix caching hashes whole-model blocks and is "
             "not supported with sliding-window layers (vLLM's "
             "hash-block scheme has the same restriction); disable "
             "one of the two");
    const auto classes = model.windowClasses();
    std::vector<WorkerPool> workers(static_cast<std::size_t>(tp));
    for (WorkerPool &pool : workers) {
        pool.groups.reserve(classes.size());
        for (const perf::ModelSpec::WindowClass &cls : classes) {
            pool.layouts.push_back({block_size, cls.window_tokens});
            // Per-token bytes of this class's layers on one worker;
            // the uniform single class reproduces
            // kvBytesPerTokenPerWorker (including its integer
            // division) exactly.
            const u64 class_token_bytes =
                2ULL * static_cast<u64>(cls.layers) *
                static_cast<u64>(model.num_kv_heads) *
                static_cast<u64>(model.head_dim) *
                static_cast<u64>(model.bytes_per_elem) /
                static_cast<u64>(tp);
            const u64 bytes_per_block =
                class_token_bytes * static_cast<u64>(block_size);
            const u64 budget_share =
                budget_bytes * static_cast<u64>(cls.layers) /
                static_cast<u64>(model.num_layers);
            const u64 host_share =
                host_swap_bytes * static_cast<u64>(cls.layers) /
                static_cast<u64>(model.num_layers);
            pool.groups.push_back(LayerGroup{
                cls.window_tokens, cls.layers, bytes_per_block,
                paged::BlockManager(
                    static_cast<i64>(budget_share / bytes_per_block),
                    block_size, enable_prefix_caching,
                    static_cast<i64>(host_share / bytes_per_block))});
        }
    }
    return workers;
}

PagedBackend::Slot *
PagedBackend::WorkerPool::find(int slot)
{
    if (slot < 0 || slot >= static_cast<int>(slots.size()) ||
        !slots[static_cast<std::size_t>(slot)].live) {
        return nullptr;
    }
    return &slots[static_cast<std::size_t>(slot)];
}

const PagedBackend::Slot *
PagedBackend::WorkerPool::find(int slot) const
{
    return const_cast<WorkerPool *>(this)->find(slot);
}

PagedBackend::Slot &
PagedBackend::WorkerPool::at(int slot, const char *op)
{
    Slot *state = find(slot);
    panic_if(state == nullptr, op, " on unknown slot ", slot);
    return *state;
}

i64
PagedBackend::WorkerPool::deadLeadBlocks(const LayerGroup &group,
                                         i64 tokens) const
{
    if (group.window_tokens <= 0 || tokens <= group.window_tokens) {
        return 0;
    }
    // Only blocks fully behind the window die; the straddled block
    // stays (floor division).
    return (tokens - group.window_tokens) / group.manager.blockSize();
}

bool
PagedBackend::WorkerPool::canAdmit(i64 uncached_tokens) const
{
    // Reserve one block of headroom per running request so the next
    // decode iteration cannot immediately OOM (vLLM's watermark).
    // Evictable cached blocks count as capacity: allocation reclaims
    // them transparently. Every window class must fit: a sliding
    // group only ever holds the live window of blocks.
    for (const LayerGroup &group : groups) {
        const i64 need = group.manager.blocksFor(uncached_tokens) -
                         deadLeadBlocks(group, uncached_tokens) +
                         live_slots;
        if (group.manager.numAllocatable() < need) {
            return false;
        }
    }
    return true;
}

int
PagedBackend::WorkerPool::allocSlot()
{
    // Freed slots keep their (emptied) per-group lists, so reusing an
    // id allocates nothing.
    int slot;
    if (!free_ids.empty()) {
        slot = free_ids.back();
        free_ids.pop_back();
    } else {
        slot = static_cast<int>(slots.size());
        Slot &state = slots.emplace_back();
        state.blocks.reserve(groups.size());
        for (LayerGroup &group : groups) {
            state.blocks.emplace_back(&group.manager);
        }
        state.cpu_blocks.resize(groups.size());
        state.swap_leads.assign(groups.size(), 0);
    }
    slots[static_cast<std::size_t>(slot)].live = true;
    ++live_slots;
    return slot;
}

i64
PagedBackend::WorkerPool::matchPrefix(const PrefixKey &key) const
{
    const paged::BlockManager &manager = groups[0].manager;
    if (!manager.prefixCacheEnabled() || key.empty()) {
        return 0;
    }
    const auto hashes = key.chunkHashes(manager.blockSize());
    i64 matched = 0;
    for (u64 hash : hashes) {
        if (manager.lookupHash(hash) < 0) {
            break;
        }
        ++matched;
    }
    return matched * manager.blockSize();
}

SlotLease
PagedBackend::WorkerPool::adoptPrefix(int slot, const PrefixKey &key,
                                      i64 max_cached)
{
    SlotLease lease{slot, 0, 0};
    paged::BlockManager &manager = groups[0].manager;
    if (!manager.prefixCacheEnabled() || key.empty()) {
        return lease;
    }
    Slot &state = at(slot, "adoptPrefix");
    const i64 bs = manager.blockSize();
    auto hashes = key.chunkHashes(bs);
    const auto shareable = static_cast<std::size_t>(
        std::min<i64>(static_cast<i64>(hashes.size()), max_cached / bs));
    for (std::size_t i = 0; i < shareable; ++i) {
        const i32 block = manager.lookupHash(hashes[i]);
        if (block < 0) {
            break;
        }
        manager.refSharedBlock(block).expectOk("prefix block ref");
        state.blocks[0].adoptBlock(block);
        state.hashes.push_back(hashes[i]);
        state.chain = hashes[i];
        lease.cached_tokens += bs;
        prefix.aliased_bytes += groups[0].bytes_per_block;
    }
    // Sharing is refcount bookkeeping over the up-front committed
    // pool: no driver latency (the CPU cost rides the overhead model).
    return lease;
}

void
PagedBackend::WorkerPool::registerPrefix(int slot, const PrefixKey &key,
                                         i64 tokens)
{
    paged::BlockManager &manager = groups[0].manager;
    if (!manager.prefixCacheEnabled() || key.empty()) {
        return;
    }
    Slot &state = at(slot, "registerPrefix");
    const auto &blocks = state.blocks[0].blocks();
    const i64 bs = manager.blockSize();
    const i64 full = std::min(tokens, key.size) / bs;
    while (static_cast<i64>(state.hashes.size()) < full) {
        const i64 index = static_cast<i64>(state.hashes.size());
        panic_if(index >= static_cast<i64>(blocks.size()),
                 "registerPrefix beyond the slot's blocks");
        const u64 prev =
            state.hashes.empty() ? kPrefixHashSeed : state.chain;
        const u64 hash = key.rangeHash(prev, index * bs, bs);
        manager.setBlockHash(blocks[static_cast<std::size_t>(index)],
                             hash);
        state.hashes.push_back(hash);
        state.chain = hash;
    }
}

void
PagedBackend::WorkerPool::freeSlot(int slot)
{
    Slot &state = at(slot, "freeSlot");
    // A slot freed while swapped out abandons its CPU blocks.
    swapped_slots -= state.swapped() ? 1 : 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (const i32 cpu_block : state.cpu_blocks[g]) {
            groups[g].manager.freeCpuBlock(cpu_block).expectOk(
                "free CPU block");
        }
        state.cpu_blocks[g].clear();
        state.swap_leads[g] = 0;
    }
    // Dropping the references parks hashed refcount-0 blocks on the
    // evictable LRU (the prefix cache); the rest return to the free
    // list.
    for (paged::RequestBlocks &list : state.blocks) {
        list.releaseAll();
    }
    state.hashes.clear();
    state.chain = 0;
    state.live = false;
    --live_slots;
    free_ids.push_back(slot);
}

Status
PagedBackend::WorkerPool::ensureSlot(int slot, i64 len)
{
    Slot &state = at(slot, "ensure");
    for (std::size_t g = 0; g < groups.size(); ++g) {
        // Free dead leading blocks before growing so a tight pool
        // benefits from the reclaimed blocks in the same call.
        if (groups[g].window_tokens > 0) {
            state.blocks[g].advanceLeadTo(deadLeadBlocks(groups[g], len));
        }
        auto status = state.blocks[g].ensureTokens(len);
        if (!status.isOk()) {
            return status;
        }
    }
    return Status::ok();
}

bool
PagedBackend::WorkerPool::ensureIsNoop(int slot, i64 len) const
{
    const Slot *state = find(slot);
    if (state == nullptr) {
        return false;
    }
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const paged::RequestBlocks &list = state->blocks[g];
        // deadLeadBlocks is 0 on full-attention groups, whose lead
        // stays at 0.
        if (groups[g].manager.blocksFor(len) >
                static_cast<i64>(list.blocks().size()) ||
            deadLeadBlocks(groups[g], len) > list.lead()) {
            return false;
        }
    }
    return true;
}

void
PagedBackend::WorkerPool::checkSkippedEnsure(int slot, i64 len,
                                             std::size_t worker)
{
    struct GroupState
    {
        std::size_t blocks;
        i64 lead;
        i64 free;
        i64 evictable;
        bool operator==(const GroupState &) const = default;
    };
    const Slot &state = at(slot, "ensure");
    const auto snapshot = [&](std::size_t g) {
        const paged::RequestBlocks &list = state.blocks[g];
        const paged::BlockManager &manager = groups[g].manager;
        return GroupState{list.blocks().size(), list.lead(),
                          manager.numFree(), manager.numEvictable()};
    };
    std::vector<GroupState> before;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        before.push_back(snapshot(g));
    }
    ensureSlot(slot, len).expectOk("skipped ensure");
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const GroupState after = snapshot(g);
        panic_if(!(after == before[g]), "paged_backend: worker ", worker,
                 " skipped ensure(", slot, ", ", len,
                 ") but it changed group ", g, ": blocks ",
                 before[g].blocks, " -> ", after.blocks, ", lead ",
                 before[g].lead, " -> ", after.lead, ", free ",
                 before[g].free, " -> ", after.free, ", evictable ",
                 before[g].evictable, " -> ", after.evictable);
    }
}

Status
PagedBackend::WorkerPool::swapOutRefusal(int slot) const
{
    const Slot *state = find(slot);
    if (state == nullptr) {
        return errorStatus(ErrorCode::kInvalidArgument, "unknown slot");
    }
    if (state->swapped()) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "slot already swapped out");
    }
    i64 live_total = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const auto &list = state->blocks[g];
        live_total += list.liveBlockCount();
        for (const i32 block : list.blocks()) {
            if (block == paged::RequestBlocks::kNoBlock) {
                continue;
            }
            if (groups[g].manager.refCount(block) != 1) {
                return errorStatus(ErrorCode::kFailedPrecondition,
                                   "block shared with another request");
            }
        }
        if (list.liveBlockCount() > groups[g].manager.numCpuFree()) {
            return errorStatus(ErrorCode::kOutOfMemory,
                               "CPU block pool full");
        }
    }
    if (live_total == 0) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "slot holds no blocks");
    }
    return Status::ok();
}

bool
PagedBackend::WorkerPool::canSwapIn(int slot) const
{
    const Slot *state = find(slot);
    if (state == nullptr || !state->swapped()) {
        return false;
    }
    // Mirror canAdmit's watermark: keep one block of headroom per
    // resident request so the next decode iteration cannot OOM.
    const i64 resident = live_slots - swapped_slots;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (groups[g].manager.numAllocatable() <
            static_cast<i64>(state->cpu_blocks[g].size()) + resident) {
            return false;
        }
    }
    return true;
}

Result<u64>
PagedBackend::WorkerPool::swapOutSlot(int slot)
{
    const Status refusal = swapOutRefusal(slot);
    if (!refusal.isOk()) {
        return Result<u64>(refusal);
    }
    Slot &state = *find(slot);
    u64 swapped_bytes = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        state.swap_leads[g] = state.blocks[g].lead();
        const std::vector<i32> blocks =
            state.blocks[g].releaseForSwap();
        state.cpu_blocks[g].reserve(blocks.size());
        for (const i32 block : blocks) {
            if (block == paged::RequestBlocks::kNoBlock) {
                continue;
            }
            auto cpu_block = groups[g].manager.swapOutBlock(block);
            cpu_block.status().expectOk("swapOutBlock after checks");
            state.cpu_blocks[g].push_back(cpu_block.value());
        }
        swapped_bytes += static_cast<u64>(state.cpu_blocks[g].size()) *
                         groups[g].bytes_per_block;
    }
    // Swapping invalidates the slot's registered hashes (the manager
    // dropped them with the device blocks); prefill re-registers from
    // scratch if the request is ever re-run through registerPrefix.
    state.hashes.clear();
    state.chain = 0;
    ++swapped_slots;
    return swapped_bytes;
}

Result<u64>
PagedBackend::WorkerPool::swapInSlot(int slot)
{
    Slot *found = find(slot);
    if (found == nullptr) {
        return Result<u64>(ErrorCode::kInvalidArgument,
                           "unknown slot");
    }
    Slot &state = *found;
    if (!state.swapped()) {
        return Result<u64>(ErrorCode::kFailedPrecondition,
                           "slot not swapped out");
    }
    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (groups[g].manager.numAllocatable() <
            static_cast<i64>(state.cpu_blocks[g].size())) {
            return Result<u64>(ErrorCode::kOutOfMemory,
                               "device block pool full");
        }
    }
    u64 swapped_bytes = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        // Restore the dead-lead boundary first so the revived table
        // keeps absolute indexing for the window layers.
        state.blocks[g].advanceLeadTo(state.swap_leads[g]);
        for (const i32 cpu_block : state.cpu_blocks[g]) {
            auto block = groups[g].manager.swapInBlock(cpu_block);
            block.status().expectOk("swapInBlock after capacity check");
            state.blocks[g].adoptBlock(block.value());
        }
        swapped_bytes += static_cast<u64>(state.cpu_blocks[g].size()) *
                         groups[g].bytes_per_block;
        state.cpu_blocks[g].clear();
        state.swap_leads[g] = 0;
    }
    --swapped_slots;
    return swapped_bytes;
}

Result<SwappedKvImage>
PagedBackend::WorkerPool::exportSlot(int slot)
{
    const Slot *state = find(slot);
    if (state == nullptr) {
        return Result<SwappedKvImage>(ErrorCode::kInvalidArgument,
                                      "unknown slot");
    }
    if (!state->swapped()) {
        return Result<SwappedKvImage>(
            ErrorCode::kFailedPrecondition,
            "only swapped-out slots can export");
    }
    // The image's units are the window classes: per class the block
    // count and dead-lead boundary. The CPU blocks themselves return
    // to this worker's pool — logically their payload moves to the
    // adopter's host pool (same node, modeled zero-copy).
    SwappedKvImage image;
    image.units.reserve(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
        image.units.push_back(
            {layouts[g], state->swap_leads[g],
             static_cast<i64>(state->cpu_blocks[g].size())});
        image.bytes += static_cast<u64>(state->cpu_blocks[g].size()) *
                       groups[g].bytes_per_block;
    }
    // freeSlot releases the CPU blocks and drops the (empty, already
    // released at swap-out) device block lists.
    freeSlot(slot);
    return image;
}

bool
PagedBackend::WorkerPool::canImportImage(
    const SwappedKvImage &image) const
{
    if (!image.cutAs(layouts) || image.empty()) {
        return false;
    }
    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (groups[g].manager.numCpuFree() < image.units[g].pages) {
            return false;
        }
    }
    return true;
}

Result<int>
PagedBackend::WorkerPool::importImage(const SwappedKvImage &image)
{
    // A block holds block_size tokens at any TP degree, so only the
    // window classes and the block size must match.
    if (!image.cutAs(layouts) || image.empty()) {
        return Result<int>(ErrorCode::kInvalidArgument,
                           "image geometry mismatch");
    }
    if (!canImportImage(image)) {
        return Result<int>(ErrorCode::kOutOfMemory,
                           "host pool cannot hold the imported image");
    }
    const int slot = allocSlot();
    Slot &state = slots[static_cast<std::size_t>(slot)];
    for (std::size_t g = 0; g < groups.size(); ++g) {
        state.swap_leads[g] = image.units[g].lead;
        state.cpu_blocks[g].reserve(
            static_cast<std::size_t>(image.units[g].pages));
        for (i64 b = 0; b < image.units[g].pages; ++b) {
            auto cpu_block = groups[g].manager.acquireCpuBlock();
            cpu_block.status().expectOk(
                "acquireCpuBlock after capacity check");
            state.cpu_blocks[g].push_back(cpu_block.value());
        }
    }
    // The slot is born swapped-out: the regular swapIn path revives
    // it (advanceLeadTo restores the window boundary, adoptBlock the
    // device residency).
    swapped_slots += state.swapped() ? 1 : 0;
    return slot;
}

u64
PagedBackend::WorkerPool::slotPhysBytes(int slot) const
{
    const Slot *state = find(slot);
    if (state == nullptr) {
        return 0;
    }
    u64 bytes = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        bytes += static_cast<u64>(state->blocks[g].liveBlockCount()) *
                 groups[g].bytes_per_block;
    }
    return bytes;
}

u64
PagedBackend::WorkerPool::bytesInUse() const
{
    // Evictable cached blocks are reclaimable capacity, not live use.
    u64 bytes = 0;
    for (const LayerGroup &group : groups) {
        bytes += static_cast<u64>(group.manager.numLive()) *
                 group.bytes_per_block;
    }
    return bytes;
}

i64
PagedBackend::WorkerPool::blocksHeld(int slot) const
{
    const Slot *state = find(slot);
    panic_if(state == nullptr, "blocksHeld on unknown slot ", slot);
    i64 held = 0;
    for (const auto &list : state->blocks) {
        held += list.liveBlockCount();
    }
    return held;
}

void
PagedBackend::WorkerPool::auditInto(audit::AuditReport &report,
                                    std::size_t worker) const
{
    for (const LayerGroup &group : groups) {
        group.manager.auditInto(report);
    }
    // Slot-side cross-checks: this worker's slots are the only block
    // holders, so the references they hold must account for every
    // refcount in each group's manager, and swapped slots must own
    // every CPU block in use.
    std::vector<i64> held(groups.size(), 0);
    std::vector<i64> cpu_held(groups.size(), 0);
    i64 live = 0;
    i64 swapped = 0;
    for (std::size_t slot = 0; slot < slots.size(); ++slot) {
        const Slot &state = slots[slot];
        if (!state.live) {
            continue;
        }
        ++live;
        swapped += state.swapped() ? 1 : 0;
        i64 live_total = 0;
        for (std::size_t g = 0; g < groups.size(); ++g) {
            const auto &list = state.blocks[g];
            for (std::size_t i = 0; i < list.blocks().size(); ++i) {
                const i32 block = list.blocks()[i];
                if (block == paged::RequestBlocks::kNoBlock) {
                    if (static_cast<i64>(i) >= list.lead()) {
                        report.fail("paged_backend: worker ", worker,
                                    " slot ", slot, " group ", g,
                                    " has a hole at live index ", i,
                                    " (kNoBlock past the lead)");
                    }
                    continue;
                }
                if (static_cast<i64>(i) < list.lead()) {
                    report.fail(
                        "paged_backend: worker ", worker, " slot ",
                        slot, " group ", g, " still holds block ",
                        block, " inside the dead window lead [0, ",
                        list.lead(),
                        ") — a rogue window-tail block survived "
                        "eviction");
                }
                if (groups[g].manager.refCount(block) < 1) {
                    report.fail("paged_backend: worker ", worker,
                                " slot ", slot, " holds block ", block,
                                " with refcount ",
                                groups[g].manager.refCount(block),
                                " (freed while still held)");
                }
                ++held[g];
                ++live_total;
            }
            cpu_held[g] +=
                static_cast<i64>(state.cpu_blocks[g].size());
        }
        if (state.swapped() && live_total > 0) {
            report.fail("paged_backend: worker ", worker,
                        " swapped slot ", slot, " still holds ",
                        live_total, " device blocks");
        }
    }
    report.check(live == live_slots && swapped == swapped_slots &&
                     live + static_cast<i64>(free_ids.size()) ==
                         static_cast<i64>(slots.size()),
                 "paged_backend: worker ", worker, " has ", live,
                 " live slots (", swapped, " swapped) but counts ",
                 live_slots, " (", swapped_slots, " swapped) with ",
                 free_ids.size(), " free ids of ", slots.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
        report.check(held[g] == groups[g].manager.totalRefCount(),
                     "paged_backend: worker ", worker, " group ", g,
                     " slots hold ", held[g],
                     " device-block references but the manager "
                     "counts ",
                     groups[g].manager.totalRefCount(),
                     " (a reference leaked outside the slots)");
        report.check(cpu_held[g] == groups[g].manager.numCpuInUse(),
                     "paged_backend: worker ", worker, " group ", g,
                     " slots own ", cpu_held[g],
                     " CPU blocks but the manager has ",
                     groups[g].manager.numCpuInUse(), " in use");
    }
}

Result<int>
PagedBackend::allocSlot()
{
    return workers_.apply("allocSlot",
                          [](WorkerPool &pool) { return pool.allocSlot(); });
}

Result<SlotLease>
PagedBackend::allocSlot(const PrefixKey &key, i64 max_cached)
{
    const int slot = allocSlot().value();
    return workers_.apply("adoptPrefix", [&](WorkerPool &pool) {
        return pool.adoptPrefix(slot, key, max_cached);
    });
}

void
PagedBackend::registerPrefix(int slot, const PrefixKey &key, i64 tokens)
{
    workers_.apply("registerPrefix", [&](WorkerPool &pool) {
        pool.registerPrefix(slot, key, tokens);
    });
}

void
PagedBackend::freeSlot(int slot)
{
    workers_.apply("freeSlot",
                   [&](WorkerPool &pool) { pool.freeSlot(slot); });
}

Result<SwapResult>
PagedBackend::swapOut(int slot)
{
    auto bytes = workers_.apply("swapOut", [&](WorkerPool &pool) {
        return pool.swapOutSlot(slot);
    });
    if (!bytes.isOk()) {
        return Result<SwapResult>(bytes.status());
    }
    // Each worker copies its own shard concurrently, so the group's
    // swap latency is one worker's.
    return SwapResult{bytes.value(), pcie_.dtohNs(bytes.value())};
}

Result<SwapResult>
PagedBackend::swapIn(int slot)
{
    auto bytes = workers_.apply("swapIn", [&](WorkerPool &pool) {
        return pool.swapInSlot(slot);
    });
    if (!bytes.isOk()) {
        return Result<SwapResult>(bytes.status());
    }
    return SwapResult{bytes.value(), pcie_.htodNs(bytes.value())};
}

Result<SwappedKvImage>
PagedBackend::exportSwapped(int slot)
{
    // Per-worker shards export in lockstep; the image records one
    // worker's counts and per-worker bytes (the shards are identical
    // — the same convention SwapResult::bytes uses).
    return workers_.apply("exportSwapped", [&](WorkerPool &pool) {
        return pool.exportSlot(slot);
    });
}

bool
PagedBackend::canImportSwapped(const SwappedKvImage &image) const
{
    return hasHostTier() && workers_.lead().canImportImage(image);
}

Result<int>
PagedBackend::importSwapped(const SwappedKvImage &image)
{
    return workers_.apply("importSwapped", [&](WorkerPool &pool) {
        return pool.importImage(image);
    });
}

Result<TimeNs>
PagedBackend::ensure(const ActiveLens &active)
{
    for (const auto &[slot, len] : active) {
        // A new block is due only once every block_size tokens (or
        // when a window lead dies), so most calls change nothing.
        // Followers equal the lead by the lockstep invariant, which
        // auditInto cross-checks.
        if (workers_.lead().ensureIsNoop(slot, len)) {
#if VATTN_AUDIT
            for (int w = 0; w < workers_.size(); ++w) {
                workers_.worker(w).checkSkippedEnsure(
                    slot, len, static_cast<std::size_t>(w));
            }
#endif
            continue;
        }
        Status status = workers_.apply("ensure", [&](WorkerPool &pool) {
            return pool.ensureSlot(slot, len);
        });
        if (!status.isOk()) {
            return Result<TimeNs>(status);
        }
    }
    // Block allocation is CPU-side list manipulation over memory that
    // was committed at startup: no driver latency on this path.
    return TimeNs{0};
}

void
PagedBackend::auditInto(audit::AuditReport &report) const
{
    for (int w = 0; w < workers_.size(); ++w) {
        workers_.worker(w).auditInto(report,
                                     static_cast<std::size_t>(w));
    }
    const WorkerPool &lead = workers_.lead();
    report.check(lead.bytesInUse() <= budgetBytes(),
                 "paged_backend: ", lead.bytesInUse(),
                 " bytes in use exceed the ", budgetBytes(),
                 "-byte budget");
    // Cross-worker state equality: every control input was identical
    // and the pool logic is deterministic, so any divergence means one
    // worker's bookkeeping drifted — localize it by worker, group and
    // slot so the failure is actionable.
    workers_.forEachFollower([&](std::size_t w, const WorkerPool &other,
                                 const WorkerPool &reference) {
        report.check(other.live_slots == reference.live_slots,
                     "paged_backend: worker ", w, " tracks ",
                     other.live_slots, " slots but worker 0 tracks ",
                     reference.live_slots, " (lockstep divergence)");
        for (std::size_t g = 0; g < reference.groups.size(); ++g) {
            report.check(other.groups[g].manager.numLive() ==
                             reference.groups[g].manager.numLive(),
                         "paged_backend: worker ", w, " group ", g,
                         " has ", other.groups[g].manager.numLive(),
                         " live blocks but worker 0 has ",
                         reference.groups[g].manager.numLive(),
                         " (lockstep divergence)");
            report.check(other.groups[g].manager.numCpuInUse() ==
                             reference.groups[g].manager.numCpuInUse(),
                         "paged_backend: worker ", w, " group ", g,
                         " uses ",
                         other.groups[g].manager.numCpuInUse(),
                         " CPU blocks but worker 0 uses ",
                         reference.groups[g].manager.numCpuInUse(),
                         " (lockstep divergence)");
        }
        for (int slot = 0; slot < static_cast<int>(reference.slots.size());
             ++slot) {
            const Slot *state = reference.find(slot);
            if (state == nullptr) {
                continue;
            }
            const Slot *mirror = other.find(slot);
            if (mirror == nullptr) {
                report.fail("paged_backend: worker ", w,
                            " is missing slot ", slot,
                            " that worker 0 tracks — a worker's "
                            "sequence state desynced from the group");
                continue;
            }
            report.check(
                other.blocksHeld(slot) == reference.blocksHeld(slot),
                "paged_backend: worker ", w, " slot ", slot, " holds ",
                other.blocksHeld(slot), " blocks but worker 0 holds ",
                reference.blocksHeld(slot),
                " — a worker's sequence state desynced from the group");
            report.check(mirror->swapped() == state->swapped(),
                         "paged_backend: worker ", w, " slot ", slot,
                         " disagrees with worker 0 on swap residency "
                         "(lockstep divergence)");
        }
    });
}

} // namespace vattn::serving
