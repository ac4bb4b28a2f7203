#include "paged/paged_runtime.hh"

#include <algorithm>
#include <limits>

#include "common/layer_windows.hh"
#include "common/logging.hh"

namespace vattn::paged
{

Status
PagedRuntime::Config::validate() const
{
    const Status windows = validateLayerWindows(
        layer_window_tokens, num_layers, max_context_len);
    if (!windows.isOk()) {
        return windows;
    }
    if (prefix_caching &&
        std::any_of(layer_window_tokens.begin(), layer_window_tokens.end(),
                    [](i64 window) { return window > 0; })) {
        return errorStatus(
            ErrorCode::kInvalidArgument,
            "paged prefix caching hashes whole-model blocks and is not "
            "supported with sliding-window layers (vLLM's hash-block "
            "scheme has the same restriction); disable one of the two");
    }
    return Status::ok();
}

PagedRuntime::PagedRuntime(int worker, const Config &config)
    : config_(config), worker_(static_cast<std::size_t>(worker))
{
    config_.validate().expectOk("paged runtime config");
    const auto layers = static_cast<u64>(config_.num_layers);
    for (const WindowClass &cls :
         windowClasses(config_.layer_window_tokens, config_.num_layers)) {
        layouts_.push_back({config_.block_size, cls.window_tokens});
        const auto share = static_cast<u64>(cls.layers);
        const u64 bytes_per_block = config_.layer_block_bytes * share;
        const u64 budget_share = config_.budget_bytes * share / layers;
        const u64 host_share = config_.host_swap_bytes * share / layers;
        groups_.push_back(LayerGroup{
            cls.window_tokens, bytes_per_block,
            BlockManager(static_cast<i64>(budget_share / bytes_per_block),
                         config_.block_size, config_.prefix_caching,
                         static_cast<i64>(host_share / bytes_per_block))});
    }
}

bool
PagedRuntime::Slot::swapped() const
{
    return std::any_of(groups.begin(), groups.end(), [](const auto &g) {
        return !g.cpu_blocks.empty();
    });
}

PagedRuntime::LayerGroup &
PagedRuntime::groupAt(int group)
{
    panic_if(group < 0 || group >= numLayerGroups(), "no window class ",
             group);
    return groups_[static_cast<std::size_t>(group)];
}

PagedRuntime::Slot *
PagedRuntime::find(int slot)
{
    if (slot < 0 || slot >= static_cast<int>(slots_.size()) ||
        !slots_[static_cast<std::size_t>(slot)].live) {
        return nullptr;
    }
    return &slots_[static_cast<std::size_t>(slot)];
}

PagedRuntime::Slot &
PagedRuntime::at(int slot, const char *op)
{
    Slot *state = find(slot);
    panic_if(state == nullptr, op, " on unknown slot ", slot);
    return *state;
}

i64
PagedRuntime::deadLeadBlocks(const LayerGroup &group, i64 tokens) const
{
    if (group.window_tokens <= 0 || tokens <= group.window_tokens) {
        return 0;
    }
    // Only blocks fully behind the window die; the straddled block
    // stays (floor division).
    return (tokens - group.window_tokens) / config_.block_size;
}

bool
PagedRuntime::canAllocate(i64 uncached_tokens) const
{
    // Reserve one block of headroom per running request so the next
    // decode iteration cannot immediately OOM (vLLM's watermark).
    // Evictable cached blocks count as capacity: allocation reclaims
    // them transparently. Every window class must fit: a sliding
    // group only ever holds the live window of blocks.
    for (const LayerGroup &group : groups_) {
        const i64 need = group.manager.blocksFor(uncached_tokens) -
                         deadLeadBlocks(group, uncached_tokens) +
                         live_slots_;
        if (group.manager.numAllocatable() < need) {
            return false;
        }
    }
    return true;
}

int
PagedRuntime::leaseSlot()
{
    // Freed slots keep their (emptied) per-group lists, so reusing an
    // id allocates nothing.
    int slot;
    if (!free_ids_.empty()) {
        slot = free_ids_.back();
        free_ids_.pop_back();
    } else {
        slot = static_cast<int>(slots_.size());
        Slot &state = slots_.emplace_back();
        state.groups.reserve(groups_.size());
        for (LayerGroup &group : groups_) {
            state.groups.push_back(SlotGroup{RequestBlocks(&group.manager)});
        }
    }
    slots_[static_cast<std::size_t>(slot)].live = true;
    ++live_slots_;
    return slot;
}

Result<int>
PagedRuntime::allocReqId()
{
    return leaseSlot();
}

i64
PagedRuntime::cachedPrefixTokens(const PrefixKey &key) const
{
    const BlockManager &manager = groups_[0].manager;
    if (!manager.prefixCacheEnabled() || key.empty()) {
        return 0;
    }
    i64 matched = 0;
    for (u64 hash : key.chunkHashes(config_.block_size)) {
        if (manager.lookupHash(hash) < 0) {
            break;
        }
        ++matched;
    }
    return matched * config_.block_size;
}

Result<SlotLease>
PagedRuntime::allocReqIdWithPrefix(const PrefixKey &key, i64 max_cached)
{
    SlotLease lease{leaseSlot(), 0, 0};
    BlockManager &manager = groups_[0].manager;
    if (!manager.prefixCacheEnabled() || key.empty()) {
        return lease;
    }
    Slot &state = at(lease.slot, "allocReqIdWithPrefix");
    const i64 bs = config_.block_size;
    auto hashes = key.chunkHashes(bs);
    const auto shareable = static_cast<std::size_t>(
        std::min<i64>(static_cast<i64>(hashes.size()), max_cached / bs));
    for (std::size_t i = 0; i < shareable; ++i) {
        const i32 block = manager.lookupHash(hashes[i]);
        if (block < 0) {
            break;
        }
        manager.refSharedBlock(block).expectOk("prefix block ref");
        state.groups[0].blocks.adoptBlock(block);
        state.hashes.push_back(hashes[i]);
        state.chain = hashes[i];
        lease.cached_tokens += bs;
        prefix_.aliased_bytes += groups_[0].bytes_per_block;
    }
    // Sharing is refcount bookkeeping over the up-front committed
    // pool: no driver latency (the CPU cost rides the overhead model).
    return lease;
}

void
PagedRuntime::registerPrefix(int slot, const PrefixKey &key, i64 tokens)
{
    BlockManager &manager = groups_[0].manager;
    if (!manager.prefixCacheEnabled() || key.empty()) {
        return;
    }
    Slot &state = at(slot, "registerPrefix");
    const auto &blocks = state.groups[0].blocks.blocks();
    const i64 bs = config_.block_size;
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

Status
PagedRuntime::freeReqId(int slot)
{
    Slot &state = at(slot, "freeReqId");
    // A slot freed while swapped out abandons its CPU blocks.
    swapped_slots_ -= state.swapped() ? 1 : 0;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        SlotGroup &held = state.groups[g];
        for (const i32 cpu_block : held.cpu_blocks) {
            groups_[g].manager.freeCpuBlock(cpu_block).expectOk(
                "free CPU block");
        }
        held.cpu_blocks.clear();
        held.swap_lead = 0;
        // Dropping the references parks hashed refcount-0 blocks on
        // the evictable LRU (the prefix cache); the rest return to the
        // free list.
        held.blocks.releaseAll();
    }
    state.hashes.clear();
    state.chain = 0;
    state.live = false;
    --live_slots_;
    free_ids_.push_back(slot);
    return Status::ok();
}

StepStats
PagedRuntime::step(std::span<const std::pair<int, i64>> active)
{
    for (const auto &[slot, len] : active) {
        // A new block is due only once every block_size tokens (or
        // when a window lead dies), so most calls change nothing.
        if (ensureIsNoop(slot, len)) {
#if VATTN_AUDIT
            checkSkippedEnsure(slot, len);
#endif
            continue;
        }
        Status status = ensureSlot(slot, len);
        if (!status.isOk()) {
            return StepStats{status};
        }
    }
    // Block allocation is CPU-side list manipulation over memory that
    // was committed at startup: no driver latency on this path.
    return StepStats{};
}

Status
PagedRuntime::ensureSlot(int slot, i64 len)
{
    Slot &state = at(slot, "ensure");
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        RequestBlocks &list = state.groups[g].blocks;
        // Free dead leading blocks before growing so a tight pool
        // benefits from the reclaimed blocks in the same call.
        if (groups_[g].window_tokens > 0) {
            list.advanceLeadTo(deadLeadBlocks(groups_[g], len));
        }
        auto status = list.ensureTokens(len);
        if (!status.isOk()) {
            return status;
        }
    }
    return Status::ok();
}

bool
PagedRuntime::ensureIsNoop(int slot, i64 len) const
{
    const Slot *state = find(slot);
    if (state == nullptr) {
        return false;
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const RequestBlocks &list = state->groups[g].blocks;
        // deadLeadBlocks is 0 on full-attention groups, whose lead
        // stays at 0.
        if (groups_[g].manager.blocksFor(len) >
                static_cast<i64>(list.blocks().size()) ||
            deadLeadBlocks(groups_[g], len) > list.lead()) {
            return false;
        }
    }
    return true;
}

i64
PagedRuntime::nextWorkLen(int slot, i64 len) const
{
    const Slot *state = find(slot);
    if (state == nullptr) {
        return len;
    }
    const i64 bs = config_.block_size;
    i64 next = std::numeric_limits<i64>::max();
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const RequestBlocks &list = state->groups[g].blocks;
        // blocksFor(L) > blocks  <=>  L > blocks * block_size.
        next = std::min(next,
                        static_cast<i64>(list.blocks().size()) * bs + 1);
        // deadLeadBlocks(L) > lead  <=>  L >= window + (lead + 1) *
        // block_size.
        const i64 window = groups_[g].window_tokens;
        if (window > 0) {
            next = std::min(next, window + (list.lead() + 1) * bs);
        }
    }
    return std::max(len, next);
}

void
PagedRuntime::checkSkippedEnsure(int slot, i64 len)
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
        const RequestBlocks &list = state.groups[g].blocks;
        const BlockManager &manager = groups_[g].manager;
        return GroupState{list.blocks().size(), list.lead(),
                          manager.numFree(), manager.numEvictable()};
    };
    std::vector<GroupState> before;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        before.push_back(snapshot(g));
    }
    ensureSlot(slot, len).expectOk("skipped ensure");
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const GroupState after = snapshot(g);
        panic_if(!(after == before[g]), "paged_runtime: worker ", worker_,
                 " skipped ensure(", slot, ", ", len,
                 ") but it changed group ", g, ": blocks ",
                 before[g].blocks, " -> ", after.blocks, ", lead ",
                 before[g].lead, " -> ", after.lead, ", free ",
                 before[g].free, " -> ", after.free, ", evictable ",
                 before[g].evictable, " -> ", after.evictable);
    }
}

Status
PagedRuntime::swapOutRefusal(int slot) const
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
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const RequestBlocks &list = state->groups[g].blocks;
        live_total += list.liveBlockCount();
        for (const i32 block : list.blocks()) {
            if (block != RequestBlocks::kNoBlock &&
                groups_[g].manager.refCount(block) != 1) {
                return errorStatus(ErrorCode::kFailedPrecondition,
                                   "block shared with another request");
            }
        }
        if (list.liveBlockCount() > groups_[g].manager.numCpuFree()) {
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
PagedRuntime::canSwapIn(int slot) const
{
    const Slot *state = find(slot);
    if (state == nullptr || !state->swapped()) {
        return false;
    }
    // Mirror canAllocate's watermark: keep one block of headroom per
    // resident request so the next decode iteration cannot OOM.
    const i64 resident = live_slots_ - swapped_slots_;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        if (groups_[g].manager.numAllocatable() <
            static_cast<i64>(state->groups[g].cpu_blocks.size()) +
                resident) {
            return false;
        }
    }
    return true;
}

SwapStats
PagedRuntime::swapOutReq(int slot)
{
    const Status refusal = swapOutRefusal(slot);
    if (!refusal.isOk()) {
        return SwapStats{refusal};
    }
    Slot &state = *find(slot);
    SwapStats stats;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        SlotGroup &held = state.groups[g];
        held.swap_lead = held.blocks.lead();
        const std::vector<i32> blocks = held.blocks.releaseForSwap();
        held.cpu_blocks.reserve(blocks.size());
        for (const i32 block : blocks) {
            if (block == RequestBlocks::kNoBlock) {
                continue;
            }
            auto cpu_block = groups_[g].manager.swapOutBlock(block);
            cpu_block.status().expectOk("swapOutBlock after checks");
            held.cpu_blocks.push_back(cpu_block.value());
        }
        stats.handles += static_cast<i64>(held.cpu_blocks.size());
        stats.bytes += static_cast<u64>(held.cpu_blocks.size()) *
                       groups_[g].bytes_per_block;
    }
    // Swapping invalidates the slot's registered hashes (the manager
    // dropped them with the device blocks); prefill re-registers from
    // scratch if the request is ever re-run through registerPrefix.
    state.hashes.clear();
    state.chain = 0;
    ++swapped_slots_;
    stats.critical_ns = config_.copy.dtohNs(stats.bytes);
    return stats;
}

SwapStats
PagedRuntime::swapInReq(int slot)
{
    Slot *state = find(slot);
    if (state == nullptr) {
        return SwapStats{
            errorStatus(ErrorCode::kInvalidArgument, "unknown slot")};
    }
    if (!state->swapped()) {
        return SwapStats{errorStatus(ErrorCode::kFailedPrecondition,
                                     "slot not swapped out")};
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        if (groups_[g].manager.numAllocatable() <
            static_cast<i64>(state->groups[g].cpu_blocks.size())) {
            return SwapStats{errorStatus(ErrorCode::kOutOfMemory,
                                         "device block pool full")};
        }
    }
    SwapStats stats;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        SlotGroup &held = state->groups[g];
        // Restore the dead-lead boundary first so the revived table
        // keeps absolute indexing for the window layers.
        held.blocks.advanceLeadTo(held.swap_lead);
        for (const i32 cpu_block : held.cpu_blocks) {
            auto block = groups_[g].manager.swapInBlock(cpu_block);
            block.status().expectOk("swapInBlock after capacity check");
            held.blocks.adoptBlock(block.value());
        }
        stats.handles += static_cast<i64>(held.cpu_blocks.size());
        stats.bytes += static_cast<u64>(held.cpu_blocks.size()) *
                       groups_[g].bytes_per_block;
        held.cpu_blocks.clear();
        held.swap_lead = 0;
    }
    --swapped_slots_;
    stats.critical_ns = config_.copy.htodNs(stats.bytes);
    return stats;
}

Result<SwappedKvImage>
PagedRuntime::exportSwapped(int slot)
{
    const Slot *state = find(slot);
    if (state == nullptr) {
        return Result<SwappedKvImage>(ErrorCode::kInvalidArgument,
                                      "unknown slot");
    }
    if (!state->swapped()) {
        return Result<SwappedKvImage>(ErrorCode::kFailedPrecondition,
                                      "only swapped-out slots can export");
    }
    // The image's units are the window classes: per class the block
    // count and dead-lead boundary. The CPU blocks themselves return
    // to this worker's pool — logically their payload moves to the
    // adopter's host pool (same node, modeled zero-copy).
    SwappedKvImage image;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const SlotGroup &held = state->groups[g];
        const auto pages = static_cast<i64>(held.cpu_blocks.size());
        image.units.push_back({layouts_[g], held.swap_lead, pages});
        image.bytes += static_cast<u64>(pages) * groups_[g].bytes_per_block;
    }
    // Freeing releases the CPU blocks and drops the (empty, already
    // released at swap-out) device block lists.
    freeReqId(slot).expectOk("export");
    return image;
}

bool
PagedRuntime::canImportSwapped(const SwappedKvImage &image) const
{
    if (!image.cutAs(layouts_) || image.empty()) {
        return false;
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        if (groups_[g].manager.numCpuFree() < image.units[g].pages) {
            return false;
        }
    }
    return true;
}

Result<int>
PagedRuntime::importSwapped(const SwappedKvImage &image)
{
    // A block holds block_size tokens at any TP degree, so only the
    // window classes and the block size must match.
    if (!image.cutAs(layouts_) || image.empty()) {
        return Result<int>(ErrorCode::kInvalidArgument,
                           "image geometry mismatch");
    }
    if (!canImportSwapped(image)) {
        return Result<int>(ErrorCode::kOutOfMemory,
                           "host pool cannot hold the imported image");
    }
    const int slot = leaseSlot();
    Slot &state = slots_[static_cast<std::size_t>(slot)];
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        SlotGroup &held = state.groups[g];
        held.swap_lead = image.units[g].lead;
        for (i64 b = 0; b < image.units[g].pages; ++b) {
            auto cpu_block = groups_[g].manager.acquireCpuBlock();
            cpu_block.status().expectOk(
                "acquireCpuBlock after capacity check");
            held.cpu_blocks.push_back(cpu_block.value());
        }
    }
    // The slot is born swapped-out: the regular swapIn path revives
    // it (advanceLeadTo restores the window boundary, adoptBlock the
    // device residency).
    swapped_slots_ += state.swapped() ? 1 : 0;
    return slot;
}

u64
PagedRuntime::slotPhysBytes(int slot) const
{
    const Slot *state = find(slot);
    if (state == nullptr) {
        return 0;
    }
    u64 bytes = 0;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        bytes += static_cast<u64>(state->groups[g].blocks.liveBlockCount()) *
                 groups_[g].bytes_per_block;
    }
    return bytes;
}

u64
PagedRuntime::physBytesMapped() const
{
    u64 bytes = 0;
    for (const LayerGroup &group : groups_) {
        bytes += static_cast<u64>(group.manager.numLive()) *
                 group.bytes_per_block;
    }
    return bytes;
}

u64
PagedRuntime::hostSwapBudgetBytes() const
{
    u64 bytes = 0;
    for (const LayerGroup &group : groups_) {
        bytes += static_cast<u64>(group.manager.numCpuBlocks()) *
                 group.bytes_per_block;
    }
    return bytes;
}

i64
PagedRuntime::blocksHeld(int slot) const
{
    const Slot *state = find(slot);
    panic_if(state == nullptr, "blocksHeld on unknown slot ", slot);
    i64 held = 0;
    for (const SlotGroup &group : state->groups) {
        held += group.blocks.liveBlockCount();
    }
    return held;
}

const RequestBlocks &
PagedRuntime::slotBlocks(int slot, int group) const
{
    const Slot *state = find(slot);
    panic_if(state == nullptr || group < 0 || group >= numLayerGroups(),
             "no slot ", slot, " group ", group);
    return state->groups[static_cast<std::size_t>(group)].blocks;
}

void
PagedRuntime::auditInto(audit::AuditReport &report) const
{
    for (const LayerGroup &group : groups_) {
        group.manager.auditInto(report);
    }
    // Slot-side cross-checks: this worker's slots are the only block
    // holders, so the references they hold must account for every
    // refcount in each group's manager, and swapped slots must own
    // every CPU block in use.
    std::vector<i64> held(groups_.size(), 0);
    std::vector<i64> cpu_held(groups_.size(), 0);
    i64 live = 0;
    i64 swapped = 0;
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
        const Slot &state = slots_[slot];
        if (!state.live) {
            continue;
        }
        ++live;
        swapped += state.swapped() ? 1 : 0;
        i64 live_total = 0;
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            const RequestBlocks &list = state.groups[g].blocks;
            for (std::size_t i = 0; i < list.blocks().size(); ++i) {
                const i32 block = list.blocks()[i];
                const bool dead = static_cast<i64>(i) < list.lead();
                if (block == RequestBlocks::kNoBlock) {
                    if (!dead) {
                        report.fail("paged_runtime: worker ", worker_,
                                    " slot ", slot, " group ", g,
                                    " has a hole at live index ", i,
                                    " (kNoBlock past the lead)");
                    }
                    continue;
                }
                if (dead) {
                    report.fail(
                        "paged_runtime: worker ", worker_, " slot ", slot,
                        " group ", g, " still holds block ", block,
                        " inside the dead window lead [0, ", list.lead(),
                        ") — a rogue window-tail block survived "
                        "eviction");
                }
                if (groups_[g].manager.refCount(block) < 1) {
                    report.fail("paged_runtime: worker ", worker_,
                                " slot ", slot, " holds block ", block,
                                " with refcount ",
                                groups_[g].manager.refCount(block),
                                " (freed while still held)");
                }
                ++held[g];
                ++live_total;
            }
            cpu_held[g] +=
                static_cast<i64>(state.groups[g].cpu_blocks.size());
        }
        if (state.swapped() && live_total > 0) {
            report.fail("paged_runtime: worker ", worker_,
                        " swapped slot ", slot, " still holds ",
                        live_total, " device blocks");
        }
    }
    report.check(live == live_slots_ && swapped == swapped_slots_ &&
                     live + static_cast<i64>(free_ids_.size()) ==
                         static_cast<i64>(slots_.size()),
                 "paged_runtime: worker ", worker_, " has ", live,
                 " live slots (", swapped, " swapped) but counts ",
                 live_slots_, " (", swapped_slots_, " swapped) with ",
                 free_ids_.size(), " free ids of ", slots_.size());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const BlockManager &manager = groups_[g].manager;
        report.check(held[g] == manager.totalRefCount(),
                     "paged_runtime: worker ", worker_, " group ", g,
                     " slots hold ", held[g],
                     " device-block references but the manager counts ",
                     manager.totalRefCount(),
                     " (a reference leaked outside the slots)");
        report.check(cpu_held[g] == manager.numCpuInUse(),
                     "paged_runtime: worker ", worker_, " group ", g,
                     " slots own ", cpu_held[g],
                     " CPU blocks but the manager has ",
                     manager.numCpuInUse(), " in use");
    }
    report.check(physBytesMapped() <= budgetBytes(),
                 "paged_runtime: worker ", worker_, " has ",
                 physBytesMapped(), " bytes in use, over the ",
                 budgetBytes(), "-byte budget");
}

void
PagedRuntime::auditAgainstLead(const PagedRuntime &lead, std::size_t w,
                               audit::AuditReport &report) const
{
    // Every control input was identical and the pool logic is
    // deterministic, so any divergence means one worker's bookkeeping
    // drifted — localize it by worker, group and slot.
    report.check(live_slots_ == lead.live_slots_, "paged_runtime: worker ",
                 w, " tracks ", live_slots_, " slots but worker 0 tracks ",
                 lead.live_slots_, " (lockstep divergence)");
    for (std::size_t g = 0; g < lead.groups_.size(); ++g) {
        const BlockManager &mine = groups_[g].manager;
        const BlockManager &theirs = lead.groups_[g].manager;
        report.check(mine.numLive() == theirs.numLive(),
                     "paged_runtime: worker ", w, " group ", g, " has ",
                     mine.numLive(), " live blocks but worker 0 has ",
                     theirs.numLive(), " (lockstep divergence)");
        report.check(mine.numCpuInUse() == theirs.numCpuInUse(),
                     "paged_runtime: worker ", w, " group ", g, " uses ",
                     mine.numCpuInUse(), " CPU blocks but worker 0 uses ",
                     theirs.numCpuInUse(), " (lockstep divergence)");
    }
    for (int slot = 0; slot < static_cast<int>(lead.slots_.size());
         ++slot) {
        const Slot *state = lead.find(slot);
        if (state == nullptr) {
            continue;
        }
        const Slot *mirror = find(slot);
        if (mirror == nullptr) {
            report.fail("paged_runtime: worker ", w, " is missing slot ",
                        slot,
                        " that worker 0 tracks — a worker's sequence "
                        "state desynced from the group");
            continue;
        }
        report.check(blocksHeld(slot) == lead.blocksHeld(slot),
                     "paged_runtime: worker ", w, " slot ", slot,
                     " holds ", blocksHeld(slot),
                     " blocks but worker 0 holds ", lead.blocksHeld(slot),
                     " — a worker's sequence state desynced from the "
                     "group");
        report.check(mirror->swapped() == state->swapped(),
                     "paged_runtime: worker ", w, " slot ", slot,
                     " disagrees with worker 0 on swap residency "
                     "(lockstep divergence)");
    }
}

} // namespace vattn::paged
