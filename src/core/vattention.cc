#include "core/vattention.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/prefix_hash.hh"

namespace vattn::core
{

namespace
{

u64
resolveBudget(const Config &config, cuvmm::Driver &driver)
{
    if (config.phys_budget_bytes != 0) {
        return config.phys_budget_bytes;
    }
    return driver.device().freePhysBytes();
}

/** How each KV buffer is cut into page-groups. */
std::vector<KvPageLayout>
unitLayouts(const KvGeometry &geom)
{
    std::vector<KvPageLayout> layouts;
    for (int b = 0; b < geom.numBuffers(); ++b) {
        layouts.push_back({geom.tokensPerGroup(),
                           geom.windowTokens(geom.layerOfBuffer(b))});
    }
    return layouts;
}

} // namespace

VAttention::VAttention(cuvmm::Driver &driver, const Config &config)
    : driver_(driver), config_(config),
      pool_(driver, config.page_group, resolveBudget(config, driver),
            /*precreate=*/true, config.host_swap_bytes),
      allocator_(driver, config, pool_),
      slots_(config.max_batch_size),
      last_seq_lens_(static_cast<std::size_t>(config.max_batch_size), 0),
      step_lens_(static_cast<std::size_t>(config.max_batch_size), 0),
      listed_(config.max_batch_size),
      chains_(static_cast<std::size_t>(config.max_batch_size)),
      stashes_(static_cast<std::size_t>(config.max_batch_size)),
      unit_layouts_(unitLayouts(allocator_.geometry())),
      eager_target_(std::min(config.eager_groups,
                             allocator_.geometry().maxGroupsPerRequest()))
{
    adapter_lens_.reserve(static_cast<std::size_t>(config.max_batch_size));
    // Reservation + pre-created handles happen before serving starts;
    // none of it is critical-path time.
    stats_.init_ns = driver_.consumeElapsedNs();
}

tensor::VirtualTensor
VAttention::kCache(int layer, int req_id) const
{
    return allocator_.kView(layer, req_id);
}

tensor::VirtualTensor
VAttention::vCache(int layer, int req_id) const
{
    return allocator_.vView(layer, req_id);
}

attn::TensorKvView
VAttention::requestView(int layer, int req_id, bool touch_tlb) const
{
    return attn::TensorKvView(kCache(layer, req_id),
                              vCache(layer, req_id), touch_tlb);
}

Result<int>
VAttention::allocReqId()
{
    // Prefer the cached slot with the most retained page-groups: a new
    // request can then reuse R1's physical memory without any driver
    // calls (Figure 5 (d)-(e)). Under prefix caching, cached slots
    // carrying a hash chain are valuable store entries: prefer chain-
    // less cached slots (warm slots), then free slots, and sacrifice
    // the entry with the fewest registered tokens only as a last
    // resort.
    int best = -1;
    i64 best_handles = -1;
    if (config_.deferred_reclamation || config_.eager_allocation) {
        for (int slot : slots_.cachedOrder()) {
            if (config_.prefix_caching &&
                !chains_[static_cast<std::size_t>(slot)].empty()) {
                continue;
            }
            const i64 handles = allocator_.mappedHandles(slot);
            if (handles > best_handles) {
                best = slot;
                best_handles = handles;
            }
        }
    }
    if (best >= 0) {
        slots_.activate(best).expectOk("activate cached slot");
        ++stats_.reused_cached_slots;
        chains_[static_cast<std::size_t>(best)].clear();
        // A window-trimmed buffer restarts from empty (its lead can
        // never rewind for the new request); untrimmed buffers are
        // reusable as-is.
        allocator_.resetWindowTrimmed(best);
        // The new request overwrites every retained group: none may
        // still be aliased by another slot.
        allocator_.privatizeFrom(best, 0);
        return best;
    }
    const int free_slot = slots_.firstFree();
    if (free_slot >= 0) {
        slots_.activate(free_slot).expectOk("activate free slot");
        chains_[static_cast<std::size_t>(free_slot)].clear();
        return free_slot;
    }
    if (config_.prefix_caching) {
        // Every slot is active or a store entry: evict the entry with
        // the fewest registered tokens.
        int victim = -1;
        i64 victim_tokens = 0;
        for (int slot : slots_.cachedOrder()) {
            const i64 tokens =
                chains_[static_cast<std::size_t>(slot)].tokens;
            if (victim < 0 || tokens < victim_tokens) {
                victim = slot;
                victim_tokens = tokens;
            }
        }
        if (victim >= 0) {
            slots_.activate(victim).expectOk("activate cached slot");
            ++stats_.reused_cached_slots;
            chains_[static_cast<std::size_t>(victim)].clear();
            allocator_.resetWindowTrimmed(victim);
            allocator_.privatizeFrom(victim, 0);
            return victim;
        }
    }
    return Result<int>(ErrorCode::kOutOfMemory,
                       "all reqIds active (batch full)");
}

Status
VAttention::freeReqId(int req_id)
{
    if (req_id < 0 || req_id >= config_.max_batch_size) {
        return errorStatus(ErrorCode::kInvalidArgument, "bad reqId");
    }
    if (slots_.state(req_id) != SlotState::kActive) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "reqId not active");
    }
    last_seq_lens_[static_cast<std::size_t>(req_id)] = 0;
    // A request freed while swapped out (cancellation / teardown)
    // abandons its stash: the host pages return to the pool.
    auto &stash = stashes_[static_cast<std::size_t>(req_id)];
    if (!stash.empty()) {
        for (const auto &buffer_pages : stash.pages) {
            for (cuvmm::MemHandle page : buffer_pages) {
                pool_.releaseHost(page);
            }
        }
        stash.clear();
    }
    if (config_.deferred_reclamation &&
        allocator_.mappedHandles(req_id) > 0) {
        // The slot's hash chain (if any) survives with its mappings:
        // cached slots ARE the prefix store.
        return slots_.moveToCached(req_id);
    }
    allocator_.releaseAll(req_id);
    chains_[static_cast<std::size_t>(req_id)].clear();
    return slots_.moveToFree(req_id);
}

void
VAttention::clampChainToMapped(int slot)
{
    auto &chain = chains_[static_cast<std::size_t>(slot)];
    if (chain.empty()) {
        return;
    }
    // Only the intact leading groups can source a prefix: a window
    // trim in any buffer voids the whole shareable prefix.
    const i64 groups = allocator_.prefixGroupsMapped(slot);
    const i64 tpg = allocator_.geometry().tokensPerGroup();
    if (static_cast<i64>(chain.hashes.size()) > groups) {
        chain.hashes.resize(static_cast<std::size_t>(groups));
        chain.tail_hash = 0; // the tail group is gone too
        chain.tokens = std::min(chain.tokens, groups * tpg);
    } else if (chain.tokens > groups * tpg &&
               static_cast<i64>(chain.hashes.size()) == groups) {
        // Chain claimed a partial tail in group `groups`, now unmapped.
        chain.tail_hash = 0;
        chain.tokens = groups * tpg;
    }
    if (chain.tokens == 0) {
        chain.clear();
    }
}

Status
VAttention::checkSwapped(int req_id, bool swapped) const
{
    if (req_id < 0 || req_id >= config_.max_batch_size) {
        return errorStatus(ErrorCode::kInvalidArgument, "bad reqId");
    }
    if (slots_.state(req_id) != SlotState::kActive) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "reqId not active");
    }
    if (stashes_[static_cast<std::size_t>(req_id)].empty() == swapped) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           swapped ? "reqId not swapped out"
                                   : "reqId already swapped out");
    }
    return Status::ok();
}

Status
VAttention::swapOutRefusal(int req_id) const
{
    if (Status status = checkSwapped(req_id, false); !status.isOk()) {
        return status;
    }
    const i64 handles = allocator_.mappedHandles(req_id);
    if (handles <= 0) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "no resident page-groups");
    }
    // Prefix-aliased pages never leave the device while a live request
    // maps them; the caller should recompute instead.
    bool shared = false;
    slots_.forEachActive([&](int slot) {
        shared = shared || (slot != req_id &&
                            allocator_.sharesGroupsWith(req_id, slot));
    });
    if (shared) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "page-groups shared with another request");
    }
    if (pool_.hostGroupsAvailable() < handles) {
        return errorStatus(ErrorCode::kOutOfMemory,
                           "host swap tier full");
    }
    return Status::ok();
}

bool
VAttention::canSwapIn(int req_id) const
{
    if (!checkSwapped(req_id, true).isOk()) {
        return false;
    }
    const auto &stash = stashes_[static_cast<std::size_t>(req_id)];
    const i64 need =
        stash.handles - allocator_.mappedHandles(req_id);
    // Cached slots are stealable supply, exactly as in step() — minus
    // alias-pinned mappings, whose steal frees no physical memory
    // (the same discount canAllocate applies). Without it a doomed
    // swap-in attempt would drain every cached prefix entry for zero
    // progress before failing.
    return pool_.availableGroups() + cachedHandles() -
               allocator_.aliasedMappings() >=
           need;
}

i64
VAttention::swappedGroups(int req_id) const
{
    if (req_id < 0 || req_id >= config_.max_batch_size) {
        return 0;
    }
    return stashes_[static_cast<std::size_t>(req_id)].groups;
}

SwapStats
VAttention::swapOutReq(int req_id)
{
    SwapStats out;
    out.status = swapOutRefusal(req_id);
    if (!out.status.isOk()) {
        return out;
    }
    auto &stash = stashes_[static_cast<std::size_t>(req_id)];
    const i64 handles = allocator_.mappedHandles(req_id);
    const i64 nbuf = allocator_.geometry().numBuffers();

    driver_.consumeElapsedNs(); // open a fresh accounting window
    // Only cached slots can still alias these groups. They are prefix
    // store entries of finished requests: drop them rather than pin
    // the victim's pages (the paged backend likewise forgets swapped
    // blocks' prefix hashes).
    slots_.forEachCached([&](int slot) {
        if (allocator_.sharesGroupsWith(req_id, slot)) {
            allocator_.releaseAll(slot);
            chains_[static_cast<std::size_t>(slot)].clear();
            slots_.moveToFree(slot).expectOk("unpin cached sharer");
        }
    });
    // Stash exactly the live window of every buffer, remembering each
    // buffer's lead so swap-in restores the same [lead, end) layout.
    stash.pages.resize(static_cast<std::size_t>(nbuf));
    stash.leads.resize(static_cast<std::size_t>(nbuf));
    for (int b = 0; b < nbuf; ++b) {
        auto &buffer_pages =
            stash.pages[static_cast<std::size_t>(b)];
        const i64 lead = allocator_.bufferLead(req_id, b);
        const i64 end = allocator_.bufferEnd(req_id, b);
        stash.leads[static_cast<std::size_t>(b)] = lead;
        buffer_pages.reserve(static_cast<std::size_t>(end - lead));
        for (i64 g = lead; g < end; ++g) {
            auto page = pool_.acquireHost();
            page.status().expectOk("host page acquire after check");
            const auto r = driver_.cuMemcpyDtoH(
                page.value(), allocator_.handleAt(req_id, b, g));
            panic_if(r != cuvmm::CuResult::kSuccess,
                     "swap-out copy failed: ", cuvmm::toString(r));
            buffer_pages.push_back(page.value());
        }
    }
    stash.groups = allocator_.groupsMapped(req_id);
    stash.handles = handles;
    // Unmap the device groups; the slot's virtual layout is untouched,
    // so swap-in needs no address-space work at all.
    allocator_.releaseAll(req_id);
    // The slot's KV left the device: it can no longer source prefix
    // hits.
    chains_[static_cast<std::size_t>(req_id)].clear();
    last_seq_lens_[static_cast<std::size_t>(req_id)] = 0;

    out.handles = handles;
    out.bytes = static_cast<u64>(out.handles) *
                allocator_.geometry().groupBytes();
    out.critical_ns = driver_.consumeElapsedNs();
    ++stats_.swap_out_reqs;
    stats_.swap_out_bytes += out.bytes;
    stats_.swap_ns += out.critical_ns;
    stats_.critical_ns += out.critical_ns;
    return out;
}

SwapStats
VAttention::swapInReq(int req_id)
{
    SwapStats in;
    in.status = checkSwapped(req_id, true);
    if (!in.status.isOk()) {
        return in;
    }
    auto &stash = stashes_[static_cast<std::size_t>(req_id)];

    driver_.consumeElapsedNs(); // open a fresh accounting window
    const i64 nbuf = allocator_.geometry().numBuffers();
    std::vector<i64> ends(static_cast<std::size_t>(nbuf));
    for (int b = 0; b < nbuf; ++b) {
        ends[static_cast<std::size_t>(b)] =
            stash.leads[static_cast<std::size_t>(b)] +
            static_cast<i64>(
                stash.pages[static_cast<std::size_t>(b)].size());
    }
    auto status = growStealing([&] {
        return allocator_.growToLayout(req_id, stash.leads, ends);
    });
    if (!status.isOk()) {
        // Roll the partial growth back: a swapped slot is outside the
        // framework's preemption reach, so letting it hoard device
        // groups it cannot yet use would deadlock capacity against
        // the requests that could free it. The stash survives; a
        // later attempt remaps from scratch.
        allocator_.releaseAll(req_id);
        in.status = status;
        in.critical_ns = driver_.consumeElapsedNs();
        stats_.critical_ns += in.critical_ns;
        return in;
    }
    for (int b = 0; b < nbuf; ++b) {
        auto &buffer_pages =
            stash.pages[static_cast<std::size_t>(b)];
        const i64 lead = stash.leads[static_cast<std::size_t>(b)];
        for (i64 g = 0;
             g < static_cast<i64>(buffer_pages.size()); ++g) {
            const auto r = driver_.cuMemcpyHtoD(
                allocator_.handleAt(req_id, b, lead + g),
                buffer_pages[static_cast<std::size_t>(g)]);
            panic_if(r != cuvmm::CuResult::kSuccess,
                     "swap-in copy failed: ", cuvmm::toString(r));
            pool_.releaseHost(buffer_pages[static_cast<std::size_t>(g)]);
        }
    }
    in.handles = stash.handles;
    in.bytes = static_cast<u64>(in.handles) *
               allocator_.geometry().groupBytes();
    stash.clear();
    in.critical_ns = driver_.consumeElapsedNs();
    ++stats_.swap_in_reqs;
    stats_.swap_in_bytes += in.bytes;
    stats_.swap_ns += in.critical_ns;
    stats_.critical_ns += in.critical_ns;
    return in;
}

Result<SwappedKvImage>
VAttention::exportSwapped(int req_id)
{
    if (Status status = checkSwapped(req_id, true); !status.isOk()) {
        return Result<SwappedKvImage>(status);
    }
    auto &stash = stashes_[static_cast<std::size_t>(req_id)];

    driver_.consumeElapsedNs(); // open a fresh accounting window
    SwappedKvImage image;
    image.units.reserve(stash.pages.size());
    for (std::size_t b = 0; b < stash.pages.size(); ++b) {
        image.units.push_back({unit_layouts_[b], stash.leads[b],
                               static_cast<i64>(stash.pages[b].size())});
    }
    image.bytes = static_cast<u64>(stash.handles) *
                  allocator_.geometry().groupBytes();
    // The payload stays put in node-shared host memory: freeing the
    // reqId returns the donor's host pages to its pool without any
    // copy. Post-swap-out the slot holds no device mappings, so the
    // reqId is freed outright (no cached-slot detour even with
    // deferred reclamation).
    freeReqId(req_id).expectOk("free exported reqId");
    stats_.critical_ns += driver_.consumeElapsedNs();
    return image;
}

bool
VAttention::canImportSwapped(const SwappedKvImage &image) const
{
    if (!image.cutAs(unit_layouts_) || image.empty() ||
        pool_.hostGroupsAvailable() < image.pages()) {
        return false;
    }
    // allocReqId succeeds whenever any slot is non-active (free or
    // cached — cached slots are evictable supply).
    return slots_.numActive() < config_.max_batch_size;
}

Result<int>
VAttention::importSwapped(const SwappedKvImage &image)
{
    // An image cut at another layout (another model, TP degree, page
    // size or window) would revive with the wrong group count.
    if (!image.cutAs(unit_layouts_) || image.empty()) {
        return Result<int>(ErrorCode::kInvalidArgument,
                           "image geometry mismatch");
    }
    const i64 handles = image.pages();
    if (pool_.hostGroupsAvailable() < handles) {
        return Result<int>(ErrorCode::kOutOfMemory,
                           "host swap tier full");
    }
    auto slot = allocReqId();
    if (!slot.isOk()) {
        return slot;
    }
    const int req_id = slot.value();
    driver_.consumeElapsedNs(); // open a fresh accounting window
    // allocReqId's cached-reuse path deliberately keeps the previous
    // tenant's mappings (deferred reclamation); an adopted migrant
    // instead starts exactly like a swapped-out slot — no device
    // mappings, stash holding the full image — so the regular
    // swapInReq revives it.
    allocator_.releaseAll(req_id);
    auto &stash = stashes_[static_cast<std::size_t>(req_id)];
    stash.pages.resize(image.units.size());
    stash.leads.resize(image.units.size());
    for (std::size_t b = 0; b < image.units.size(); ++b) {
        const SwappedKvImage::Unit &unit = image.units[b];
        stash.leads[b] = unit.lead;
        stash.pages[b].reserve(static_cast<std::size_t>(unit.pages));
        for (i64 g = 0; g < unit.pages; ++g) {
            auto page = pool_.acquireHost();
            page.status().expectOk("host page acquire after check");
            stash.pages[b].push_back(page.value());
        }
    }
    stash.groups = image.frontier();
    stash.handles = handles;
    last_seq_lens_[static_cast<std::size_t>(req_id)] = 0;
    stats_.critical_ns += driver_.consumeElapsedNs();
    return req_id;
}

i64
VAttention::stealOneCachedGroup()
{
    // Walk from the LRU head: either the head is empty (free it and
    // look at the next-oldest) or one group is stolen from it and we
    // are done, so no snapshot of the order is ever needed.
    for (int victim; (victim = slots_.oldestCached()) >= 0;) {
        if (allocator_.mappedHandles(victim) == 0) {
            chains_[static_cast<std::size_t>(victim)].clear();
            slots_.moveToFree(victim).expectOk("empty cached slot");
            continue;
        }
        const i64 before = allocator_.mappedHandles(victim);
        allocator_.shrinkTail(victim).expectOk("reclaim cached group");
        const i64 freed = before - allocator_.mappedHandles(victim);
        stats_.reclaimed_handles += freed;
        // A stolen group may still be pinned by a sharer (aliased
        // prefix): the unmap then freed no physical memory, but the
        // victim's chain must forget the now-unmapped tail either way.
        clampChainToMapped(victim);
        if (allocator_.mappedHandles(victim) == 0) {
            chains_[static_cast<std::size_t>(victim)].clear();
            slots_.moveToFree(victim).expectOk("drained cached slot");
        }
        return freed;
    }
    return 0;
}

template <typename Grow>
Status
VAttention::growStealing(Grow grow, i64 *stolen)
{
    while (true) {
        Status status = grow();
        if (status.code() != ErrorCode::kOutOfMemory) {
            return status;
        }
        const i64 freed = stealOneCachedGroup();
        if (freed == 0) {
            return status; // genuinely out of memory
        }
        if (stolen) {
            *stolen += freed;
        }
    }
}

PrefixHit
VAttention::matchPrefix(const PrefixKey &key) const
{
    PrefixHit best;
    if (!config_.prefix_caching || key.empty()) {
        return best;
    }
    const i64 tpg = allocator_.geometry().tokensPerGroup();
    const std::vector<u64> hashes = key.chunkHashes(tpg);
    // Free slots never hold a chain.
    slots_.forEachActiveOrCached([&](int slot) {
        const auto &chain = chains_[static_cast<std::size_t>(slot)];
        if (chain.empty()) {
            return;
        }
        // Aligned groups: longest common prefix of the hash chains.
        const i64 chain_groups = static_cast<i64>(chain.hashes.size());
        const i64 common =
            std::min(chain_groups, static_cast<i64>(hashes.size()));
        i64 groups = 0;
        while (groups < common &&
               chain.hashes[static_cast<std::size_t>(groups)] ==
                   hashes[static_cast<std::size_t>(groups)]) {
            ++groups;
        }
        // Partial tail: a candidate only when the whole aligned chain
        // matched; the tail is COPIED on a hit, never aliased (it will
        // be appended to).
        const i64 tail_tokens = chain.tokens - chain_groups * tpg;
        const bool tail_candidate = groups == chain_groups &&
                                    tail_tokens > 0 &&
                                    key.size >= chain.tokens;
        if (groups == 0 && !tail_candidate) {
            return;
        }
        // No bound by what the slot still has mapped: every unmap
        // clamps the chain (clampChainToMapped), so the chain, its
        // tail group included, lies within the slot's intact prefix
        // groups, as auditInto checks.
        i64 tokens = groups * tpg;
        if (tail_candidate) {
            const u64 prev =
                groups > 0
                    ? chain.hashes[static_cast<std::size_t>(groups - 1)]
                    : kPrefixHashSeed;
            if (key.rangeHash(prev, groups * tpg, tail_tokens) ==
                chain.tail_hash) {
                tokens = chain.tokens;
            }
        }
        // Prefer the longest match; on ties prefer a cached source
        // (reusable in place, zero driver calls).
        const bool better =
            tokens > best.tokens ||
            (tokens == best.tokens && tokens > 0 && best.slot >= 0 &&
             slots_.state(best.slot) != SlotState::kCached &&
             slots_.state(slot) == SlotState::kCached);
        if (better && tokens > 0) {
            best.slot = slot;
            best.groups = groups;
            best.tokens = tokens;
        }
    });
    return best;
}

Result<SlotLease>
VAttention::allocReqIdWithPrefix(const PrefixKey &key, i64 max_cached)
{
    // Alias and tail-copy maps run synchronously: their driver time is
    // the lease's critical-path latency.
    const auto lease = [&](int slot, i64 tokens) {
        const TimeNs alloc_ns = driver_.consumeElapsedNs();
        stats_.critical_ns += alloc_ns;
        return SlotLease{slot, tokens, alloc_ns};
    };
    const auto miss = [&]() -> Result<SlotLease> {
        auto slot = allocReqId();
        if (!slot.isOk()) {
            return Result<SlotLease>(slot.status());
        }
        return SlotLease{slot.value(), 0, 0};
    };
    PrefixHit hit = matchPrefix(key);
    const i64 tpg = allocator_.geometry().tokensPerGroup();
    if (hit.tokens > max_cached) {
        // The engine caps reuse (e.g. at prompt_tokens - 1 so at least
        // one token is computed): drop the tail, then whole groups.
        hit.groups = std::min(hit.groups, max_cached / tpg);
        hit.tokens = hit.groups * tpg;
    }
    if (hit.slot < 0 || hit.tokens <= 0) {
        return miss();
    }

    const bool has_tail = hit.tokens > hit.groups * tpg;
    if (slots_.state(hit.slot) == SlotState::kCached) {
        // In-place reuse: the prefix KV already sits at this slot's
        // virtual addresses; groups beyond the match are stale and
        // will be overwritten by the new request's prefill — any of
        // them still aliased by another slot must be remapped onto
        // private handles first (writes through a shared mapping
        // would corrupt the sharer's KV). The matched tail group is
        // never shared (only aligned groups are aliased), so
        // privatizing from hit.groups keeps it.
        slots_.activate(hit.slot).expectOk("activate prefix slot");
        ++stats_.reused_cached_slots;
        auto &chain = chains_[static_cast<std::size_t>(hit.slot)];
        chain.hashes.resize(static_cast<std::size_t>(hit.groups));
        chain.tokens = hit.tokens;
        if (!has_tail) {
            chain.tail_hash = 0;
        }
        allocator_.privatizeFrom(hit.slot, hit.groups);
        // Privatization may have had to shrink the tail instead
        // (pool exhausted): the reusable prefix shrinks with it.
        clampChainToMapped(hit.slot);
        const i64 reused = chain.tokens;
        if (reused <= 0) {
            chain.clear();
            return lease(hit.slot, 0); // degraded to a plain allocation
        }
        ++stats_.prefix_hits;
        ++stats_.prefix_inplace_hits;
        stats_.prefix_cached_tokens += reused;
        return lease(hit.slot, reused);
    }

    // The source is active: alias its aligned groups into a free slot.
    // (Activating a cached slot instead would first require unmapping
    // its stale groups — churn that usually costs more than the hit
    // saves — so without a free slot we fall back to a plain miss.)
    const int target = slots_.firstFree();
    if (target < 0) {
        return miss();
    }
    slots_.activate(target).expectOk("activate free slot");
    auto &chain = chains_[static_cast<std::size_t>(target)];
    chain.clear();
    if (hit.groups > 0) {
        allocator_.aliasFrom(target, hit.slot, hit.groups)
            .expectOk("prefix alias");
        stats_.prefix_aliased_handles +=
            hit.groups * allocator_.geometry().numBuffers();
    }
    i64 tokens = hit.groups * tpg;
    if (has_tail) {
        // Copy the partial trailing group into a private group: the
        // new request keeps appending into it, which must not be
        // visible through the source's mapping.
        if (allocator_.growTo(target, hit.groups + 1).isOk()) {
            stats_.prefix_copied_handles +=
                allocator_.geometry().numBuffers();
            tokens = hit.tokens;
        }
    }
    if (tokens > 0) {
        chain.hashes.assign(
            chains_[static_cast<std::size_t>(hit.slot)].hashes.begin(),
            chains_[static_cast<std::size_t>(hit.slot)].hashes.begin() +
                hit.groups);
        chain.tokens = tokens;
        chain.tail_hash =
            tokens > hit.groups * tpg
                ? chains_[static_cast<std::size_t>(hit.slot)].tail_hash
                : 0;
        ++stats_.prefix_hits;
        stats_.prefix_cached_tokens += tokens;
    }
    return lease(target, tokens);
}

void
VAttention::registerPrefix(int req_id, const PrefixKey &key, i64 tokens)
{
    if (!config_.prefix_caching || key.empty() || tokens <= 0) {
        return;
    }
    panic_if(req_id < 0 || req_id >= config_.max_batch_size,
             "bad reqId");
    panic_if(slots_.state(req_id) != SlotState::kActive,
             "registerPrefix on an inactive reqId");
    auto &chain = chains_[static_cast<std::size_t>(req_id)];
    tokens = std::min(tokens, key.size);
    const i64 tpg = allocator_.geometry().tokensPerGroup();
    chain.hashes = key.chunkHashes(tpg);
    const i64 full = tokens / tpg; // chunkHashes covers every full group
    chain.hashes.resize(static_cast<std::size_t>(full));
    chain.tokens = tokens;
    const i64 tail = tokens - full * tpg;
    if (tail > 0) {
        const u64 prev =
            full > 0 ? chain.hashes[static_cast<std::size_t>(full - 1)]
                     : kPrefixHashSeed;
        chain.tail_hash = key.rangeHash(prev, full * tpg, tail);
    } else {
        chain.tail_hash = 0;
        chain.tokens = full * tpg;
    }
    if (chain.tokens == 0) {
        chain.clear();
    }
    if (allocator_.geometry().hasWindows()) {
        // A sliding-window trim may already have unmapped part of the
        // registered prefix — only the intact leading groups may enter
        // the store.
        clampChainToMapped(req_id);
    }
}

StepStats
VAttention::step(const std::vector<i64> &seq_lens)
{
    if (seq_lens.size() !=
        static_cast<std::size_t>(config_.max_batch_size)) {
        StepStats result;
        result.status = errorStatus(ErrorCode::kInvalidArgument,
                                    "seq_lens size must equal B");
        return result;
    }
    // Walks the caller's B-wide input, not the slot table.
    adapter_lens_.clear();
    for (std::size_t slot = 0; slot < seq_lens.size(); ++slot) {
        if (seq_lens[slot] != 0) {
            adapter_lens_.emplace_back(static_cast<int>(slot),
                                       seq_lens[slot]);
        }
    }
    return step(adapter_lens_);
}

Status
VAttention::gatherStepInput(std::span<const std::pair<int, i64>> active)
{
    for (const auto &[slot, len] : active) {
        const char *error = nullptr;
        if (slot < 0 || slot >= config_.max_batch_size) {
            error = "reqId out of range";
        } else if (slots_.state(slot) != SlotState::kActive) {
            error = "length given for an inactive reqId";
        } else if (listed_.contains(slot)) {
            error = "reqId listed twice";
        } else if (len > config_.max_context_len) {
            error = "context length beyond the model maximum";
        }
        if (error != nullptr) {
            listed_.clear();
            return errorStatus(ErrorCode::kInvalidArgument, error);
        }
        listed_.insert(slot);
        step_lens_[static_cast<std::size_t>(slot)] = len;
    }
    return Status::ok();
}

StepStats
VAttention::step(std::span<const std::pair<int, i64>> active)
{
    StepStats result;
    ++stats_.steps;
    driver_.consumeElapsedNs(); // open a fresh accounting window
    // The whole input is checked before any driver call.
    result.status = gatherStepInput(active);
    if (!result.status.isOk()) {
        return result;
    }
    // Active slots the caller did not list (e.g. swapped out) are
    // ensured at length 0.
    const auto len_of = [this](int slot) -> i64 {
        return listed_.contains(slot)
                   ? step_lens_[static_cast<std::size_t>(slot)]
                   : 0;
    };

    const i64 mapped_before = allocator_.totalHandlesMapped();
    slots_.forEachActive([&](int slot) {
        const i64 len = len_of(slot);
        if (!result.status.isOk() ||
            !allocator_.needsEnsureTokens(slot, len)) {
            return;
        }
        result.status = growStealing(
            [&] { return allocator_.ensureTokens(slot, len); },
            &result.handles_stolen);
        if (allocator_.geometry().hasWindows()) {
            // A window trim voids the slot's shareable prefix, also
            // when the growth after it ran out of memory.
            clampChainToMapped(slot);
        }
    });
    if (result.status.isOk()) {
        slots_.forEachActive([&](int slot) {
            last_seq_lens_[static_cast<std::size_t>(slot)] = len_of(slot);
        });
    }
    listed_.clear();
    if (!result.status.isOk()) {
        // The lengths of the last successful step stay in force.
        result.critical_ns = driver_.consumeElapsedNs();
        stats_.critical_ns += result.critical_ns;
        return result;
    }

    result.handles_mapped =
        allocator_.totalHandlesMapped() - mapped_before +
        result.handles_stolen;
    result.critical_ns = driver_.consumeElapsedNs();
    stats_.sync_handles += result.handles_mapped;
    stats_.critical_ns += result.critical_ns;
    return result;
}

bool
VAttention::prefetchPending(int slot, i64 len) const
{
    return len > 0 && len < config_.max_context_len &&
           allocator_.needsGrowthForTokens(slot, len + 1);
}

bool
VAttention::stepIsNoop(int req_id, i64 len) const
{
    if (req_id < 0 || req_id >= config_.max_batch_size ||
        slots_.state(req_id) != SlotState::kActive) {
        return false;
    }
    return !allocator_.needsEnsureTokens(req_id, len) &&
           !(config_.overlap_allocation && prefetchPending(req_id, len));
}

i64
VAttention::nextWorkLen(int req_id, i64 len) const
{
    if (req_id < 0 || req_id >= config_.max_batch_size ||
        slots_.state(req_id) != SlotState::kActive) {
        return len;
    }
    i64 next = allocator_.nextEnsureTokens(req_id);
    if (config_.overlap_allocation) {
        // prefetchPending(L) <=> 0 < L < max_context_len and
        // L + 1 >= nextGrowthTokens: the one-ahead rule.
        const i64 ahead =
            std::max<i64>(allocator_.nextGrowthTokens(req_id) - 1, 1);
        if (ahead < config_.max_context_len) {
            next = std::min(next, ahead);
        }
    }
    return std::max(len, next);
}

TimeNs
VAttention::mapAllBuffersCost() const
{
    return driver_.latency().mapGroupCost(config_.page_group) *
           static_cast<u64>(allocator_.geometry().numBuffers());
}

void
VAttention::computePhase(TimeNs window_ns)
{
    background_.beginWindow(window_ns);
    driver_.consumeElapsedNs();
    const i64 mapped_before = allocator_.totalHandlesMapped();
    bool window_open = true;

    // (1) Decode prefetch: each active request will need at most one
    // more group per buffer next iteration (§6.1.1).
    if (config_.overlap_allocation) {
        slots_.forEachActive([&](int slot) {
            const i64 len =
                last_seq_lens_[static_cast<std::size_t>(slot)];
            // Growth only: trimming the slot toward len + 1 here
            // would unmap groups the in-flight iteration still reads.
            while (window_open && prefetchPending(slot, len)) {
                // Gate on the estimated cost first: a real background
                // thread that runs out of iteration time simply leaves
                // the work for the next step()'s critical path.
                if (!background_.tryConsume(mapAllBuffersCost())) {
                    window_open = false;
                    break;
                }
                const Status grew = growStealing([&] {
                    return allocator_.growOneRowForTokens(slot, len + 1);
                });
                if (!grew.isOk()) {
                    window_open = false;
                    break;
                }
            }
        });
    }

    // (2) Eager allocation: keep ONE inactive reqId pre-mapped with a
    // few groups so a fresh prefill starts without driver calls. If a
    // cached slot (deferred reclamation or a previous warm slot)
    // already holds mappings, the next request reuses it and nothing
    // needs to be warmed.
    if (config_.eager_allocation && window_open) {
        bool have_warm = false;
        for (int slot : slots_.cachedOrder()) {
            if (allocator_.mappedHandles(slot) > 0) {
                have_warm = true;
                break;
            }
        }
        const int warm = have_warm ? -1 : slots_.firstFree();
        if (warm >= 0 && eager_target_ > 0) {
            bool warmed = false;
            while (window_open &&
                   allocator_.groupsMapped(warm) < eager_target_ &&
                   pool_.availableGroups() >=
                       allocator_.geometry().numBuffers()) {
                if (!background_.tryConsume(mapAllBuffersCost())) {
                    window_open = false;
                    break;
                }
                if (!allocator_
                         .growTo(warm,
                                 allocator_.groupsMapped(warm) + 1)
                         .isOk()) {
                    break;
                }
                warmed = true;
            }
            if (warmed) {
                // The warm slot now holds mappings: park it with the
                // cached slots so allocReqId can hand it out.
                slots_.cacheFreeSlot(warm).expectOk("cache warm slot");
            }
        }
    }

    // (3) Watermark reclamation: when the pool of uncommitted groups
    // runs low, trim cached slots in the background instead of paying
    // the unmap latency at allocation time (§6.1.2).
    if (config_.deferred_reclamation && window_open) {
        const i64 watermark = static_cast<i64>(
            config_.reclaim_low_watermark *
            static_cast<double>(pool_.totalGroups()));
        const TimeNs reclaim_cost =
            driver_.latency().unmapGroupCost(config_.page_group) *
            static_cast<u64>(allocator_.geometry().numBuffers());
        while (window_open && pool_.availableGroups() < watermark &&
               cachedHandles() > 0) {
            if (!background_.tryConsume(reclaim_cost)) {
                window_open = false;
                break;
            }
            if (stealOneCachedGroup() == 0) {
                break;
            }
        }
    }

    stats_.background_handles +=
        std::max<i64>(0, allocator_.totalHandlesMapped() - mapped_before);
    stats_.background_ns += driver_.consumeElapsedNs();
}

bool
VAttention::canAllocate(i64 prompt_tokens) const
{
    if (slots_.numFree() == 0 && slots_.numCached() == 0) {
        return false;
    }
    const auto &geom = allocator_.geometry();
    // Handle units throughout so window-trimmed buffers sum correctly
    // (without windows every term is the per-buffer count times
    // numBuffers).
    if (geom.frontierHandlesForTokens(prompt_tokens) >
        geom.frontierHandlesForTokens(config_.max_context_len)) {
        return false;
    }
    const i64 need = geom.handlesForTokens(prompt_tokens);

    i64 best_cached = 0;
    i64 cached_total = 0;
    slots_.forEachCached([&](int slot) {
        const i64 handles = allocator_.mappedHandles(slot);
        cached_total += handles;
        best_cached = std::max(best_cached, handles);
    });
    const i64 extra_needed = std::max<i64>(0, need - best_cached);
    // Alias-pinned mappings are not real supply: stealing such a
    // cached group unmaps it but frees no physical memory (the sharer
    // keeps the handle), and privatizing a reused slot consumes pool
    // handles. Discounting every aliased mapping is conservative
    // (some belong to active slots) but keeps admission from
    // promising memory that ensure() can never deliver — optimism
    // here livelocks the admit/preempt cycle under pressure.
    const i64 supply = pool_.availableGroups() +
                       (cached_total - best_cached) -
                       allocator_.aliasedMappings();
    return extra_needed <= supply;
}

i64
VAttention::cachedHandles() const
{
    i64 total = 0;
    slots_.forEachCached(
        [&](int slot) { total += allocator_.mappedHandles(slot); });
    return total;
}

void
VAttention::auditInto(audit::AuditReport &report) const
{
    driver_.auditInto(report);
    pool_.auditInto(report);
    allocator_.auditInto(report);
    // Every handle handed out by the pool is mapped somewhere; aliased
    // mappings reuse a handed-out handle rather than consuming one.
    report.check(pool_.groupsInUse() == allocator_.totalHandlesMapped() -
                                            allocator_.aliasedMappings(),
                 "vattention: pool hands out ", pool_.groupsInUse(),
                 " groups but KV tensors map ",
                 allocator_.totalHandlesMapped(), " handles of which ",
                 allocator_.aliasedMappings(), " are aliases");
    // This runtime's driver exists solely to back the KV pool, so the
    // driver-wide byte ledgers must equal what the pool created. A
    // physical allocation made behind the pool (or a pool handle
    // destroyed behind the driver) shows up as drift here.
    report.check(driver_.physBytesInUse() ==
                     static_cast<u64>(pool_.createdGroups()) *
                         pool_.groupBytes(),
                 "vattention: driver owns ", driver_.physBytesInUse(),
                 " physical bytes but the pool created ",
                 pool_.createdGroups(), " groups = ",
                 static_cast<u64>(pool_.createdGroups()) *
                     pool_.groupBytes(),
                 " bytes (an allocation bypassed the pool)");
    report.check(driver_.hostBytesInUse() ==
                     static_cast<u64>(pool_.hostCreatedGroups()) *
                         pool_.groupBytes(),
                 "vattention: driver owns ", driver_.hostBytesInUse(),
                 " pinned host bytes but the pool created ",
                 pool_.hostCreatedGroups(), " host pages = ",
                 static_cast<u64>(pool_.hostCreatedGroups()) *
                     pool_.groupBytes(),
                 " bytes");
    const auto &geom = allocator_.geometry();
    const int nbuf = geom.numBuffers();
    i64 stashed_pages = 0;
    i64 recounted_handles = 0;
    for (int slot = 0; slot < config_.max_batch_size; ++slot) {
        // Free slots hold no mappings (cached/active ones may).
        if (slots_.state(slot) == SlotState::kFree &&
            allocator_.mappedHandles(slot) != 0) {
            report.fail("vattention: free slot ", slot, " still has ",
                        allocator_.mappedHandles(slot),
                        " page-groups mapped (freeReqId must unmap or "
                        "cache)");
        }
        // A host stash belongs to a leased (Active) slot, records the
        // live [lead, end) range of every buffer, and its slot cannot
        // be a prefix source (the KV left the device).
        const auto &stash = stashes_[static_cast<std::size_t>(slot)];
        if (!stash.empty()) {
            if (slots_.state(slot) != SlotState::kActive) {
                report.fail("vattention: slot ", slot,
                            " holds a host stash but is ",
                            toString(slots_.state(slot)),
                            ", not Active");
            }
            if (!chains_[static_cast<std::size_t>(slot)].empty()) {
                report.fail("vattention: swapped-out slot ", slot,
                            " is still registered as a prefix source");
            }
            if (static_cast<i64>(stash.pages.size()) != nbuf ||
                static_cast<i64>(stash.leads.size()) != nbuf) {
                report.fail("vattention: slot ", slot, " stashes ",
                            stash.pages.size(), " buffers / ",
                            stash.leads.size(), " leads, expected ",
                            nbuf, " of each");
            } else {
                i64 live = 0;
                for (int b = 0; b < nbuf; ++b) {
                    const i64 lead =
                        stash.leads[static_cast<std::size_t>(b)];
                    const i64 size = static_cast<i64>(
                        stash.pages[static_cast<std::size_t>(b)]
                            .size());
                    if (lead < 0 || lead + size > stash.groups) {
                        report.fail(
                            "vattention: slot ", slot, " buffer ", b,
                            " stash covers groups [", lead, ", ",
                            lead + size,
                            ") outside the stashed frontier ",
                            stash.groups);
                    }
                    if (!geom.hasWindows() &&
                        (lead != 0 || size != stash.groups)) {
                        report.fail(
                            "vattention: slot ", slot, " buffer ", b,
                            " stash covers [", lead, ", ", lead + size,
                            ") but without window layers every buffer "
                            "must stash [0, ",
                            stash.groups, ")");
                    }
                    live += size;
                    stashed_pages += size;
                }
                if (live != stash.handles) {
                    report.fail("vattention: slot ", slot, " stashes ",
                                live, " host pages but claims ",
                                stash.handles, " live page-groups");
                }
            }
        }
        // A prefix chain never describes more than the slot's intact
        // leading groups hold (a window trim voids the prefix).
        const auto &chain = chains_[static_cast<std::size_t>(slot)];
        if (!chain.empty()) {
            const i64 tpg = geom.tokensPerGroup();
            const i64 covered = geom.groupsForTokens(chain.tokens);
            const i64 prefix = allocator_.prefixGroupsMapped(slot);
            if (slots_.state(slot) == SlotState::kFree ||
                static_cast<i64>(chain.hashes.size()) > prefix ||
                covered > prefix ||
                chain.tokens >
                    (static_cast<i64>(chain.hashes.size()) + 1) * tpg) {
                report.fail("vattention: slot ", slot,
                            " prefix chain (", chain.hashes.size(),
                            " hashes, ", chain.tokens,
                            " tokens) describes more than the slot's ",
                            prefix, " intact prefix groups hold");
            }
        }
        // Per-layer window ledger: a slot last ensured at length len
        // must sit exactly at the canonical layout — lead at the dead
        // boundary, frontier at or past groupsForTokens (the overlap
        // prefetcher may run one group ahead).
        const i64 len = last_seq_lens_[static_cast<std::size_t>(slot)];
        if (slots_.state(slot) == SlotState::kActive && len > 0 &&
            stash.empty()) {
            for (int b = 0; b < nbuf; ++b) {
                const int layer = geom.layerOfBuffer(b);
                const i64 lead = allocator_.bufferLead(slot, b);
                const i64 end = allocator_.bufferEnd(slot, b);
                const i64 want_lead = geom.deadLeadGroups(layer, len);
                const i64 want_end = geom.groupsForTokens(len);
                if (lead != want_lead || end < want_end) {
                    report.fail(
                        "vattention: slot ", slot, " buffer ", b,
                        " (layer ", layer, ") maps groups [", lead,
                        ", ", end, ") but a context of ", len,
                        " tokens requires the window layout [",
                        want_lead, ", >=", want_end, ")");
                }
            }
        }
        for (int b = 0; b < nbuf; ++b) {
            recounted_handles += allocator_.bufferEnd(slot, b) -
                                 allocator_.bufferLead(slot, b);
        }
    }
    // Every host page handed out by the pool is owned by some stash.
    report.check(stashed_pages == pool_.hostGroupsInUse(),
                 "vattention: slots stash ", stashed_pages,
                 " host pages but the pool hands out ",
                 pool_.hostGroupsInUse());
    // The per-buffer [lead, end) ranges re-summed across every slot
    // must reproduce the allocator's handle ledger.
    report.check(recounted_handles == allocator_.totalHandlesMapped(),
                 "vattention: per-buffer ranges recount to ",
                 recounted_handles, " mappings but the allocator's "
                 "ledger says ",
                 allocator_.totalHandlesMapped());
}

} // namespace vattn::core
