#include "core/kv_allocator.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace vattn::core
{

KvAllocator::KvAllocator(cuvmm::Driver &driver, const Config &config,
                         PagePool &pool)
    : driver_(driver), config_(config), geom_(config), pool_(pool),
      use_cu_path_(config.page_group == PageGroup::k2MB),
      slots_(static_cast<std::size_t>(config.max_batch_size))
{
    config_.validate().expectOk("KvAllocator config");

    const int nbuf = geom_.numBuffers();
    buffer_base_.reserve(static_cast<std::size_t>(nbuf));
    for (int b = 0; b < nbuf; ++b) {
        const u64 buf_bytes = geom_.bufferBytes();
        Addr base = 0;
        cuvmm::CuResult r;
        if (use_cu_path_) {
            r = driver_.cuMemAddressReserve(&base, buf_bytes,
                                            geom_.groupBytes());
        } else {
            r = driver_.vMemReserve(&base, buf_bytes,
                                    geom_.groupBytes());
        }
        fatal_if(r != cuvmm::CuResult::kSuccess,
                 "virtual buffer reservation failed: ",
                 cuvmm::toString(r), " (buffer ", b, " of ", nbuf,
                 ", ", buf_bytes, " bytes)");
        buffer_base_.push_back(base);
    }

    // Build the full-batch [B, L, H, D] tensor of every layer. With
    // tensor slicing each is a strided slice of one [B, L, N, H, D]
    // buffer per K/V: a token's row spans all N layers and the layer
    // picks an H*D-element offset inside it.
    const i64 heads = config_.num_kv_heads;
    const i64 dim = config_.head_dim;
    const auto elem_bytes = static_cast<u64>(config_.bytes_per_elem);
    tensor::Layout per_layer;
    per_layer.shape =
        tensor::Shape{config_.max_batch_size, config_.max_context_len,
                      heads, dim};
    per_layer.strides = {
        static_cast<i64>(geom_.perRequestBytesAligned() / elem_bytes),
        static_cast<i64>(geom_.tokenBytesPerBuffer() / elem_bytes), dim,
        1};
    const auto view = [&](int buffer) {
        return tensor::VirtualTensor(
            &driver_.device(), buffer_base_[static_cast<std::size_t>(buffer)],
            per_layer, config_.dtype());
    };
    layer_tensors_.reserve(static_cast<std::size_t>(config_.num_layers));
    for (int layer = 0; layer < config_.num_layers; ++layer) {
        per_layer.offset = config_.tensor_slicing ? layer * heads * dim : 0;
        layer_tensors_.push_back(
            LayerKv{view(geom_.kBuffer(layer)), view(geom_.vBuffer(layer))});
    }

    for (auto &slot : slots_) {
        slot.buffers.resize(static_cast<std::size_t>(nbuf));
    }
}

KvAllocator::~KvAllocator()
{
    for (int slot = 0; slot < config_.max_batch_size; ++slot) {
        releaseAll(slot);
    }
    for (int b = 0; b < geom_.numBuffers(); ++b) {
        const Addr base = buffer_base_[static_cast<std::size_t>(b)];
        const u64 buf_bytes = geom_.bufferBytes();
        if (use_cu_path_) {
            driver_.cuMemAddressFree(base, buf_bytes);
        } else {
            driver_.vMemFree(base, buf_bytes);
        }
    }
}

Addr
KvAllocator::groupVa(int buffer, int slot, i64 group) const
{
    return buffer_base_[static_cast<std::size_t>(buffer)] +
           static_cast<u64>(slot) *
               geom_.perRequestBytesAligned() +
           static_cast<u64>(group) * geom_.groupBytes();
}

tensor::VirtualTensor
KvAllocator::kView(int layer, int slot) const
{
    return layer_tensors_[static_cast<std::size_t>(layer)]
        .k.slice(0, slot, 1)
        .squeeze(0);
}

tensor::VirtualTensor
KvAllocator::vView(int layer, int slot) const
{
    return layer_tensors_[static_cast<std::size_t>(layer)]
        .v.slice(0, slot, 1)
        .squeeze(0);
}

i64
KvAllocator::groupsMapped(int slot) const
{
    const auto &mappings = slots_[static_cast<std::size_t>(slot)];
    i64 frontier = 0;
    for (const BufferMappings &buffer : mappings.buffers) {
        frontier = std::max(frontier, buffer.end());
    }
    return frontier;
}

i64
KvAllocator::mappedCountOf(const SlotMappings &mappings)
{
    i64 total = 0;
    for (const BufferMappings &buffer : mappings.buffers) {
        total += buffer.mapped();
    }
    return total;
}

i64
KvAllocator::bufferLead(int slot, int buffer) const
{
    return slots_[static_cast<std::size_t>(slot)]
        .buffers[static_cast<std::size_t>(buffer)]
        .lead;
}

i64
KvAllocator::bufferEnd(int slot, int buffer) const
{
    return slots_[static_cast<std::size_t>(slot)]
        .buffers[static_cast<std::size_t>(buffer)]
        .end();
}

i64
KvAllocator::prefixGroupsMapped(int slot) const
{
    const auto &mappings = slots_[static_cast<std::size_t>(slot)];
    i64 prefix = std::numeric_limits<i64>::max();
    for (const BufferMappings &buffer : mappings.buffers) {
        prefix = std::min(prefix,
                          buffer.lead > 0 ? i64{0} : buffer.end());
    }
    return prefix;
}

Status
KvAllocator::mapOne(int buffer, int slot, i64 group,
                    cuvmm::MemHandle handle)
{
    const Addr va = groupVa(buffer, slot, group);
    if (use_cu_path_) {
        auto r = driver_.cuMemMap(va, geom_.groupBytes(), 0, handle);
        if (r != cuvmm::CuResult::kSuccess) {
            return errorStatus(ErrorCode::kFailedPrecondition,
                               cuvmm::toString(r));
        }
        r = driver_.cuMemSetAccess(va, geom_.groupBytes());
        if (r != cuvmm::CuResult::kSuccess) {
            return errorStatus(ErrorCode::kFailedPrecondition,
                               cuvmm::toString(r));
        }
        return Status::ok();
    }
    const auto r = driver_.vMemMap(va, handle);
    if (r != cuvmm::CuResult::kSuccess) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           cuvmm::toString(r));
    }
    return Status::ok();
}

void
KvAllocator::unmapOne(int buffer, int slot, i64 group)
{
    auto &mappings = slots_[static_cast<std::size_t>(slot)];
    auto &list = mappings.buffers[static_cast<std::size_t>(buffer)]
                     .handles;
    const cuvmm::MemHandle handle =
        list[static_cast<std::size_t>(group)];
    const Addr va = groupVa(buffer, slot, group);
    if (pool_.refCount(handle) > 1) {
        // The handle is aliased into another slot (prefix sharing):
        // drop only this VA's mapping; the physical group lives on.
        const auto r = use_cu_path_
                           ? driver_.cuMemUnmap(va, geom_.groupBytes())
                           : driver_.vMemUnmap(va);
        panic_if(r != cuvmm::CuResult::kSuccess,
                 "aliased unmap failed: ", cuvmm::toString(r));
        pool_.dropShared(handle);
        --aliased_mappings_;
    } else if (use_cu_path_) {
        // Stock path: unmap but keep the physical handle pooled.
        const auto r = driver_.cuMemUnmap(va, geom_.groupBytes());
        panic_if(r != cuvmm::CuResult::kSuccess,
                 "cuMemUnmap failed: ", cuvmm::toString(r));
        pool_.release(handle);
    } else {
        // Extension path: vMemRelease fuses unmap + free; the handle
        // is destroyed and the budget slot becomes creatable again.
        const auto r = driver_.vMemRelease(handle);
        panic_if(r != cuvmm::CuResult::kSuccess,
                 "vMemRelease failed: ", cuvmm::toString(r));
        pool_.releaseDestroyed(handle);
    }
    list[static_cast<std::size_t>(group)] = cuvmm::kInvalidHandle;
}

Status
KvAllocator::growRows(int slot, const std::vector<i64> &targets,
                      i64 max_rows)
{
    auto &mappings = slots_[static_cast<std::size_t>(slot)];
    const int nbuf = geom_.numBuffers();
    for (const i64 target : targets) {
        panic_if(target > geom_.maxGroupsPerRequest(),
                 "grow beyond the max context length");
    }
    i64 rows = 0;
    while (max_rows < 0 || rows < max_rows) {
        // The lowest group index any buffer still needs.
        i64 group = std::numeric_limits<i64>::max();
        for (int b = 0; b < nbuf; ++b) {
            const BufferMappings &buffer =
                mappings.buffers[static_cast<std::size_t>(b)];
            if (buffer.end() < targets[static_cast<std::size_t>(b)]) {
                group = std::min(group, buffer.end());
            }
        }
        if (group == std::numeric_limits<i64>::max()) {
            break;
        }
        // Acquire + map the group on every buffer whose frontier is
        // here; only then commit the row.
        std::vector<int> &row = row_scratch_;
        row.clear();
        Status failure;
        for (int b = 0; b < nbuf; ++b) {
            BufferMappings &buffer =
                mappings.buffers[static_cast<std::size_t>(b)];
            if (buffer.end() != group ||
                buffer.end() >= targets[static_cast<std::size_t>(b)]) {
                continue;
            }
            auto handle = pool_.acquire();
            if (!handle.isOk()) {
                failure = handle.status();
                break;
            }
            auto status = mapOne(b, slot, group, handle.value());
            status.expectOk("page-group map");
            buffer.handles.push_back(handle.value());
            ++total_mapped_;
            row.push_back(b);
        }
        if (!failure.isOk()) {
            // Roll the partially mapped row back so the slot stays at
            // a consistent frontier.
            for (auto it = row.rbegin(); it != row.rend(); ++it) {
                unmapOne(*it, slot, group);
                mappings.buffers[static_cast<std::size_t>(*it)]
                    .handles.pop_back();
                --total_mapped_;
            }
            return failure;
        }
        ++rows;
    }
    return Status::ok();
}

Status
KvAllocator::growTo(int slot, i64 target_groups)
{
    panic_if(slot < 0 || slot >= config_.max_batch_size,
             "slot out of range");
    const HorizonRefresh refresh(*this, slot);
    targets_scratch_.assign(
        static_cast<std::size_t>(geom_.numBuffers()), target_groups);
    return growRows(slot, targets_scratch_, -1);
}

void
KvAllocator::advanceLead(int slot, int buffer, i64 target_lead)
{
    auto &state = slots_[static_cast<std::size_t>(slot)]
                      .buffers[static_cast<std::size_t>(buffer)];
    const i64 stop = std::min(target_lead, state.end());
    while (state.lead < stop) {
        unmapOne(buffer, slot, state.lead);
        ++state.lead;
        --total_mapped_;
    }
    if (state.mapped() == 0 && state.end() < target_lead) {
        // Everything mapped (if anything) was dead — a fresh long
        // prompt, or a recycled warm slot whose leftover groups all
        // sat below the window. Skip the rest of the dead region
        // without ever mapping it; stopping at the old end would make
        // growth map the dead groups [end, target_lead).
        state.handles.resize(static_cast<std::size_t>(target_lead),
                             cuvmm::kInvalidHandle);
        state.lead = target_lead;
    }
}

Status
KvAllocator::ensureTokens(int slot, i64 tokens)
{
    panic_if(slot < 0 || slot >= config_.max_batch_size,
             "slot out of range");
    const HorizonRefresh refresh(*this, slot);
    const int nbuf = geom_.numBuffers();
    for (int b = 0; b < nbuf; ++b) {
        advanceLead(slot, b,
                    geom_.deadLeadGroups(geom_.layerOfBuffer(b), tokens));
    }
    std::vector<i64> &targets = targets_scratch_;
    targets.assign(static_cast<std::size_t>(nbuf),
                   geom_.groupsForTokens(tokens));
    return growRows(slot, targets, -1);
}

bool
KvAllocator::needsEnsureTokens(int slot, i64 tokens) const
{
    const Horizon &horizon =
        slots_[static_cast<std::size_t>(slot)].horizon;
    return tokens > horizon.grow || tokens >= horizon.trim;
}

bool
KvAllocator::needsGrowthForTokens(int slot, i64 tokens) const
{
    return tokens > slots_[static_cast<std::size_t>(slot)].horizon.grow;
}

i64
KvAllocator::nextEnsureTokens(int slot) const
{
    const Horizon &horizon =
        slots_[static_cast<std::size_t>(slot)].horizon;
    return std::min(horizon.grow + 1, horizon.trim);
}

i64
KvAllocator::nextGrowthTokens(int slot) const
{
    return slots_[static_cast<std::size_t>(slot)].horizon.grow + 1;
}

KvAllocator::Horizon
KvAllocator::horizonOf(const SlotMappings &mappings) const
{
    Horizon horizon;
    i64 lowest_end = std::numeric_limits<i64>::max();
    for (int b = 0; b < geom_.numBuffers(); ++b) {
        const BufferMappings &buffer =
            mappings.buffers[static_cast<std::size_t>(b)];
        lowest_end = std::min(lowest_end, buffer.end());
        // lead < floor((t - window) / tokens_per_group)  <=>
        // t >= window + (lead + 1) * tokens_per_group; a buffer with
        // nothing mapped (lead >= end) never trims.
        const i64 window = geom_.windowTokens(geom_.layerOfBuffer(b));
        if (window > 0 && buffer.lead < buffer.end()) {
            horizon.trim = std::min(
                horizon.trim,
                window + (buffer.lead + 1) * geom_.tokensPerGroup());
        }
    }
    // end < ceil(t * token_bytes / G)  <=>  t > floor(end * G /
    // token_bytes); every buffer has the one footprint, so the lowest
    // end bounds them all.
    horizon.grow = static_cast<i64>(static_cast<u64>(lowest_end) *
                                    geom_.groupBytes() /
                                    geom_.tokenBytesPerBuffer());
    return horizon;
}

Status
KvAllocator::growOneRowForTokens(int slot, i64 tokens)
{
    const HorizonRefresh refresh(*this, slot);
    std::vector<i64> &targets = targets_scratch_;
    targets.assign(static_cast<std::size_t>(geom_.numBuffers()),
                   geom_.groupsForTokens(tokens));
    return growRows(slot, targets, 1);
}

Status
KvAllocator::growToLayout(int slot, const std::vector<i64> &leads,
                          const std::vector<i64> &ends)
{
    panic_if(slot < 0 || slot >= config_.max_batch_size,
             "slot out of range");
    const HorizonRefresh refresh(*this, slot);
    auto &mappings = slots_[static_cast<std::size_t>(slot)];
    const int nbuf = geom_.numBuffers();
    if (mappedHandles(slot) == 0 && groupsMapped(slot) == 0) {
        for (int b = 0; b < nbuf; ++b) {
            BufferMappings &buffer =
                mappings.buffers[static_cast<std::size_t>(b)];
            buffer.handles.assign(static_cast<std::size_t>(
                                      leads[static_cast<std::size_t>(b)]),
                                  cuvmm::kInvalidHandle);
            buffer.lead = leads[static_cast<std::size_t>(b)];
        }
    } else {
        // Resuming a partially built layout (the caller stole supply
        // between attempts): the leads must agree.
        for (int b = 0; b < nbuf; ++b) {
            panic_if(mappings.buffers[static_cast<std::size_t>(b)]
                             .lead !=
                         leads[static_cast<std::size_t>(b)],
                     "growToLayout lead mismatch on a non-empty slot");
        }
    }
    return growRows(slot, ends, -1);
}

void
KvAllocator::resetWindowTrimmed(int slot)
{
    const HorizonRefresh refresh(*this, slot);
    auto &mappings = slots_[static_cast<std::size_t>(slot)];
    for (int b = 0; b < geom_.numBuffers(); ++b) {
        BufferMappings &buffer =
            mappings.buffers[static_cast<std::size_t>(b)];
        if (buffer.lead == 0) {
            continue;
        }
        for (i64 group = buffer.lead; group < buffer.end(); ++group) {
            unmapOne(b, slot, group);
        }
        total_mapped_ -= buffer.mapped();
        buffer.handles.clear();
        buffer.lead = 0;
    }
}

Status
KvAllocator::aliasFrom(int dst, int src, i64 groups)
{
    panic_if(dst < 0 || dst >= config_.max_batch_size ||
                 src < 0 || src >= config_.max_batch_size,
             "slot out of range");
    if (dst == src) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "aliasFrom onto the source slot");
    }
    const HorizonRefresh refresh(*this, dst);
    auto &dst_map = slots_[static_cast<std::size_t>(dst)];
    const auto &src_map = slots_[static_cast<std::size_t>(src)];
    if (mappedHandles(dst) != 0 || groupsMapped(dst) != 0) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "aliasFrom onto a slot with mappings");
    }
    if (groups <= 0 || groups > prefixGroupsMapped(src)) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "aliasFrom beyond the source's intact "
                           "prefix groups");
    }
    const int nbuf = geom_.numBuffers();
    for (i64 group = 0; group < groups; ++group) {
        for (int b = 0; b < nbuf; ++b) {
            const cuvmm::MemHandle handle =
                src_map.buffers[static_cast<std::size_t>(b)]
                    .handles[static_cast<std::size_t>(group)];
            pool_.addRef(handle);
            mapOne(b, dst, group, handle).expectOk("alias map");
            dst_map.buffers[static_cast<std::size_t>(b)]
                .handles.push_back(handle);
            ++total_mapped_;
            ++aliased_mappings_;
        }
    }
    return Status::ok();
}

cuvmm::MemHandle
KvAllocator::handleAt(int slot, int buffer, i64 group) const
{
    const auto &mappings = slots_[static_cast<std::size_t>(slot)];
    return mappings.buffers[static_cast<std::size_t>(buffer)]
        .handles[static_cast<std::size_t>(group)];
}

bool
KvAllocator::sharesGroupsWith(int slot, int other) const
{
    if (aliased_mappings_ == 0) {
        return false; // nothing anywhere is shared
    }
    const auto &mine = slots_[static_cast<std::size_t>(slot)].buffers;
    const auto &theirs = slots_[static_cast<std::size_t>(other)].buffers;
    for (std::size_t b = 0; b < mine.size(); ++b) {
        const i64 lo = std::max(mine[b].lead, theirs[b].lead);
        const i64 hi = std::min(mine[b].end(), theirs[b].end());
        for (i64 group = lo; group < hi; ++group) {
            const auto g = static_cast<std::size_t>(group);
            if (mine[b].handles[g] == theirs[b].handles[g]) {
                return true;
            }
        }
    }
    return false;
}

void
KvAllocator::privatizeFrom(int slot, i64 from_group)
{
    if (aliased_mappings_ == 0) {
        return; // nothing anywhere is shared
    }
    auto &mappings = slots_[static_cast<std::size_t>(slot)];
    const int nbuf = geom_.numBuffers();
    for (i64 group = from_group; group < groupsMapped(slot); ++group) {
        for (int b = 0; b < nbuf; ++b) {
            auto &buffer =
                mappings.buffers[static_cast<std::size_t>(b)];
            if (group < buffer.lead || group >= buffer.end()) {
                continue;
            }
            const cuvmm::MemHandle handle =
                buffer.handles[static_cast<std::size_t>(group)];
            if (pool_.refCount(handle) <= 1) {
                continue;
            }
            auto fresh = pool_.acquire();
            if (!fresh.isOk()) {
                // No replacement available: drop the tail down to
                // this group (losing retained capacity, never
                // correctness). unmapOne handles the mixed
                // private/shared rows.
                while (groupsMapped(slot) > group) {
                    shrinkTail(slot).expectOk("privatize shrink");
                }
                return;
            }
            const Addr va = groupVa(b, slot, group);
            const auto r = use_cu_path_
                               ? driver_.cuMemUnmap(va,
                                                    geom_.groupBytes())
                               : driver_.vMemUnmap(va);
            panic_if(r != cuvmm::CuResult::kSuccess,
                     "privatize unmap failed: ", cuvmm::toString(r));
            pool_.dropShared(handle);
            --aliased_mappings_;
            mapOne(b, slot, group, fresh.value())
                .expectOk("privatize map");
            buffer.handles[static_cast<std::size_t>(group)] =
                fresh.value();
        }
    }
}

Status
KvAllocator::shrinkTail(int slot)
{
    const HorizonRefresh refresh(*this, slot);
    auto &mappings = slots_[static_cast<std::size_t>(slot)];
    if (mappedHandles(slot) == 0) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "slot has no mapped groups");
    }
    for (int b = 0; b < geom_.numBuffers(); ++b) {
        BufferMappings &buffer =
            mappings.buffers[static_cast<std::size_t>(b)];
        if (buffer.mapped() == 0) {
            continue;
        }
        unmapOne(b, slot, buffer.end() - 1);
        buffer.handles.pop_back();
        --total_mapped_;
        if (buffer.mapped() == 0) {
            // Fully drained: forget the (now moot) dead lead so the
            // slot really is empty for reuse.
            buffer.handles.clear();
            buffer.lead = 0;
        }
    }
    return Status::ok();
}

void
KvAllocator::releaseAll(int slot)
{
    const HorizonRefresh refresh(*this, slot);
    while (mappedHandles(slot) > 0) {
        shrinkTail(slot).expectOk("releaseAll");
    }
    // Buffers that were trimmed to emptiness already reset in
    // shrinkTail; clear any lead-only remnants (never-mapped skips).
    auto &mappings = slots_[static_cast<std::size_t>(slot)];
    for (BufferMappings &buffer : mappings.buffers) {
        buffer.handles.clear();
        buffer.lead = 0;
    }
}

u64
KvAllocator::physBytesMapped() const
{
    // Aliased mappings share one physical group: count it once.
    return static_cast<u64>(totalHandlesMapped() - aliased_mappings_) *
           geom_.groupBytes();
}

void
KvAllocator::auditInto(audit::AuditReport &report) const
{
    const int nbuf = geom_.numBuffers();
    // Only windows trim leads; without them every buffer also ends at
    // the slot frontier, since all share the one footprint.
    const bool lockstep = !geom_.hasWindows();
    /** Times each physical handle appears across all slot tables. */
    std::unordered_map<cuvmm::MemHandle, i64> mapping_counts;
    for (int slot = 0; slot < config_.max_batch_size; ++slot) {
        const auto &mappings = slots_[static_cast<std::size_t>(slot)];
        const i64 frontier = groupsMapped(slot);
        const Horizon fresh = horizonOf(mappings);
        report.check(mappings.horizon.grow == fresh.grow,
                     "kv_allocator: slot ", slot,
                     " caches grow horizon ", mappings.horizon.grow,
                     " but its buffers give ", fresh.grow,
                     " — a range changed without a horizon refresh");
        report.check(mappings.horizon.trim == fresh.trim,
                     "kv_allocator: slot ", slot,
                     " caches trim horizon ", mappings.horizon.trim,
                     " but its buffers give ", fresh.trim,
                     " — a range changed without a horizon refresh");
        const i64 mapped = mappedCountOf(mappings);
        report.check(mappings.mapped == mapped, "kv_allocator: slot ",
                     slot, " caches ", mappings.mapped,
                     " mapped handles but its buffers hold ", mapped,
                     " — a range changed without a count refresh");
        for (int b = 0; b < nbuf; ++b) {
            const BufferMappings &buffer =
                mappings.buffers[static_cast<std::size_t>(b)];
            if (lockstep && buffer.lead != 0) {
                report.fail("kv_allocator: slot ", slot, " buffer ", b,
                            " has lead ", buffer.lead,
                            " but only sliding windows trim leads");
            }
            if (lockstep && buffer.end() != frontier) {
                report.fail("kv_allocator: slot ", slot, " buffer ", b,
                            " holds groups [", buffer.lead, ", ",
                            buffer.end(), ") but the slot frontier is ",
                            frontier,
                            " (window-free buffers grow in lockstep)");
            }
            for (i64 group = 0; group < buffer.end(); ++group) {
                const cuvmm::MemHandle handle =
                    buffer.handles[static_cast<std::size_t>(group)];
                if (group < buffer.lead) {
                    if (handle != cuvmm::kInvalidHandle) {
                        report.fail(
                            "kv_allocator: slot ", slot, " buffer ", b,
                            " group ", group,
                            " is behind the window lead ", buffer.lead,
                            " but still records a handle");
                    }
                    // A trimmed (window-dead) group must be unmapped;
                    // an accessible VA here is a rogue window-tail
                    // mapping created behind the allocator.
                    if (driver_.device().pageTable().isAccessible(
                            groupVa(b, slot, group),
                            geom_.groupBytes())) {
                        report.fail(
                            "kv_allocator: slot ", slot, " buffer ", b,
                            " group ", group,
                            " lies in the window-dead lead region "
                            "[0, ", buffer.lead,
                            ") yet its VA is mapped — rogue "
                            "window-tail mapping");
                    }
                    continue;
                }
                if (handle == cuvmm::kInvalidHandle) {
                    report.fail("kv_allocator: slot ", slot,
                                " buffer ", b, " group ", group,
                                " inside the mapped range [",
                                buffer.lead, ", ", buffer.end(),
                                ") has no handle");
                    continue;
                }
                ++mapping_counts[handle];
            }
            // Mapped region must be accessible.
            if (buffer.mapped() > 0 &&
                !driver_.device().pageTable().isAccessible(
                    groupVa(b, slot, buffer.lead),
                    static_cast<u64>(buffer.mapped()) *
                        geom_.groupBytes())) {
                report.fail("kv_allocator: slot ", slot, " buffer ", b,
                            " claims mapped groups [", buffer.lead,
                            ", ", buffer.end(),
                            ") but the range is not RW-accessible in "
                            "the page table");
            }
        }
    }
    // Cross-layer per-handle equality: this allocator's mapping count
    // == pool refcount == driver mapping count. A pool reference
    // without a mapping (leaked addRef) or a driver mapping without a
    // pool reference (alias created behind the allocator) both break
    // it with a distinct imbalance.
    i64 aliased = 0;
    for (const auto &[handle, count] : mapping_counts) {
        aliased += count - 1;
        const int refs = pool_.refCount(handle);
        if (refs != static_cast<int>(count)) {
            report.fail("kv_allocator: handle ", handle, " mapped ",
                        count, " time(s) but the pool holds ", refs,
                        " reference(s) — a reference was taken or "
                        "dropped without a matching (un)map");
        }
        const std::size_t driver_maps = driver_.numMappings(handle);
        if (driver_maps != static_cast<std::size_t>(count)) {
            report.fail("kv_allocator: handle ", handle, " mapped ",
                        count, " time(s) in KV tensors but ",
                        driver_maps, " time(s) in the driver — a "
                        "mapping was created or destroyed behind the "
                        "allocator");
        }
    }
    report.check(aliased == aliased_mappings_,
                 "kv_allocator: aliased-mappings ledger is ",
                 aliased_mappings_, " but per-handle counts show ",
                 aliased, " mappings beyond one per handle");
    i64 recount = 0;
    for (int slot = 0; slot < config_.max_batch_size; ++slot) {
        recount += mappedCountOf(slots_[static_cast<std::size_t>(slot)]);
    }
    report.check(recount == total_mapped_,
                 "kv_allocator: total-mapped ledger is ", total_mapped_,
                 " but a full recount over the slot tables finds ",
                 recount, " mappings — a map or unmap bypassed the "
                 "ledger");
}

} // namespace vattn::core
