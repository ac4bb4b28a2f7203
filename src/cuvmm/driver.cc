#include "cuvmm/driver.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vattn::cuvmm
{

const char *
toString(CuResult result)
{
    switch (result) {
      case CuResult::kSuccess: return "CUDA_SUCCESS";
      case CuResult::kErrorInvalidValue: return "CUDA_ERROR_INVALID_VALUE";
      case CuResult::kErrorOutOfMemory: return "CUDA_ERROR_OUT_OF_MEMORY";
      case CuResult::kErrorNotMapped: return "CUDA_ERROR_NOT_MAPPED";
      case CuResult::kErrorAlreadyMapped:
        return "CUDA_ERROR_ALREADY_MAPPED";
      case CuResult::kErrorNotReserved: return "CUDA_ERROR_NOT_RESERVED";
      case CuResult::kErrorInvalidHandle:
        return "CUDA_ERROR_INVALID_HANDLE";
    }
    return "?";
}

namespace
{

/** Hardware page size used to back a page-group of the given size
 *  (every page-group is a multiple of 64KB). */
PageSize
pageFor(u64 group_bytes)
{
    return group_bytes % bytes(PageSize::k2MB) == 0 ? PageSize::k2MB
                                                    : PageSize::k64KB;
}

/** PageGroup bucket used for latency charging of arbitrary sizes. */
PageGroup
latencyBucket(u64 size)
{
    if (size <= 64 * KiB) {
        return PageGroup::k64KB;
    }
    if (size <= 128 * KiB) {
        return PageGroup::k128KB;
    }
    if (size <= 256 * KiB) {
        return PageGroup::k256KB;
    }
    return PageGroup::k2MB;
}

} // namespace

Driver::Driver(gpu::GpuDevice &device, LatencyModel latency)
    : device_(device), latency_(latency)
{
}

void
Driver::charge(Api api, PageGroup pg)
{
    const TimeNs cost = latency_.cost(api, pg);
    pending_ns_ += cost;
    total_ns_ += cost;
    switch (api) {
      case Api::kAddressReserve: ++counters_.reserve; break;
      case Api::kCreate: ++counters_.create; break;
      case Api::kMap: ++counters_.map; break;
      case Api::kSetAccess: ++counters_.set_access; break;
      case Api::kUnmap: ++counters_.unmap; break;
      case Api::kRelease: ++counters_.release; break;
      case Api::kAddressFree: ++counters_.address_free; break;
    }
}

void
Driver::chargeNs(TimeNs cost)
{
    pending_ns_ += cost;
    total_ns_ += cost;
}

TimeNs
Driver::consumeElapsedNs()
{
    const TimeNs t = pending_ns_;
    pending_ns_ = 0;
    return t;
}

// --------------------------------------------------------------------
// Stock CUDA VMM API
// --------------------------------------------------------------------

CuResult
Driver::cuMemAddressReserve(Addr *ptr, u64 size, u64 alignment, Addr fixed)
{
    charge(Api::kAddressReserve, PageGroup::k2MB);
    if (!ptr || size == 0 || size % bytes(PageSize::k2MB) != 0) {
        return CuResult::kErrorInvalidValue;
    }
    if (alignment == 0) {
        alignment = bytes(PageSize::k2MB);
    }
    auto res = device_.vaSpace().reserve(size, alignment, fixed);
    if (!res.isOk()) {
        return res.code() == ErrorCode::kInvalidArgument
                   ? CuResult::kErrorInvalidValue
                   : CuResult::kErrorOutOfMemory;
    }
    *ptr = res.value();
    return CuResult::kSuccess;
}

CuResult
Driver::cuMemAddressFree(Addr ptr, u64 size)
{
    charge(Api::kAddressFree, PageGroup::k2MB);
    if (device_.vaSpace().reservationSize(ptr) != size) {
        return CuResult::kErrorInvalidValue;
    }
    // CUDA requires all mappings in the range to be gone.
    bool any = false;
    device_.pageTable().forEachExtent(ptr, size,
        [&](const gpu::Extent &) { any = true; });
    if (any) {
        return CuResult::kErrorAlreadyMapped;
    }
    auto status = device_.vaSpace().release(ptr);
    return status.isOk() ? CuResult::kSuccess
                         : CuResult::kErrorInvalidValue;
}

CuResult
Driver::cuMemCreate(MemHandle *handle, u64 size)
{
    charge(Api::kCreate, PageGroup::k2MB);
    if (!handle || size == 0 || size % bytes(PageSize::k2MB) != 0) {
        return CuResult::kErrorInvalidValue;
    }
    auto phys = device_.physAllocator().alloc(size);
    if (!phys.isOk()) {
        return CuResult::kErrorOutOfMemory;
    }
    const MemHandle h = next_handle_++;
    handles_[h] =
        HandleInfo{size, phys.value(), PageSize::k2MB, {}, false};
    phys_in_use_ += size;
    *handle = h;
    return CuResult::kSuccess;
}

CuResult
Driver::cuMemRelease(MemHandle handle)
{
    charge(Api::kRelease, PageGroup::k2MB);
    auto it = handles_.find(handle);
    if (it == handles_.end()) {
        return CuResult::kErrorInvalidHandle;
    }
    if (!it->second.mappings.empty()) {
        // CUDA defers the actual free until unmap; we require the
        // caller to unmap first, which is what vAttention does.
        return CuResult::kErrorAlreadyMapped;
    }
    device_.physAllocator().free(it->second.phys, it->second.size)
        .expectOk("buddy free on release");
    phys_in_use_ -= it->second.size;
    handles_.erase(it);
    return CuResult::kSuccess;
}

CuResult
Driver::doMap(Addr ptr, MemHandle handle, HandleInfo &info,
              gpu::Access access)
{
    if (!device_.vaSpace().isReserved(ptr, info.size)) {
        return CuResult::kErrorNotReserved;
    }
    // A handle may be mapped at several VAs simultaneously (physical
    // aliasing) — the mechanism behind KV prefix de-duplication.
    auto status = device_.pageTable().map(ptr, info.phys, info.size,
                                          info.page, access, handle);
    if (!status.isOk()) {
        return status.code() == ErrorCode::kAlreadyExists
                   ? CuResult::kErrorAlreadyMapped
                   : CuResult::kErrorInvalidValue;
    }
    info.mappings.push_back(ptr);
    return CuResult::kSuccess;
}

CuResult
Driver::cuMemMap(Addr ptr, u64 size, u64 offset, MemHandle handle)
{
    charge(Api::kMap, PageGroup::k2MB);
    if (offset != 0) {
        return CuResult::kErrorInvalidValue; // matches current CUDA
    }
    auto it = handles_.find(handle);
    if (it == handles_.end()) {
        return CuResult::kErrorInvalidHandle;
    }
    if (size != it->second.size) {
        return CuResult::kErrorInvalidValue;
    }
    return doMap(ptr, handle, it->second, gpu::Access::kNone);
}

CuResult
Driver::cuMemSetAccess(Addr ptr, u64 size)
{
    charge(Api::kSetAccess, PageGroup::k2MB);
    auto status =
        device_.pageTable().setAccess(ptr, size, gpu::Access::kReadWrite);
    return status.isOk() ? CuResult::kSuccess : CuResult::kErrorNotMapped;
}

std::unordered_map<MemHandle, Driver::HandleInfo>::iterator
Driver::mappedHandleAt(Addr ptr)
{
    const gpu::Extent *extent = device_.pageTable().find(ptr);
    if (!extent || extent->start != ptr) {
        return handles_.end();
    }
    return handles_.find(extent->owner);
}

CuResult
Driver::doUnmapOne(HandleInfo &info, Addr ptr)
{
    const auto listed =
        std::find(info.mappings.begin(), info.mappings.end(), ptr);
    if (listed == info.mappings.end() ||
        !device_.pageTable().unmap(ptr, info.size).isOk()) {
        return CuResult::kErrorNotMapped;
    }
    info.mappings.erase(listed);
    return CuResult::kSuccess;
}

CuResult
Driver::cuMemUnmap(Addr ptr, u64 size)
{
    charge(Api::kUnmap, PageGroup::k2MB);
    auto it = mappedHandleAt(ptr);
    if (it == handles_.end()) {
        return CuResult::kErrorNotMapped;
    }
    HandleInfo &info = it->second;
    if (info.size != size) {
        return CuResult::kErrorInvalidValue;
    }
    return doUnmapOne(info, ptr);
}

// --------------------------------------------------------------------
// cudaMalloc / cudaFree
// --------------------------------------------------------------------

CuResult
Driver::cudaMalloc(Addr *ptr, u64 size)
{
    if (!ptr || size == 0) {
        return CuResult::kErrorInvalidValue;
    }
    // cudaMalloc commits virtual + physical together (the
    // reservation-based model the paper contrasts with, §1).
    const u64 padded = roundUp(size, bytes(PageSize::k2MB));
    Addr va = 0;
    CuResult r = cuMemAddressReserve(&va, padded);
    if (r != CuResult::kSuccess) {
        return r;
    }
    MemHandle h = kInvalidHandle;
    r = cuMemCreate(&h, padded);
    if (r != CuResult::kSuccess) {
        cuMemAddressFree(va, padded);
        return r;
    }
    r = cuMemMap(va, padded, 0, h);
    if (r == CuResult::kSuccess) {
        r = cuMemSetAccess(va, padded);
    }
    if (r != CuResult::kSuccess) {
        cuMemRelease(h);
        cuMemAddressFree(va, padded);
        return r;
    }
    mallocs_[va] = MallocInfo{padded, h};
    *ptr = va;
    return CuResult::kSuccess;
}

CuResult
Driver::cudaFree(Addr ptr)
{
    auto it = mallocs_.find(ptr);
    if (it == mallocs_.end()) {
        return CuResult::kErrorInvalidValue;
    }
    const MallocInfo info = it->second;
    mallocs_.erase(it);
    CuResult r = cuMemUnmap(ptr, info.size);
    if (r != CuResult::kSuccess) {
        return r;
    }
    r = cuMemRelease(info.handle);
    if (r != CuResult::kSuccess) {
        return r;
    }
    return cuMemAddressFree(ptr, info.size);
}

// --------------------------------------------------------------------
// Host memory + PCIe copies (KV swap tier)
// --------------------------------------------------------------------

CuResult
Driver::cuMemHostCreate(MemHandle *handle, u64 size)
{
    chargeNs(latency_.hostAllocCost(size));
    ++counters_.host_create;
    if (!handle || size == 0) {
        return CuResult::kErrorInvalidValue;
    }
    const MemHandle h = next_handle_++;
    host_handles_[h] = size;
    host_in_use_ += size;
    *handle = h;
    return CuResult::kSuccess;
}

CuResult
Driver::cuMemHostRelease(MemHandle handle)
{
    auto it = host_handles_.find(handle);
    if (it == host_handles_.end()) {
        chargeNs(latency_.hostFreeCost(0));
        ++counters_.host_release;
        return CuResult::kErrorInvalidHandle;
    }
    chargeNs(latency_.hostFreeCost(it->second));
    ++counters_.host_release;
    host_in_use_ -= it->second;
    host_handles_.erase(it);
    return CuResult::kSuccess;
}

CuResult
Driver::cuMemcpyDtoH(MemHandle host, MemHandle device)
{
    ++counters_.copy_dtoh;
    auto hit = host_handles_.find(host);
    auto dit = handles_.find(device);
    if (hit == host_handles_.end() || dit == handles_.end()) {
        return CuResult::kErrorInvalidHandle;
    }
    if (hit->second != dit->second.size) {
        return CuResult::kErrorInvalidValue;
    }
    chargeNs(latency_.copyDtoHCost(dit->second.size));
    return CuResult::kSuccess;
}

CuResult
Driver::cuMemcpyHtoD(MemHandle device, MemHandle host)
{
    ++counters_.copy_htod;
    auto hit = host_handles_.find(host);
    auto dit = handles_.find(device);
    if (hit == host_handles_.end() || dit == handles_.end()) {
        return CuResult::kErrorInvalidHandle;
    }
    if (hit->second != dit->second.size) {
        return CuResult::kErrorInvalidValue;
    }
    chargeNs(latency_.copyHtoDCost(dit->second.size));
    return CuResult::kSuccess;
}

// --------------------------------------------------------------------
// Driver extension (vMem*)
// --------------------------------------------------------------------

CuResult
Driver::vMemReserve(Addr *ptr, u64 size, u64 alignment)
{
    if (!ptr || size == 0 || size % bytes(PageSize::k64KB) != 0) {
        charge(Api::kAddressReserve, PageGroup::k64KB);
        return CuResult::kErrorInvalidValue;
    }
    charge(Api::kAddressReserve, latencyBucket(size));
    if (alignment == 0) {
        alignment = bytes(PageSize::k64KB);
    }
    auto res = device_.vaSpace().reserve(size, alignment);
    if (!res.isOk()) {
        return CuResult::kErrorOutOfMemory;
    }
    *ptr = res.value();
    return CuResult::kSuccess;
}

CuResult
Driver::vMemFree(Addr ptr, u64 size)
{
    charge(Api::kAddressFree, latencyBucket(size));
    if (device_.vaSpace().reservationSize(ptr) != size) {
        return CuResult::kErrorInvalidValue;
    }
    bool any = false;
    device_.pageTable().forEachExtent(ptr, size,
        [&](const gpu::Extent &) { any = true; });
    if (any) {
        return CuResult::kErrorAlreadyMapped;
    }
    return device_.vaSpace().release(ptr).isOk()
               ? CuResult::kSuccess
               : CuResult::kErrorInvalidValue;
}

CuResult
Driver::vMemCreate(MemHandle *handle, PageGroup group)
{
    charge(Api::kCreate, group);
    if (!handle) {
        return CuResult::kErrorInvalidValue;
    }
    const u64 size = bytes(group);
    auto phys = device_.physAllocator().alloc(size);
    if (!phys.isOk()) {
        return CuResult::kErrorOutOfMemory;
    }
    const MemHandle h = next_handle_++;
    handles_[h] =
        HandleInfo{size, phys.value(), pageFor(size), {}, true};
    phys_in_use_ += size;
    *handle = h;
    return CuResult::kSuccess;
}

CuResult
Driver::vMemMap(Addr ptr, MemHandle handle)
{
    auto it = handles_.find(handle);
    if (it == handles_.end()) {
        charge(Api::kMap, PageGroup::k64KB);
        return CuResult::kErrorInvalidHandle;
    }
    charge(Api::kMap, latencyBucket(it->second.size));
    // vMemMap = cuMemMap + cuMemSetAccess in one kernel crossing.
    return doMap(ptr, handle, it->second, gpu::Access::kReadWrite);
}

CuResult
Driver::vMemUnmap(Addr ptr)
{
    auto it = mappedHandleAt(ptr);
    if (it == handles_.end()) {
        charge(Api::kUnmap, PageGroup::k64KB);
        return CuResult::kErrorNotMapped;
    }
    HandleInfo &info = it->second;
    charge(Api::kUnmap, latencyBucket(info.size));
    // Only this VA's mapping goes away; aliased mappings (and the
    // physical memory) survive until vMemRelease.
    return doUnmapOne(info, ptr);
}

CuResult
Driver::vMemRelease(MemHandle handle)
{
    auto it = handles_.find(handle);
    if (it == handles_.end()) {
        charge(Api::kRelease, PageGroup::k64KB);
        return CuResult::kErrorInvalidHandle;
    }
    charge(Api::kRelease, latencyBucket(it->second.size));
    HandleInfo &info = it->second;
    while (!info.mappings.empty()) {
        const CuResult r = doUnmapOne(info, info.mappings.back());
        if (r != CuResult::kSuccess) {
            return r;
        }
    }
    device_.physAllocator().free(info.phys, info.size)
        .expectOk("buddy free on vMemRelease");
    phys_in_use_ -= info.size;
    handles_.erase(it);
    return CuResult::kSuccess;
}

// --------------------------------------------------------------------
// Introspection
// --------------------------------------------------------------------

void
Driver::auditInto(audit::AuditReport &report) const
{
    // Ledger conservation: the incremental phys/host byte counters
    // must equal what the handle tables actually hold.
    const gpu::PageTable &table = device_.pageTable();
    u64 live_bytes = 0;
    std::size_t matched = 0; // listed mappings whose extent agrees
    for (const auto &[handle, info] : handles_) {
        live_bytes += info.size;
        for (const Addr va : info.mappings) {
            const gpu::Extent *extent = table.find(va);
            if (!extent || extent->start != va) {
                report.fail("driver: handle ", handle, " lists VA 0x",
                            std::hex, va, std::dec,
                            " but no page-table extent starts there");
            } else if (extent->owner != handle) {
                report.fail("driver: VA 0x", std::hex, va,
                            " maps handle ", std::dec, extent->owner,
                            " but handle ", handle,
                            " also claims that VA");
            } else if (extent->end - extent->start != info.size ||
                       extent->phys != info.phys) {
                report.fail("driver: extent at VA 0x", std::hex, va,
                            " maps ", std::dec, extent->end - extent->start,
                            " bytes at phys 0x", std::hex, extent->phys,
                            " but handle ", std::dec, handle, " holds ",
                            info.size, " bytes at phys 0x", std::hex,
                            info.phys, std::dec);
            } else {
                ++matched;
            }
        }
    }
    report.check(phys_in_use_ == live_bytes,
                 "driver: physBytesInUse ledger is ", phys_in_use_,
                 " but live handles sum to ", live_bytes,
                 " bytes (a create/release bypassed the ledger)");
    u64 host_bytes = 0;
    for (const auto &[handle, size] : host_handles_) {
        (void)handle;
        host_bytes += size;
    }
    report.check(host_in_use_ == host_bytes,
                 "driver: hostBytesInUse ledger is ", host_in_use_,
                 " but live host handles sum to ", host_bytes,
                 " bytes");
    for (const auto &[va, info] : mallocs_) {
        if (handles_.find(info.handle) == handles_.end()) {
            report.fail("driver: cudaMalloc at VA 0x", std::hex, va,
                        std::dec, " backed by released handle ",
                        info.handle);
        }
    }
    // A handle lists each VA once (a second map there fails), so the
    // matched mappings name distinct extents, and equal counts leave
    // none unaccounted for. Otherwise walk the table and name every
    // extent that no handle lists.
    if (table.numExtents() == matched) {
        return;
    }
    table.forEachExtent([&](const gpu::Extent &extent) {
        const auto it = handles_.find(extent.owner);
        if (it == handles_.end()) {
            report.fail("driver: page-table extent at VA 0x", std::hex,
                        extent.start, std::dec,
                        " has no live handle (tag ", extent.owner,
                        "): mapped behind the driver");
            return;
        }
        const auto &mappings = it->second.mappings;
        if (std::find(mappings.begin(), mappings.end(), extent.start) ==
            mappings.end()) {
            report.fail("driver: page-table extent at VA 0x", std::hex,
                        extent.start, " is tagged with handle ",
                        std::dec, extent.owner,
                        " which does not list that VA");
        }
    });
}

u64
Driver::handleSize(MemHandle handle) const
{
    auto it = handles_.find(handle);
    return it == handles_.end() ? 0 : it->second.size;
}

bool
Driver::isMapped(MemHandle handle) const
{
    auto it = handles_.find(handle);
    return it != handles_.end() && !it->second.mappings.empty();
}

std::size_t
Driver::numMappings(MemHandle handle) const
{
    auto it = handles_.find(handle);
    return it == handles_.end() ? 0 : it->second.mappings.size();
}

} // namespace vattn::cuvmm
