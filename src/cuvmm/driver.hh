/**
 * @file
 * The VMM driver facade the vAttention library is written against. The
 * call surface mirrors the CUDA driver API (Table 3 of the paper):
 *
 *   - cuMemAddressReserve / cuMemAddressFree : virtual space only
 *   - cuMemCreate / cuMemRelease             : physical handles (2MB mult.)
 *   - cuMemMap / cuMemSetAccess / cuMemUnmap : (un)mapping + access
 *   - cudaMalloc / cudaFree                  : classic fused allocation
 *
 * plus the paper's open-source driver extension:
 *
 *   - vMemReserve / vMemFree     : same as the cu* versions
 *   - vMemCreate                 : one page-group (64KB..2MB) per handle
 *   - vMemMap                    : map + grant access in one call
 *   - vMemUnmap                  : unmap ONE VA, keep the handle live
 *   - vMemRelease                : unmap (if mapped) + free in one call
 *
 * Aliased-handle semantics (one handle mapped at several VAs — the KV
 * de-duplication capability of §8.1):
 *   - cuMemMap / vMemMap may map a live handle at any number of VAs.
 *   - cuMemUnmap / vMemUnmap remove exactly one mapping; the handle
 *     and its physical memory survive while other mappings (or the
 *     handle itself) remain, so physBytesInUse() is unchanged until
 *     cuMemRelease / vMemRelease destroys the handle.
 *   - vMemRelease on an aliased handle unmaps EVERY remaining VA and
 *     then frees the physical memory exactly once.
 *
 * Every call charges its Table-3 latency to an internal ledger which the
 * caller drains with consumeElapsedNs() and attributes to either the
 * critical path or the background-allocation thread.
 */

#ifndef VATTN_CUVMM_DRIVER_HH
#define VATTN_CUVMM_DRIVER_HH

#include <unordered_map>

#include "common/audit.hh"
#include "common/types.hh"
#include "cuvmm/latency_model.hh"
#include "gpu/device.hh"

namespace vattn::cuvmm
{

/** CUDA-style result codes. */
enum class CuResult
{
    kSuccess = 0,
    kErrorInvalidValue,
    kErrorOutOfMemory,
    kErrorNotMapped,
    kErrorAlreadyMapped,
    kErrorNotReserved,
    kErrorInvalidHandle,
};

const char *toString(CuResult result);

/** Opaque physical-memory handle (CUmemGenericAllocationHandle). */
using MemHandle = u64;
constexpr MemHandle kInvalidHandle = 0;

/** Per-API call counters (tests/benches). */
struct DriverCounters
{
    u64 reserve = 0;
    u64 create = 0;
    u64 map = 0;
    u64 set_access = 0;
    u64 unmap = 0;
    u64 release = 0;
    u64 address_free = 0;
    // Host tier (KV swap).
    u64 host_create = 0;
    u64 host_release = 0;
    u64 copy_dtoh = 0;
    u64 copy_htod = 0;

    u64
    total() const
    {
        return reserve + create + map + set_access + unmap + release +
               address_free + host_create + host_release + copy_dtoh +
               copy_htod;
    }

    bool operator==(const DriverCounters &) const = default;
};

/** Driver instance bound to one GPU device. */
class Driver
{
  public:
    explicit Driver(gpu::GpuDevice &device, LatencyModel latency = {});

    // --- Stock CUDA VMM API (2MB granularity) ----------------------

    CuResult cuMemAddressReserve(Addr *ptr, u64 size, u64 alignment = 0,
                                 Addr fixed = 0);
    CuResult cuMemAddressFree(Addr ptr, u64 size);
    CuResult cuMemCreate(MemHandle *handle, u64 size);
    CuResult cuMemRelease(MemHandle handle);
    CuResult cuMemMap(Addr ptr, u64 size, u64 offset, MemHandle handle);
    CuResult cuMemUnmap(Addr ptr, u64 size);
    CuResult cuMemSetAccess(Addr ptr, u64 size);

    // --- Classic allocation (virtual + physical fused) -------------

    CuResult cudaMalloc(Addr *ptr, u64 size);
    CuResult cudaFree(Addr ptr);

    // --- Host memory + PCIe copies (KV swap tier) -------------------
    //
    // Host handles live in their own namespace: they have no device
    // physical memory and can never be mapped into the GPU VA space,
    // only serve as copy endpoints. Copy latency follows the
    // LatencyModel's CopyModel (a perf::PcieSpec installs the
    // calibrated link) and lands on the same ledger as every other
    // driver call, so callers attribute swap stalls like map latency.

    /** Allocate @p size bytes of pinned host memory. */
    CuResult cuMemHostCreate(MemHandle *handle, u64 size);
    /** Free a pinned host allocation (must exist). */
    CuResult cuMemHostRelease(MemHandle handle);
    /** Copy a device handle's contents to a host handle (sizes must
     *  match; the device handle may be mapped or not). */
    CuResult cuMemcpyDtoH(MemHandle host, MemHandle device);
    /** Copy a host handle's contents back to a device handle. */
    CuResult cuMemcpyHtoD(MemHandle device, MemHandle host);

    // --- Paper's driver extension (§6.2): small page-groups --------

    CuResult vMemReserve(Addr *ptr, u64 size, u64 alignment = 0);
    CuResult vMemFree(Addr ptr, u64 size);
    CuResult vMemCreate(MemHandle *handle, PageGroup group);
    CuResult vMemMap(Addr ptr, MemHandle handle);
    /** Remove the mapping at @p ptr only; the handle stays live (and
     *  possibly mapped at other VAs). Needed by prefix sharing, where
     *  one request's unmap must not free pages aliased by another. */
    CuResult vMemUnmap(Addr ptr);
    CuResult vMemRelease(MemHandle handle);

    // --- Introspection ----------------------------------------------

    gpu::GpuDevice &device() { return device_; }
    const LatencyModel &latency() const { return latency_; }
    LatencyModel &latency() { return latency_; }

    /** Latency accrued since the last call to this function. */
    TimeNs consumeElapsedNs();
    TimeNs totalNs() const { return total_ns_; }
    const DriverCounters &counters() const { return counters_; }

    /** Bytes of physical memory currently owned by live handles. */
    u64 physBytesInUse() const { return phys_in_use_; }
    /** Live (created, not released) handle count. */
    std::size_t numLiveHandles() const { return handles_.size(); }
    /** Bytes of pinned host memory currently allocated. */
    u64 hostBytesInUse() const { return host_in_use_; }
    /** Live pinned host allocations. */
    std::size_t numLiveHostHandles() const
    {
        return host_handles_.size();
    }

    /**
     * Self-audit of the driver's ledgers: physBytesInUse() and
     * hostBytesInUse() must equal the sum of live handle sizes, and
     * the device page table must agree bidirectionally with every
     * handle's mapping list — each listed VA holds an extent of the
     * handle's size and phys tagged with the handle, and each extent
     * belongs to a live handle that lists it. Records violations in
     * @p report.
     */
    void auditInto(audit::AuditReport &report) const;

    /** Page-group size of a live handle (tests). */
    u64 handleSize(MemHandle handle) const;
    /** Is the handle currently mapped somewhere? */
    bool isMapped(MemHandle handle) const;
    /** Number of VAs the handle is mapped at (>1 = aliased). */
    std::size_t numMappings(MemHandle handle) const;

  private:
    struct HandleInfo
    {
        u64 size = 0;
        PhysAddr phys = 0;
        PageSize page = PageSize::k2MB; ///< hardware page backing it
        /** Every VA this handle is mapped at. More than one entry
         *  means the physical memory is aliased — the KV
         *  de-duplication capability of §8.1. */
        std::vector<Addr> mappings;
        bool is_extension = false;      ///< created via vMemCreate
    };

    struct MallocInfo
    {
        u64 size = 0;
        MemHandle handle = kInvalidHandle;
    };

    void charge(Api api, PageGroup pg);
    /** Charge a cost that is not a Table-3 API (host alloc, copies). */
    void chargeNs(TimeNs cost);

    CuResult doMap(Addr ptr, MemHandle handle, HandleInfo &info,
                   gpu::Access access);
    CuResult doUnmapOne(HandleInfo &info, Addr ptr);
    /** Live handle whose mapping starts at @p ptr, or handles_.end().
     *  The page table tags every driver extent with its handle, so it
     *  is the VA->handle index. */
    std::unordered_map<MemHandle, HandleInfo>::iterator
    mappedHandleAt(Addr ptr);

    gpu::GpuDevice &device_;
    LatencyModel latency_;
    std::unordered_map<MemHandle, HandleInfo> handles_;
    std::unordered_map<Addr, MallocInfo> mallocs_;
    /** Pinned host allocations: handle -> size. */
    std::unordered_map<MemHandle, u64> host_handles_;
    MemHandle next_handle_ = 1;
    TimeNs pending_ns_ = 0;
    TimeNs total_ns_ = 0;
    u64 phys_in_use_ = 0;
    u64 host_in_use_ = 0;
    DriverCounters counters_;
};

} // namespace vattn::cuvmm

#endif // VATTN_CUVMM_DRIVER_HH
