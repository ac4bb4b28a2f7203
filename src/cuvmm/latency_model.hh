/**
 * @file
 * Calibrated latency model for the VMM driver calls, reproducing Table 3
 * of the paper: per-API, per-page-group-size costs measured on an A100
 * system. Stock CUDA APIs (cu*) only operate at 2MB granularity; the
 * driver-extension APIs (v*) support 64KB/128KB/256KB and fuse
 * map+set-access and unmap+release.
 */

#ifndef VATTN_CUVMM_LATENCY_MODEL_HH
#define VATTN_CUVMM_LATENCY_MODEL_HH

#include "common/types.hh"

namespace vattn::cuvmm
{

/** The driver entry points that carry a modelled cost. */
enum class Api
{
    kAddressReserve, ///< cuMemAddressReserve / vMemReserve
    kCreate,         ///< cuMemCreate / vMemCreate
    kMap,            ///< cuMemMap / vMemMap (v: includes access grant)
    kSetAccess,      ///< cuMemSetAccess (2MB path only)
    kUnmap,          ///< cuMemUnmap (2MB path only)
    kRelease,        ///< cuMemRelease / vMemRelease (v: includes unmap)
    kAddressFree,    ///< cuMemAddressFree / vMemFree
};

const char *toString(Api api);

/** Table-3 cost model. All values in nanoseconds. */
class LatencyModel
{
  public:
    /**
     * Device<->host copy pricing for the KV swap tier. The defaults
     * mirror perf::PcieSpec::gen4x16() (the A100 platform) so a bare
     * driver prices copies sensibly; backends install the engine's
     * configured link via setCopyModel(PcieSpec::toCopyModel()).
     */
    struct CopyModel
    {
        double d2h_bytes_per_s = 24e9;
        double h2d_bytes_per_s = 26e9;
        TimeNs launch_ns = 8 * kUsec;

        /** Device -> host copy of @p bytes: the launch cost plus the
         *  bytes at the link's bandwidth — the project's one PCIe
         *  copy formula (perf::PcieSpec and the paged runtime's swaps
         *  price copies through it too). */
        TimeNs dtohNs(u64 bytes) const;
        /** Host -> device copy of @p bytes, by the same formula. */
        TimeNs htodNs(u64 bytes) const;
    };

    /** Latency of @p api when operating on @p pg sized page-groups. */
    TimeNs cost(Api api, PageGroup pg) const;

    // ---- Host tier (swap) costs -------------------------------------

    /** Device -> pinned-host copy of @p bytes (swap-out direction). */
    TimeNs copyDtoHCost(u64 bytes) const;

    /** Pinned-host -> device copy of @p bytes (swap-in direction). */
    TimeNs copyHtoDCost(u64 bytes) const;

    /**
     * cuMemHostCreate: pinned host allocation. Dominated by
     * page-locking, so roughly linear in size; callers are expected to
     * pool host pages rather than pay this per swap.
     */
    TimeNs hostAllocCost(u64 bytes) const;

    /** cuMemHostRelease: unpin + free. */
    TimeNs hostFreeCost(u64 bytes) const;

    void setCopyModel(const CopyModel &copy) { copy_ = copy; }
    const CopyModel &copyModel() const { return copy_; }

    /**
     * Steady-state cost of growing a mapped region by one page-group
     * (handles recycled from a pool, so only the mapping step pays):
     * vMemMap for small groups; cuMemMap + cuMemSetAccess for 2MB.
     */
    TimeNs mapGroupCost(PageGroup pg) const;

    /** Cost of returning one page-group to the pool (unmap path). */
    TimeNs unmapGroupCost(PageGroup pg) const;

    /** Scale all costs (sensitivity studies); 1.0 = Table 3. */
    void setScale(double scale) { scale_ = scale; }
    double scale() const { return scale_; }

  private:
    double scale_ = 1.0;
    CopyModel copy_;
};

} // namespace vattn::cuvmm

#endif // VATTN_CUVMM_LATENCY_MODEL_HH
