#include "cuvmm/latency_model.hh"

#include "common/logging.hh"

namespace vattn::cuvmm
{

const char *
toString(Api api)
{
    switch (api) {
      case Api::kAddressReserve: return "MemAddressReserve";
      case Api::kCreate: return "MemCreate";
      case Api::kMap: return "MemMap";
      case Api::kSetAccess: return "MemSetAccess";
      case Api::kUnmap: return "MemUnmap";
      case Api::kRelease: return "MemRelease";
      case Api::kAddressFree: return "MemAddressFree";
    }
    return "?";
}

namespace
{

/** Column index for a page-group size. */
int
column(PageGroup pg)
{
    switch (pg) {
      case PageGroup::k64KB: return 0;
      case PageGroup::k128KB: return 1;
      case PageGroup::k256KB: return 2;
      case PageGroup::k2MB: return 3;
    }
    panic("unknown page group");
}

// Table 3 of the paper, microseconds: {64KB, 128KB, 256KB, 2MB}.
// The 64-256KB columns are the vMem* extension APIs; the 2MB column is
// the stock CUDA path. -1 marks combinations that have no distinct
// call (fused into another API on that path).
//
// The sub-2MB kUnmap entries model the standalone vMemUnmap added for
// prefix sharing (drop ONE alias of a multi-mapped handle without
// freeing it): the same kernel crossing as vMemRelease minus the
// physical free, so slightly under the release column.
constexpr double kUsTable[][4] = {
    /* kAddressReserve */ {18.0, 17.0, 16.0, 2.0},
    /* kCreate         */ {1.7, 2.0, 2.1, 29.0},
    /* kMap            */ {8.0, 8.5, 9.0, 2.0},
    /* kSetAccess      */ {-1.0, -1.0, -1.0, 38.0},
    /* kUnmap          */ {1.8, 2.7, 3.6, 34.0},
    /* kRelease        */ {2.0, 3.0, 4.0, 23.0},
    /* kAddressFree    */ {35.0, 35.0, 35.0, 1.0},
};

} // namespace

TimeNs
LatencyModel::cost(Api api, PageGroup pg) const
{
    const double us = kUsTable[static_cast<int>(api)][column(pg)];
    panic_if(us < 0, "API ", toString(api),
             " has no distinct cost at page-group ", toString(pg),
             " (fused on this path)");
    return static_cast<TimeNs>(us * 1000.0 * scale_);
}

TimeNs
LatencyModel::mapGroupCost(PageGroup pg) const
{
    if (pg == PageGroup::k2MB) {
        return cost(Api::kMap, pg) + cost(Api::kSetAccess, pg);
    }
    return cost(Api::kMap, pg); // vMemMap fuses the access grant
}

namespace
{

TimeNs
bandwidthNs(u64 bytes, double bytes_per_s, TimeNs launch_ns)
{
    return launch_ns +
           static_cast<TimeNs>(static_cast<double>(bytes) /
                               bytes_per_s * 1e9);
}

} // namespace

TimeNs
LatencyModel::CopyModel::dtohNs(u64 bytes) const
{
    return bandwidthNs(bytes, d2h_bytes_per_s, launch_ns);
}

TimeNs
LatencyModel::CopyModel::htodNs(u64 bytes) const
{
    return bandwidthNs(bytes, h2d_bytes_per_s, launch_ns);
}

TimeNs
LatencyModel::copyDtoHCost(u64 bytes) const
{
    // PCIe time is physical, not a driver-call cost: the Table-3
    // sensitivity scale does not apply.
    return copy_.dtohNs(bytes);
}

TimeNs
LatencyModel::copyHtoDCost(u64 bytes) const
{
    return copy_.htodNs(bytes);
}

TimeNs
LatencyModel::hostAllocCost(u64 bytes) const
{
    // ~0.35us per 4KB page locked plus a fixed syscall/driver cost.
    const u64 pages = ceilDiv(bytes, 4 * KiB);
    return static_cast<TimeNs>((30.0 + 0.35 * static_cast<double>(pages)) *
                               1000.0 * scale_);
}

TimeNs
LatencyModel::hostFreeCost(u64 bytes) const
{
    const u64 pages = ceilDiv(bytes, 4 * KiB);
    return static_cast<TimeNs>((20.0 + 0.20 * static_cast<double>(pages)) *
                               1000.0 * scale_);
}

TimeNs
LatencyModel::unmapGroupCost(PageGroup pg) const
{
    if (pg == PageGroup::k2MB) {
        return cost(Api::kUnmap, pg) + cost(Api::kRelease, pg);
    }
    return cost(Api::kRelease, pg); // vMemRelease fuses the unmap
}

} // namespace vattn::cuvmm
