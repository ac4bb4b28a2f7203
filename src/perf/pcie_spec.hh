/**
 * @file
 * PCIe interconnect description for the host-memory KV swap tier: the
 * device<->host copy bandwidths and per-transfer launch overhead that
 * price a swap-out (DtoH) or swap-in (HtoD) of KV page-groups. The
 * cost-model-driven preemption policy (Engine kAuto) compares these
 * round-trip costs against the roofline cost of recomputing the
 * victim's prefill.
 *
 * The calibrated numbers install into the cuvmm driver's LatencyModel
 * (whose defaults mirror gen4x16() so a bare driver still prices
 * copies); perf sits above cuvmm in the layer order, so the spec can
 * name the driver type directly.
 */

#ifndef VATTN_PERF_PCIE_SPEC_HH
#define VATTN_PERF_PCIE_SPEC_HH

#include <string>

#include "common/types.hh"
#include "cuvmm/latency_model.hh"

namespace vattn::perf
{

/** Aggregate throughput description of one GPU's PCIe link. */
struct PcieSpec
{
    std::string name;
    double h2d_bytes_per_s; ///< pinned host -> device copy bandwidth
    double d2h_bytes_per_s; ///< device -> pinned host copy bandwidth
    TimeNs launch_ns;       ///< fixed per-transfer cost (API + DMA setup)

    /** PCIe 4.0 x16 (the A100 platform, ~26/24 GB/s effective). */
    static PcieSpec gen4x16();

    /** Device -> host copy time for @p bytes. */
    TimeNs dtohNs(u64 bytes) const;
    /** Host -> device copy time for @p bytes. */
    TimeNs htodNs(u64 bytes) const;
    /** Swap round trip: copy out now, copy back later. */
    TimeNs roundTripNs(u64 bytes) const;

    /** The driver-facing copy-cost parameters of this link. */
    cuvmm::LatencyModel::CopyModel toCopyModel() const;
};

} // namespace vattn::perf

#endif // VATTN_PERF_PCIE_SPEC_HH
