#include "perf/pcie_spec.hh"

namespace vattn::perf
{

PcieSpec
PcieSpec::gen4x16()
{
    return PcieSpec{
        "PCIe4.0-x16",
        26e9, // pinned HtoD, ~82% of the 31.5 GB/s raw link
        24e9, // DtoH runs slightly behind HtoD on A100 systems
        8 * kUsec,
    };
}

TimeNs
PcieSpec::dtohNs(u64 bytes) const
{
    return toCopyModel().dtohNs(bytes);
}

TimeNs
PcieSpec::htodNs(u64 bytes) const
{
    return toCopyModel().htodNs(bytes);
}

TimeNs
PcieSpec::roundTripNs(u64 bytes) const
{
    return dtohNs(bytes) + htodNs(bytes);
}

cuvmm::LatencyModel::CopyModel
PcieSpec::toCopyModel() const
{
    return cuvmm::LatencyModel::CopyModel{d2h_bytes_per_s,
                                          h2d_bytes_per_s, launch_ns};
}

} // namespace vattn::perf
