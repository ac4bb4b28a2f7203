/**
 * @file
 * Device virtual-address range allocator behind cuMemAddressReserve /
 * cuMemAddressFree. Virtual memory is deliberately plentiful (the paper
 * reserves terabytes, §5.1.3): the default space is 128TB per device.
 *
 * A device holds a few reservations per KV buffer set (one per K/V
 * buffer, §5.1), so the bookkeeping is one address-sorted vector of
 * reservations. Free space is the gaps between them; every lookup on
 * the map path (isReserved) is a binary search over that vector.
 */

#ifndef VATTN_GPU_VA_SPACE_HH
#define VATTN_GPU_VA_SPACE_HH

#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace vattn::gpu
{

/** First-fit reservation allocator over a huge virtual range. */
class VaSpace
{
  public:
    /** Default base keeps VA 0 invalid (null-like) and distinctive. */
    static constexpr Addr kDefaultBase = 0x10'0000'0000ULL; // 64GB mark
    static constexpr u64 kDefaultSize = 128 * TiB;

    explicit VaSpace(Addr base = kDefaultBase, u64 size = kDefaultSize);

    /**
     * Reserve @p size bytes aligned to @p alignment. If @p fixed is
     * non-zero, reserve exactly at that address or fail.
     */
    Result<Addr> reserve(u64 size, u64 alignment, Addr fixed = 0);

    /** Release a reservation made at @p addr (must match exactly). */
    Status release(Addr addr);

    /** Size of the reservation starting at @p addr, 0 if none. */
    u64 reservationSize(Addr addr) const;

    /** Does [addr, addr+size) lie fully inside one reservation? */
    bool isReserved(Addr addr, u64 size) const;

    u64 reservedBytes() const;
    std::size_t numReservations() const { return reserved_.size(); }
    Addr base() const { return base_; }
    u64 size() const { return size_; }

  private:
    /** One reservation, [start, end). */
    struct Range
    {
        Addr start;
        Addr end; ///< exclusive
    };
    using Iter = std::vector<Range>::const_iterator;

    /** The first reservation starting after @p addr. */
    Iter firstAfter(Addr addr) const;

    Addr base_;
    u64 size_;
    /** Disjoint reservations sorted by start. */
    std::vector<Range> reserved_;
};

} // namespace vattn::gpu

#endif // VATTN_GPU_VA_SPACE_HH
