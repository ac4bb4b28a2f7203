/**
 * @file
 * The host-tier KV image of one swapped-out request, in the one format
 * both memory backends produce and consume (cross-replica migration).
 *
 * A request's KV is cut into units, and each unit into equal pages:
 * the vAttention runtime's units are its KV buffers (pages are
 * page-groups), the paged backend's are its window classes (pages are
 * blocks). Per unit the image records the live page run [lead,
 * lead + pages) — a sliding window's dead leading pages never reach
 * the host — and the layout the unit was cut at: tokens per page and
 * the unit's attention window. An adopter takes an image only if it
 * would cut every unit identically, so an image never lands in a
 * backend whose pages hold a different number of tokens.
 *
 * The image carries layout bookkeeping only: the simulated payload
 * stays in host memory, which replicas on one node share, so the
 * handover itself is modeled zero-copy — the donor paid the
 * device->host copy at swap-out, the adopter pays host->device at
 * swap-in.
 */

#ifndef VATTN_COMMON_KV_IMAGE_HH
#define VATTN_COMMON_KV_IMAGE_HH

#include <algorithm>
#include <span>
#include <vector>

#include "common/types.hh"

namespace vattn
{

/** How one unit of KV is cut into pages. */
struct KvPageLayout
{
    i64 tokens_per_page = 0;
    i64 window_tokens = 0; ///< 0 = full attention

    bool operator==(const KvPageLayout &) const = default;
};

/** A swapped-out request's host-tier KV, detached from its backend. */
struct SwappedKvImage
{
    struct Unit
    {
        KvPageLayout layout;
        i64 lead = 0;  ///< first live page
        i64 pages = 0; ///< live pages parked on the host

        bool operator==(const Unit &) const = default;
    };

    std::vector<Unit> units;
    /** KV bytes parked on the host tier (per TP worker). */
    u64 bytes = 0;

    /** The virtual page frontier: max over units of lead + pages. */
    i64
    frontier() const
    {
        i64 end = 0;
        for (const Unit &unit : units) {
            end = std::max(end, unit.lead + unit.pages);
        }
        return end;
    }

    /** Live pages across all units. */
    i64
    pages() const
    {
        i64 total = 0;
        for (const Unit &unit : units) {
            total += unit.pages;
        }
        return total;
    }

    bool empty() const { return pages() == 0; }

    /** Are the units cut exactly as @p layouts, one per unit? */
    bool
    cutAs(std::span<const KvPageLayout> layouts) const
    {
        if (units.size() != layouts.size()) {
            return false;
        }
        for (std::size_t u = 0; u < units.size(); ++u) {
            if (!(units[u].layout == layouts[u])) {
                return false;
            }
        }
        return true;
    }

    bool operator==(const SwappedKvImage &) const = default;
};

} // namespace vattn

#endif // VATTN_COMMON_KV_IMAGE_HH
