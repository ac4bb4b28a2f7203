/**
 * @file
 * Address-range container mapping disjoint [start, end) intervals to
 * values: exact-range insert/erase, containment lookup and overlap
 * queries over a sparse 64-bit space. Test-only: it is the reference
 * page table the page-table tests compare against. It lives under
 * tests/common/, which the test binaries have on their include path,
 * so it is included as "common/interval_map.hh".
 */

#ifndef VATTN_COMMON_INTERVAL_MAP_HH
#define VATTN_COMMON_INTERVAL_MAP_HH

#include <map>
#include <optional>

#include "common/logging.hh"
#include "common/status.hh"
#include "common/types.hh"

namespace vattn
{

/**
 * Map from disjoint half-open byte ranges to values of type T.
 * Ranges never overlap; inserting an overlapping range is rejected.
 */
template <typename T>
class IntervalMap
{
  public:
    struct Entry
    {
        Addr start;
        Addr end; ///< exclusive
        T value;
    };

    /** Insert [start, end) -> value. Fails on overlap or empty range. */
    Status
    insert(Addr start, Addr end, T value)
    {
        if (end <= start) {
            return errorStatus(ErrorCode::kInvalidArgument,
                               "empty interval");
        }
        if (overlaps(start, end)) {
            return errorStatus(ErrorCode::kAlreadyExists,
                               "interval overlaps existing entry");
        }
        map_.emplace(start, Node{end, std::move(value)});
        return Status::ok();
    }

    /** Remove the entry that starts exactly at @p start. */
    Status
    eraseAt(Addr start)
    {
        auto it = map_.find(start);
        if (it == map_.end()) {
            return errorStatus(ErrorCode::kNotFound, "no interval at start");
        }
        map_.erase(it);
        return Status::ok();
    }

    /** Entry containing @p addr, if any. */
    std::optional<Entry>
    find(Addr addr) const
    {
        auto it = findIter(addr);
        if (it == map_.end()) {
            return std::nullopt;
        }
        return Entry{it->first, it->second.end, it->second.value};
    }

    /** Mutable access to the value of the entry containing @p addr. */
    T *
    findValue(Addr addr)
    {
        auto it = findIterMut(addr);
        return it == map_.end() ? nullptr : &it->second.value;
    }

    const T *
    findValue(Addr addr) const
    {
        auto it = findIter(addr);
        return it == map_.end() ? nullptr : &it->second.value;
    }

    /** Entry starting exactly at @p start, if any. */
    std::optional<Entry>
    findExact(Addr start) const
    {
        auto it = map_.find(start);
        if (it == map_.end()) {
            return std::nullopt;
        }
        return Entry{it->first, it->second.end, it->second.value};
    }

    /** Does [start, end) intersect any stored interval? */
    bool
    overlaps(Addr start, Addr end) const
    {
        if (end <= start || map_.empty()) {
            return false;
        }
        // First interval with key >= start could clip from the right,
        // the one before it could contain start.
        auto it = map_.lower_bound(start);
        if (it != map_.end() && it->first < end) {
            return true;
        }
        if (it != map_.begin()) {
            --it;
            if (it->second.end > start) {
                return true;
            }
        }
        return false;
    }

    /** Visit every entry intersecting [start, end) in address order. */
    template <typename Fn>
    void
    forEachIn(Addr start, Addr end, Fn &&fn) const
    {
        if (end <= start) {
            return;
        }
        auto it = map_.lower_bound(start);
        if (it != map_.begin()) {
            auto prev = std::prev(it);
            if (prev->second.end > start) {
                it = prev;
            }
        }
        for (; it != map_.end() && it->first < end; ++it) {
            fn(Entry{it->first, it->second.end, it->second.value});
        }
    }

    /** Visit all entries in address order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[start, node] : map_) {
            fn(Entry{start, node.end, node.value});
        }
    }

    std::size_t size() const { return map_.size(); }
    bool empty() const { return map_.empty(); }
    void clear() { map_.clear(); }

    /** Total bytes covered by stored intervals. */
    u64
    coveredBytes() const
    {
        u64 total = 0;
        for (const auto &[start, node] : map_) {
            total += node.end - start;
        }
        return total;
    }

  private:
    struct Node
    {
        Addr end;
        T value;
    };

    using MapType = std::map<Addr, Node>;

    typename MapType::const_iterator
    findIter(Addr addr) const
    {
        auto it = map_.upper_bound(addr);
        if (it == map_.begin()) {
            return map_.end();
        }
        --it;
        if (addr >= it->first && addr < it->second.end) {
            return it;
        }
        return map_.end();
    }

    typename MapType::iterator
    findIterMut(Addr addr)
    {
        auto it = map_.upper_bound(addr);
        if (it == map_.begin()) {
            return map_.end();
        }
        --it;
        if (addr >= it->first && addr < it->second.end) {
            return it;
        }
        return map_.end();
    }

    MapType map_;
};

} // namespace vattn

#endif // VATTN_COMMON_INTERVAL_MAP_HH
