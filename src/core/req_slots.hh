/**
 * @file
 * reqId slot registry (§5.2.3): requests occupy non-overlapping
 * sub-tensors identified by an integer reqId in [0, B). Slots move
 * through Free -> Active -> (Cached | Free): Cached slots belong to
 * completed requests whose physical page-groups were deliberately kept
 * mapped (deferred reclamation, §6.1.2) so a future request can reuse
 * them without any driver calls.
 *
 * The LRU order of cached slots is an intrusive doubly-linked list
 * threaded through two per-slot index arrays: each slot appears at
 * most once, so linking and unlinking are O(1) pointer swaps with no
 * heap traffic — request retirement sits on the serving steady-state
 * path and must stay allocation-free.
 */

#ifndef VATTN_CORE_REQ_SLOTS_HH
#define VATTN_CORE_REQ_SLOTS_HH

#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace vattn::core
{

enum class SlotState : u8
{
    kFree = 0,
    kActive,
    kCached, ///< free for reuse, mappings retained
};

const char *toString(SlotState state);

/** Tracks slot states plus the LRU order of cached slots. */
class ReqSlots
{
  public:
    explicit ReqSlots(int capacity);

    int capacity() const { return capacity_; }
    SlotState state(int slot) const;

    int numActive() const { return num_active_; }
    int numFree() const { return num_free_; }
    int numCached() const
    {
        return capacity_ - num_active_ - num_free_;
    }

    /** Activate a specific slot (must be Free or Cached). */
    Status activate(int slot);

    /** Active -> Cached (deferred reclamation). */
    Status moveToCached(int slot);

    /** Free -> Cached (eager allocation parks a pre-mapped warm slot
     *  with the cached ones so allocReqId can hand it out). */
    Status cacheFreeSlot(int slot);

    /** Active or Cached -> Free (mappings gone). */
    Status moveToFree(int slot);

    /** Lowest-numbered free slot, or -1. */
    int firstFree() const;

    /** In-place view of the cached slots, least recently cached first
     *  (reclaim victims); the caller must not mutate slot states while
     *  iterating. */
    class CachedOrderView
    {
      public:
        class iterator
        {
          public:
            iterator(const std::vector<int> *next, int slot)
                : next_(next), slot_(slot)
            {
            }
            int operator*() const { return slot_; }
            iterator &operator++()
            {
                slot_ = (*next_)[static_cast<std::size_t>(slot_)];
                return *this;
            }
            bool operator!=(const iterator &other) const
            {
                return slot_ != other.slot_;
            }

          private:
            const std::vector<int> *next_;
            int slot_;
        };

        CachedOrderView(const std::vector<int> *next, int head)
            : next_(next), head_(head)
        {
        }
        iterator begin() const { return {next_, head_}; }
        iterator end() const { return {next_, -1}; }

      private:
        const std::vector<int> *next_;
        int head_;
    };

    CachedOrderView cachedOrder() const
    {
        return {&cached_next_, cached_head_};
    }

    /** Oldest cached slot, or -1. */
    int oldestCached() const { return cached_head_; }

  private:
    void checkSlot(int slot) const;
    void linkCachedBack(int slot);
    void unlinkCached(int slot);

    int capacity_;
    int num_active_ = 0;
    int num_free_;
    std::vector<SlotState> states_;
    /** Intrusive LRU chain over cached slots (head = oldest). A
     *  slot's links are only meaningful while it is Cached. */
    std::vector<int> cached_next_;
    std::vector<int> cached_prev_;
    int cached_head_ = -1;
    int cached_tail_ = -1;
};

} // namespace vattn::core

#endif // VATTN_CORE_REQ_SLOTS_HH
