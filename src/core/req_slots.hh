/**
 * @file
 * reqId slot registry (§5.2.3): requests occupy non-overlapping
 * sub-tensors identified by an integer reqId in [0, B). Slots move
 * through Free -> Active -> (Cached | Free): Cached slots belong to
 * completed requests whose physical page-groups were deliberately kept
 * mapped (deferred reclamation, §6.1.2) so a future request can reuse
 * them without any driver calls.
 *
 * The paper sizes every request table by the maximum batch size B, and
 * serving engines set B to their sequence cap (256 by default) even
 * when a handful of requests run. Per-iteration work must therefore
 * scale with the slots in use, not with B: each state keeps a bitset
 * of its slots (SlotSet, ceil(B/64) words), every transition moves one
 * bit in O(1), and forEachActive / forEachCached visit only the set
 * bits, in ascending slot order — the order a `for (slot = 0; slot <
 * B; ++slot)` scan would visit them, so callers that mutate the driver
 * while walking see the same sequence of slots.
 *
 * The LRU order of cached slots is an intrusive doubly-linked list
 * threaded through two per-slot index arrays: each slot appears at
 * most once, so linking and unlinking are O(1) pointer swaps with no
 * heap traffic — request retirement sits on the serving steady-state
 * path and must stay allocation-free.
 */

#ifndef VATTN_CORE_REQ_SLOTS_HH
#define VATTN_CORE_REQ_SLOTS_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
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

/**
 * Call @p f(slot) for every bit set in @p word(w), w in [0, num_words):
 * ascending slot order. Each word is read once, before its slots are
 * visited, so @p f may change the visited slot's membership but no
 * other slot's.
 */
template <typename Word, typename F>
void
forEachSetBit(std::size_t num_words, Word &&word, F &&f)
{
    for (std::size_t w = 0; w < num_words; ++w) {
        for (u64 bits = word(w); bits != 0; bits &= bits - 1) {
            f(static_cast<int>(w * 64) + std::countr_zero(bits));
        }
    }
}

/** A set of slot ids in [0, capacity): one bit per slot. Callers
 *  range-check slots; the set does not. */
class SlotSet
{
  public:
    explicit SlotSet(int capacity)
        : words_(static_cast<std::size_t>((capacity + 63) / 64), 0)
    {
    }

    bool
    contains(int slot) const
    {
        return (words_[index(slot)] & mask(slot)) != 0;
    }
    void insert(int slot) { words_[index(slot)] |= mask(slot); }
    void erase(int slot) { words_[index(slot)] &= ~mask(slot); }
    void clear() { std::fill(words_.begin(), words_.end(), 0); }

    std::size_t numWords() const { return words_.size(); }
    u64 word(std::size_t w) const { return words_[w]; }

    /** Lowest member, or -1. */
    int
    first() const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            if (words_[w] != 0) {
                return static_cast<int>(w * 64) +
                       std::countr_zero(words_[w]);
            }
        }
        return -1;
    }

    /** Visit the members in ascending order (see forEachSetBit). */
    template <typename F>
    void
    forEach(F &&f) const
    {
        forEachSetBit(
            words_.size(), [this](std::size_t w) { return words_[w]; }, f);
    }

  private:
    static std::size_t index(int slot)
    {
        return static_cast<std::size_t>(slot) / 64;
    }
    static u64 mask(int slot)
    {
        return u64{1} << (static_cast<unsigned>(slot) % 64);
    }

    std::vector<u64> words_;
};

/** Tracks slot states plus the LRU order of cached slots. */
class ReqSlots
{
  public:
    explicit ReqSlots(int capacity);

    int capacity() const { return capacity_; }

    SlotState
    state(int slot) const
    {
        checkSlot(slot);
        if (set(SlotState::kActive).contains(slot)) {
            return SlotState::kActive;
        }
        return set(SlotState::kCached).contains(slot) ? SlotState::kCached
                                                      : SlotState::kFree;
    }

    int numActive() const { return count(SlotState::kActive); }
    int numFree() const { return count(SlotState::kFree); }
    int numCached() const { return count(SlotState::kCached); }

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
    int firstFree() const { return set(SlotState::kFree).first(); }

    // ---- Visiting slots in ascending order ----------------------------
    // @p f(slot) may change the state of the slot it is visiting, but
    // of no other slot.

    template <typename F>
    void
    forEachActive(F &&f) const
    {
        set(SlotState::kActive).forEach(f);
    }

    template <typename F>
    void
    forEachCached(F &&f) const
    {
        set(SlotState::kCached).forEach(f);
    }

    /** Every slot that is not Free. */
    template <typename F>
    void
    forEachActiveOrCached(F &&f) const
    {
        const SlotSet &active = set(SlotState::kActive);
        const SlotSet &cached = set(SlotState::kCached);
        forEachSetBit(
            active.numWords(),
            [&](std::size_t w) { return active.word(w) | cached.word(w); },
            f);
    }

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
    static std::size_t index(SlotState state)
    {
        return static_cast<std::size_t>(state);
    }
    const SlotSet &set(SlotState state) const { return sets_[index(state)]; }
    int count(SlotState state) const { return counts_[index(state)]; }

    void
    checkSlot(int slot) const
    {
        panic_if(slot < 0 || slot >= capacity_, "reqId ", slot,
                 " out of range [0, ", capacity_, ")");
    }
    /** Move @p slot from state @p from (its current one) to @p to. */
    void transition(int slot, SlotState from, SlotState to);
    void linkCachedBack(int slot);
    void unlinkCached(int slot);

    int capacity_;
    /** Slots in each state, indexed by SlotState: every slot is in
     *  exactly one set. */
    std::array<SlotSet, 3> sets_;
    std::array<int, 3> counts_{};
    /** Intrusive LRU chain over cached slots (head = oldest). A
     *  slot's links are only meaningful while it is Cached. */
    std::vector<int> cached_next_;
    std::vector<int> cached_prev_;
    int cached_head_ = -1;
    int cached_tail_ = -1;
};

} // namespace vattn::core

#endif // VATTN_CORE_REQ_SLOTS_HH
