#include "core/req_slots.hh"

#include "common/logging.hh"

namespace vattn::core
{

const char *
toString(SlotState state)
{
    switch (state) {
      case SlotState::kFree: return "Free";
      case SlotState::kActive: return "Active";
      case SlotState::kCached: return "Cached";
    }
    return "?";
}

ReqSlots::ReqSlots(int capacity)
    : capacity_(capacity),
      sets_{SlotSet(capacity), SlotSet(capacity), SlotSet(capacity)},
      cached_next_(static_cast<std::size_t>(capacity), -1),
      cached_prev_(static_cast<std::size_t>(capacity), -1)
{
    fatal_if(capacity <= 0, "ReqSlots needs positive capacity");
    for (int slot = 0; slot < capacity_; ++slot) {
        sets_[index(SlotState::kFree)].insert(slot);
    }
    counts_[index(SlotState::kFree)] = capacity_;
}

void
ReqSlots::linkCachedBack(int slot)
{
    cached_prev_[static_cast<std::size_t>(slot)] = cached_tail_;
    cached_next_[static_cast<std::size_t>(slot)] = -1;
    if (cached_tail_ >= 0) {
        cached_next_[static_cast<std::size_t>(cached_tail_)] = slot;
    } else {
        cached_head_ = slot;
    }
    cached_tail_ = slot;
}

void
ReqSlots::unlinkCached(int slot)
{
    const int prev = cached_prev_[static_cast<std::size_t>(slot)];
    const int next = cached_next_[static_cast<std::size_t>(slot)];
    if (prev >= 0) {
        cached_next_[static_cast<std::size_t>(prev)] = next;
    } else {
        cached_head_ = next;
    }
    if (next >= 0) {
        cached_prev_[static_cast<std::size_t>(next)] = prev;
    } else {
        cached_tail_ = prev;
    }
}

void
ReqSlots::transition(int slot, SlotState from, SlotState to)
{
    if (from == SlotState::kCached) {
        unlinkCached(slot);
    }
    sets_[index(from)].erase(slot);
    --counts_[index(from)];
    sets_[index(to)].insert(slot);
    ++counts_[index(to)];
    if (to == SlotState::kCached) {
        linkCachedBack(slot);
    }
}

Status
ReqSlots::activate(int slot)
{
    const SlotState from = state(slot);
    if (from == SlotState::kActive) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "slot already active");
    }
    transition(slot, from, SlotState::kActive);
    return Status::ok();
}

Status
ReqSlots::moveToCached(int slot)
{
    if (state(slot) != SlotState::kActive) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "only active slots can be cached");
    }
    transition(slot, SlotState::kActive, SlotState::kCached);
    return Status::ok();
}

Status
ReqSlots::cacheFreeSlot(int slot)
{
    if (state(slot) != SlotState::kFree) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "only free slots can be parked as cached");
    }
    transition(slot, SlotState::kFree, SlotState::kCached);
    return Status::ok();
}

Status
ReqSlots::moveToFree(int slot)
{
    const SlotState from = state(slot);
    if (from == SlotState::kFree) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "slot already free");
    }
    transition(slot, from, SlotState::kFree);
    return Status::ok();
}

} // namespace vattn::core
