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
    : capacity_(capacity), num_free_(capacity),
      states_(static_cast<std::size_t>(capacity), SlotState::kFree),
      cached_next_(static_cast<std::size_t>(capacity), -1),
      cached_prev_(static_cast<std::size_t>(capacity), -1)
{
    fatal_if(capacity <= 0, "ReqSlots needs positive capacity");
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
ReqSlots::checkSlot(int slot) const
{
    panic_if(slot < 0 || slot >= capacity_, "reqId ", slot,
             " out of range [0, ", capacity_, ")");
}

SlotState
ReqSlots::state(int slot) const
{
    checkSlot(slot);
    return states_[static_cast<std::size_t>(slot)];
}

Status
ReqSlots::activate(int slot)
{
    checkSlot(slot);
    auto &s = states_[static_cast<std::size_t>(slot)];
    switch (s) {
      case SlotState::kFree:
        --num_free_;
        break;
      case SlotState::kCached:
        unlinkCached(slot);
        break;
      case SlotState::kActive:
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "slot already active");
    }
    s = SlotState::kActive;
    ++num_active_;
    return Status::ok();
}

Status
ReqSlots::moveToCached(int slot)
{
    checkSlot(slot);
    auto &s = states_[static_cast<std::size_t>(slot)];
    if (s != SlotState::kActive) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "only active slots can be cached");
    }
    s = SlotState::kCached;
    --num_active_;
    linkCachedBack(slot);
    return Status::ok();
}

Status
ReqSlots::cacheFreeSlot(int slot)
{
    checkSlot(slot);
    auto &s = states_[static_cast<std::size_t>(slot)];
    if (s != SlotState::kFree) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "only free slots can be parked as cached");
    }
    s = SlotState::kCached;
    --num_free_;
    linkCachedBack(slot);
    return Status::ok();
}

Status
ReqSlots::moveToFree(int slot)
{
    checkSlot(slot);
    auto &s = states_[static_cast<std::size_t>(slot)];
    switch (s) {
      case SlotState::kFree:
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "slot already free");
      case SlotState::kActive:
        --num_active_;
        break;
      case SlotState::kCached:
        unlinkCached(slot);
        break;
    }
    s = SlotState::kFree;
    ++num_free_;
    return Status::ok();
}

int
ReqSlots::firstFree() const
{
    for (int slot = 0; slot < capacity_; ++slot) {
        if (states_[static_cast<std::size_t>(slot)] == SlotState::kFree) {
            return slot;
        }
    }
    return -1;
}

} // namespace vattn::core
