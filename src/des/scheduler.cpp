#include "des/scheduler.hpp"

#include <utility>

#include "obs/profiler.hpp"
#include "util/error.hpp"

namespace plc::des {

EventHandle Scheduler::schedule(SimTime delay, Callback callback) {
  util::require(delay >= SimTime::zero(),
                "Scheduler::schedule: delay must be non-negative");
  return schedule_at(now_ + delay, std::move(callback));
}

EventHandle Scheduler::schedule_at(SimTime when, Callback callback) {
  util::require(when >= now_,
                "Scheduler::schedule_at: cannot schedule in the past");
  util::require(static_cast<bool>(callback),
                "Scheduler::schedule_at: callback must not be empty");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t sequence = next_sequence_++;
  slots_[slot].callback = std::move(callback);
  slots_[slot].sequence = sequence;
  queue_.push(Entry{when, sequence, slot});
  return EventHandle(slot, sequence);
}

bool Scheduler::cancel(EventHandle handle) {
  if (handle.is_null() || handle.slot_ >= slots_.size() ||
      slots_[handle.slot_].sequence != handle.sequence_) {
    return false;
  }
  release(handle.slot_);
  ++cancelled_pending_;
  return true;
}

void Scheduler::release(std::uint32_t slot) {
  slots_[slot].callback = nullptr;
  slots_[slot].sequence = 0;
  free_slots_.push_back(slot);
}

void Scheduler::purge_cancelled() {
  while (!queue_.empty() && !live(queue_.top())) {
    queue_.pop();
    --cancelled_pending_;
  }
}

bool Scheduler::step() {
  purge_cancelled();
  if (queue_.empty()) return false;
  const Entry entry = queue_.top();
  queue_.pop();
  // Moved out before it runs: the callback may schedule events, which
  // can grow slots_ or reuse this slot.
  Callback callback = std::move(slots_[entry.slot].callback);
  release(entry.slot);
  now_ = entry.when;
  ++dispatched_;
  callback();
  return true;
}

SimTime Scheduler::next_barrier() {
  purge_cancelled();
  SimTime barrier = queue_.empty() ? SimTime::max() : queue_.top().when;
  if (horizon_.has_value() && *horizon_ < barrier) {
    barrier = *horizon_ + SimTime::from_ns(1);
  }
  return barrier;
}

void Scheduler::run_until(SimTime horizon) {
  PROF_SCOPE("des.run_until");
  // The horizon holds for this call only, also when a callback throws.
  struct HorizonScope {
    std::optional<SimTime>& horizon;
    ~HorizonScope() { horizon.reset(); }
  } scope{horizon_};
  horizon_ = horizon;
  for (;;) {
    purge_cancelled();
    if (queue_.empty() || queue_.top().when > horizon) break;
    step();
  }
  if (now_ < horizon) {
    // Remaining events (if any) lie beyond the horizon; advancing the
    // clock keeps duration-based statistics well defined.
    now_ = horizon;
  }
}

}  // namespace plc::des
