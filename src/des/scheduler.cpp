#include "des/scheduler.hpp"

#include <utility>

#include "obs/profiler.hpp"
#include "util/error.hpp"

namespace plc::des {

void Scheduler::schedule(SimTime delay, Callback callback) {
  util::require(delay >= SimTime::zero(),
                "Scheduler::schedule: delay must be non-negative");
  schedule_at(now_ + delay, std::move(callback));
}

void Scheduler::schedule_at(SimTime when, Callback callback) {
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
  slots_[slot] = std::move(callback);
  queue_.push(Entry{when, next_sequence_++, slot});
}

bool Scheduler::step() {
  if (queue_.empty()) return false;
  const Entry entry = queue_.top();
  queue_.pop();
  // Moved out before it runs: the callback may schedule events, which
  // can grow slots_ or reuse this slot.
  Callback callback = std::move(slots_[entry.slot]);
  slots_[entry.slot] = nullptr;
  free_slots_.push_back(entry.slot);
  now_ = entry.when;
  ++dispatched_;
  callback();
  return true;
}

SimTime Scheduler::next_barrier() const {
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
  while (!queue_.empty() && queue_.top().when <= horizon) step();
  if (now_ < horizon) {
    // Remaining events (if any) lie beyond the horizon; advancing the
    // clock keeps duration-based statistics well defined.
    now_ = horizon;
  }
}

}  // namespace plc::des
