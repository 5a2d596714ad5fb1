// Event scheduler: the core of the discrete-event engine.
//
// Events are callbacks ordered by (time, insertion sequence); ties in time
// fire in insertion order, which makes runs fully deterministic. Events may
// be cancelled through the handle returned at scheduling time.
//
// Callbacks live in a slot vector recycled through a free list, so a
// warmed-up scheduler dispatches without allocating: the heap holds
// (time, sequence, slot) entries, and a lambda that captures at most two
// words is stored inside its std::function. A slot's generation is the
// insertion sequence of the event occupying it, unique over the
// scheduler's life, so a handle or heap entry whose event has fired or
// been cancelled never matches the slot's next occupant.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "des/time.hpp"

namespace plc::des {

/// Identifies a scheduled event so it can be cancelled. Default-constructed
/// handles are "null" and safe to cancel (no-op).
class EventHandle {
 public:
  constexpr EventHandle() = default;
  constexpr bool is_null() const { return sequence_ == 0; }

 private:
  friend class Scheduler;
  constexpr EventHandle(std::uint32_t slot, std::uint64_t sequence)
      : slot_(slot), sequence_(sequence) {}
  std::uint32_t slot_ = 0;
  std::uint64_t sequence_ = 0;  ///< The event's slot generation.
};

/// Priority-queue event scheduler with integer-nanosecond timestamps.
class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time. Starts at zero.
  SimTime now() const { return now_; }

  /// Schedules `callback` to fire at now() + delay. Requires delay >= 0.
  EventHandle schedule(SimTime delay, Callback callback);

  /// Schedules `callback` at an absolute time >= now().
  EventHandle schedule_at(SimTime when, Callback callback);

  /// Cancels a pending event; no-op if the handle is null, already fired,
  /// or already cancelled. Returns true if an event was actually cancelled.
  bool cancel(EventHandle handle);

  /// Runs events until the queue is empty or simulated time would exceed
  /// `horizon`. Events scheduled exactly at the horizon still fire.
  /// Afterwards now() is the horizon (unchanged when it already lay past
  /// the horizon). With nothing scheduled from outside in between, runs
  /// through several horizons dispatch the same events in the same order
  /// as one run to the last.
  void run_until(SimTime horizon);

  /// Runs a single event if one is pending; returns false when idle.
  bool step();

  /// The first instant at which an event scheduled now would no longer
  /// be the next one this run dispatches: the time of the earliest live
  /// pending event (scheduled earlier, it fires first at its own time)
  /// or one nanosecond past the horizon of the run_until in progress,
  /// whichever comes first; SimTime::max() when neither bounds it. A
  /// caller that stands in for a chain of its own events at times before
  /// this instant changes nothing else that is dispatched. Discards
  /// cancelled heads, as dispatching would.
  SimTime next_barrier();

  /// Number of events dispatched so far.
  std::int64_t events_dispatched() const { return dispatched_; }

  /// Number of live events pending; cancelled events are not counted,
  /// although their heap entries are discarded lazily.
  std::size_t pending() const { return queue_.size() - cancelled_pending_; }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t sequence;
    std::uint32_t slot;
    // Ordered as a max-heap by default; invert for earliest-first.
    bool operator<(const Entry& other) const {
      if (when != other.when) return when > other.when;
      return sequence > other.sequence;
    }
  };

  /// One callback slot; `sequence` is its occupant's insertion sequence
  /// (the generation), 0 while the slot is free.
  struct Slot {
    Callback callback;
    std::uint64_t sequence = 0;
  };

  std::priority_queue<Entry> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_sequence_ = 1;
  std::int64_t dispatched_ = 0;
  std::size_t cancelled_pending_ = 0;
  /// The horizon of the run_until in progress; none outside run_until.
  std::optional<SimTime> horizon_;

  /// True when `entry`'s event still occupies its slot (not cancelled).
  bool live(const Entry& entry) const {
    return slots_[entry.slot].sequence == entry.sequence;
  }
  /// Empties a slot and returns it to the free list.
  void release(std::uint32_t slot);
  /// Discards cancelled entries sitting at the top of the queue so that
  /// queue_.top() always refers to a live event.
  void purge_cancelled();
};

}  // namespace plc::des
