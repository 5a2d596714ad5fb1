// Event scheduler: the core of the discrete-event engine.
//
// Events are callbacks ordered by (time, insertion sequence); ties in time
// fire in insertion order, which makes runs fully deterministic.
//
// Callbacks live in a slot vector recycled through a free list, so a
// warmed-up scheduler dispatches without allocating: the heap holds
// (time, sequence, slot) entries, and a lambda that captures at most two
// words is stored inside its std::function.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "des/time.hpp"

namespace plc::des {

/// Priority-queue event scheduler with integer-nanosecond timestamps.
class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time. Starts at zero.
  SimTime now() const { return now_; }

  /// Schedules `callback` to fire at now() + delay. Requires delay >= 0.
  void schedule(SimTime delay, Callback callback);

  /// Schedules `callback` at an absolute time >= now().
  void schedule_at(SimTime when, Callback callback);

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
  /// be the next one this run dispatches: the time of the earliest
  /// pending event (scheduled earlier, it fires first at its own time)
  /// or one nanosecond past the horizon of the run_until in progress,
  /// whichever comes first; SimTime::max() when neither bounds it. A
  /// caller that stands in for a chain of its own events at times before
  /// this instant changes nothing else that is dispatched.
  SimTime next_barrier() const;

  /// Number of events dispatched so far.
  std::int64_t events_dispatched() const { return dispatched_; }

  /// Number of events pending.
  std::size_t pending() const { return queue_.size(); }

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

  std::priority_queue<Entry> queue_;
  /// Callback slots; a pending event's entry names its slot.
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_sequence_ = 0;
  std::int64_t dispatched_ = 0;
  /// The horizon of the run_until in progress; none outside run_until.
  std::optional<SimTime> horizon_;
};

}  // namespace plc::des
