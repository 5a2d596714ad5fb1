#include "sim/event_kernel.hpp"

#include <algorithm>
#include <string>

#include "obs/profiler.hpp"
#include "util/error.hpp"

namespace plc::sim {

EventKernel::EventKernel(const mac::MacSpec& mac, int stations,
                         const phy::TimingConfig& timing,
                         des::SimTime frame_length, std::uint64_t seed)
    : mac_(mac.def().make_event_mac(mac.config())),
      slot_(timing.slot),
      ts_(timing.success_duration(frame_length)),
      tc_(timing.collision_duration(frame_length)) {
  util::check_arg(stations >= 1, "stations", "need at least one station");
  util::check_arg(slot_ > des::SimTime::zero(), "timing",
                  "slot must be positive");
  util::check_arg(frame_length > des::SimTime::zero(), "frame_length",
                  "must be positive");
  const auto n = static_cast<std::size_t>(stations);
  lanes_.bc.assign(n, 0);
  lanes_.dc.assign(n, 0);
  lanes_.bpc.assign(n, 0);
  lanes_.stage.assign(n, 0);
  results_.tx_success.assign(n, 0);
  results_.tx_collision.assign(n, 0);
  // Same stream fan-out as the slot path's entity factories: one derived
  // stream per station, all derived before any initial state is drawn,
  // consumed only by that station's own transitions — so the draw
  // sequences are identical to the slot path's entities.
  des::RandomStream root(seed);
  lanes_.rngs.reserve(n);
  for (int i = 0; i < stations; ++i) {
    lanes_.rngs.emplace_back(root.derive_seed("station-" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < n; ++i) mac_->init_station(lanes_, i);
}

void EventKernel::bind_metrics(obs::Registry& registry) {
  observers_.bind_metrics(registry, station_count());
}

void EventKernel::set_trace(obs::TraceSink* sink, bool counter_samples) {
  observers_.set_trace(sink, counter_samples);
}

void EventKernel::attach_observatory(obs::Observatory* observatory) {
  observers_.attach_observatory(
      observatory, std::vector<int>(lanes_.size(), max_stage_count()));
}

void EventKernel::flush_observatory() { observers_.flush_observatory(); }

std::int64_t EventKernel::min_backoff() const {
  int min_bc = lanes_.bc[0];
  for (const int bc : lanes_.bc) min_bc = std::min(min_bc, bc);
  return min_bc;
}

void EventKernel::advance_idle(std::int64_t slots) {
  if (observers_.engaged()) observe_gap(slots);
  results_.idle_slots += slots;
  const int delta = static_cast<int>(slots);  // slots <= min BC, fits int.
  for (int& bc : lanes_.bc) bc -= delta;
  now_ += slot_ * slots;
  observers_.count(SlotEventType::kIdle, slot_, {}, slots);
}

void EventKernel::attempt() {
  scratch_transmitters_.clear();
  for (int i = 0; i < station_count(); ++i) {
    if (lanes_.bc[static_cast<std::size_t>(i)] == 0) {
      scratch_transmitters_.push_back(i);
    }
  }

  const bool success = scratch_transmitters_.size() == 1;
  if (observers_.tallying()) tally_attempt(success);

  SlotEventType type;
  des::SimTime duration;
  if (success) {
    type = SlotEventType::kSuccess;
    duration = ts_;
    ++results_.successes;
    const int winner = scratch_transmitters_.front();
    ++results_.tx_success[static_cast<std::size_t>(winner)];
    if (record_winners_) winners_.push_back(winner);
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (static_cast<int>(i) == winner) {
        mac_->on_transmitted(lanes_, i, /*success=*/true);
      } else {
        mac_->on_busy(lanes_, i);
      }
    }
  } else {
    type = SlotEventType::kCollision;
    duration = tc_;
    ++results_.collision_events;
    results_.collided_tx +=
        static_cast<std::int64_t>(scratch_transmitters_.size());
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_.bc[i] == 0) {
        ++results_.tx_collision[i];
        mac_->on_transmitted(lanes_, i, /*success=*/false);
      } else {
        mac_->on_busy(lanes_, i);
      }
    }
  }

  observers_.count(type, duration, scratch_transmitters_);
  if (observers_.engaged()) observe_attempt(type, duration);
  now_ += duration;
}

obs::StationState EventKernel::state_of(int station, int idle_slots) const {
  const auto i = static_cast<std::size_t>(station);
  return obs::StationState{lanes_.bc[i] - idle_slots,
                           mac_->deferral_counter(lanes_, i), lanes_.bpc[i],
                           mac_->stage(lanes_, i)};
}

void EventKernel::observe_gap(std::int64_t slots) {
  if (observers_.tallying()) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      mac::BackoffTally& tally = observers_.tally(i);
      tally.idle[std::min(static_cast<std::size_t>(lanes_.stage[i]),
                          tally.stages() - 1)] += slots;
    }
  }
  scratch_transmitters_.clear();
  for (int k = 1; k <= slots; ++k) {
    observers_.on_event(SlotEventType::kIdle, now_ + slot_ * (k - 1), slot_,
                        scratch_transmitters_, station_count(),
                        [this, k](int i) { return state_of(i, k); });
  }
}

void EventKernel::tally_attempt(bool success) {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    mac::BackoffTally& tally = observers_.tally(i);
    const std::size_t row =
        std::min(static_cast<std::size_t>(lanes_.stage[i]), tally.stages() - 1);
    if (lanes_.bc[i] == 0) {
      ++(success ? tally.tx_success : tally.tx_collision)[row];
    } else if (mac_->deferral_counter(lanes_, i) == 0) {
      ++tally.jumps[row];
    } else {
      ++tally.defers[row];
    }
  }
}

void EventKernel::observe_attempt(SlotEventType type, des::SimTime duration) {
  observers_.on_event(type, now_, duration, scratch_transmitters_,
                      station_count(),
                      [this](int i) { return state_of(i, 0); });
}

SlotSimResults EventKernel::run(des::SimTime duration) {
  PROF_SCOPE("event_kernel.run");
  util::check_arg(duration > des::SimTime::zero(), "duration",
                  "must be positive");
  const des::SimTime end = now_ + duration;
  while (now_ < end) {
    const std::int64_t min_bc = min_backoff();
    if (min_bc > 0) {
      // The whole idle gap in one step, clipped to the slots still
      // inside `duration` so the run stops exactly where the slot path
      // stops (the clipped remainder of the gap carries over to the
      // next run() call via the decremented BCs).
      const std::int64_t slots_left =
          ((end - now_).ns() + slot_.ns() - 1) / slot_.ns();
      advance_idle(std::min(min_bc, slots_left));
    } else {
      attempt();
    }
  }
  results_.elapsed = now_;
  return results_;
}

SlotSimResults EventKernel::run_events(std::int64_t max_events) {
  PROF_SCOPE("event_kernel.run_events");
  util::check_arg(max_events > 0, "max_events", "must be positive");
  std::int64_t remaining = max_events;
  while (remaining > 0) {
    const std::int64_t min_bc = min_backoff();
    if (min_bc > 0) {
      const std::int64_t slots = std::min(min_bc, remaining);
      advance_idle(slots);
      remaining -= slots;
    } else {
      attempt();
      --remaining;
    }
  }
  results_.elapsed = now_;
  return results_;
}

void EventKernel::check_station(int station) const {
  util::check_arg(station >= 0 && station < station_count(), "station",
                  "out of range");
}

int EventKernel::backoff_counter(int station) const {
  check_station(station);
  return lanes_.bc[static_cast<std::size_t>(station)];
}

int EventKernel::deferral_counter(int station) const {
  check_station(station);
  return mac_->deferral_counter(lanes_, static_cast<std::size_t>(station));
}

int EventKernel::backoff_procedure_counter(int station) const {
  check_station(station);
  return lanes_.bpc[static_cast<std::size_t>(station)];
}

int EventKernel::stage(int station) const {
  check_station(station);
  return mac_->stage(lanes_, static_cast<std::size_t>(station));
}

}  // namespace plc::sim
