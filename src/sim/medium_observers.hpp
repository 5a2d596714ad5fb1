// What a medium event means to its observers, written once for both
// contention kernels: the slot_sim.* metrics, the trace spans and
// BC/DC/BPC counter samples, the observatory's per-event calls and
// trajectory snapshots, and the end-of-run fold of the stations' stage
// tallies. SlotSimulator and EventKernel call it for every medium event,
// after the event's transitions, so they cannot disagree on a byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "des/time.hpp"
#include "mac/backoff.hpp"
#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "obs/trace.hpp"

namespace plc::sim {

/// The kind of a medium event.
enum class SlotEventType : std::uint8_t {
  kIdle = 0,
  kSuccess = 1,
  kCollision = 2,
};

/// The observers attached to one kernel. Unbound and detached, each
/// per-event call is one predictable branch.
class MediumObservers {
 public:
  /// Registers slot_sim.events and slot_sim.airtime_ns per event type,
  /// then slot_sim.tx per (station, outcome).
  void bind_metrics(obs::Registry& registry, int stations);

  /// nullptr detaches. See SlotSimulator::set_trace.
  void set_trace(obs::TraceSink* sink, bool counter_samples) {
    trace_ = sink;
    counter_samples_ = counter_samples;
  }

  /// nullptr detaches. Station i gets a zeroed tally of `stages[i]` rows.
  void attach_observatory(obs::Observatory* observatory,
                          const std::vector<int>& stages);
  /// Folds the tallies into the observatory and zeroes them.
  void flush_observatory();

  bool engaged() const { return trace_ != nullptr || observatory_ != nullptr; }
  bool tallying() const { return observatory_ != nullptr; }
  mac::BackoffTally& tally(std::size_t station) { return tallies_[station]; }

  /// Counts `events` back-to-back events of `type`, each `duration` long.
  /// A busy event comes alone, with its transmitters in ascending order.
  void count(SlotEventType type, des::SimTime duration,
             const std::vector<int>& transmitters, std::int64_t events = 1) {
    if (!metrics_) return;
    const auto t = static_cast<std::size_t>(type);
    metrics_->events[t]->add(events);
    metrics_->airtime_ns[t]->add(events * duration.ns());
    if (type == SlotEventType::kSuccess) {
      metrics_->station_success[static_cast<std::size_t>(transmitters.front())]
          ->add();
    } else if (type == SlotEventType::kCollision) {
      for (const int station : transmitters) {
        metrics_->station_collision[static_cast<std::size_t>(station)]->add();
      }
    }
  }

  /// Feeds one event that started at `start` to the trace and the
  /// observatory; `state_of(i)` is station i's post-event state.
  template <class StateOf>
  void on_event(SlotEventType type, des::SimTime start, des::SimTime duration,
                const std::vector<int>& transmitters, int stations,
                const StateOf& state_of) {
    if (trace_ != nullptr) {
      record_spans(type, start, duration, transmitters);
      if (counter_samples_) {
        for (int i = 0; i < stations; ++i) {
          record_counters(i, start, state_of(i));
        }
      }
    }
    if (observatory_ == nullptr) return;
    switch (type) {
      case SlotEventType::kIdle:
        observatory_->on_idle();
        break;
      case SlotEventType::kSuccess:
        observatory_->on_success(transmitters.front(), start.ns());
        break;
      case SlotEventType::kCollision:
        observatory_->on_collision(static_cast<int>(transmitters.size()));
        break;
    }
    if (observatory_->sample_due()) {
      // Post-event FSM snapshot of every station, stride-downsampled.
      observatory_->begin_sample(start.ns());
      for (int i = 0; i < stations; ++i) {
        const obs::StationState s = state_of(i);
        observatory_->record_state(s.bc, s.dc, s.bpc, s.stage);
      }
    }
    observatory_->advance_event();
  }

 private:
  /// Pre-resolved registry instruments (indexing by SlotEventType).
  struct Metrics {
    obs::Counter* events[3] = {nullptr, nullptr, nullptr};
    obs::Counter* airtime_ns[3] = {nullptr, nullptr, nullptr};
    std::vector<obs::Counter*> station_success;
    std::vector<obs::Counter*> station_collision;
  };

  void record_spans(SlotEventType type, des::SimTime start,
                    des::SimTime duration, const std::vector<int>& transmitters);
  void record_counters(int station, des::SimTime start,
                       const obs::StationState& state);

  std::optional<Metrics> metrics_;
  obs::TraceSink* trace_ = nullptr;
  bool counter_samples_ = false;
  obs::Observatory* observatory_ = nullptr;
  std::vector<mac::BackoffTally> tallies_;
};

}  // namespace plc::sim
