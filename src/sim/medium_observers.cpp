#include "sim/medium_observers.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace plc::sim {

void MediumObservers::bind_metrics(obs::Registry& registry, int stations) {
  Metrics metrics;
  static constexpr const char* kTypes[3] = {"idle", "success", "collision"};
  for (int t = 0; t < 3; ++t) {
    metrics.events[t] =
        &registry.counter("slot_sim.events", {{"type", kTypes[t]}});
    metrics.airtime_ns[t] =
        &registry.counter("slot_sim.airtime_ns", {{"type", kTypes[t]}});
  }
  for (int i = 0; i < stations; ++i) {
    metrics.station_success.push_back(&registry.counter(
        "slot_sim.tx",
        {{"station", std::to_string(i)}, {"outcome", "success"}}));
    metrics.station_collision.push_back(&registry.counter(
        "slot_sim.tx",
        {{"station", std::to_string(i)}, {"outcome", "collision"}}));
  }
  metrics_ = std::move(metrics);
}

void MediumObservers::attach_observatory(obs::Observatory* observatory,
                                         const std::vector<int>& stages) {
  if (observatory != nullptr) {
    util::check_arg(
        observatory->station_count() == static_cast<int>(stages.size()),
        "observatory", "station count mismatch");
    const int widest =
        std::max(1, *std::max_element(stages.begin(), stages.end()));
    util::check_arg(observatory->stage_count() >= widest, "observatory",
                    "too few stages allocated");
  }
  observatory_ = observatory;
  tallies_.assign(observatory != nullptr ? stages.size() : 0, {});
  for (std::size_t i = 0; i < tallies_.size(); ++i) {
    tallies_[i].resize(static_cast<std::size_t>(stages[i]));
  }
}

void MediumObservers::flush_observatory() {
  if (observatory_ == nullptr) return;
  for (std::size_t i = 0; i < tallies_.size(); ++i) {
    mac::BackoffTally& tally = tallies_[i];
    observatory_->ingest_tally(static_cast<int>(i), tally.idle.data(),
                               tally.defers.data(), tally.jumps.data(),
                               tally.tx_success.data(),
                               tally.tx_collision.data(), tally.stages());
    tally.resize(tally.stages());  // Zeroed: a second flush adds nothing.
  }
}

void MediumObservers::record_spans(SlotEventType type, des::SimTime start,
                                   des::SimTime duration,
                                   const std::vector<int>& transmitters) {
  obs::TraceEvent span;
  span.start = start;
  span.duration = duration;
  switch (type) {
    case SlotEventType::kIdle:
      span.name = "idle";
      span.track = obs::kMediumTrack;
      trace_->record(span);
      break;
    case SlotEventType::kSuccess:
      span.name = "success";
      span.track = obs::station_track(transmitters.front());
      trace_->record(span);
      break;
    case SlotEventType::kCollision:
      span.name = "collision";
      for (const int station : transmitters) {
        span.track = obs::station_track(station);
        trace_->record(span);
      }
      break;
  }
}

void MediumObservers::record_counters(int station, des::SimTime start,
                                      const obs::StationState& state) {
  // BC/DC/BPC trajectories: one counter sample per station per event —
  // the §3/§4 trace-level statistics (backoff drift, stage occupancy).
  obs::TraceEvent sample;
  sample.phase = obs::TracePhase::kCounter;
  sample.track = obs::station_track(station);
  sample.name = "backoff";
  sample.start = start;
  sample.add_arg("bc", state.bc);
  sample.add_arg("dc", state.dc);
  sample.add_arg("bpc", state.bpc);
  trace_->record(sample);
}

}  // namespace plc::sim
