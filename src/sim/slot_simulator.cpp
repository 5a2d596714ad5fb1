#include "sim/slot_simulator.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "dcf/dcf.hpp"
#include "obs/profiler.hpp"
#include "util/error.hpp"

namespace plc::sim {

double SlotSimResults::collision_probability() const {
  const std::int64_t denominator = collided_tx + successes;
  if (denominator == 0) return 0.0;
  return static_cast<double>(collided_tx) /
         static_cast<double>(denominator);
}

double SlotSimResults::normalized_throughput(des::SimTime frame_length) const {
  if (elapsed == des::SimTime::zero()) return 0.0;
  return static_cast<double>(successes) *
         static_cast<double>(frame_length.ns()) /
         static_cast<double>(elapsed.ns());
}

SlotSimulator::SlotSimulator(
    std::vector<std::unique_ptr<mac::BackoffEntity>> entities,
    const phy::TimingConfig& timing, des::SimTime frame_length)
    : entities_(std::move(entities)),
      slot_(timing.slot),
      ts_(timing.success_duration(frame_length)),
      tc_(timing.collision_duration(frame_length)) {
  util::check_arg(!entities_.empty(), "entities",
                  "need at least one station");
  for (const auto& entity : entities_) {
    util::check_arg(entity != nullptr, "entities", "must not contain null");
  }
  util::check_arg(slot_ > des::SimTime::zero(), "timing",
                  "slot must be positive");
  util::check_arg(frame_length > des::SimTime::zero(), "frame_length",
                  "must be positive");
  results_.tx_success.assign(entities_.size(), 0);
  results_.tx_collision.assign(entities_.size(), 0);
}

void SlotSimulator::set_observer(
    std::function<void(const SlotEvent&)> observer) {
  observer_ = std::move(observer);
}

void SlotSimulator::bind_metrics(obs::Registry& registry) {
  observers_.bind_metrics(registry, station_count());
}

void SlotSimulator::set_trace(obs::TraceSink* sink, bool counter_samples) {
  observers_.set_trace(sink, counter_samples);
}

int SlotSimulator::max_stage_count() const {
  int stages = 1;
  for (const auto& entity : entities_) {
    stages = std::max(stages, entity->stage_count());
  }
  return stages;
}

void SlotSimulator::attach_observatory(obs::Observatory* observatory) {
  std::vector<int> stages;
  stages.reserve(entities_.size());
  for (const auto& entity : entities_) stages.push_back(entity->stage_count());
  observers_.attach_observatory(observatory, stages);
  // The entities tally themselves: the event kernel's reference.
  for (std::size_t i = 0; i < entities_.size(); ++i) {
    entities_[i]->bind_tally(observatory != nullptr ? &observers_.tally(i)
                                                    : nullptr);
  }
}

void SlotSimulator::flush_observatory() { observers_.flush_observatory(); }

const mac::BackoffEntity& SlotSimulator::entity(int station) const {
  util::check_arg(station >= 0 &&
                      station < static_cast<int>(entities_.size()),
                  "station", "out of range");
  return *entities_[static_cast<std::size_t>(station)];
}

SlotEventType SlotSimulator::step() {
  // Collect this event's transmitters: stations whose BC has expired.
  scratch_transmitters_.clear();
  for (int i = 0; i < static_cast<int>(entities_.size()); ++i) {
    if (entities_[static_cast<std::size_t>(i)]->ready_to_transmit()) {
      scratch_transmitters_.push_back(i);
    }
  }

  SlotEventType type;
  des::SimTime duration;
  if (scratch_transmitters_.empty()) {
    type = SlotEventType::kIdle;
    duration = slot_;
    ++results_.idle_slots;
    for (auto& entity : entities_) {
      entity->on_idle_slot();
    }
  } else if (scratch_transmitters_.size() == 1) {
    type = SlotEventType::kSuccess;
    duration = ts_;
    ++results_.successes;
    const int winner = scratch_transmitters_.front();
    ++results_.tx_success[static_cast<std::size_t>(winner)];
    if (record_winners_) winners_.push_back(winner);
    for (int i = 0; i < static_cast<int>(entities_.size()); ++i) {
      entities_[static_cast<std::size_t>(i)]->on_busy(i == winner, true);
    }
  } else {
    type = SlotEventType::kCollision;
    duration = tc_;
    ++results_.collision_events;
    results_.collided_tx +=
        static_cast<std::int64_t>(scratch_transmitters_.size());
    std::size_t tx_index = 0;
    for (int i = 0; i < static_cast<int>(entities_.size()); ++i) {
      const bool transmitted =
          tx_index < scratch_transmitters_.size() &&
          scratch_transmitters_[tx_index] == i;
      if (transmitted) {
        ++tx_index;
        ++results_.tx_collision[static_cast<std::size_t>(i)];
      }
      entities_[static_cast<std::size_t>(i)]->on_busy(transmitted, false);
    }
  }

  observers_.count(type, duration, scratch_transmitters_);
  if (observer_) {
    SlotEvent event;
    event.type = type;
    event.start = now_;
    event.duration = duration;
    event.transmitters = scratch_transmitters_;
    observer_(event);
  }
  if (observers_.engaged()) {
    observers_.on_event(
        type, now_, duration, scratch_transmitters_, station_count(),
        [this](int i) {
          const mac::BackoffEntity& entity =
              *entities_[static_cast<std::size_t>(i)];
          return obs::StationState{entity.backoff_counter(),
                                   entity.deferral_counter(),
                                   entity.backoff_procedure_counter(),
                                   entity.stage()};
        });
  }
  now_ += duration;
  return type;
}

SlotSimResults SlotSimulator::run(des::SimTime duration) {
  PROF_SCOPE("slot_sim.run");
  util::check_arg(duration > des::SimTime::zero(), "duration",
                  "must be positive");
  const des::SimTime end = now_ + duration;
  while (now_ < end) {
    step();
  }
  results_.elapsed = now_;
  return results_;
}

SlotSimResults SlotSimulator::run_events(std::int64_t max_events) {
  PROF_SCOPE("slot_sim.run_events");
  util::check_arg(max_events > 0, "max_events", "must be positive");
  for (std::int64_t i = 0; i < max_events; ++i) {
    step();
  }
  results_.elapsed = now_;
  return results_;
}

std::vector<std::unique_ptr<mac::BackoffEntity>> make_1901_entities(
    int n, const mac::BackoffConfig& config, std::uint64_t seed) {
  util::check_arg(n >= 1, "n", "need at least one station");
  des::RandomStream root(seed);
  std::vector<std::unique_ptr<mac::BackoffEntity>> entities;
  entities.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    entities.push_back(std::make_unique<mac::Backoff1901>(
        config,
        des::RandomStream(root.derive_seed("station-" + std::to_string(i)))));
  }
  return entities;
}

std::vector<std::unique_ptr<mac::BackoffEntity>> make_dcf_entities(
    int n, int cw_min, int cw_max, std::uint64_t seed) {
  util::check_arg(n >= 1, "n", "need at least one station");
  des::RandomStream root(seed);
  std::vector<std::unique_ptr<mac::BackoffEntity>> entities;
  entities.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    entities.push_back(std::make_unique<mac::BackoffDcf>(
        cw_min, cw_max,
        des::RandomStream(root.derive_seed("station-" + std::to_string(i)))));
  }
  return entities;
}

std::vector<std::unique_ptr<mac::BackoffEntity>> make_dcf_entities(
    int n, const dcf::DcfConfig& config, std::uint64_t seed) {
  return make_dcf_entities(n, config.cw_min, config.cw_max, seed);
}

}  // namespace plc::sim
